"""End-to-end tests of the command-line interface (exit codes, JSON output)."""

import csv
import json
import re

import pytest

from antkinetics.cli import _parse_chi_grid, _parse_sigma_sweep, main
from antkinetics.params import inviscid_threshold_chi, model_params_from_mapping

CONFIG_TEXT = """\
# small grid for fast end-to-end checks
sigma_x = 0.002
sigma_theta = 0.25
sigma_c = 0.05
gamma = 1.0
lambda = 1.0
chi = 4.0
tau = 0.0
coupling = elliptic
n_x1 = 16
n_x2 = 16
n_theta = 16
dt = 2e-3
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "antkinetics" in capsys.readouterr().out

    def test_missing_required_flag_is_a_usage_error(self, config, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--config", config, "dispersion"])
        assert info.value.code == 2

    def test_sigma_sweep_grammar(self):
        assert list(_parse_sigma_sweep("0.5")) == [0.5]
        assert list(_parse_sigma_sweep("0:1:3")) == [0.0, 0.5, 1.0]
        with pytest.raises(ValueError, match="a:b:n"):
            _parse_sigma_sweep("0:1")
        with pytest.raises(ValueError, match="at least one"):
            _parse_sigma_sweep("0:1:0")

    def test_chi_grid_grammar(self):
        assert _parse_chi_grid("1.0, 2.5,4") == [1.0, 2.5, 4.0]


class TestErrors:
    def test_missing_config_flag(self, capsys):
        code, _, err = run_cli(["dispersion", "--k", "1"], capsys)
        assert code == 1
        assert "error:" in err and "--config" in err

    def test_unreadable_config_file(self, capsys):
        code, _, err = run_cli(
            ["dispersion", "--k", "1", "--config", "/nonexistent.cfg"], capsys
        )
        assert code == 1
        assert "error:" in err

    def test_bad_flag_value(self, config, capsys):
        code, _, err = run_cli(
            ["eigen", "--k", "1", "--sigma-sweep", "0:1", "--config", config], capsys
        )
        assert code == 1
        assert "a:b:n" in err

    @pytest.mark.parametrize("sweep, named", [("-0.5:0:2", "-0.5"), ("nan", "nan")])
    def test_sigma_sweep_value_must_be_finite_and_nonnegative(
        self, config, capsys, sweep, named
    ):
        code, out, err = run_cli(
            ["eigen", "--k", "1", f"--sigma-sweep={sweep}", "--n-modes", "8", "--config", config],
            capsys,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: sigma must be a finite nonnegative real")
        assert f"got {named}" in err

    def test_scan_needs_a_wavenumber(self, config, tmp_path, capsys):
        out_dir = tmp_path / "scan"
        code, out, err = run_cli(
            ["scan", "--k-max", "0", "--config", config, "--out", str(out_dir)], capsys
        )
        assert code == 1 and out == ""
        assert "k_max must be >= 1, got 0" in err
        assert not out_dir.exists()

    def test_scan_needs_the_deposit_modes(self, config, tmp_path, capsys):
        out_dir = tmp_path / "scan"
        code, out, err = run_cli(
            [
                "scan", "--k-max", "2", "--n-modes", "2", "--config", config,
                "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 1 and out == ""
        assert "n_modes must be >= 4 to hold the deposit modes, got 2" in err
        assert not out_dir.exists()


class TestDispersion:
    def test_flags_work_on_both_sides_of_the_subcommand(self, config, capsys):
        code, before, _ = run_cli(["--config", config, "dispersion", "--k", "1"], capsys)
        assert code == 0
        code, after, _ = run_cli(["dispersion", "--k", "1", "--config", config], capsys)
        assert code == 0
        assert before == after
        report = json.loads(before)
        assert report["k"] == 1
        assert report["root_exists"] and report["mu0"] > 0.0


class TestEigen:
    def test_sweep_rows(self, config, capsys):
        code, out, _ = run_cli(
            [
                "eigen", "--k", "1", "--sigma-sweep", "0.1:0.5:3",
                "--n-modes", "24", "--config", config,
            ],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        sigmas = [row["sigma"] for row in result["rows"]]
        assert sigmas == pytest.approx([0.1, 0.3, 0.5])
        assert all("rightmost_re" in row for row in result["rows"])


class TestScan:
    def test_scan_writes_tables_and_exits_zero(self, config, tmp_path, capsys):
        out_dir = tmp_path / "scan"
        code, out, _ = run_cli(
            [
                "scan", "--k-max", "3", "--n-modes", "24",
                "--config", config, "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["ok"]
        assert (out_dir / "scan.csv").exists()
        assert (out_dir / "manifest.txt").exists()


class TestGrowthMatch:
    def test_unstable_family_matches_and_serializes(self, config, tmp_path, capsys):
        # the unstable branch once leaked a numpy bool into the JSON report
        out_dir = tmp_path / "gm"
        code, out, _ = run_cli(
            [
                "growth-match", "--k", "1", "--n-modes", "32",
                "--config", config, "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert result["unstable"] is True
        assert result["ok"] is True
        assert (out_dir / "growth_match.csv").exists()
        assert (out_dir / "growth_match.json").exists()


class TestStabilitySweep:
    def test_threshold_violation_exits_two(self, config, capsys):
        # a grid whose sign-change midpoint lies above the predicted
        # threshold must be reported as a failed check
        params = model_params_from_mapping(
            {
                "sigma_x": "0.002", "sigma_theta": "0.25", "sigma_c": "0.05",
                "gamma": "1.0", "lambda": "1.0", "chi": "4.0", "tau": "0.0",
                "coupling": "elliptic",
            }
        )
        chi_star = inviscid_threshold_chi(params, 1)
        grid_arg = f"{0.8 * chi_star},{1.6 * chi_star}"
        code, out, _ = run_cli(
            [
                "stability-sweep", "--chi-grid", grid_arg, "--t-end", "6.0",
                "--k-max", "2", "--config", config, "--rng-seed", "2",
            ],
            capsys,
        )
        assert code == 2
        result = json.loads(out)
        assert result["empirical_threshold"] > result["inviscid_threshold_chi"]
        assert not result["threshold_ok"]


class TestSimulate:
    def test_smoke_run_then_resume(self, config, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            [
                "simulate", "--t-end", "0.02", "--stride", "5",
                "--config", config, "--out", str(out_dir), "--rng-seed", "6",
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["records"] == 3  # t = 0, 0.01, 0.02
        assert abs(summary["mass"] - 1.0) < 1e-12
        assert (out_dir / "observables.ndjson").exists()
        assert (out_dir / "checkpoint").is_dir()

        code, out, _ = run_cli(
            [
                "simulate", "--t-end", "0.04", "--stride", "5",
                "--resume", str(out_dir / "checkpoint"), "--config", config,
            ],
            capsys,
        )
        assert code == 0
        resumed = json.loads(out)
        assert abs(resumed["t"] - 0.04) < 1e-15

    def test_resume_under_another_grid_is_refused(self, config, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            ["simulate", "--t-end", "0.004", "--config", config, "--out", str(out_dir)], capsys
        )
        assert code == 0
        finer = tmp_path / "finer.cfg"
        finer.write_text(CONFIG_TEXT.replace("= 16", "= 32").replace("chi = 4.0", "chi = 9.0"))
        code, _, err = run_cli(
            [
                "simulate", "--t-end", "0.008", "--resume", str(out_dir / "checkpoint"),
                "--config", str(finer), "--out", str(tmp_path / "resumed"),
            ],
            capsys,
        )
        assert code == 1
        assert "(16, 16, 16)" in err and "(32, 32, 32)" in err
        assert not (tmp_path / "resumed" / "checkpoint").exists()

    def test_resume_under_another_model_is_refused(self, config, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            ["simulate", "--t-end", "0.004", "--config", config, "--out", str(out_dir)], capsys
        )
        assert code == 0
        stored = config_hash_of(out_dir / "manifest.txt")
        stronger = tmp_path / "stronger.cfg"
        stronger.write_text(CONFIG_TEXT.replace("chi = 4.0", "chi = 9.0"))
        code, _, err = run_cli(
            [
                "simulate", "--t-end", "0.008", "--resume", str(out_dir / "checkpoint"),
                "--config", str(stronger), "--out", str(tmp_path / "resumed"),
            ],
            capsys,
        )
        assert code == 1
        hashes = re.findall(r"\b[0-9a-f]{64}\b", err)
        assert len(hashes) == 2 and hashes[0] == stored and hashes[1] != stored
        assert not (tmp_path / "resumed").exists()

    def test_equal_values_hash_alike(self, config, tmp_path, capsys):
        """chi = 4 and chi = 4.0 are one model, and the seed is not hashed."""
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            ["simulate", "--t-end", "0.004", "--config", config, "--out", str(out_dir)], capsys
        )
        assert code == 0
        integer = tmp_path / "integer.cfg"
        integer.write_text(CONFIG_TEXT.replace("chi = 4.0", "chi = 4"))
        code, _, _ = run_cli(
            [
                "simulate", "--t-end", "0.008", "--resume", str(out_dir / "checkpoint"),
                "--config", str(integer), "--out", str(tmp_path / "resumed"), "--rng-seed", "9",
            ],
            capsys,
        )
        assert code == 0
        resumed = config_hash_of(tmp_path / "resumed" / "manifest.txt")
        assert resumed == config_hash_of(out_dir / "manifest.txt")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_summary_and_flags_are_written(self, tmp_path, capsys):
        """``simulate.json`` holds the printed summary, flags included."""
        unstable = tmp_path / "unstable.cfg"
        unstable.write_text(CONFIG_TEXT.replace("chi = 4.0", "chi = 400"))
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            [
                "simulate", "--t-end", "0.2", "--dt", "0.2", "--stride", "1",
                "--config", str(unstable), "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        written = json.loads((out_dir / "simulate.json").read_text())
        assert written == json.loads(out)
        assert written["n_steps"] == 1 and written["positivity_flagged"] is True

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_keeps_the_samples(self, tmp_path, capsys):
        """A failed run writes its samples up to the first non-finite one."""
        unstable = tmp_path / "unstable.cfg"
        unstable.write_text(CONFIG_TEXT.replace("chi = 4.0", "chi = 400"))
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            [
                "simulate", "--t-end", "2.0", "--dt", "0.2", "--stride", "1",
                "--config", str(unstable), "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 1 and "non-finite" in err
        lines = (out_dir / "observables.ndjson").read_text().splitlines()
        assert [json.loads(line)["t"] for line in lines] == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8])
        assert len((out_dir / "observables.csv").read_text().splitlines()) == 1 + len(lines)
        assert config_hash_of(out_dir / "manifest.txt")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_last_sample_keeps_the_samples(self, tmp_path, capsys):
        """A run that ends on a non-finite sample writes the same records before it
        to both files and names that sample's time."""
        unstable = tmp_path / "unstable.cfg"
        unstable.write_text(CONFIG_TEXT.replace("chi = 4.0", "chi = 400"))
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            [
                "simulate", "--t-end", "1.0", "--dt", "0.2", "--stride", "1",
                "--config", str(unstable), "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 1 and "non-finite" in err and "t = 1.0" in err
        ndjson = [
            json.loads(line) for line in (out_dir / "observables.ndjson").read_text().splitlines()
        ]
        with open(out_dir / "observables.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [record["t"] for record in ndjson] == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8])
        assert len(rows) == len(ndjson)
        for record, row in zip(ndjson, rows):
            assert float(row["t"]) == record["t"]
            assert float(row["l2_f_dev"]) == record["l2_f_dev"]
            assert float(row["lp_rho_6"]) == record["lp_rho"]["6"]

    def test_resume_at_the_checkpoint_time_is_refused(self, config, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            ["simulate", "--t-end", "0.004", "--config", config, "--out", str(out_dir)], capsys
        )
        assert code == 0
        code, _, err = run_cli(
            [
                "simulate", "--t-end", "0.004", "--resume", str(out_dir / "checkpoint"),
                "--config", config, "--out", str(tmp_path / "resumed"),
            ],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:") and err.count("0.004") == 2
        assert not (tmp_path / "resumed").exists()


def config_hash_of(manifest):
    match = re.search(r"^config_hash = (\w+)$", manifest.read_text(), re.MULTILINE)
    return match.group(1)
