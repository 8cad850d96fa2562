"""End-to-end tests of the command-line interface (exit codes, JSON output)."""

import argparse
import csv
import json
import re
import struct

import numpy as np
import pytest

from antkinetics import cli, dynamics
from antkinetics.cli import _parse_chi_grid, _parse_sigma_sweep, build_parser, main
from antkinetics.dynamics import homogeneous_state, write_checkpoint
from antkinetics.experiments import MODEL_KEYS, ExperimentKind, build_config, run_simulate
from antkinetics.params import inviscid_threshold_chi, parse_config_text
from antkinetics.spectral import SpectralGrid

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

EVERY_COMMAND = [
    "simulate --t-end 0.004 --init homogeneous",
    "dispersion --k 1",
    "eigen --k 1 --sigma-sweep 0.1 --n-modes 8",
    "scan --k-max 1 --n-modes 8",
    "growth-match --k 1 --n-modes 8",
    "stability-sweep --t-end 0.004",
]


HUGE_MATRIX = ("Unable to allocate 568. PiB for an array with shape (200000001, 200000001) "
               "and data type complex128")
HUGE_GRID = "n_x1=1000000 n_x2=1000000 n_theta=1000000"
HUGE_STATE = ("Unable to allocate 6.94 EiB for an array with shape (1000000, 500001, 1000000) "
              "and data type complex128")
HUGE_K = "1" * 400  # no float holds it
HUGE_K_REFUSED = "k must be a positive integer that a float can hold, got one of 400 digits"


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def config_with(tmp_path, values):
    """A config file holding CONFIG_TEXT with the given keys' values replaced."""
    text = CONFIG_TEXT
    for key, value in values.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
    path = tmp_path / "model.cfg"
    path.write_text(text)
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

    def test_every_subcommand_has_a_handler_and_a_kind(self):
        (sub,) = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        assert len(sub.choices) == 6
        for name, parser in sub.choices.items():
            assert callable(parser.get_default("handler")), name
            assert isinstance(parser.get_default("kind"), ExperimentKind), name


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

    def test_malformed_config_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "model.cfg"
        path.write_text(CONFIG_TEXT.replace("chi = 4.0", "chi 4.0"))
        code, out, err = run_cli(["dispersion", "--k", "1", "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: config line 7: expected 'key = value'")

    @pytest.mark.parametrize(
        "line",
        # the removed dealias, cfl_safety, positivity_tol, amplitude and
        # max_mode keys, at values that were once accepted, are unknown like
        # any misspelt key
        ["ntheta = 16", "d_t = 0.002", "dealias = true", "dealias = off",
         "cfl_safety = 0.5", "positivity_tol = 1e-8", "positivity_tol = 0",
         "amplitude = 0.1", "max_mode = 4"],
    )
    @pytest.mark.parametrize("command", EVERY_COMMAND)
    def test_unknown_config_key_is_refused(self, tmp_path, capsys, line, command):
        path = tmp_path / "model.cfg"
        path.write_text(CONFIG_TEXT + line + "\n")
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            command.split() + ["--config", str(path), "--out", str(out_dir)], capsys
        )
        key = line.split(" =")[0]
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: unknown config key '{key}'")
        assert not out_dir.exists()

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

    @pytest.mark.parametrize(
        "command, message",
        [
            ("simulate --t-end inf", "t_end must be finite, got inf"),
            ("simulate --t-end nan", "t_end must be finite, got nan"),
            ("growth-match --k 1 --t-end inf", "t_end must be finite, got inf"),
            ("growth-match --k 1 --t-end nan", "t_end must be finite, got nan"),
            ("stability-sweep --t-end inf", "t_end must be finite, got inf"),
            ("stability-sweep --t-end nan", "t_end must be finite, got nan"),
            ("simulate --t-end 1e308",
             "t_end = 1e+308 and dt = 0.002 give a step count that is not finite"),
            ("stability-sweep --t-end 1e308 --chi-grid 1",
             "t_end = 1e+308 and dt = 0.002 give a step count that is not finite"),
            ("growth-match --k 1 --t-end 1e308",
             "t_end = 1e+308 and dt = 0.002 give a step count that is not finite"),
            ("stability-sweep --t-end 0.004 --chi-grid 4,abc",
             "--chi-grid: 'abc' is not a number"),
            ("eigen --k 1 --sigma-sweep abc", "--sigma-sweep: 'abc' is not a number"),
            ("eigen --k 1 --sigma-sweep 0:abc:3", "--sigma-sweep: 'abc' is not a number"),
            ("growth-match --k 1 --amplitude=-1",
             "amplitude must be finite and positive, got -1.0"),
            ("growth-match --k 1 --amplitude 0",
             "amplitude must be finite and positive, got 0.0"),
            ("growth-match --k 1 --amplitude nan",
             "amplitude must be finite and positive, got nan"),
            ("stability-sweep --chi-grid ,", "the chi grid must hold at least one chi, got []"),
            ("stability-sweep --t-end 0.004 --k-max 9",
             "k_max = 9 exceeds 8, the largest wavenumber the 16x16 spatial grid holds"),
            ("simulate --t-end 0.004 --init bump:nan", "l6_target must be >= 1, got nan"),
            ("growth-match --k 1 --t-end=-1", "t_end must be positive, got -1.0"),
            ("growth-match --k 1 --t-end 0", "t_end must be positive, got 0.0"),
            ("eigen --k 1 --sigma-sweep 0:inf:3",
             "sigma must be a finite nonnegative real, got inf"),
            ("eigen --k 1 --sigma-sweep 0:0.01:2.5",
             "sweep '0:0.01:2.5': the point count must be an integer, got '2.5'"),
            ("simulate --t-end 0.004 --threads 0", "threads must be >= 1, got 0"),
            ("scan --k-max 1 --threads=-3", "threads must be >= 1, got -3"),
            ("simulate --t-end 0.004 --stride 0", "stride must be >= 1, got 0"),
            ("stability-sweep --t-end 0.004 --stride=-2", "stride must be >= 1, got -2"),
            ("simulate --t-end 0.004 --init bump:abc",
             "initial condition 'bump:abc': the l6 norm must be a number"),
            ("simulate --t-end 0.004 --init bump:",
             "initial condition 'bump:': the l6 norm must be a number"),
            # every bias deposit carries chi_breve, so at chi = 0 the seed vanishes
            ("chi=0 growth-match --k 1 --t-end 0.05 --n-modes 32",
             "the seed at k = 1 has L2 norm 0.0 at chi_breve = 0.0; no mode can be seeded"),
            ("chi=0 coupling=parabolic growth-match --k 1 --t-end 0.05 --n-modes 32",
             "the seed at k = 1 has L2 norm 0.0 at chi_breve = 0.0; no mode can be seeded"),
            # each request is far above any address space, so it fails before allocating
            ("eigen --k 1 --sigma-sweep 0.1 --n-modes 100000000", HUGE_MATRIX),
            ("growth-match --k 1 --n-modes 100000000", HUGE_MATRIX),
            (f"{HUGE_GRID} simulate --t-end 0.004", HUGE_STATE),
            (f"{HUGE_GRID} stability-sweep --t-end 0.004", HUGE_STATE),
            *(pytest.param(f"{command} --k {HUGE_K}", HUGE_K_REFUSED,
                           id=f"{command} --k <400 digits>")
              for command in ("dispersion", "eigen --sigma-sweep 0.1", "growth-match")),
        ],
    )
    def test_bad_value_is_refused_naming_it(self, tmp_path, capsys, command, message):
        # leading ``key=value`` words set config keys
        words = command.split()
        edits = [word for word in words if "=" in word and not word.startswith("-")]
        config = config_with(tmp_path, dict(edit.split("=") for edit in edits))
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            words[len(edits):] + ["--config", config, "--out", str(out_dir)], capsys
        )
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed = -1", "seed must be >= 0, got -1"),
            ("seed = abc", "config key 'seed': cannot parse 'abc'"),
            # a model value parses in the same place, and is refused in the same words
            ("chi = abc", "config key 'chi': cannot parse 'abc'"),
            ("lambda =", "config key 'lambda': cannot parse ''"),
            # with no --threads flag the key's own value is checked
            ("threads = 0", "threads must be >= 1, got 0"),
        ],
    )
    @pytest.mark.parametrize("command", EVERY_COMMAND)
    def test_bad_config_value_is_refused_by_every_command(
        self, tmp_path, capsys, line, message, command
    ):
        path = tmp_path / "model.cfg"
        path.write_text(CONFIG_TEXT + line + "\n")
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            command.split() + ["--config", str(path), "--out", str(out_dir)], capsys
        )
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_a_memory_error_without_a_message_is_named(self, config, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "dispersion_report", exhausted)
        code, out, err = run_cli(["dispersion", "--k", "1", "--config", config], capsys)
        assert (code, out, err) == (1, "", "error: MemoryError\n")

    @pytest.mark.parametrize("command", [
        "simulate --t-end 0.01",
        "growth-match --k 1 --t-end 0.01 --n-modes 8",
        "stability-sweep --t-end 0.01",
    ])
    def test_step_count_above_the_ceiling_is_refused_before_stepping(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """dt = 1e-300 asks for 1e298 steps: refused before the first one is taken."""
        def no_step(self, state):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(dynamics.Stepper, "step", no_step)
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            command.split() + ["--config", config_with(tmp_path, {"dt": "1e-300"}),
                               "--out", str(out_dir)],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == ("error: t_end = 0.01 and dt = 1e-300 give 1e+298 steps, "
                       "more than the 1000000000 a run may take\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", EVERY_COMMAND)
    def test_removed_seed_flag_is_a_usage_error(self, config, tmp_path, capsys, command):
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit) as info:
            main(command.split() + ["--config", config, "--out", str(out_dir),
                                    "--rng-seed", "11"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --rng-seed 11" in err
        assert not out_dir.exists()

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


# every model value below, on both couplings, through every command on an 8^3 grid
EXTREME_VALUES = ("0", "1e-300", "1e300", "5e-324", "1.7e308", "nan", "-0.0")
SHORT_COMMANDS = [
    "simulate --t-end 0.004",
    "dispersion --k 1",
    "eigen --k 1 --sigma-sweep 0.1 --n-modes 8",
    "scan --k-max 1 --n-modes 8",
    "growth-match --k 1 --t-end 0.004 --n-modes 8",
    "stability-sweep --t-end 0.004 --k-max 1",
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", SHORT_COMMANDS)
@pytest.mark.parametrize("coupling", ["elliptic", "parabolic"])
@pytest.mark.parametrize("value", EXTREME_VALUES)
@pytest.mark.parametrize("key", [key for key in MODEL_KEYS if key != "coupling"])
def test_any_config_value_exits_with_a_code_not_a_traceback(
    tmp_path, capsys, key, value, coupling, command
):
    """Each case succeeds, fails its check, or exits 1 with one ``error:`` line;
    what it prints and every JSON file it writes is strict JSON."""
    config = config_with(tmp_path, {"n_x1": 8, "n_x2": 8, "n_theta": 8,
                                    "coupling": coupling, key: value})
    code, out, err = run_cli(command.split() + ["--config", config,
                                                "--out", str(tmp_path / "run")], capsys)
    assert code in (0, 2) or (code == 1 and err.startswith("error: ") and err.count("\n") == 1)
    for text in [out] * bool(out) + [path.read_text() for path in tmp_path.rglob("*.json")]:
        strict_json_load(text)


def strict_json_load(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command, values, key, value", [
    ("dispersion --k 1", {"sigma_c": "1.7e308"}, "condition_gap_4pi2", "-inf"),
    ("scan --k-max 1 --n-modes 8", {"lambda": "5e-324"}, "margin", "inf"),
])
def test_a_result_that_json_cannot_hold_exits_one_naming_the_key(
    tmp_path, capsys, command, values, key, value
):
    code, out, err = run_cli(command.split() + ["--config", config_with(tmp_path, values)],
                             capsys)
    assert code == 1 and out == ""
    assert err == f"error: {command.split()[0]}: '{key}' is {value}, which JSON cannot hold\n"


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


@pytest.mark.parametrize("coupling, tau", [("elliptic", "0.0"), ("parabolic", "0.5")])
def test_real_rightmost_eigenvalue_is_written_exactly_real(tmp_path, capsys, coupling, tau):
    """The real parity blocks give a real unstable root an imaginary part of 0.0."""
    path = tmp_path / "model.cfg"
    path.write_text(CONFIG_TEXT.replace("tau = 0.0", f"tau = {tau}")
                    .replace("coupling = elliptic", f"coupling = {coupling}"))
    common = ["--n-modes", "24", "--config", str(path), "--out", str(tmp_path / "out")]
    assert run_cli(["eigen", "--k", "1", "--sigma-sweep", "0:0.5:3"] + common, capsys)[0] == 0
    assert run_cli(["scan", "--k-max", "1"] + common, capsys)[0] == 0
    with open(tmp_path / "out" / "eigen.csv", newline="") as fh:
        eigen_rows = list(csv.DictReader(fh))
    with open(tmp_path / "out" / "scan.csv", newline="") as fh:
        (scan_row,) = csv.DictReader(fh)
    assert len(eigen_rows) == 3
    assert all(float(row["rightmost_re"]) > 0.0 for row in eigen_rows)
    assert [row["rightmost_im"] for row in eigen_rows] == ["0.0"] * 3
    assert float(scan_row["viscous_rightmost_re"]) > 0.0
    assert scan_row["viscous_rightmost_im"] == "0.0"


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


    def test_failed_check_exits_two(self, config, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_instability_scan",
                            lambda cfg, k_max, n_modes: {"rows": [], "ok": False})
        code, out, _ = run_cli(["scan", "--k-max", "1", "--config", config], capsys)
        assert code == 2 and json.loads(out) == {"rows": [], "ok": False}


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


    def test_failed_check_exits_two(self, config, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_growth_match", lambda cfg, k, **kw: {"ok": False})
        code, out, _ = run_cli(["growth-match", "--k", "1", "--config", config], capsys)
        assert code == 2 and json.loads(out) == {"ok": False}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_exits_one_with_the_steppers_message(self, tmp_path, capsys):
        out_dir = tmp_path / "gm"
        code, out, err = run_cli(
            ["growth-match", "--k", "1", "--n-modes", "8", "--out", str(out_dir),
             "--config", config_with(tmp_path, {"chi": "400", "dt": "0.2"})],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == ("error: non-finite values at t = 1.6, step 8: "
                       "update (overflow during the step)\n")
        assert not out_dir.exists()


class TestStabilitySweep:
    def test_threshold_violation_exits_two(self, tmp_path, capsys):
        # a grid whose sign-change midpoint lies above the predicted
        # threshold must be reported as a failed check
        params = build_config(parse_config_text(CONFIG_TEXT), ExperimentKind.SIMULATE).params
        chi_star = inviscid_threshold_chi(params, 1)
        grid_arg = f"{0.8 * chi_star},{1.6 * chi_star}"
        path = tmp_path / "model.cfg"
        path.write_text(CONFIG_TEXT + "seed = 2\n")
        code, out, _ = run_cli(
            [
                "stability-sweep", "--chi-grid", grid_arg, "--t-end", "6.0",
                "--k-max", "2", "--config", str(path),
            ],
            capsys,
        )
        assert code == 2
        result = json.loads(out)
        assert result["empirical_threshold"] > result["inviscid_threshold_chi"]
        assert not result["threshold_ok"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_sweep_without_a_fitted_member_fails_its_check(self, tmp_path, capsys):
        """Past the CFL bound one member blows up and the other fails its fit,
        so no rate is left to place a threshold by."""
        code, out, _ = run_cli(
            ["stability-sweep", "--t-end", "4", "--stride", "20", "--chi-grid", "0,400",
             "--config", config_with(tmp_path, {"tau": "0.5", "dt": "0.2"})],
            capsys,
        )
        assert code == 2
        result = json.loads(out)
        assert [row["rate"] for row in result["rows"]] == [None, None]
        assert result["empirical_threshold"] is None and result["threshold_ok"] is False


class TestSimulate:
    def test_smoke_run_then_resume(self, config, tmp_path, capsys):
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(CONFIG_TEXT + "seed = 6\n")
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            [
                "simulate", "--t-end", "0.02", "--stride", "5",
                "--config", str(seeded), "--out", str(out_dir),
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

    @pytest.mark.parametrize("init", ["homogeneous", "random"])
    def test_init_with_resume_is_refused(self, config, tmp_path, capsys, init):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            ["simulate", "--t-end", "0.004", "--config", config, "--out", str(out_dir)], capsys
        )
        assert code == 0
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--t-end", "0.008", "--init", init,
                  "--resume", str(out_dir / "checkpoint"), "--config", config,
                  "--out", str(tmp_path / "resumed")])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --resume: not allowed with argument --init" in err
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("every", ["0", "-2"])
    def test_checkpoint_every_below_one_is_refused(self, config, tmp_path, every, capsys):
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            [
                "simulate", "--t-end", "0.02", "--checkpoint-every", every,
                "--config", config, "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 1 and out == ""
        assert f"checkpoint_every must be >= 1, got {every}" in err
        assert not out_dir.exists()

    def test_checkpoint_every_needs_an_output_directory(self, config, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            ["simulate", "--t-end", "0.02", "--checkpoint-every", "5", "--config", config],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == "error: checkpoint_every needs an output directory (--out)\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.cfg"]

    def test_flags_win_over_their_config_keys(self, tmp_path, capsys, monkeypatch):
        """``--threads`` replaces its key, in the run and in the manifest;
        ``--dt`` and ``--rng-seed`` are usage errors, not overrides."""
        path = tmp_path / "model.cfg"
        path.write_text(CONFIG_TEXT + "seed = 7\nthreads = 3\n")
        seen = []

        def capture(cfg, **kwargs):
            seen.append(cfg)
            return run_simulate(cfg, **kwargs)

        monkeypatch.setattr(cli, "run_simulate", capture)
        out_dir = tmp_path / "run"
        argv = ["simulate", "--t-end", "0.004", "--config", str(path), "--out", str(out_dir)]
        for removed in (["--dt", "0.001"], ["--rng-seed", "11"]):
            with pytest.raises(SystemExit) as info:
                main(argv + removed)
            assert info.value.code == 2
        assert not out_dir.exists() and not seen
        code, out, _ = run_cli(argv + ["--threads", "2"], capsys)
        assert code == 0
        (cfg,) = seen
        assert (cfg.stepper.dt, cfg.seed, cfg.threads) == (0.002, 7, 2)
        assert json.loads(out)["n_steps"] == 2
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
        for line in ("rng_seed = 7", "dt = 2e-3", "seed = 7", "threads = 2"):
            assert line in manifest
        assert "threads = 3" not in manifest

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

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda ckpt: (ckpt / "f.field").write_bytes((ckpt / "c.field").read_bytes()),
             "f.field: holds 2-D coefficients, expected 3-D"),
            (lambda ckpt: (ckpt / "f.field").write_bytes(
                b"ANTK" + struct.pack("<5I", 1, 16, 16, 16, 1)
                + np.load(ckpt / "f.field").astype("<c16").tobytes()),
             "f.field: not a coefficient file"),
        ],
        ids=["2-d-f-field", "antk-layout"],
    )
    def test_resume_from_a_damaged_field_is_refused_naming_it(
        self, config, tmp_path, capsys, damage, message
    ):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            ["simulate", "--t-end", "0.004", "--config", config, "--out", str(out_dir)], capsys
        )
        assert code == 0
        damage(out_dir / "checkpoint")
        code, out, err = run_cli(
            [
                "simulate", "--t-end", "0.008", "--resume", str(out_dir / "checkpoint"),
                "--config", config, "--out", str(tmp_path / "resumed"),
            ],
            capsys,
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {out_dir / 'checkpoint'}/{message}")
        assert not (tmp_path / "resumed").exists()

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

    def test_resume_from_an_unstamped_checkpoint_is_refused(self, config, tmp_path, capsys):
        params = build_config(parse_config_text(CONFIG_TEXT), ExperimentKind.SIMULATE).params
        ckpt = tmp_path / "ckpt"
        write_checkpoint(ckpt, homogeneous_state(SpectralGrid(16, 16, 16), params), "")
        code, out, err = run_cli(
            [
                "simulate", "--t-end", "0.004", "--resume", str(ckpt),
                "--config", config, "--out", str(tmp_path / "resumed"),
            ],
            capsys,
        )
        assert code == 1 and out == ""
        assert "different configuration (hash missing != " in err
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize(
        "key, value", [("t_hex", "nan"), ("t_hex", "inf"), ("t_hex", "-inf"), ("step", "-3")]
    )
    def test_resume_from_a_non_finite_time_or_negative_step_is_refused(
        self, config, tmp_path, capsys, key, value
    ):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            ["simulate", "--t-end", "0.004", "--config", config, "--out", str(out_dir)], capsys
        )
        assert code == 0
        meta = out_dir / "checkpoint" / "checkpoint.txt"
        meta.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", meta.read_text(),
                               flags=re.MULTILINE))
        code, out, err = run_cli(
            [
                "simulate", "--t-end", "0.008", "--resume", str(out_dir / "checkpoint"),
                "--config", config, "--out", str(tmp_path / "resumed"),
            ],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == f"error: {meta}: key '{key}': cannot read '{value}'\n"
        assert not (tmp_path / "resumed").exists()

    def test_manifest_fed_back_as_config_reproduces_itself(self, tmp_path, capsys):
        config = tmp_path / "seeded.cfg"
        config.write_text(CONFIG_TEXT + "seed = 3\n")
        argv = ["simulate", "--t-end", "0.004"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(argv + ["--config", str(config), "--out", str(first)], capsys)[0] == 0
        manifest = str(first / "manifest.txt")
        assert run_cli(argv + ["--config", manifest, "--out", str(second)], capsys)[0] == 0
        assert (second / "manifest.txt").read_bytes() == (first / "manifest.txt").read_bytes()

    def test_equal_values_hash_alike(self, config, tmp_path, capsys):
        """chi = 4 and chi = 4.0 are one model, and the seed is not hashed."""
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            ["simulate", "--t-end", "0.004", "--config", config, "--out", str(out_dir)], capsys
        )
        assert code == 0
        integer = tmp_path / "integer.cfg"
        integer.write_text(CONFIG_TEXT.replace("chi = 4.0", "chi = 4") + "seed = 9\n")
        code, _, _ = run_cli(
            [
                "simulate", "--t-end", "0.008", "--resume", str(out_dir / "checkpoint"),
                "--config", str(integer), "--out", str(tmp_path / "resumed"),
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
        unstable.write_text(
            CONFIG_TEXT.replace("chi = 4.0", "chi = 400").replace("dt = 2e-3", "dt = 0.2")
        )
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            [
                "simulate", "--t-end", "0.2", "--stride", "1",
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
        unstable.write_text(
            CONFIG_TEXT.replace("chi = 4.0", "chi = 400").replace("dt = 2e-3", "dt = 0.2")
        )
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            [
                "simulate", "--t-end", "2.0", "--stride", "1",
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
    def test_failed_rerun_leaves_no_earlier_summary(self, config, tmp_path, capsys):
        """A run that fails after writing its samples removes the summary an
        earlier run left in the same ``--out``."""
        out_dir = tmp_path / "run"
        argv = ["simulate", "--stride", "1", "--out", str(out_dir)]
        assert run_cli(argv + ["--t-end", "0.004", "--config", config], capsys)[0] == 0
        assert (out_dir / "simulate.json").exists()
        unstable = config_with(tmp_path, {"chi": "400", "dt": "0.2"})
        code, _, err = run_cli(argv + ["--t-end", "1.0", "--config", unstable], capsys)
        assert code == 1 and "non-finite" in err
        assert "chi = 400" in (out_dir / "manifest.txt").read_text().splitlines()
        assert not (out_dir / "simulate.json").exists()

    def test_run_refused_before_its_first_sample_touches_nothing(self, config, tmp_path, capsys):
        out_dir = tmp_path / "run"
        argv = ["simulate", "--t-end", "0.004", "--config", config, "--out", str(out_dir)]
        assert run_cli(argv, capsys)[0] == 0
        before = {path: path.read_bytes() for path in out_dir.rglob("*") if path.is_file()}
        code, _, err = run_cli(argv + ["--init", "bump:abc"], capsys)
        assert code == 1 and "bump:abc" in err
        assert {path: path.read_bytes() for path in out_dir.rglob("*") if path.is_file()} == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_last_sample_keeps_the_samples(self, tmp_path, capsys):
        """A run that ends on a non-finite sample writes the same records before it
        to both files and names that sample's time."""
        unstable = tmp_path / "unstable.cfg"
        unstable.write_text(
            CONFIG_TEXT.replace("chi = 4.0", "chi = 400").replace("dt = 2e-3", "dt = 0.2")
        )
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            [
                "simulate", "--t-end", "1.0", "--stride", "1",
                "--config", str(unstable), "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 1
        assert err == ("error: non-finite observables in the sample at t = 1.0; "
                       "the 5 samples before it were written\n")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_last_sample_without_out_claims_no_write(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        unstable = config_with(tmp_path, {"chi": "400", "dt": "0.2"})
        code, out, err = run_cli(
            ["simulate", "--t-end", "1.0", "--stride", "1", "--config", unstable], capsys
        )
        assert code == 1 and out == ""
        assert err == "error: non-finite observables in the sample at t = 1.0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.cfg"]

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
