"""Tests for the experiment harness: configs, seeds, scans, sweeps, runs."""

import json
import math
import os

import numpy as np
import pytest

from antkinetics import dynamics, experiments
from antkinetics.diagnostics import ObservableCollector, record_to_dict
from antkinetics.dynamics import read_checkpoint, write_checkpoint
from antkinetics.experiments import (
    ExperimentKind,
    build_config,
    bump_density,
    dispersion_report,
    eigen_seed_states,
    initial_state,
    random_band_limited_state,
    run_growth_match,
    run_instability_scan,
    run_simulate,
    run_stability_sweep,
    write_manifest,
    write_outputs,
)
from antkinetics.params import ModelParams, inviscid_threshold_chi
from antkinetics.spectral import SpectralGrid, fft3

TWO_PI = 2.0 * math.pi


def mapping(**kw):
    base = {
        "sigma_x": "0.002",
        "sigma_theta": "0.25",
        "sigma_c": "0.05",
        "gamma": "1.0",
        "lambda": "1.0",
        "chi": "1.0",
        "tau": "0.0",
        "coupling": "elliptic",
        "n_x1": "16",
        "n_x2": "16",
        "n_theta": "16",
        "dt": "2e-3",
    }
    base.update({k: str(v) for k, v in kw.items()})
    return base


class TestBuildConfig:
    def test_defaults_and_overrides(self):
        cfg = build_config(mapping(), ExperimentKind.SIMULATE)
        assert cfg.grid.n_x1 == 16 and cfg.grid.n_theta == 16
        assert cfg.stepper.dt == 2e-3
        assert cfg.seed == 0 and cfg.threads == 1

        cfg = build_config(
            mapping(scheme="imex_euler", seed="7", threads="3"), ExperimentKind.SIMULATE
        )
        assert cfg.stepper.scheme.value == "imex_euler"
        assert cfg.seed == 7 and cfg.threads == 3

    def test_digest_is_pinned(self):
        """The digest of a fixed config never changes, so the config hash in
        manifests and checkpoint stamps stays valid across code versions."""
        cfg = build_config(mapping(), ExperimentKind.SIMULATE)
        assert cfg.digest == "f4ac99cdbed1438e50aa32bc8634e534a7ef07707e64fac4fe3add9e5dff69ed"

    def test_bad_values_name_the_key(self):
        with pytest.raises(ValueError, match="n_theta"):
            build_config(mapping(n_theta="many"), ExperimentKind.SIMULATE)
        with pytest.raises(ValueError, match="chi"):
            build_config(mapping(chi="strong"), ExperimentKind.SIMULATE)
        with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
            build_config(mapping(threads="0"), ExperimentKind.SIMULATE)


class TestManifest:
    def test_contents_and_determinism(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        cfg = build_config(mapping(seed="3"), ExperimentKind.SIMULATE, out_dir=str(d1))
        write_manifest(cfg)
        cfg.out_dir = str(d2)
        write_manifest(cfg)
        text = (d1 / "manifest.txt").read_text()
        assert f"config_hash = {cfg.digest}" in text
        assert "rng_seed = 3" in text
        assert "kind = simulate" in text
        assert "sigma_theta = 0.25" in text
        assert (d1 / "manifest.txt").read_bytes() == (d2 / "manifest.txt").read_bytes()

    def test_a_result_json_cannot_hold_is_refused_naming_the_key(self, tmp_path):
        """The table keeps its non-finite cell; no part of the JSON file is written."""
        cfg = build_config(mapping(), ExperimentKind.SIMULATE, out_dir=str(tmp_path))
        rows = [{"chi": 1.0, "rate": 0.5}, {"chi": 2.0, "rate": float("nan")}]
        with pytest.raises(ValueError,
                           match=r"^probe\.json: 'rate' is nan, which JSON cannot hold$"):
            write_outputs(cfg, "probe", ("chi", "rate"), rows, {"rows": rows})
        assert (tmp_path / "probe.csv").read_text() == "chi,rate\n1.0,0.5\n2.0,nan\n"
        assert not (tmp_path / "probe.json").exists()


class TestRandomBandLimitedState:
    @pytest.fixture
    def grid(self):
        return SpectralGrid(n_x1=32, n_x2=32, n_theta=16)

    @pytest.fixture
    def p(self):
        return ModelParams(
            sigma_x=0.002, sigma_theta=0.25, sigma_c=0.05,
            gamma=1.0, lam=1.0, chi=1.0, tau=0.0, coupling="elliptic",
        )

    def test_mass_positivity_and_amplitude(self, grid, p):
        state = random_band_limited_state(
            grid, p, np.random.default_rng(5), max_mode=4, amplitude=0.1
        )
        assert abs(state.mass() - 1.0) < 1e-12
        f = state.f_physical()
        assert float(np.min(f)) > 0.0
        sup_dev = float(np.max(np.abs(f * TWO_PI - 1.0)))
        assert abs(sup_dev - 0.1) < 1e-6

    def test_band_limit(self, grid, p):
        state = random_band_limited_state(
            grid, p, np.random.default_rng(5), max_mode=3, amplitude=0.1
        )
        coeffs = state.f_hat
        out_of_band = (
            (np.abs(grid.m1)[:, None, None] > 3)
            | (grid.m2[None, :, None] > 3)
            | (np.abs(grid.n_modes)[None, None, :] > 3)
        )
        peak = float(np.max(np.abs(coeffs)))
        assert float(np.max(np.abs(coeffs[out_of_band]))) < 1e-12 * peak

    def test_seeded_draws_are_reproducible(self, grid, p):
        a = random_band_limited_state(grid, p, np.random.default_rng(9))
        b = random_band_limited_state(grid, p, np.random.default_rng(9))
        assert np.array_equal(a.f_hat, b.f_hat)
        assert np.array_equal(a.c_hat, b.c_hat)


class TestBumpDensity:
    @pytest.fixture
    def grid(self):
        return SpectralGrid(n_x1=48, n_x2=48, n_theta=8)

    @pytest.mark.parametrize("target", [1.0, 5.0, 10.0])
    def test_norm_mass_and_positivity(self, grid, target):
        rho = bump_density(grid, target)
        assert abs(float(np.mean(rho)) - 1.0) < 1e-12
        assert float(np.min(rho)) >= 0.0
        l6 = float(np.mean(rho**6.0) ** (1.0 / 6.0))
        assert abs(l6 - target) < 1e-6 * target

    @pytest.mark.parametrize("target", [1.5, 3.0, 10.0])
    def test_norm_hits_the_target_to_round_off(self, grid, target):
        l6 = float(np.mean(bump_density(grid, target) ** 6.0) ** (1.0 / 6.0))
        assert abs(l6 - target) <= 2.0 * np.spacing(target)

    @pytest.mark.parametrize("shape", [(16, 16, 16), (48, 48, 8), (32, 24, 16)])
    def test_unit_target_is_exactly_uniform(self, shape):
        rho = bump_density(SpectralGrid(*shape), 1.0)
        assert rho.dtype == np.float64
        assert rho.tobytes() == np.ones(shape[:2]).tobytes()

    def test_bad_targets_raise(self, grid):
        with pytest.raises(ValueError, match=">= 1"):
            bump_density(grid, 0.5)
        with pytest.raises(ValueError, match="unreachable"):
            bump_density(grid, 1e6)


class TestDispersionAndScan:
    def test_report_fields(self):
        cfg = build_config(mapping(chi="4.0"), ExperimentKind.DISPERSION_MAP)
        report = dispersion_report(cfg.params, 1)
        assert report["k"] == 1
        assert report["margin"] > 0.0
        assert report["root_exists"] and report["mu0"] > 0.0
        assert report["residual"] < 1e-10
        # reduced scalars follow the wavenumber scaling
        assert abs(report["lambda_breve"] - TWO_PI) < 1e-14
        assert abs(report["nu_breve"] - (1.0 + 0.05 * 4.0 * math.pi**2)) < 1e-12

    def test_scan_stable_config_is_consistent(self, tmp_path):
        cfg = build_config(
            mapping(chi="0.0"), ExperimentKind.DISPERSION_MAP, out_dir=str(tmp_path)
        )
        result = run_instability_scan(cfg, k_max=4, n_modes=24)
        assert result["ok"]
        for row in result["rows"]:
            assert row["mu0"] is None
            assert row["viscous_rightmost_re"] < 0.0
        assert (tmp_path / "scan.csv").exists()
        assert (tmp_path / "manifest.txt").exists()

    def test_scan_flags_unstable_band(self):
        cfg = build_config(mapping(chi="4.0"), ExperimentKind.DISPERSION_MAP)
        result = run_instability_scan(cfg, k_max=4, n_modes=24)
        assert result["ok"]
        rows = {row["k"]: row for row in result["rows"]}
        assert rows[1]["mu0"] is not None and rows[1]["margin"] > 0.0
        # sigma_c damps large wavenumbers: margin decreases and turns negative
        margins = [row["margin"] for row in result["rows"]]
        assert margins == sorted(margins, reverse=True)
        assert margins[-1] < 0.0

    def test_scan_outputs_are_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = build_config(
                mapping(chi="4.0"), ExperimentKind.DISPERSION_MAP, out_dir=str(out)
            )
            run_instability_scan(cfg, k_max=3, n_modes=24)
            outs.append((out / "scan.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_threaded_scan_matches_serial(self):
        serial = run_instability_scan(
            build_config(mapping(chi="4.0"), ExperimentKind.DISPERSION_MAP),
            k_max=3,
            n_modes=24,
        )
        threaded = run_instability_scan(
            build_config(mapping(chi="4.0", threads="2"), ExperimentKind.DISPERSION_MAP),
            k_max=3,
            n_modes=24,
        )
        assert serial["rows"] == threaded["rows"]

    @pytest.mark.parametrize(
        "k_max, cpus, pools",
        [(2, 8, [2]), (1, 8, []), (3, 2, [2]), (3, None, [])],
        ids=["k_max=2", "k_max=1", "cpus=2", "cpus=unknown"],
    )
    def test_scan_starts_at_most_one_worker_per_wavenumber(
        self, monkeypatch, k_max, cpus, pools
    ):
        """The fork start method launches every worker at the first submit, so
        no more start than there are wavenumbers or CPUs."""
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        cfg = build_config(mapping(chi="4.0", threads="8"), ExperimentKind.DISPERSION_MAP)
        result = run_instability_scan(cfg, k_max=k_max, n_modes=24)
        assert [row["k"] for row in result["rows"]] == list(range(1, k_max + 1))
        assert started == pools


class TestEigenSeeds:
    def test_four_orthonormal_seeds(self):
        cfg = build_config(mapping(chi="4.0"), ExperimentKind.GROWTH_MATCH)
        spectrum, seeds = eigen_seed_states(cfg, 1, 1e-6, n_modes=32)
        assert [name for name, _, _ in seeds] == ["w1", "w1_rot", "w2", "w2_rot"]
        assert spectrum.rightmost.real > 0.0
        for _, state, _ in seeds:
            assert abs(state.mass() - 1.0) < 1e-12
            assert float(np.min(state.f_physical())) > 0.0


class TestGrowthMatch:
    def test_stable_config_reports_decay(self, tmp_path):
        cfg = build_config(
            mapping(chi="0.05"),  # far below threshold
            ExperimentKind.GROWTH_MATCH,
            out_dir=str(tmp_path),
        )
        result = run_growth_match(cfg, 1, t_end=1.2, n_modes=32)
        assert not result["unstable"]
        assert result["ok"]
        for entry in result["seeds"]:
            assert entry["rate"] < 0.0
            assert entry["mass_err"] < 1e-12
            assert entry["min_f"] > 0.0
        assert (tmp_path / "growth_match.csv").exists()
        assert (tmp_path / "growth_match.json").exists()

    def test_gram_matrix_is_diagonal(self):
        cfg = build_config(mapping(chi="4.0"), ExperimentKind.GROWTH_MATCH)
        result = run_growth_match(cfg, 1, t_end=0.2, n_modes=32)
        assert result["gram_off_diagonal"] < 1e-10
        # entry-by-entry reference; normalised entries lie in [0, 1], so
        # float64 sums over the grid agree to well within 1e-13
        _, seeds = eigen_seed_states(cfg, 1, 1e-6, n_modes=32)
        w3 = cfg.grid.half_weights[None, :, None]
        gram = np.array([[float(np.sum(w3 * (a * np.conj(b)).real)) for _, _, b in seeds]
                         for _, _, a in seeds])
        reference = max(abs(gram[i, j]) / math.sqrt(gram[i, i] * gram[j, j])
                        for i in range(4) for j in range(4) if i != j)
        assert abs(result["gram_off_diagonal"] - reference) <= 1e-13


class TestStabilitySweep:
    def test_bracketing_sweep_finds_the_threshold(self, tmp_path):
        cfg = build_config(
            mapping(chi="1.0", seed="2"),
            ExperimentKind.STABILITY_SWEEP,
            out_dir=str(tmp_path),
        )
        chi_star = inviscid_threshold_chi(cfg.params, 1)
        result = run_stability_sweep(
            cfg,
            chi_values=[0.6 * chi_star, 1.4 * chi_star],
            k_max=2,
            t_end=10.0,
        )
        assert result["most_unstable_k"] == 1
        rows = result["rows"]
        assert rows[0]["rate"] < 0.0 and rows[0]["r2"] > 0.99
        assert rows[1]["rate"] > 0.0
        assert abs(result["empirical_threshold"] - chi_star) < 1e-12
        assert result["threshold_ok"]
        assert (tmp_path / "stability_sweep.csv").exists()
        assert (tmp_path / "stability_sweep.json").exists()

    def test_k_max_is_at_most_half_the_spatial_grid(self):
        cfg = build_config(mapping(n_x1="8", n_x2="8", n_theta="8"),
                           ExperimentKind.STABILITY_SWEEP)
        result = run_stability_sweep(cfg, chi_values=[0.0], k_max=4, t_end=0.004)
        assert 1 <= result["most_unstable_k"] <= 4
        with pytest.raises(ValueError, match="k_max = 5 exceeds 4, the largest wavenumber "
                                             "the 8x8 spatial grid holds"):
            run_stability_sweep(cfg, chi_values=[0.0], k_max=5, t_end=0.004)

    @staticmethod
    def capture_collectors(monkeypatch):
        """Patch the sweep's ``run`` to hand back each member's collector."""
        collectors = []
        real_run = experiments.run

        def spy(state, *args, **kwargs):
            collectors.append(kwargs["observers"][0])
            return real_run(state, *args, **kwargs)

        monkeypatch.setattr(experiments, "run", spy)
        return collectors

    def test_one_run_and_one_stepper_per_member(self, monkeypatch):
        cfg = build_config(
            mapping(chi="1.0", seed="2", dt="1e-2"), ExperimentKind.STABILITY_SWEEP
        )
        collectors = self.capture_collectors(monkeypatch)
        built = []
        real_init = dynamics.Stepper.__init__

        def counting_init(self, *args):
            built.append(args)
            real_init(self, *args)

        monkeypatch.setattr(dynamics.Stepper, "__init__", counting_init)
        chi_star = inviscid_threshold_chi(cfg.params, 1)
        chi_values = [0.6 * chi_star, 3.0 * chi_star]
        dt, stride, t_end = cfg.stepper.dt, 5, 4.0
        result = run_stability_sweep(
            cfg, chi_values=chi_values, k_max=2, t_end=t_end, stride=stride
        )
        assert len(collectors) == len(chi_values)
        assert len(built) == len(collectors)

        dev_cap = 0.2 / math.sqrt(TWO_PI)
        decaying, capped = (collector.records for collector in collectors)
        for records, row in zip((decaying, capped), result["rows"]):
            assert [r.t for r in records] == [i * stride * dt for i in range(len(records))]
            assert row["t_stop"] == records[-1].t
        assert decaying[-1].t == t_end
        assert capped[-1].t < t_end
        assert capped[-1].l2_f_dev >= dev_cap
        assert all(r.l2_f_dev < dev_cap for r in capped[1:-1])

    def test_initial_data_keys_reach_the_sweep(self, tmp_path, monkeypatch):
        keys = mapping(seed="3")
        sim = build_config(keys, ExperimentKind.SIMULATE, out_dir=str(tmp_path))
        run_simulate(sim, t_end=2 * sim.stepper.dt, stride=1)
        with open(tmp_path / "observables.ndjson", encoding="utf-8") as fh:
            simulated = json.loads(fh.readline())

        collectors = self.capture_collectors(monkeypatch)
        sweep = build_config(keys, ExperimentKind.STABILITY_SWEEP)
        run_stability_sweep(sweep, chi_values=[1.0], t_end=2 * sweep.stepper.dt, stride=1)
        swept = json.loads(json.dumps(record_to_dict(collectors[0].records[0])))
        assert swept == simulated
        default = ObservableCollector(sweep.params)
        default(initial_state(build_config(mapping(), ExperimentKind.SIMULATE)))
        assert default.records[0].l2_f_dev != swept["l2_f_dev"]


class TestInitialState:
    def test_each_kind(self, tmp_path):
        cfg = build_config(mapping(seed="4"), ExperimentKind.SIMULATE)
        uniform = initial_state(cfg, "homogeneous")
        assert abs(float(np.max(uniform.f_physical())) - 1.0 / TWO_PI) < 1e-15

        a = initial_state(cfg, "random")
        b = initial_state(cfg, "random")
        assert np.array_equal(a.f_hat, b.f_hat)

        bumped = initial_state(cfg, "bump:3")
        rho = bumped.f_physical().sum(axis=2) * (TWO_PI / cfg.grid.n_theta)
        assert abs(float(np.mean(rho**6.0) ** (1.0 / 6.0)) - 3.0) < 1e-5

        ckpt = tmp_path / "ckpt"
        write_checkpoint(str(ckpt), a, cfg.digest)
        restored = initial_state(cfg, f"checkpoint:{ckpt}")
        assert np.array_equal(restored.f_hat, a.f_hat)

        with pytest.raises(ValueError, match="initial condition"):
            initial_state(cfg, "vortex")


class TestRunSimulate:
    def test_outputs_and_reproducibility(self, tmp_path):
        summaries = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = build_config(
                mapping(seed="6"), ExperimentKind.SIMULATE, out_dir=str(out)
            )
            summaries.append(run_simulate(cfg, t_end=0.04, stride=5))
        summary = summaries[0]
        assert summary["records"] == 5  # t = 0 plus 20 steps sampled every 5
        assert abs(summary["mass"] - 1.0) < 1e-12
        assert summary["n_steps"] == 20
        for fname in ("manifest.txt", "observables.ndjson", "observables.csv"):
            assert (tmp_path / "a" / fname).exists()
        assert (tmp_path / "a" / "checkpoint").is_dir()
        assert summaries[0] == summaries[1]
        ndjson_a = (tmp_path / "a" / "observables.ndjson").read_bytes()
        ndjson_b = (tmp_path / "b" / "observables.ndjson").read_bytes()
        assert ndjson_a == ndjson_b

    @pytest.mark.parametrize("every,expected", [(10, 2), (None, 1)])
    def test_final_checkpoint_written_once(self, tmp_path, monkeypatch, every, expected):
        """20 steps write at steps 10 and 20 with every = 10, else once at 20."""
        written = []
        write_field = dynamics.write_field

        def counting(path, values, grid):
            written.append(os.path.basename(path))
            write_field(path, values, grid)

        monkeypatch.setattr(dynamics, "write_field", counting)
        cfg = build_config(mapping(seed="6"), ExperimentKind.SIMULATE, out_dir=str(tmp_path))
        run_simulate(cfg, t_end=0.04, stride=5, checkpoint_every=every)
        assert written == ["f.field", "c.field"] * expected
        assert read_checkpoint(tmp_path / "checkpoint", cfg.digest, cfg.grid).step == 20

    def test_resume_from_checkpoint(self, tmp_path):
        out = tmp_path / "first"
        cfg = build_config(mapping(seed="6"), ExperimentKind.SIMULATE, out_dir=str(out))
        run_simulate(cfg, t_end=0.04, stride=5)
        cfg2 = build_config(mapping(seed="6"), ExperimentKind.SIMULATE)
        summary = run_simulate(
            cfg2, t_end=0.08, init=f"checkpoint:{out / 'checkpoint'}", stride=5
        )
        assert abs(summary["t"] - 0.08) < 1e-15
        assert summary["n_steps"] == 20  # continued, not restarted
