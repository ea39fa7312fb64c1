"""Experiment configs, report emission, determinism and the CLI entry points."""

import csv
import gc
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import mamp
from mamp import (
    PriorParams,
    cli,
    harness,
    run_amp,
    run_bo_mamp,
    run_bo_oamp,
    run_mf_oamp,
    sample_instance,
)
from mamp.cli import main
from mamp.denoisers import complex_normal
from mamp.harness import (
    ConfigError,
    ExperimentConfig,
    emit_csv,
    emit_plot_script,
    run_experiment,
)
from mamp.operators import DenseOperator
from mamp.spectral import SpectralProfile

SMALL = dict(
    algorithms=("bo_mamp", "bo_oamp", "se_mamp", "fixed_point"),
    N=512,
    delta=0.5,
    kappa=4.0,
    mu=0.2,
    snr_db=25.0,
    T=6,
    L=3,
    n_seeds=2,
    base_seed=7,
    n_mc=5_000,
)

# A wide IID system whose 128 x 4096 complex matrix (8 MB) dwarfs every other
# array of the run, so the peak of traced memory counts live matrices.
IID_WIDE = dict(
    algorithms=("bo_mamp", "amp"),
    matrix_model="iid",
    N=4096,
    delta=0.03125,  # M = 128
    kappa=1.0,
    mu=0.2,
    snr_db=25.0,
    T=3,
    L=2,
    n_seeds=2,
    base_seed=3,
)
IID_WIDE_MATRIX_BYTES = 128 * 4096 * 16

SIMULATIONS = ("bo_mamp", "bo_oamp", "mf_oamp", "amp")

REPO = Path(__file__).resolve().parents[1]


def record_bits(result):
    """A result's status and every record field, floats as their bytes."""
    return result.status, [
        (rec.t, np.array([rec.v_gamma, rec.v_phi_bar, rec.v_hat, rec.mse, rec.theta,
                          rec.xi]).tobytes(), rec.zeta.tobytes())
        for rec in result.records
    ]


def write_config(path, **overrides):
    cfg = {**SMALL, **overrides}
    lines = ["[experiment]"]
    for key, val in cfg.items():
        if key == "algorithms":
            val = ", ".join(val)
        lines.append(f"{key} = {val}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestConfig:
    def test_delta_resolves_m(self):
        cfg = ExperimentConfig(**SMALL)
        assert cfg.M == 256

    def test_inconsistent_m_delta_names_field(self):
        # 0.3 * 512 = 153.6 measurements
        with pytest.raises(ConfigError, match="^delta:"):
            ExperimentConfig(**{**SMALL, "delta": 0.3})

    @pytest.mark.parametrize(
        "field,value",
        [("kappa", 0.5), ("mu", 0.0), ("T", 0), ("L", 0), ("n_seeds", -1),
         ("base_seed", -1),
         ("moment_mode", "bogus"), ("algorithms", ("nope",)),
         ("n_mc", 0), ("n_mc", -5), ("snr_db", math.nan), ("snr_db", math.inf),
         ("kappa", math.nan), ("kappa", math.inf), ("delta", math.nan),
         ("delta", 0.0), ("delta", 1e-4), ("matrix_model", "iid")],
    )
    def test_invalid_fields_name_the_field(self, field, value):
        # SMALL runs bo_oamp, which the iid model cannot feed
        with pytest.raises(ConfigError, match=f"^{field}:"):
            ExperimentConfig(**{**SMALL, field: value})

    def test_roundtrip_through_file(self, tmp_path):
        path = write_config(tmp_path / "exp.ini")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.N == SMALL["N"] and cfg.algorithms == SMALL["algorithms"]

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\nwidgets = 3\n")
        with pytest.raises(ConfigError, match="widgets"):
            ExperimentConfig.from_file(str(p))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file("/nonexistent/file.ini")


class TestRunExperiment:
    def test_report_shapes_and_columns(self):
        report = run_experiment(ExperimentConfig(**SMALL))
        assert set(report.mse_db_mean) == {"bo_mamp", "bo_oamp", "se_mamp"}
        for curve in report.mse_db_mean.values():
            assert curve.shape == (SMALL["T"],)
        assert report.fixed_point is not None
        assert "v_phi_eig" in report.fixed_point

    def test_all_algorithms_share_instances(self):
        """On a flat spectrum the two filters coincide, so equal curves imply
        both algorithms consumed the same operator, signal and noise."""
        report = run_experiment(ExperimentConfig(**{**SMALL, "kappa": 1.0, "L": 1}))
        np.testing.assert_allclose(
            report.mse_db_mean["bo_mamp"], report.mse_db_mean["bo_oamp"], atol=1e-8
        )

    def test_se_only_when_no_seeds(self):
        cfg = ExperimentConfig(**{**SMALL, "n_seeds": 0})
        report = run_experiment(cfg)
        assert "bo_mamp" not in report.mse_db_mean
        assert "se_mamp" in report.mse_db_mean

    def test_determinism_across_runs(self):
        r1 = run_experiment(ExperimentConfig(**SMALL))
        r2 = run_experiment(ExperimentConfig(**SMALL))
        for algo in r1.mse_db_mean:
            np.testing.assert_array_equal(r1.mse_db_mean[algo], r2.mse_db_mean[algo])

    def test_threads_do_not_change_results(self):
        r1 = run_experiment(ExperimentConfig(**SMALL))
        r2 = run_experiment(ExperimentConfig(**{**SMALL, "threads": 2}))
        for algo in r1.mse_db_mean:
            np.testing.assert_array_equal(r1.mse_db_mean[algo], r2.mse_db_mean[algo])

    def test_seed_zero_runs_on_the_setup_operator(self, monkeypatch):
        built = []
        build = harness._build_operator

        def counting_build(config, seed_index):
            built.append(seed_index)
            return build(config, seed_index)

        monkeypatch.setattr(harness, "_build_operator", counting_build)
        run_experiment(ExperimentConfig(**IID_WIDE))
        assert built == [0, 1]

    @pytest.mark.parametrize("seed_index", [0, 1])
    def test_seed_draws_its_operator_from_base_seed_plus_index(self, seed_index):
        entropy = [SMALL["base_seed"] + seed_index, 0x0FEA]
        op = harness._build_operator(ExperimentConfig(**SMALL), seed_index)
        np.testing.assert_array_equal(
            op.perm, np.random.default_rng(entropy).permutation(SMALL["N"])
        )
        cfg = ExperimentConfig(**{**SMALL, "matrix_model": "iid", "algorithms": ("amp",)})
        dense = harness._build_operator(cfg, seed_index)
        np.testing.assert_array_equal(
            dense.dense(),
            complex_normal(np.random.default_rng(entropy), (cfg.M, cfg.N), 1.0 / cfg.M),
        )

    def test_structured_seed_runs_each_simulation_as_it_runs_alone(self, monkeypatch):
        """_run_seed runs bo_mamp on a helper thread beside the others; every
        record keeps the bits of the simulation run alone, in sequence."""
        cfg = ExperimentConfig(**{**SMALL, "algorithms": SIMULATIONS})
        op = harness._build_operator(cfg, 0)
        tables, prior = harness._spectral_inputs(cfg, op), PriorParams(mu=cfg.mu)
        on_main = {}
        for algo in SIMULATIONS:
            def recording(*args, _run=getattr(harness, f"run_{algo}"), _algo=algo):
                on_main[_algo] = threading.current_thread() is threading.main_thread()
                return _run(*args)

            monkeypatch.setattr(harness, f"run_{algo}", recording)
        got = harness._run_seed(cfg, 1, op, tables, prior)
        inst = sample_instance(op, prior, cfg.snr_db, [cfg.base_seed + 1, 0x1A57])
        alone = {
            "bo_mamp": run_bo_mamp(inst, prior, tables, cfg.T, cfg.L),
            "bo_oamp": run_bo_oamp(inst, prior, cfg.T),
            "mf_oamp": run_mf_oamp(inst, prior, cfg.T, tables.spectrum),
            "amp": run_amp(inst, prior, cfg.T),
        }
        assert on_main == {"bo_mamp": False, "bo_oamp": True, "mf_oamp": True, "amp": True}
        for algo in SIMULATIONS:
            assert record_bits(got[algo]) == record_bits(alone[algo]), algo

    @pytest.mark.parametrize("algo", ["bo_mamp", "mf_oamp"], ids=["helper", "caller"])
    def test_a_simulation_exception_reaches_the_caller(self, monkeypatch, algo):
        class Stop(BaseException):
            pass

        def stop(*args):
            raise Stop

        monkeypatch.setattr(harness, f"run_{algo}", stop)
        before = set(threading.enumerate())
        with pytest.raises(Stop):
            run_experiment(ExperimentConfig(**{**SMALL, "algorithms": SIMULATIONS}))
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_helper_thread_outlives_the_run(self, threads):
        before = set(threading.enumerate())
        run_experiment(
            ExperimentConfig(**{**SMALL, "algorithms": SIMULATIONS, "threads": threads})
        )
        assert set(threading.enumerate()) == before

    def test_gram_eigenvalues_computed_once_with_se_oamp(self, monkeypatch):
        calls = []
        eig = DenseOperator.gram_eigenvalues

        def counting_eig(op):
            calls.append(op)
            return eig(op)

        monkeypatch.setattr(DenseOperator, "gram_eigenvalues", counting_eig)
        cfg = {**IID_WIDE, "algorithms": ("bo_mamp", "se_oamp"), "n_seeds": 1}
        exact = run_experiment(ExperimentConfig(**cfg))
        assert len(calls) == 1
        # estimated moments never compute eigenvalues; se_oamp still needs them
        calls.clear()
        estimated = run_experiment(
            ExperimentConfig(**{**cfg, "moment_mode": "estimated"})
        )
        assert len(calls) == 1
        assert np.array_equal(
            exact.mse_db_mean["se_oamp"], estimated.mse_db_mean["se_oamp"]
        )

    def test_threaded_sweep_releases_setup_operator_after_seed_zero(self, monkeypatch):
        built, released = {}, []
        build, run_seed = harness._build_operator, harness._run_seed
        seed2_started = threading.Event()

        def recording_build(config, seed_index):
            op = build(config, seed_index)
            built.setdefault(seed_index, weakref.ref(op))
            return op

        def gated_run_seed(config, seed_index, op, tables, prior):
            if seed_index == 1:
                # hold this worker so that seed 2 can only start on the other
                # one, after seed 0's task has ended
                seed2_started.wait(timeout=60)
            elif seed_index == 2:
                gc.collect()
                released.append(built[0]() is None)
                seed2_started.set()
            return run_seed(config, seed_index, op, tables, prior)

        monkeypatch.setattr(harness, "_build_operator", recording_build)
        monkeypatch.setattr(harness, "_run_seed", gated_run_seed)
        run_experiment(ExperimentConfig(**{**IID_WIDE, "n_seeds": 3, "threads": 2}))
        assert released == [True]

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"threads": 2}, {"n_seeds": 0}],
        ids=["sequential", "threaded", "no_seeds"],
    )
    def test_no_operator_alive_when_the_evolution_starts(self, monkeypatch, overrides):
        built, alive = [], []
        build, run_se = harness._build_operator, harness.run_bo_mamp_se

        def recording_build(config, seed_index):
            op = build(config, seed_index)
            built.append(weakref.ref(op))
            return op

        def checking_se(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in built))
            return run_se(*args, **kwargs)

        monkeypatch.setattr(harness, "_build_operator", recording_build)
        monkeypatch.setattr(harness, "run_bo_mamp_se", checking_se)
        report = run_experiment(ExperimentConfig(**{**SMALL, **overrides}))
        assert built and alive == [0]
        assert report.statuses["se_mamp"] == "ok"

    def test_each_evolution_reports_its_own_status(self, monkeypatch):
        run_se = harness.run_bo_oamp_se

        def stopping_se(*args, **kwargs):
            res = run_se(*args, **kwargs)
            res.status = "early_stop_nle"
            return res

        monkeypatch.setattr(harness, "run_bo_oamp_se", stopping_se)
        cfg = {**SMALL, "algorithms": ("bo_oamp", "mf_oamp", "se_oamp", "se_mf_oamp")}
        report = run_experiment(ExperimentConfig(**cfg))
        assert report.statuses["se_oamp"] == "early_stop_nle"
        assert report.statuses["se_mf_oamp"] == "ok"
        assert report.statuses["bo_oamp"] == ["ok", "ok"]
        assert report.statuses["mf_oamp"] == ["ok", "ok"]
        se_mf_db = report.mse_db_mean["se_mf_oamp"]
        np.testing.assert_array_equal(report.se_mse_db["mf_oamp"], se_mf_db)
        se_db = report.mse_db_mean["se_oamp"]
        np.testing.assert_array_equal(report.se_mse_db["bo_oamp"], se_db)
        np.testing.assert_array_equal(report.se_mse_db["se_oamp"], se_db)

    def test_one_iid_matrix_alive_at_a_time(self):
        # set-up matrix reused by seed 0 and released before seed 1 is drawn,
        # each drawn without full-size temporaries
        tracemalloc.start()
        try:
            run_experiment(ExperimentConfig(**IID_WIDE))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * IID_WIDE_MATRIX_BYTES

    def test_json_serializes(self):
        report = run_experiment(ExperimentConfig(**{**SMALL, "n_seeds": 1}))
        text = report.to_json()
        assert '"bo_mamp"' in text

    @pytest.mark.parametrize("n_seeds", [1, 2], ids=["one_seed", "two_seeds"])
    def test_iterations_no_seed_reached_reduce_without_warnings(self, n_seeds):
        # amp diverges on every seed at kappa = 30 and stops before T; the
        # iterations past the stop stay NaN without an empty-slice warning,
        # the spread too, whether one seed ran or a sweep
        cfg = ExperimentConfig(algorithms=("amp",), N=1024, kappa=30.0, T=60,
                               n_seeds=n_seeds)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_experiment(cfg)
        assert report.statuses["amp"] == ["diverged"] * n_seeds
        mean, std = report.mse_db_mean["amp"], report.mse_db_std["amp"]
        assert np.isfinite(mean[0]) and np.isfinite(std[0])
        assert np.isnan(mean[-1]) and np.isnan(std[-1])

    def test_long_horizon_exact_run_forms_no_overflowing_moment(self):
        # T = 200 at lambda_max ~ 21: the raw moment lambda_400 overflows, and
        # exact-mode runs read none past lambda_2
        cfg = ExperimentConfig(
            algorithms=("se_mamp",), N=128, delta=4.0, kappa=10.0, mu=0.3,
            snr_db=15.0, T=200, n_seeds=0, se_nle_mode="deterministic",
            moment_mode="exact",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_experiment(cfg)
        assert report.statuses["se_mamp"] == "ok"
        assert report.spectral["moments"][0] == 1.0
        assert len(report.spectral["moments"]) == 3

    def test_long_horizon_bounded_run_keeps_its_trace_bound_finite(self):
        # the same system in bounded mode: the trace bound on lambda_max runs
        # on powers of d^2 / max d^2, where lambda_400 would overflow
        cfg = ExperimentConfig(
            algorithms=("bo_mamp", "fixed_point"), N=128, delta=4.0, kappa=10.0,
            mu=0.3, snr_db=15.0, T=200, n_seeds=1, moment_mode="bounded",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_experiment(cfg)
        assert report.statuses["bo_mamp"] == ["ok"]
        assert report.spectral["provenance"] == "bounded"
        assert np.isfinite(report.spectral["lambda_max"])
        fp = report.fixed_point
        assert "error" not in fp
        assert fp["v_phi"] == pytest.approx(fp["v_phi_eig"], rel=1e-12)

    def test_nan_columns_equal_the_nan_reductions(self):
        # seeds stopped at different iterations: columns with a value reduce
        # bit for bit as np.nanmean / np.nanstd do, the rest stay NaN
        stack = np.random.default_rng(0).random((3, 10))
        for row, stop in enumerate((4, 7, 6)):
            stack[row, stop:] = np.nan
        for reduce in (np.nanmean, np.nanstd):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = reduce(stack, axis=0)
            np.testing.assert_array_equal(harness._nan_columns(reduce, stack), want)


class TestEmission:
    def test_csv_roundtrip_exact(self, tmp_path):
        report = run_experiment(ExperimentConfig(**SMALL))
        path = tmp_path / "out.csv"
        emit_csv(report, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "algo,iter,mse_db_mean,mse_db_std,se_mse_db,theta,xi,n_seeds"
        assert len(lines) == 1 + len(report.algorithms) * SMALL["T"]
        row = lines[1].split(",")
        assert row[0] == report.algorithms[0] and int(row[1]) == 1
        parsed = float(row[2])
        assert parsed == pytest.approx(report.mse_db_mean[report.algorithms[0]][0], rel=1e-11)

    def test_csv_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig(**SMALL)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(cfg), str(p1))
        emit_csv(run_experiment(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_plot_script_deterministic_and_standalone(self, tmp_path):
        report = run_experiment(ExperimentConfig(**{**SMALL, "n_seeds": 0}))
        p1, p2 = tmp_path / "p1.py", tmp_path / "p2.py"
        emit_plot_script(report, str(p1))
        emit_plot_script(report, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert "matplotlib" in text
        compile(text, str(p1), "exec")  # parses as valid python

    def test_plot_script_requires_curves(self, tmp_path):
        report = run_experiment(ExperimentConfig(**{**SMALL, "n_seeds": 0}))
        object.__setattr__(report, "algorithms", ())
        with pytest.raises(ValueError):
            emit_plot_script(report, str(tmp_path / "p.py"))


def run_python(code: str, **env_vars) -> str:
    """stdout of a fresh interpreter running code with this package importable.

    env_vars are set in its environment.
    """
    src = str(Path(mamp.__file__).resolve().parents[1])
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, cwd=REPO,
    )
    return out.stdout


class TestCli:
    def test_import_leaves_heavy_modules_unloaded(self):
        # SciPy (only the dense eigensolver uses it), exact rationals, the
        # thread pool, the sampler and the quadrature rule load on first use
        out = run_python(
            "import sys, mamp.cli; "
            "print(sorted(m for m in ('scipy.special', 'scipy.integrate', "
            "'scipy.linalg', 'mpmath', 'fractions', 'concurrent.futures', "
            "'numpy.random', 'numpy.polynomial') if m in sys.modules))"
        )
        assert out.strip() == "[]"

    def test_structured_spectrum_reads_load_nothing(self):
        # the permutation is drawn on the first transform, not at construction
        out = run_python(
            "import sys, numpy as np; from mamp import build_structured_operator; "
            "before = set(sys.modules); "
            "op = build_structured_operator(4, 8, np.ones(4), [1, 0x0FEA]); "
            "op.gram_eigenvalues(); op.apply_gram(np.ones(4, complex)); "
            "print(sorted(set(sys.modules) - before)); "
            "op.apply(np.ones(8, complex)); print('numpy.random' in sys.modules)"
        )
        assert out.split() == ["[]", "True"]

    def test_only_sampling_runs_load_numpy_random(self, tmp_path):
        loaded = "print(rc, 'numpy.random' in sys.modules)"
        # every shipped structured config, exact and bounded, in one
        # interpreter: nothing along the way may load the sampler
        structured = [
            str(p) for p in sorted((REPO / "configs").glob("*.ini"))
            if ExperimentConfig.from_file(str(p)).matrix_model == "structured"
        ]
        assert len(structured) == 3
        runs = "; ".join(
            f"rc = main({['fixed-point', c, '--moment-mode', m]!r}); {loaded}"
            for c in structured for m in ("exact", "bounded")
        )
        out = run_python(f"import sys; from mamp.cli import main; {runs}")
        checks = [ln for ln in out.splitlines() if ln.endswith(("True", "False"))]
        assert checks == ["0 False"] * 6
        evolutions = ("se_mamp", "se_oamp", "se_mf_oamp", "fixed_point")
        se = write_config(tmp_path / "se.ini", se_nle_mode="deterministic",
                          algorithms=evolutions)
        sim = write_config(tmp_path / "sim.ini", se_nle_mode="deterministic",
                           algorithms=("bo_mamp", *evolutions), n_seeds=1)
        for command, cfg, expected in (("se", se, "0 False"), ("run", sim, "0 True")):
            argv = [command, cfg, "--out-dir", str(tmp_path)]
            out = run_python(f"import sys; from mamp.cli import main; "
                             f"rc = main({argv!r}); {loaded}")
            assert out.strip().splitlines()[-1] == expected, command

    def test_runs_without_structured_seeds_never_load_the_thread_pool(self, tmp_path):
        # only a structured seed's side-by-side simulations and a threaded
        # sweep use concurrent.futures; the last run shows that it is seen.
        # SciPy's linalg loads it too (through numpy.testing), so the IID run
        # estimates its moments instead of taking the dense Gram spectrum
        structured = write_config(tmp_path / "structured.ini", n_seeds=1, T=3,
                                  se_nle_mode="deterministic")
        dense = write_config(tmp_path / "dense.ini", algorithms=("bo_mamp", "amp"),
                             matrix_model="iid", N=512, delta=0.125, n_seeds=1, T=3,
                             moment_mode="estimated")
        out_dir = ["--out-dir", str(tmp_path)]
        runs = "; ".join(
            f"rc = main({argv!r}); print(rc, 'concurrent.futures' in sys.modules)"
            for argv in (["fixed-point", structured], ["se", structured, *out_dir],
                         ["run", dense, *out_dir], ["run", structured, *out_dir])
        )
        out = run_python(f"import sys; from mamp.cli import main; {runs}")
        checks = [ln for ln in out.splitlines() if ln.endswith(("True", "False"))]
        assert checks == ["0 False"] * 3 + ["0 True"]

    def test_estimated_moments_never_load_mpmath(self, tmp_path):
        # every subcommand on a structured and an IID config, in one
        # interpreter each; the fixed point is unavailable in estimated mode
        structured = write_config(tmp_path / "structured.ini", n_seeds=1, T=3,
                                  n_mc=2_000)
        dense = write_config(tmp_path / "dense.ini", algorithms=("bo_mamp", "amp",
                             "se_mamp", "fixed_point"), matrix_model="iid", N=256,
                             n_seeds=1, T=3, n_mc=2_000)
        flags = ["--out-dir", str(tmp_path), "--moment-mode", "estimated"]
        for cfg in (structured, dense):
            runs = "; ".join(
                f"rc.append(main({[cmd, cfg, *flags]!r}))"
                for cmd in ("run", "se", "fixed-point", "compare")
            )
            out = run_python(f"import sys; from mamp.cli import main; rc = []; {runs}; "
                             "print(rc, 'mpmath' in sys.modules)")
            assert out.strip().splitlines()[-1] == "[0, 0, 1, 1] False", cfg

    def test_bounded_fixed_point_runs_without_scipy(self):
        out = run_python(
            "import sys; from mamp.cli import main; "
            "rc = main(['fixed-point', 'configs/illconditioned_damping.ini', "
            "'--moment-mode', 'bounded']); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert "cross-check" in out
        assert out.strip().splitlines()[-1] == "0 []"

    def test_structured_runs_never_load_scipy_and_dense_runs_only_its_linalg(
        self, tmp_path
    ):
        # only DenseOperator.gram_eigenvalues uses SciPy: the denoiser's
        # logistic and every evolution are NumPy
        structured = write_config(
            tmp_path / "structured.ini", n_seeds=1, T=4, n_mc=2_000,
            algorithms=("bo_mamp", "bo_oamp", "mf_oamp", "se_mamp", "se_oamp",
                        "fixed_point"),
        )
        dense = write_config(
            tmp_path / "dense.ini", algorithms=("bo_mamp", "amp"),
            matrix_model="iid", N=512, delta=0.125, n_seeds=1, T=3,
        )
        loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
        for argv in (
            ["run", structured, "--out-dir", str(tmp_path)],
            ["fixed-point", structured],
        ):
            out = run_python(
                f"import sys; from mamp.cli import main; rc = main({argv!r}); "
                f"print(rc, {loaded})"
            )
            assert out.strip().splitlines()[-1] == "0 []", argv
        out = run_python(
            "import sys; from mamp.cli import main; "
            f"rc = main({['run', dense, '--out-dir', str(tmp_path)]!r}); "
            "print(rc, 'scipy.linalg' in sys.modules, 'scipy.special' in sys.modules)"
        )
        assert out.strip().splitlines()[-1] == "0 True False"

    def test_csv_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # M = 12288: the residual energy and the covariance row sum more than
        # the 10000 entries past which OpenBLAS splits a dot product
        cfg = write_config(
            tmp_path / "exp.ini", algorithms=("bo_mamp", "bo_oamp", "mf_oamp"),
            N=1 << 14, delta=0.75, kappa=10.0, mu=0.1, snr_db=30.0, T=12,
            label="blas",
        )
        csvs = []
        for n in ("1", "2", "4"):
            argv = ["run", cfg, "--out-dir", str(tmp_path / n)]
            run_python(f"from mamp.cli import main; main({argv!r})", OPENBLAS_NUM_THREADS=n)
            csvs.append((tmp_path / n / "blas.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]

    def test_run_subcommand(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", label="clismoke", n_seeds=1)
        rc = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "clismoke.csv").exists()
        assert (tmp_path / "clismoke.json").exists()
        assert (tmp_path / "clismoke_plot.py").exists()

    def test_se_subcommand(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", label="sesmoke")
        rc = main(["se", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "sesmoke.csv").read_text()
        assert "se_mamp" in text and "bo_mamp" not in text

    def test_fixed_point_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.ini")
        rc = main(["fixed-point", cfg])
        assert rc == 0
        out = capsys.readouterr().out
        assert "v_phi*" in out and "cross-check" in out

    def test_fixed_point_subcommand_fails_with_the_refusal(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.ini")
        estimated = SpectralProfile(np.ones(3), 0.0, 1.0, "estimated", None, 512)
        with pytest.raises(ValueError) as refusal:
            estimated.eigenvalues()
        assert main(["fixed-point", cfg, "--moment-mode", "estimated"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fixed point unavailable: {refusal.value}\n"

    def test_compare_subcommand_passes_on_consistent_setup(self, tmp_path, monkeypatch):
        # small-N transient wiggle; the pinned acceptance setting asserts 0.5 dB
        monkeypatch.setattr(cli, "SE_GAP_TOL_DB", 1.0)
        cfg = write_config(
            tmp_path / "exp.ini",
            label="cmp",
            N=4096,
            T=12,
            kappa=1.0,
            L=1,
            n_seeds=2,
            n_mc=50_000,
        )
        rc = main(["compare", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0

    # a negative tolerance lies below any relative gap
    @pytest.mark.parametrize(
        "overrides, flags, tolerances, reason",
        [({}, [], {"SE_GAP_TOL_DB": 1e-9}, "simulation/evolution gap"),
         ({}, ["--moment-mode", "estimated"], {}, "fixed point unavailable"),
         ({"n_seeds": 0}, [], {}, "missing bo_mamp or its evolution curve"),
         ({}, [], {"FP_RTOL": -1.0}, "evolution/fixed-point gap"),
         ({}, [], {"FP_CROSS_RTOL": -1.0}, "fixed-point cross-check gap")],
        ids=["se_gap", "estimated", "no_seeds", "fp_gap", "cross_gap"],
    )
    def test_compare_subcommand_fails_with_its_reason(
        self, tmp_path, capsys, monkeypatch, overrides, flags, tolerances, reason
    ):
        for name, value in tolerances.items():
            monkeypatch.setattr(cli, name, value)
        cfg = write_config(tmp_path / "exp.ini", label="cmpfail", **overrides)
        assert main(["compare", cfg, "--out-dir", str(tmp_path), *flags]) == 1
        assert f"FAIL: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, key",
        [("not_a_key = 1", "not_a_key"), ("N = many", "N"), ("kappa = ten", "kappa"),
         ("M = 128", "M"), ("matrix_seed = 3", "matrix_seed"),
         ("[outptu]\nlabel = typo", "outptu"),
         ("[compare]\ncompare_se_tol_db = 1.0", "compare")],
        ids=["unknown_key", "int_value", "float_value", "derived_M", "matrix_seed",
             "misspelled_section", "compare_section"],
    )
    def test_config_error_exit_code(self, tmp_path, capsys, line, key):
        p = tmp_path / "bad.ini"
        p.write_text(f"[experiment]\n{line}\n")
        assert main(["run", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    @pytest.mark.parametrize(
        "content",
        [b"N = 512\n", b"[experiment]\nN = 512\nN = 256\n",
         b"[experiment]\nN = 512\n[experiment]\nT = 4\n",
         b"[experiment]\nlabel = caf\xe9\n"],
        ids=["no_section_header", "duplicate_key", "duplicate_section", "not_utf8"],
    )
    def test_unparsable_config_exit_code(self, tmp_path, capsys, content):
        p = tmp_path / "bad.ini"
        p.write_bytes(content)
        assert main(["run", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {p}: ")

    @pytest.mark.parametrize("command", ["run", "se", "fixed-point", "compare"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "exp.ini")
        assert main([command, cfg, "--seed", "-1", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: base_seed: ")

    def test_percent_in_label_is_literal(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", label="run%1",
                           algorithms=("fixed_point",))
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "run%1.csv").exists()

    @pytest.mark.parametrize(
        "command, algorithms",
        [("run", ("fixed_point",)), ("se", ("bo_mamp", "fixed_point"))],
        ids=["run_fixed_point", "se_without_evolution"],
    )
    def test_nothing_to_plot_writes_no_plot_script(
        self, tmp_path, capsys, command, algorithms
    ):
        cfg = write_config(tmp_path / "exp.ini", label="noplot", algorithms=algorithms)
        assert main([command, cfg, "--out-dir", str(tmp_path)]) == 0
        assert "no curves to plot" in capsys.readouterr().out
        assert (tmp_path / "noplot.csv").exists() and (tmp_path / "noplot.json").exists()
        assert not (tmp_path / "noplot_plot.py").exists()

    def test_oamp_loops_end_degenerate_where_the_transfer_rounds_to_zero(self, tmp_path):
        # at 200 dB the LMMSE normalizer rounds to 1, so v_phi (1/eps - 1) is 0
        cfg = write_config(
            tmp_path / "exp.ini", label="snr200", N=512, delta=4.0, kappa=10.0,
            mu=0.3, snr_db=200.0, algorithms=("bo_mamp", "bo_oamp", "se_mamp", "se_oamp"),
        )
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        statuses = json.loads((tmp_path / "snr200.json").read_text())["statuses"]
        assert statuses == {
            "bo_mamp": ["ok", "ok"], "bo_oamp": ["degenerate", "degenerate"],
            "se_mamp": "ok", "se_oamp": "degenerate",
        }

    def test_moment_mode_override(self, tmp_path):
        cfg = write_config(tmp_path / "exp.ini", label="est", n_seeds=1, N=256)
        rc = main(["run", cfg, "--out-dir", str(tmp_path), "--moment-mode", "estimated"])
        assert rc == 0


# (rtol, atol) per CSV column, the reference-seed tolerances of the benchmark
# (perfbench/run.py); every other column must match its recorded text exactly
GOLDEN_TOL = {
    "mse_db_mean": (1e-9, 1e-12),
    "mse_db_std": (1e-8, 1e-12),
    "se_mse_db": (1e-9, 1e-12),
    "theta": (1e-9, 1e-12),
    "xi": (1e-9, 1e-12),
}


class TestShippedConfigPins:
    """Seed-0 CSVs of the shipped configs that no benchmark workload runs."""

    @pytest.mark.parametrize("label", ["wellconditioned", "underloaded"])
    def test_seed_zero_csv_matches_recorded(self, label, tmp_path):
        cfg = str(REPO / "configs" / f"{label}.ini")
        assert main(["run", cfg, "--seed", "0", "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / f"{label}.csv", newline="") as fh:
            got = list(csv.DictReader(fh))
        with open(REPO / "tests" / "golden" / f"{label}.csv", newline="") as fh:
            want = list(csv.DictReader(fh))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.keys() == w.keys()
            for col, ref in w.items():
                where = (w["algo"], w["iter"], col, g[col], ref)
                if col not in GOLDEN_TOL:
                    assert g[col] == ref, where
                    continue
                a, b = float(g[col]), float(ref)
                rtol, atol = GOLDEN_TOL[col]
                both_nan = math.isnan(a) and math.isnan(b)
                assert both_nan or abs(a - b) <= atol + rtol * abs(b), where

    def test_bounded_fixed_point_matches_recorded(self, capsys):
        """The benchmark's bounded_fixed_point output, under its 2e-9 relative rule."""
        cfg = str(REPO / "configs" / "illconditioned_damping.ini")
        argv = ["fixed-point", cfg, "--moment-mode", "bounded", "--seed", "0"]
        assert main(argv) == 0
        got = capsys.readouterr().out
        want = (REPO / "perfbench" / "golden" / "bounded_fixed_point.txt").read_text()
        patterns = {
            "v_gamma": r"v_gamma\* = (\S+)",
            "v_phi": r"v_phi\*\s+= (\S+)",
            "mmse": r"posterior mse at fixed point: (\S+)",
        }
        for key, pattern in patterns.items():
            a, b = (float(re.search(pattern, text).group(1)) for text in (got, want))
            assert math.isclose(a, b, rel_tol=2e-9), (key, a, b)
