"""Experiment orchestration: config files, seeded multi-run sweeps, CSV/JSON/plots.

A config fully determines the experiment; runs are reproducible bit-for-bit on
one platform from (config, base_seed).  All algorithms within a seed consume
the same operator and instance, and the matrix seed can be pinned separately
for same-matrix/new-noise studies.
"""

from __future__ import annotations

import configparser
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .baselines import run_amp, run_bo_oamp, run_mf_oamp
from .core import AlgorithmResult, run_bo_mamp
from .denoisers import PriorParams, scalar_mmse
from .evolution import (
    bo_oamp_fixed_point_exact,
    oamp_fixed_point,
    run_bo_mamp_se,
    run_bo_oamp_se,
    run_mf_oamp_se,
)
from .operators import (
    build_iid_gaussian_operator,
    build_structured_operator,
    make_geometric_singular_values,
    sample_instance,
)
from .spectral import (
    MomentTables,
    bound_extremal_eigenvalues,
    build_moment_tables,
    estimate_moments_power_recursion,
    exact_moments_from_singular_values,
    tables_from_singular_values,
)

KNOWN_ALGORITHMS = (
    "bo_mamp",
    "bo_oamp",
    "mf_oamp",
    "amp",
    "se_mamp",
    "se_oamp",
    "se_mf_oamp",
    "fixed_point",
)
_SIM_ALGOS = ("bo_mamp", "bo_oamp", "mf_oamp", "amp")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


# how a config file's value is read, by the first word of its field's type
_PARSERS = {
    "tuple": lambda raw: tuple(a.strip() for a in raw.split(",") if a.strip()),
    "int": int,
    "float": float,
    "str": str.strip,
}


@dataclass
class ExperimentConfig:
    algorithms: tuple = ("bo_mamp", "bo_oamp", "se_mamp", "fixed_point")
    N: int = 8192
    M: int | None = None
    delta: float | None = 0.5
    kappa: float = 10.0
    mu: float = 0.1
    snr_db: float = 30.0
    T: int = 30
    L: int = 3
    n_seeds: int = 1
    base_seed: int = 0
    matrix_seed: int | None = None
    matrix_model: str = "structured"  # structured | iid
    moment_mode: str = "exact"  # exact | estimated | bounded
    n_mc: int = 100_000
    se_nle_mode: str = "mc"  # mc | deterministic
    threads: int = 1
    out_dir: str = "."
    label: str = "experiment"
    compare_se_tol_db: float = 0.5

    def __post_init__(self):
        self.algorithms = tuple(self.algorithms)
        for a in self.algorithms:
            if a not in KNOWN_ALGORITHMS:
                raise ConfigError(f"algorithms: unknown algorithm {a!r}")
        if self.N < 2:
            raise ConfigError(f"N: must be >= 2, got {self.N}")
        if self.M is None and self.delta is None:
            raise ConfigError("M/delta: provide one of M or delta")
        if self.delta is not None and not 0 < self.delta < math.inf:
            raise ConfigError(f"delta: must be positive and finite, got {self.delta}")
        if self.M is None:
            self.M = int(round(self.delta * self.N))
        if self.M < 1:
            raise ConfigError(f"M: must be >= 1, got {self.M}")
        implied = self.M / self.N
        if self.delta is None:
            self.delta = implied
        elif abs(implied - self.delta) > 1e-9:
            raise ConfigError(
                f"delta: inconsistent with M/N ({self.delta} vs {implied})"
            )
        if not 1 <= self.kappa < math.inf:
            raise ConfigError(f"kappa: must be >= 1 and finite, got {self.kappa}")
        if not 0 < self.mu <= 1:
            raise ConfigError(f"mu: must be in (0, 1], got {self.mu}")
        if not math.isfinite(self.snr_db):
            raise ConfigError(f"snr_db: must be finite, got {self.snr_db}")
        if self.T < 1:
            raise ConfigError(f"T: must be >= 1, got {self.T}")
        if self.L < 1:
            raise ConfigError(f"L: must be >= 1, got {self.L}")
        if self.n_seeds < 0:
            raise ConfigError(f"n_seeds: must be >= 0, got {self.n_seeds}")
        if self.matrix_model not in ("structured", "iid"):
            raise ConfigError(f"matrix_model: unknown model {self.matrix_model!r}")
        if self.matrix_model == "iid" and "bo_oamp" in self.algorithms:
            raise ConfigError(
                "matrix_model: iid keeps no singular values, which bo_oamp needs"
            )
        if self.moment_mode not in ("exact", "estimated", "bounded"):
            raise ConfigError(f"moment_mode: unknown mode {self.moment_mode!r}")
        if self.n_mc < 1:
            raise ConfigError(f"n_mc: must be >= 1, got {self.n_mc}")
        if self.se_nle_mode not in ("mc", "deterministic"):
            raise ConfigError(f"se_nle_mode: unknown mode {self.se_nle_mode!r}")
        if self.threads < 1:
            raise ConfigError(f"threads: must be >= 1, got {self.threads}")

    @property
    def sigma2(self) -> float:
        return 10.0 ** (-self.snr_db / 10.0)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (N, M, T, L)
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found or unreadable: {path}")
        kwargs: dict = {}
        sections = [s for s in ("experiment", "output", "compare") if parser.has_section(s)]
        if not sections:
            raise ConfigError("config needs an [experiment] section")
        # annotations are strings here: "int", "float | None", ...
        kinds = {f.name: f.type.split(" ")[0] for f in fields(cls)}
        for section in sections:
            for key, raw in parser.items(section):
                if key not in kinds:
                    raise ConfigError(f"{key}: unknown config key")
                kwargs[key] = _PARSERS[kinds[key]](raw)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def _build_operator(config: ExperimentConfig, seed_index: int):
    if config.matrix_seed is not None:
        op_entropy = [config.matrix_seed]
    else:
        op_entropy = [config.base_seed + seed_index, 0x0FEA]
    op_seed = np.random.SeedSequence(op_entropy)
    if config.matrix_model == "structured":
        energy = float(config.N) if config.M <= config.N else float(config.M)
        d = make_geometric_singular_values(min(config.M, config.N), config.kappa, energy)
        return build_structured_operator(
            config.M, config.N, d, np.random.default_rng(op_seed)
        )
    return build_iid_gaussian_operator(
        config.M, config.N, np.random.default_rng(op_seed)
    )


def _singular_values(config: ExperimentConfig, operator) -> np.ndarray:
    """The min(M, N) largest square roots of the Gram eigenvalues, descending."""
    d = np.sort(np.sqrt(np.clip(operator.gram_eigenvalues(), 0.0, None)))[::-1]
    return d[: min(config.M, config.N)]


def _spectral_inputs(config: ExperimentConfig, operator) -> MomentTables:
    """The tables for the configured moment mode; they carry the run's spectrum.

    The estimated mode never computes the Gram eigenvalues, so its spectrum
    holds none.  The bounded mode's trace bound on lambda_max sums powers of
    d_k^2 / m, m the power of two above max d_k^2: each is at most 1.
    """
    N, M, T = config.N, config.M, config.T
    if config.moment_mode == "estimated":
        profile = estimate_moments_power_recursion(
            operator, T, rng_seed=config.base_seed + 0x5EED
        )
        return build_moment_tables(profile, T)
    d = _singular_values(config, operator)
    extremes = None
    if config.moment_mode == "bounded":
        d_sq = d**2
        m = math.ldexp(1.0, math.frexp(float(d_sq.max()))[1])
        scaled_sum = float(np.sum((d_sq / m) ** (2 * T)))
        lo, hi = bound_extremal_eigenvalues(scaled_sum, 2 * T, 1)
        extremes = (lo, m * hi)
    return tables_from_singular_values(d, N, T, M=M, lambda_extremes=extremes)


def _run_seed(config: ExperimentConfig, seed_index: int, ref_op, tables):
    """Simulate every configured algorithm on one seed's operator and instance.

    Seed 0 runs on ref_op, the operator built for set-up; so does every seed
    when matrix_seed pins the matrix, and any other seed builds its own.
    Otherwise run_experiment hands ref_op to seed 0's task alone, so the
    set-up operator is released once seed 0 is done, in both sweeps.
    """
    if config.matrix_seed is not None or seed_index == 0:
        op = ref_op
    else:
        op = _build_operator(config, seed_index)
    if config.matrix_model == "iid" and config.matrix_seed is None and seed_index > 0:
        # IID draws have per-realization spectra; structured operators share
        # the deterministic singular values, so only the first seed's tables
        # can be reused there.
        if {"bo_mamp", "mf_oamp"} & set(config.algorithms):
            tables = _spectral_inputs(config, op)
    prior = PriorParams(mu=config.mu)
    inst_seed = np.random.SeedSequence([config.base_seed + seed_index, 0x1A57])
    inst = sample_instance(op, prior, config.snr_db, np.random.default_rng(inst_seed))
    results: dict[str, AlgorithmResult] = {}
    for algo in config.algorithms:
        if algo == "bo_mamp":
            results[algo] = run_bo_mamp(inst, prior, tables, config.T, config.L)
        elif algo == "bo_oamp":
            results[algo] = run_bo_oamp(inst, prior, config.T)
        elif algo == "mf_oamp":
            results[algo] = run_mf_oamp(inst, prior, config.T, tables.spectrum)
        elif algo == "amp":
            results[algo] = run_amp(inst, prior, config.T)
        # the report reads only records and statuses: drop the N-vector now
        results[algo].x_hat = None
    return results


@dataclass
class RunReport:
    config: dict
    algorithms: tuple
    T: int
    n_seeds: int
    mse_db_mean: dict
    mse_db_std: dict
    se_mse_db: dict
    theta: dict
    xi: dict
    zeta: dict
    statuses: dict
    fixed_point: dict | None
    spectral: dict
    wall_clock_s: float
    version: str = __version__

    def to_json(self) -> str:
        def _clean(obj):
            if isinstance(obj, np.ndarray):
                return [_clean(v) for v in obj.tolist()]
            if isinstance(obj, dict):
                return {k: _clean(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [_clean(v) for v in obj]
            if isinstance(obj, complex):
                return [obj.real, obj.imag]
            if isinstance(obj, float) and not np.isfinite(obj):
                return None
            if isinstance(obj, (np.floating, np.integer)):
                return _clean(obj.item())
            return obj

        return json.dumps(_clean(asdict(self)), indent=1, sort_keys=True)


def _to_db(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return 10.0 * np.log10(values)


def _nan_columns(reduce, stack: np.ndarray) -> np.ndarray:
    """reduce(stack, axis=0) over the columns holding a non-NaN value, NaN elsewhere.

    An all-NaN column (every seed stopped before that iteration) is left NaN
    without calling the reduction on an empty slice, which would warn.
    """
    out = np.full(stack.shape[1], np.nan)
    live = ~np.isnan(stack).all(axis=0)
    out[live] = reduce(stack[:, live], axis=0)
    return out


def _fixed_point_entry(config: ExperimentConfig, tables, prior) -> dict:
    vg, vp = oamp_fixed_point(tables, prior, config.sigma2)
    # mse_db reports the posterior error at the fixed point, comparable with
    # the simulated curves; v_phi is the extrinsic variance matching the
    # ledger diagonal.
    mmse_fp = scalar_mmse(vg, prior)
    entry = {
        "v_gamma": vg,
        "v_phi": vp,
        "mmse": mmse_fp,
        "mse_db": float(_to_db(np.array([mmse_fp]))[0]),
    }
    if tables.spectrum.eigs is not None:
        vg_x, vp_x = bo_oamp_fixed_point_exact(tables.spectrum, prior, config.sigma2)
        entry["v_phi_eig"] = vp_x
        entry["v_gamma_eig"] = vg_x
    return entry


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute the configured sweep and aggregate per-iteration MSE curves.

    Every algorithm yields AlgorithmResults: a simulation one per seed, an
    evolution one in all (they are size-free), and one loop reads them alike.
    mse_db_mean is 10 log10 of the mean MSE over the results; mse_db_std is
    the standard deviation over the results of their dB values (zeros for
    one).  theta, xi and zeta come from the first result and statuses from
    all.  The se_mse_db column is an evolution's own curve, and a
    simulation's is that of its evolution twin when configured.  The
    Monte-Carlo evolution runs after the seed sweep, once no operator is alive.
    """
    t_start = time.time()
    ref_op = _build_operator(config, 0)
    tables = _spectral_inputs(config, ref_op)
    spectrum = tables.spectrum
    prior = PriorParams(mu=config.mu)

    results: dict[str, list[AlgorithmResult]] = {}
    # Everything that reads the set-up operator runs before the sweep, and
    # the Monte-Carlo evolution, which needs only the tables, after it: the
    # operator is gone by then, so its memory and the evolution's histories
    # are never resident together.
    fixed_point = None
    if "fixed_point" in config.algorithms:
        try:
            fixed_point = _fixed_point_entry(config, tables, prior)
        except ValueError as exc:
            # estimate-built tables cannot feed the geometric series, and a
            # series that has not converged by max_terms is truncated; record
            # the failure instead of aborting the whole experiment
            fixed_point = {"error": str(exc)}
    if "se_oamp" in config.algorithms:
        exact = spectrum
        if exact.eigs is None:
            exact = exact_moments_from_singular_values(
                _singular_values(config, ref_op), config.N, 1, M=config.M
            )
        results["se_oamp"] = [run_bo_oamp_se(exact, prior, config.sigma2, config.T)]
    if "se_mf_oamp" in config.algorithms:
        se_mf = run_mf_oamp_se(spectrum, prior, config.sigma2, config.T)
        results["se_mf_oamp"] = [se_mf]

    # only seed 0's task takes the set-up operator, so it is released when
    # that task ends; one that matrix_seed pins, or that no seed ran on, is
    # released by held.clear() after the sweep
    held, ref_op = [ref_op], None
    sim_algos = [a for a in config.algorithms if a in _SIM_ALGOS]
    if sim_algos and config.n_seeds > 0:
        sim_cfg = replace(config, algorithms=tuple(sim_algos))

        def seed_task(k):
            if config.matrix_seed is not None:
                return _run_seed(sim_cfg, k, held[0], tables)
            return _run_seed(sim_cfg, k, held.pop() if k == 0 else None, tables)

        if config.threads > 1:
            # concurrent.futures loads here: only a threaded sweep needs it
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=config.threads) as pool:
                per_seed = list(pool.map(seed_task, range(config.n_seeds)))
        else:
            per_seed = [seed_task(k) for k in range(config.n_seeds)]
        for algo in sim_algos:
            results[algo] = [res[algo] for res in per_seed]
    held.clear()

    if "se_mamp" in config.algorithms:
        results["se_mamp"] = [
            run_bo_mamp_se(
                tables, prior, config.sigma2, config.T, L=config.L,
                nle_mode=config.se_nle_mode, n_mc=config.n_mc,
                rng_seed=config.base_seed + 0x5E,
            )
        ]

    mse_db_mean: dict[str, np.ndarray] = {}
    mse_db_std: dict[str, np.ndarray] = {}
    se_col: dict[str, np.ndarray] = {}
    theta: dict[str, np.ndarray] = {}
    xi: dict[str, np.ndarray] = {}
    zeta: dict[str, list] = {}
    statuses: dict[str, object] = {}
    # the evolution whose curve fills a simulation's se_mse_db column; an
    # evolution's is its own
    se_source = {"bo_mamp": "se_mamp", "bo_oamp": "se_oamp", "mf_oamp": "se_mf_oamp",
                 "amp": None}
    for algo in config.algorithms:
        if algo not in results:
            continue
        runs = results[algo]
        stack = np.stack([res.mse for res in runs])
        if len(runs) > 1:
            mse_db_mean[algo] = _to_db(_nan_columns(np.nanmean, stack))
            mse_db_std[algo] = _nan_columns(np.nanstd, _to_db(stack))
        else:
            mse_db_mean[algo], mse_db_std[algo] = _to_db(stack[0]), np.zeros(config.T)
        first = runs[0]
        theta[algo] = first.trajectory("theta")
        xi[algo] = first.trajectory("xi")
        zeta[algo] = [r.zeta.tolist() for r in first.records]
        statuses[algo] = [res.status for res in runs] if algo in _SIM_ALGOS else first.status
        se_runs = results.get(se_source.get(algo, algo))
        se_col[algo] = _to_db(se_runs[0].mse) if se_runs else np.full(config.T, np.nan)
    return RunReport(
        config=asdict(config),
        algorithms=tuple(a for a in config.algorithms if a in mse_db_mean),
        T=config.T,
        n_seeds=config.n_seeds,
        mse_db_mean=mse_db_mean,
        mse_db_std=mse_db_std,
        se_mse_db=se_col,
        theta=theta,
        xi=xi,
        zeta=zeta,
        statuses=statuses,
        fixed_point=fixed_point,
        spectral=spectrum.to_dict(),
        wall_clock_s=time.time() - t_start,
    )


CSV_HEADER = "algo,iter,mse_db_mean,mse_db_std,se_mse_db,theta,xi,n_seeds"


def _fmt(x: float) -> str:
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return "nan"
    return format(float(x), ".12g")


def emit_csv(report: RunReport, path: str) -> None:
    """One row per (algorithm, iteration); deterministic order and formatting."""
    lines = [CSV_HEADER]
    for algo in report.algorithms:
        mean = report.mse_db_mean[algo]
        std = report.mse_db_std[algo]
        se = report.se_mse_db[algo]
        th = report.theta[algo]
        xi = report.xi[algo]
        for t in range(report.T):
            lines.append(
                ",".join(
                    [
                        algo,
                        str(t + 1),
                        _fmt(mean[t]),
                        _fmt(std[t]),
                        _fmt(se[t]),
                        _fmt(th[t]),
                        _fmt(xi[t]),
                        str(report.n_seeds),
                    ]
                )
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""MSE-versus-iteration plot for {label}; reads {csv_name} next to this script."""

import csv
import os
from collections import defaultdict

import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
curves = defaultdict(lambda: ([], []))
se_curves = defaultdict(lambda: ([], []))
with open(os.path.join(here, "{csv_name}"), newline="") as fh:
    for row in csv.DictReader(fh):
        it = int(row["iter"])
        mse = float(row["mse_db_mean"])
        se = float(row["se_mse_db"])
        if mse == mse:
            curves[row["algo"]][0].append(it)
            curves[row["algo"]][1].append(mse)
        if se == se and not row["algo"].startswith("se_"):
            se_curves[row["algo"]][0].append(it)
            se_curves[row["algo"]][1].append(se)

fig, ax = plt.subplots(figsize=(7, 5))
for algo in {algos}:
    if algo in curves:
        style = "--" if algo.startswith("se_") else "-"
        ax.plot(*curves[algo], style, marker="o", ms=3, label=algo)
    if algo in se_curves:
        ax.plot(*se_curves[algo], "k--", lw=1, label=algo + " (evolution)")
ax.set_xlabel("iteration")
ax.set_ylabel("MSE (dB)")
ax.grid(True, alpha=0.3)
ax.legend()
fig.tight_layout()
fig.savefig(os.path.join(here, "{label}.png"), dpi=150)
print("wrote {label}.png")
'''


def emit_plot_script(report: RunReport, path: str, csv_name: str | None = None) -> None:
    """Standalone matplotlib script rendering the CSV; no plotting import here."""
    if not report.algorithms:
        raise ValueError("report contains no algorithm curves to plot")
    label = report.config.get("label", "experiment")
    csv_name = csv_name or f"{label}.csv"
    script = _PLOT_TEMPLATE.format(
        label=label, csv_name=csv_name, algos=sorted(report.algorithms)
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
