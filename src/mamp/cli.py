"""Command-line front end: run, se, fixed-point and compare subcommands."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .harness import (
    _SIMULATIONS,
    ConfigError,
    ExperimentConfig,
    emit_csv,
    emit_plot_script,
    run_experiment,
)

FP_RTOL = 1e-4  # evolution tail vs fixed point, relative
FP_CROSS_RTOL = 1e-8  # series vs eigenvalue-exact fixed point, relative
SE_GAP_TOL_DB = 0.5  # simulation vs evolution curve, largest gap in dB


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.moment_mode is not None:
        overrides["moment_mode"] = args.moment_mode
    return replace(config, **overrides) if overrides else config


def _emit(report, config: ExperimentConfig) -> None:
    os.makedirs(config.out_dir, exist_ok=True)
    base = os.path.join(config.out_dir, config.label)
    emit_csv(report, base + ".csv")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    if not report.algorithms:
        print(f"wrote {base}.csv, {base}.json; no curves to plot")
        return
    emit_plot_script(report, base + "_plot.py")
    print(f"wrote {base}.csv, {base}.json, {base}_plot.py")


def _cmd_run(args) -> int:
    config = _load_config(args)
    report = run_experiment(config)
    _emit(report, config)
    fp = report.fixed_point
    if fp is not None:
        if "error" in fp:
            print(f"fixed point unavailable: {fp['error']}")
        else:
            print(f"fixed point: mse = {fp['mse_db']:.3f} dB")
    return 0


def _cmd_se(args) -> int:
    config = _load_config(args)
    evolutions = {*_SIMULATIONS.values(), "fixed_point"}
    se_algos = tuple(a for a in config.algorithms if a in evolutions) or (
        "se_mamp", "fixed_point"
    )
    config = replace(config, algorithms=se_algos, n_seeds=0)
    report = run_experiment(config)
    _emit(report, config)
    return 0


def _cmd_fixed_point(args) -> int:
    config = _load_config(args)
    config = replace(config, algorithms=("fixed_point",), n_seeds=0)
    report = run_experiment(config)
    fp = report.fixed_point
    if "error" in fp:
        print(f"fixed point unavailable: {fp['error']}", file=sys.stderr)
        return 1
    print(f"v_gamma* = {fp['v_gamma']:.9e}")
    print(f"v_phi*   = {fp['v_phi']:.9e}")
    print(f"posterior mse at fixed point: {fp['mmse']:.9e}  ({fp['mse_db']:.4f} dB)")
    rel = abs(fp["v_phi"] - fp["v_phi_eig"]) / fp["v_phi_eig"]
    print(f"eigenvalue-exact cross-check: relative gap {rel:.3e}")
    return 0


def _cmd_compare(args) -> int:
    """Simulation vs evolution vs fixed point, exiting nonzero on violation."""
    config = _load_config(args)
    algos = set(config.algorithms) | {"bo_mamp", "se_mamp", "fixed_point"}
    config = replace(config, algorithms=tuple(sorted(algos)))
    report = run_experiment(config)
    _emit(report, config)
    failures = []

    sim = report.mse_db_mean.get("bo_mamp")
    se = report.se_mse_db.get("bo_mamp")
    if sim is None or se is None:
        failures.append("missing bo_mamp or its evolution curve")
    else:
        gap = np.nanmax(np.abs(sim - se))
        print(f"simulation vs evolution: max gap {gap:.3f} dB "
              f"(tolerance {SE_GAP_TOL_DB})")
        if not gap <= SE_GAP_TOL_DB:
            failures.append(f"simulation/evolution gap {gap:.3f} dB")

    fp = report.fixed_point
    if fp is None or "error" in fp:
        failures.append(f"fixed point unavailable: {(fp or {}).get('error')}")
    else:
        long_run = run_experiment(
            replace(
                config,
                algorithms=("se_mamp",),
                n_seeds=0,
                se_nle_mode="deterministic",
                T=max(config.T, 200),
            )
        )
        # the ledger diagonal (extrinsic variance) is the quantity sharing the
        # fixed point v_phi*; mse curves report the posterior error instead
        se_final = 10 ** (long_run.mse_db_mean["se_mamp"][-1] / 10.0)
        fp_mmse = fp["mmse"]
        rel_fp = abs(se_final - fp_mmse) / fp_mmse
        print(f"evolution tail vs fixed point: relative gap {rel_fp:.3e} "
              f"(tolerance {FP_RTOL})")
        if not rel_fp <= FP_RTOL:
            failures.append(f"evolution/fixed-point gap {rel_fp:.3e}")
        rel_x = abs(fp["v_phi"] - fp["v_phi_eig"]) / fp["v_phi_eig"]
        print(f"fixed point vs eigenvalue-exact: relative gap {rel_x:.3e} "
              f"(tolerance {FP_CROSS_RTOL})")
        if not rel_x <= FP_CROSS_RTOL:
            failures.append(f"fixed-point cross-check gap {rel_x:.3e}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("compare: all tolerances met")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mamp",
        description="Memory-AMP experiments: simulation, state evolution, fixed points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("run", _cmd_run, "run the configured algorithms and emit CSV/JSON/plot"),
        ("se", _cmd_se, "evolution-only run (no simulation seeds)"),
        ("fixed-point", _cmd_fixed_point, "print the analytic fixed point"),
        ("compare", _cmd_compare, "simulation + evolution + fixed point with assertions"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="path to an INI experiment config")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")
        p.add_argument("--out-dir", default=None, help="override output directory")
        p.add_argument("--threads", type=int, default=None, help="seeds simulated at a time")
        p.add_argument(
            "--moment-mode",
            choices=("exact", "estimated", "bounded"),
            default=None,
            help="override spectral-moment source",
        )
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
