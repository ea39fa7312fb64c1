#!/usr/bin/env python3
"""Benchmark of the mamp CLI, run as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn.  Run it
from the root of a checkout; the CLI is started as ``python -m mamp.cli``
would start it, with ``src`` on PYTHONPATH, ``--threads 1`` and the BLAS
thread pool capped at the number of usable cores.  The workload seed reaches
the program only as the CLI's ``--seed``.

``--trace 0`` repeats the workload as often as it fits in S seconds (at least
once), then adds set-up-only invocations until set-up has been timed
MIN_SETUPS times, and reports the end-to-end metrics as medians.  ``--trace 1`` makes one plain and
one traced invocation and reports per-layer numbers from the traced one's
spans.  Every invocation's outputs are checked; at the reference seed they
are also compared with the outputs recorded in ``golden/``.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"
OUT_ROOT = ROOT / ".perfbench_out"

REFERENCE_SEED = 0
MIN_SETUPS = 3
# every run must end within 180 s; the traced bounded_fixed_point run is the
# longest at about two invocations of 30 s
RUN_DEADLINE_S = 170.0

# tolerances of the seed-independent checks
FP_CROSS_RTOL = 1e-8  # series vs eigenvalue-exact fixed point, as `mamp compare`
MAMP_OAMP_TOL_DB = 0.05  # BO-MAMP reaches the LMMSE OAMP fixed point
# reference-seed comparison: (rtol, atol) per CSV column.  A correct
# reordering of floating-point work moves mse_db_std (a difference of
# per-seed values) by ~3e-11 relative and theta/xi by ~6e-12.
GOLDEN_TOL = {
    "mse_db_mean": (1e-9, 1e-12),
    "mse_db_std": (1e-8, 1e-12),
    "se_mse_db": (1e-9, 1e-12),
    "theta": (1e-9, 1e-12),
    "xi": (1e-9, 1e-12),
}
# `mamp fixed-point` prints 10 significant digits; allow a flip of the last
GOLDEN_FP_RTOL = 2e-9


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    label: str | None  # basename of the CSV/JSON the CLI writes; None: no files
    spans: frozenset  # spans a traced invocation must record


_COMMON_SPANS = {
    "harness.import", "harness.run_experiment", "operators.build",
    "operators.gram_eigenvalues", "spectral.moments", "spectral.tables",
}
_SIM_SPANS = {
    "algo.bo_mamp", "core.memory_le_step", "core.optimal_damping",
    "denoisers.bg_mmse", "operators.sample_instance", "operators.apply",
    "operators.apply_adjoint", "operators.apply_gram", "harness.emit",
}
_FP_SPANS = {
    "evolution.fixed_point", "evolution.fixed_point_exact", "evolution.series",
    "spectral.w_ext", "denoisers.scalar_mmse",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_compare",
            ("run", "configs/illconditioned_damping.ini"),
            "illconditioned_damping",
            frozenset(_COMMON_SPANS | _SIM_SPANS | _FP_SPANS | {
                "algo.bo_oamp", "baselines.lmmse_le", "evolution.se_bo_mamp",
                "evolution.sampler",
            }),
        ),
        Workload(
            "large_n_sim",
            ("run", "perfbench/large_n_sim.ini"),
            "large_n_sim",
            frozenset(_COMMON_SPANS | _SIM_SPANS | {
                "algo.bo_oamp", "algo.mf_oamp", "baselines.lmmse_le",
            }),
        ),
        Workload(
            "bounded_fixed_point",
            ("fixed-point", "configs/illconditioned_damping.ini",
             "--moment-mode", "bounded"),
            None,
            frozenset(_COMMON_SPANS | _FP_SPANS),
        ),
        Workload(
            "iid_dense",
            ("run", "configs/iid_gaussian.ini"),
            "iid_gaussian",
            frozenset(_COMMON_SPANS | _SIM_SPANS | {
                "algo.amp", "evolution.se_bo_mamp", "evolution.sampler",
            }),
        ),
    )
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "final_mse": "1"}
PER_LAYER = {
    "operators.self_s": "s",
    "operators.build_s": "s",
    "operators.gram_eigenvalues_s": "s",
    "operators.applies_per_iter.bo_mamp": "count/iter",
    "operators.applies_per_iter.bo_oamp": "count/iter",
    "operators.applies_per_iter.mf_oamp": "count/iter",
    "operators.applies_per_iter.amp": "count/iter",
    "spectral.tables_s": "s",
    "spectral.w_ext_s": "s",
    "spectral.w_ext_calls": "count",
    "denoisers.bg_mmse_s": "s",
    "denoisers.bg_mmse_entries": "count",
    "denoisers.scalar_mmse_s": "s",
    "denoisers.scalar_mmse_calls": "count",
    "core.bo_mamp_self_s": "s",
    "core.bo_mamp_s_per_iter": "s/iter",
    "core.memory_le_step_s": "s",
    "core.optimal_damping_calls": "count",
    "core.damping_singular": "count",
    "baselines.bo_oamp_s_per_iter": "s/iter",
    "baselines.mf_oamp_s_per_iter": "s/iter",
    "baselines.amp_s_per_iter": "s/iter",
    "baselines.lmmse_le_s": "s",
    "evolution.se_mc_self_s": "s",
    "evolution.sampler_s": "s",
    "evolution.se_det_s": "s",
    "evolution.fixed_point_s": "s",
    "evolution.fixed_point_exact_s": "s",
    "evolution.series_calls": "count",
    "evolution.se_gap_db": "dB",
    "evolution.fp_rel_gap": "1",
    "harness.import_s": "s",
    "harness.run_experiment_s": "s",
    "harness.emit_s": "s",
    "trace.overhead_s": "s",
}


# --------------------------------------------------------------------------
# invoking the CLI


@dataclass
class Invocation:
    rc: int
    wall_s: float
    setup_s: float | None  # None when no algorithm entry point was reached
    rss_mb: float
    stdout: str
    stderr: str
    out_dir: Path
    spans: list | None


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cap = str(usable_cores())
    env["OPENBLAS_NUM_THREADS"] = cap
    env["OMP_NUM_THREADS"] = cap
    return env


def cli_args(wl: Workload, seed: int, out_dir: Path) -> list:
    return [*wl.argv, "--seed", str(seed), "--threads", "1", "--out-dir", str(out_dir)]


def invoke(wl: Workload, seed: int, out_dir: Path, deadline: float,
           trace_id: str | None = None, setup_only: bool = False) -> Invocation:
    """Run one CLI process to its end, or kill it at the deadline."""
    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / "launch.json"
    cmd = [sys.executable, str(BENCH_DIR / "launch.py"), "--report", str(report)]
    if trace_id is not None:
        cmd += ["--trace", trace_id]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", *cli_args(wl, seed, out_dir)]
    with open(out_dir / "stdout.txt", "wb") as so, open(out_dir / "stderr.txt", "wb") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=so, stderr=se)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(deadline - t0, 1.0))
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
            os.close(pidfd)
    stamp = None
    if report.exists():
        stamp = json.loads(report.read_text())["entry_monotonic"]
    spans_path = Path(str(report) + ".spans")
    spans = json.loads(spans_path.read_text())["spans"] if spans_path.exists() else None
    return Invocation(
        rc=proc.returncode,
        wall_s=wall,
        setup_s=None if stamp is None else stamp - t0,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=(out_dir / "stdout.txt").read_text(),
        stderr=(out_dir / "stderr.txt").read_text(),
        out_dir=out_dir,
        spans=spans,
    )


# --------------------------------------------------------------------------
# correctness checks


def read_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def curve(rows: list, algo: str, column: str) -> list:
    return [float(r[column]) for r in rows if r["algo"] == algo]


def parse_fixed_point(stdout: str) -> dict:
    patterns = {
        "v_gamma": r"v_gamma\* = (\S+)",
        "v_phi": r"v_phi\*\s+= (\S+)",
        "mmse": r"posterior mse at fixed point: (\S+)",
        "rel_gap": r"eigenvalue-exact cross-check: relative gap (\S+)",
    }
    out = {}
    for key, pattern in patterns.items():
        m = re.search(pattern, stdout)
        if m is None:
            raise CheckFailed(f"fixed-point output lacks {key}")
        out[key] = float(m.group(1))
    return out


def output_text(inv: Invocation, wl: Workload) -> str:
    """The CSV the CLI wrote, or its stdout when it writes no files."""
    if wl.label is None:
        return inv.stdout
    path = inv.out_dir / f"{wl.label}.csv"
    if not path.exists():
        raise CheckFailed(f"missing {path.name}")
    return path.read_text()


def check_statuses(inv: Invocation, wl: Workload) -> dict:
    report = json.loads((inv.out_dir / f"{wl.label}.json").read_text())
    for algo, status in report["statuses"].items():
        bad = [s for s in (status if isinstance(status, list) else [status]) if s != "ok"]
        if bad:
            raise CheckFailed(f"{algo} status {bad}")
    return report


def check_outputs(wl: Workload, inv: Invocation) -> dict:
    """Seed-independent checks; returns the accuracy figures of the outputs."""
    if inv.rc != 0:
        tail = " | ".join(inv.stderr.strip().splitlines()[-3:])
        raise CheckFailed(f"exit code {inv.rc}: {tail}")
    if wl.label is None:
        fp = parse_fixed_point(inv.stdout)
        if not fp["rel_gap"] <= FP_CROSS_RTOL:
            raise CheckFailed(f"fixed-point cross-check gap {fp['rel_gap']:.3e}")
        return {"final_mse": fp["mmse"], "fp_rel_gap": fp["rel_gap"]}

    report = check_statuses(inv, wl)
    rows = read_rows(output_text(inv, wl))
    T = report["T"]
    for algo in report["algorithms"]:
        mean = curve(rows, algo, "mse_db_mean")
        if len(mean) != T or not all(math.isfinite(v) for v in mean):
            raise CheckFailed(f"{algo}: expected {T} finite mse_db_mean values")
    mamp_db = curve(rows, "bo_mamp", "mse_db_mean")
    values = {"final_mse": 10.0 ** (mamp_db[-1] / 10.0)}
    se_db = curve(rows, "bo_mamp", "se_mse_db")
    if all(math.isfinite(v) for v in se_db):
        values["se_gap_db"] = max(abs(a - b) for a, b in zip(mamp_db, se_db))

    if wl.name == "paper_compare":
        fp = report["fixed_point"]
        rel = abs(fp["v_phi"] - fp["v_phi_eig"]) / fp["v_phi_eig"]
        if not rel <= FP_CROSS_RTOL:
            raise CheckFailed(f"fixed-point cross-check gap {rel:.3e}")
        values["fp_rel_gap"] = rel
    if wl.name == "large_n_sim":
        gap = abs(mamp_db[-1] - curve(rows, "bo_oamp", "mse_db_mean")[-1])
        if not gap <= MAMP_OAMP_TOL_DB:
            raise CheckFailed(f"bo_mamp vs bo_oamp final gap {gap:.4f} dB")
    return values


def golden_path(wl: Workload) -> Path:
    return GOLDEN_DIR / (f"{wl.name}.csv" if wl.label else f"{wl.name}.txt")


def compare_golden(wl: Workload, text: str) -> None:
    """Compare reference-seed outputs with the recorded ones, value by value."""
    want = golden_path(wl).read_text()
    if wl.label is None:
        got_fp, want_fp = parse_fixed_point(text), parse_fixed_point(want)
        for key in ("v_gamma", "v_phi", "mmse"):
            if not math.isclose(got_fp[key], want_fp[key], rel_tol=GOLDEN_FP_RTOL):
                raise CheckFailed(f"golden: {key} {got_fp[key]!r} != {want_fp[key]!r}")
        return
    got_rows, want_rows = read_rows(text), read_rows(want)
    if len(got_rows) != len(want_rows):
        raise CheckFailed(f"golden: {len(got_rows)} rows, recorded {len(want_rows)}")
    for got, ref in zip(got_rows, want_rows):
        if got.keys() != ref.keys():
            raise CheckFailed(f"golden: columns {list(got)} != {list(ref)}")
        for col, ref_val in ref.items():
            if col not in GOLDEN_TOL:
                ok = got[col] == ref_val
            else:
                a, b = float(got[col]), float(ref_val)
                rtol, atol = GOLDEN_TOL[col]
                ok = (math.isnan(a) and math.isnan(b)) or abs(a - b) <= atol + rtol * abs(b)
            if not ok:
                raise CheckFailed(
                    f"golden: {ref['algo']} iter {ref['iter']} {col} {got[col]} != {ref_val}"
                )


def same_run(wl: Workload, a: Invocation, b: Invocation) -> None:
    """Two invocations with one seed must write byte-identical outputs."""
    if output_text(a, wl) != output_text(b, wl):
        raise CheckFailed("outputs differ between two invocations with one seed")
    if a.stdout.replace(str(a.out_dir), "OUT") != b.stdout.replace(str(b.out_dir), "OUT"):
        raise CheckFailed("standard output differs between two invocations with one seed")


# --------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(spans: list) -> dict:
    """Span list [name, start, end, parent, run_id, attr] -> per-layer metrics.

    A parent is always recorded before its children, so one forward pass
    finds each span's enclosing algorithm run.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    algo_of: list = [None] * n
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
        if name.startswith("algo."):
            algo_of[i] = name[len("algo."):]
        elif parent >= 0:
            algo_of[i] = algo_of[parent]

    total, self_time, calls, attr_sum = Counter(), Counter(), Counter(), Counter()
    transforms, iterations = Counter(), Counter()
    se_time = defaultdict(float)
    for i, (name, _, _, _, _, attr) in enumerate(spans):
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        calls[name] += 1
        if isinstance(attr, (int, float)):
            attr_sum[name] += attr
        if name in ("operators.apply", "operators.apply_adjoint") and algo_of[i]:
            transforms[algo_of[i]] += 1
        if name.startswith("algo."):
            iterations[algo_of[i]] += attr
        if name == "evolution.se_bo_mamp":
            se_time[attr, "self"] += dur[i] - child[i]
            se_time[attr, "total"] += dur[i]

    def per_iter(value, algo):
        return value / iterations[algo] if iterations[algo] else 0.0

    return {
        "operators.self_s": sum(v for k, v in self_time.items() if k.startswith("operators.")),
        "operators.build_s": total["operators.build"],
        "operators.gram_eigenvalues_s": total["operators.gram_eigenvalues"],
        **{
            f"operators.applies_per_iter.{a}": per_iter(transforms[a], a)
            for a in ("bo_mamp", "bo_oamp", "mf_oamp", "amp")
        },
        "spectral.tables_s": total["spectral.moments"] + total["spectral.tables"],
        "spectral.w_ext_s": total["spectral.w_ext"],
        "spectral.w_ext_calls": calls["spectral.w_ext"],
        "denoisers.bg_mmse_s": total["denoisers.bg_mmse"],
        "denoisers.bg_mmse_entries": attr_sum["denoisers.bg_mmse"],
        "denoisers.scalar_mmse_s": total["denoisers.scalar_mmse"],
        "denoisers.scalar_mmse_calls": calls["denoisers.scalar_mmse"],
        "core.bo_mamp_self_s": self_time["algo.bo_mamp"],
        "core.bo_mamp_s_per_iter": per_iter(total["algo.bo_mamp"], "bo_mamp"),
        "core.memory_le_step_s": total["core.memory_le_step"],
        "core.optimal_damping_calls": calls["core.optimal_damping"],
        "core.damping_singular": attr_sum["core.optimal_damping"],
        **{
            f"baselines.{a}_s_per_iter": per_iter(total[f"algo.{a}"], a)
            for a in ("bo_oamp", "mf_oamp", "amp")
        },
        "baselines.lmmse_le_s": total["baselines.lmmse_le"],
        "evolution.se_mc_self_s": se_time["mc", "self"],
        "evolution.sampler_s": total["evolution.sampler"],
        "evolution.se_det_s": se_time["deterministic", "total"] + total["evolution.se_scalar"],
        "evolution.fixed_point_s": total["evolution.fixed_point"],
        "evolution.fixed_point_exact_s": total["evolution.fixed_point_exact"],
        "evolution.series_calls": calls["evolution.series"],
        "harness.import_s": total["harness.import"],
        "harness.run_experiment_s": total["harness.run_experiment"],
        "harness.emit_s": total["harness.emit"],
    }


# --------------------------------------------------------------------------
# runs


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict


class Runner:
    """The invocations of one workload at one seed.

    Each invocation counts once in `attempted`, and at most once in `failed`.
    """

    def __init__(self, wl: Workload, seed: int, out_dir: Path, deadline: float):
        self.wl, self.seed, self.out_dir, self.deadline = wl, seed, out_dir, deadline
        self.attempted = 0
        self.failed = 0
        self.first: Invocation | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL {self.wl.name} seed {self.seed}: {message}", file=sys.stderr)

    def invoke(self, check, **kwargs) -> Invocation:
        """Run one invocation and fail it if it reached no entry point or `check` raises."""
        self.attempted += 1
        sub = self.out_dir / f"inv{self.attempted}"
        inv = invoke(self.wl, self.seed, sub, self.deadline, **kwargs)
        kind = "set-up only" if kwargs.get("setup_only") else (
            "traced" if kwargs.get("trace_id") else "full")
        setup = "none" if inv.setup_s is None else f"{inv.setup_s:.3f} s"
        print(f"  invocation {self.attempted} ({kind}): wall {inv.wall_s:.3f} s, "
              f"set-up {setup}, peak RSS {inv.rss_mb:.0f} MB, exit {inv.rc}")
        try:
            if inv.setup_s is None:
                raise CheckFailed(f"no algorithm entry point was reached (exit code {inv.rc})")
            check(inv)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
        return inv

    def full(self, **kwargs) -> tuple[Invocation, dict]:
        """One complete invocation, checked; returns it with its accuracy figures."""
        values = {}

        def check(inv: Invocation) -> None:
            values.update(check_outputs(self.wl, inv))
            if self.first is None:
                self.first = inv
                if self.seed == REFERENCE_SEED:
                    compare_golden(self.wl, output_text(inv, self.wl))
            else:
                same_run(self.wl, self.first, inv)
            if inv.spans is not None:
                missing = sorted(self.wl.spans - {s[0] for s in inv.spans})
                if missing:
                    raise CheckFailed(f"expected spans never fired: {', '.join(missing)}")

        return self.invoke(check, **kwargs), values

    def untraced(self, seconds: int) -> Result:
        start = time.monotonic()
        fulls, values = [], {}
        # whole invocations only: start another while it should end in time
        while not fulls or (
            time.monotonic() - start + fulls[-1].wall_s <= seconds
            and time.monotonic() + 2 * fulls[-1].wall_s < self.deadline
        ):
            inv, values = self.full()
            fulls.append(inv)
        setups = [inv.setup_s for inv in fulls if inv.setup_s is not None]

        def exited_zero(inv: Invocation) -> None:
            if inv.rc != 0:
                raise CheckFailed(f"set-up-only invocation exited {inv.rc}")

        while len(setups) < MIN_SETUPS and time.monotonic() < self.deadline - 20:
            inv = self.invoke(exited_zero, setup_only=True)
            if inv.setup_s is not None:
                setups.append(inv.setup_s)
        if len(setups) < MIN_SETUPS:
            self.fail(f"only {len(setups)} set-up times before the deadline")
        metrics = {
            "wall_s": statistics.median(inv.wall_s for inv in fulls),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": statistics.median(inv.rss_mb for inv in fulls),
            "final_mse": values.get("final_mse", 0.0),
        }
        return Result(self.attempted, self.failed, metrics)

    def traced(self) -> Result:
        plain, values = self.full()
        traced, _ = self.full(trace_id=f"{self.wl.name}-{self.seed}-{os.getpid()}")
        metrics = layer_metrics(traced.spans or [])
        metrics["evolution.se_gap_db"] = values.get("se_gap_db", 0.0)
        metrics["evolution.fp_rel_gap"] = values.get("fp_rel_gap", 0.0)
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        return Result(self.attempted, self.failed, metrics)


def run_workload(wl: Workload, seed: int, seconds: int, trace: int, deadline: float) -> Result:
    out_dir = OUT_ROOT / f"{wl.name}-s{seed}-p{os.getpid()}"
    runner = Runner(wl, seed, out_dir, deadline)
    result = runner.traced() if trace else runner.untraced(seconds)
    if result.failed == 0:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()  # only when no other run's outputs are kept there
        except OSError:
            pass
    else:
        print(f"outputs kept in {out_dir}", file=sys.stderr)
    return result


def environment(seed: int) -> dict:
    import numpy
    from importlib.metadata import version

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": usable_cores(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": usable_cores(),
        "workload_seed": seed,
    }


def missing_sources() -> list:
    needed = ["src/mamp/cli.py", "configs/illconditioned_damping.ini", "configs/iid_gaussian.ini"]
    return [p for p in needed if not (ROOT / p).is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    missing = missing_sources()
    if missing:
        print(f"cannot run: missing {', '.join(missing)}; run from a mamp checkout",
              file=sys.stderr)
        return 2
    # stop the running CLI process when the benchmark itself is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    print("environment " + json.dumps(environment(args.seed)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    metrics = {}
    for name in names:
        # `all` gives each workload its own 180 s budget
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace,
                              time.monotonic() + RUN_DEADLINE_S)
        attempted += result.attempted
        failed += result.failed
        print(f"{name} (seed {args.seed}, {result.attempted} invocations, "
              f"{result.failed} failed)")
        prefix = f"{name}." if len(names) > 1 else ""
        for key, unit in units.items():
            value = result.metrics[key]
            print(f"  {key:<40} {value:>14.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
