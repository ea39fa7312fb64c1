#!/usr/bin/env python3
"""Record benchmark runs of git revisions in BENCH_<topic>.json.

    python3 bench_record.py TOPIC --workload W --rev REV
    python3 bench_record.py TOPIC --workload W --pairs PARENT CHANGE N

Each revision is extracted with ``git archive`` into a fresh temporary
directory, and ``perfbench/run.py --workload W --seed 0 --seconds 30 --trace 0``
runs unchanged from its root, under the interpreter that runs this script.
Every run appends one entry to BENCH_<topic>.json next to this script: the
revision, workload and seed, the ``environment`` line that run.py prints,
``correct``, ``failed`` and the metrics, as soon as the run ends.

``--pairs`` extracts both revisions the same way (temporary directories whose
paths have the same length: peak RSS depends on where a checkout lives), runs
N pairs and alternates which side runs first.  Its entries also carry the
batch (when the pairs began), the pair index and the side.  After the pairs it
prints for each end-to-end metric of BENCHMARK.json how many pairs the change
won (a tie counts for neither side), both medians, and the parent's
interquartile range next to the metric's regression bound.  A pair in which
either side was not correct is left out of that summary and counted apart.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SECONDS = 30
SEED = 0


def resolve(rev: str) -> str:
    out = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def extract(rev: str) -> Path:
    """A fresh checkout of rev, at <new temporary directory>/mamp."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    dest = Path(tempfile.mkdtemp(prefix="mamp-bench-")) / "mamp"
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_benchmark(checkout: Path, rev: str, workload: str) -> dict:
    """One run of the checkout's perfbench/run.py, as an entry."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env_line = next((ln for ln in lines if ln.startswith("environment ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "metrics": {},
                  "error": proc.stderr[-2000:]}
    return {
        "rev": rev,
        "workload": workload,
        "seed": SEED,
        "seconds": SECONDS,
        "trace": 0,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": json.loads(env_line.split(" ", 1)[1]) if env_line else None,
        **{k: result.get(k) for k in ("correct", "failed", "metrics")},
        **({"error": result["error"]} if "error" in result else {}),
    }


def append(path: Path, entry: dict) -> None:
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")


def summarize(entries: list, metrics: list) -> dict:
    """Pairs left out, and per end-to-end metric: pairs won, medians, parent IQR.

    entries are the pairs-mode entries of one parent, change and workload;
    metrics are BENCHMARK.json's end_to_end items (name, better, bound).  A
    pair in which a side is not correct is left out and counted in
    "dropped"; any other pair counts for a metric once both sides report it.
    The quartiles are statistics.quantiles' inclusive ones.
    """
    pairs: dict = {}
    for e in entries:
        pairs.setdefault((e["batch"], e["pair"]), {})[e["side"]] = e
    kept = [{side: e["metrics"] for side, e in p.items()} for p in pairs.values()
            if all(e["correct"] is True for e in p.values())]
    out: dict = {"dropped": len(pairs) - len(kept), "metrics": {}}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        values = [(p["parent"][name]["value"], p["change"][name]["value"])
                  for p in kept
                  if name in p.get("parent", {}) and name in p.get("change", {})]
        if not values:
            continue
        parent = [a for a, _ in values]
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else (parent[0],) * 3)
        out["metrics"][name] = {
            "won": sum(sign * (a - c) > 0 for a, c in values),
            "n": len(values),
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(c for _, c in values),
            "parent_iqr": q3 - q1,
            "bound": m["bound"],
        }
    return out


def print_summary(path: Path, parent: str, change: str, workload: str) -> None:
    entries = [e for e in json.loads(path.read_text())
               if e.get("parents") == [parent, change] and e["workload"] == workload]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = summarize(entries, metrics)
    print(f"{workload}: parent {parent[:10]}, change {change[:10]}; "
          f"{summary['dropped']} pairs left out, a side not correct")
    for name, s in summary["metrics"].items():
        rel = s["parent_iqr"] / s["parent_median"] if s["parent_median"] else 0.0
        print(f"  {name}: change better in {s['won']} of {s['n']} pairs; medians "
              f"{s['parent_median']:.6g} (parent), {s['change_median']:.6g} (change); "
              f"parent IQR {s['parent_iqr']:.3g} ({rel:.1%} of its median, "
              f"bound {s['bound']:.0%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("topic", help="the file is BENCH_<topic>.json")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rev", help="run one revision once")
    mode.add_argument("--pairs", nargs=3, metavar=("PARENT", "CHANGE", "N"))
    args = parser.parse_args(argv)
    path = ROOT / f"BENCH_{args.topic}.json"

    revs = [resolve(r) for r in ([args.rev] if args.rev else args.pairs[:2])]
    checkouts = [extract(r) for r in revs]
    try:
        if args.rev:
            entry = run_benchmark(checkouts[0], revs[0], args.workload)
            append(path, entry)
            print(json.dumps({k: entry[k] for k in ("rev", "correct", "metrics")}))
            return 0
        batch = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        for i in range(int(args.pairs[2])):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for k, side in zip(order, ("first", "second")):
                entry = run_benchmark(checkouts[k], revs[k], args.workload)
                entry.update(parents=revs, batch=batch, pair=i,
                             side=("parent", "change")[k], order=side)
                append(path, entry)
                print(f"pair {i} {entry['side']}: correct {entry['correct']}", flush=True)
        print_summary(path, *revs, args.workload)
    finally:
        for c in checkouts:
            shutil.rmtree(c.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
