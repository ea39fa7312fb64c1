"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

The last three tests run the large_n_sim workload (about a minute in all).
"""

import json
import os
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LARGE = run.WORKLOADS["large_n_sim"]


def bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_benchmark_json():
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == declared
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def _spans(*rows):
    # [name, start, end, parent, run_id, attr]
    return [[name, start, end, parent, "t", attr] for name, start, end, parent, attr in rows]


def test_layer_metrics_self_time_and_transform_counts():
    spans = _spans(
        ("algo.bo_mamp", 0.0, 10.0, -1, 2),
        ("operators.apply_gram", 1.0, 3.0, 0, None),
        ("operators.apply", 1.0, 2.0, 1, None),
        ("operators.apply_adjoint", 2.0, 3.0, 1, None),
        ("operators.apply", 4.0, 5.0, 0, None),
        ("operators.apply", 6.0, 6.5, -1, None),  # outside any algorithm
    )
    m = run.layer_metrics(spans)
    assert m["operators.applies_per_iter.bo_mamp"] == 1.5  # 3 transforms, 2 iterations
    assert m["operators.applies_per_iter.amp"] == 0.0
    assert m["core.bo_mamp_self_s"] == pytest.approx(7.0)
    assert m["core.bo_mamp_s_per_iter"] == pytest.approx(5.0)
    assert m["operators.self_s"] == pytest.approx(3.5)


def _perturbed(text: str, column: str, rel: float) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    cells = lines[1].split(",")
    cells[col] = repr(float(cells[col]) * (1.0 + rel))
    return "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"


def test_golden_tolerances_admit_reordering_and_reject_real_changes():
    wl = run.WORKLOADS["paper_compare"]
    recorded = run.golden_path(wl).read_text()
    run.compare_golden(wl, recorded)
    run.compare_golden(wl, _perturbed(recorded, "mse_db_std", 3e-11))
    run.compare_golden(wl, _perturbed(recorded, "theta", 6e-12))
    for column in run.GOLDEN_TOL:
        with pytest.raises(run.CheckFailed):
            run.compare_golden(wl, _perturbed(recorded, column, 1e-6))


def test_seed_and_config_reach_the_program_only_as_cli_arguments(tmp_path):
    args = run.cli_args(LARGE, 1234, tmp_path)
    assert args[:2] == ["run", "perfbench/large_n_sim.ini"]
    assert args[args.index("--seed") + 1] == "1234"
    env = run.child_env()
    added = {k for k in env if os.environ.get(k) != env[k]}
    assert added <= {"PYTHONPATH", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    assert not any("1234" in v or "large_n_sim" in v for v in env.values())

    out = run.OUT_ROOT / "selftest-seed"
    inv = run.invoke(LARGE, 1234, out, deadline=run.time.monotonic() + 120)
    try:
        assert inv.rc == 0, inv.stderr
        report = json.loads((out / "large_n_sim.json").read_text())
        assert report["config"]["base_seed"] == 1234
        assert report["config"]["N"] == 131072
    finally:
        run.shutil.rmtree(out, ignore_errors=True)


def test_traced_invocation_writes_identical_csv():
    out = run.OUT_ROOT / "selftest-trace"
    try:
        plain = run.invoke(LARGE, 0, out / "plain", deadline=run.time.monotonic() + 120)
        traced = run.invoke(LARGE, 0, out / "traced", trace_id="selftest",
                            deadline=run.time.monotonic() + 120)
        assert plain.rc == traced.rc == 0
        assert plain.spans is None and traced.spans
        csv_plain = (out / "plain" / "large_n_sim.csv").read_bytes()
        assert csv_plain == (out / "traced" / "large_n_sim.csv").read_bytes()
    finally:
        run.shutil.rmtree(out, ignore_errors=True)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_equal_benchmark_json(trace, key):
    result = bench("--workload", "large_n_sim", "--seed", "0", "--seconds", "1",
                   "--trace", str(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[key]]
    for m in BENCHMARK[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        applies = {a: result["metrics"][f"operators.applies_per_iter.{a}"]["value"]
                   for a in ("bo_mamp", "bo_oamp", "mf_oamp")}
        assert applies == {"bo_mamp": 4, "bo_oamp": 3, "mf_oamp": 3}


def test_refuses_to_run_outside_a_checkout(tmp_path):
    run.shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                        ignore=run.shutil.ignore_patterns("__pycache__"))
    run.shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large_n_sim", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".perfbench_out").exists()
