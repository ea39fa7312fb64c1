"""The summary that `bench_record.py` prints for benchmark pairs.

The script is loaded by path, as `test_benchmark_contract.py` loads the
benchmark; its summary runs here on hand-made entries, with the metrics and
bounds of the repository's BENCHMARK.json.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

PARENT, CHANGE = "a" * 40, "b" * 40
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "final_mse")


def entry(pair, side, wall_s, batch="b1", workload="bounded_fixed_point", failed=0):
    metrics = {name: {"value": 1.0, "unit": "1"} for name in METRICS}
    metrics["wall_s"] = {"value": wall_s, "unit": "s"}
    return {"rev": PARENT if side == "parent" else CHANGE, "workload": workload,
            "seed": 0, "correct": failed == 0, "failed": failed, "metrics": metrics,
            "parents": [PARENT, CHANGE], "batch": batch, "pair": pair,
            "side": side}


# parent 1.0, 2.0, 3.0, 4.0 s; the change wins pairs 0 and 2, ties pair 1
ENTRIES = [
    entry(0, "parent", 1.0), entry(0, "change", 0.5),
    entry(1, "change", 2.0), entry(1, "parent", 2.0),
    entry(2, "parent", 3.0), entry(2, "change", 2.5),
    entry(3, "parent", 4.0), entry(3, "change", 6.0),
    entry(4, "parent", 9.0),  # its change side never ran
]


def test_summary_counts_wins_and_reads_the_parents_spread():
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "final_mse", "better": "higher", "bound": 0.2}]
    s = bench_record.summarize(ENTRIES, metrics)["metrics"]
    assert s["wall_s"] == {"won": 2, "n": 4, "parent_median": 2.5,
                           "change_median": 2.25, "parent_iqr": 1.5, "bound": 0.25}
    # every final_mse pair ties
    assert s["final_mse"]["won"] == 0 and s["final_mse"]["n"] == 4


def test_higher_is_better_reverses_the_count():
    metrics = [{"name": "wall_s", "better": "higher", "bound": 0.25}]
    assert bench_record.summarize(ENTRIES, metrics)["metrics"]["wall_s"]["won"] == 1


def test_pairs_of_two_batches_stay_apart():
    # a second batch's pair 0 is a pair of its own, not a third side
    more = [entry(0, "parent", 5.0, batch="b2"), entry(0, "change", 4.0, batch="b2")]
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    s = bench_record.summarize(ENTRIES + more, metrics)["metrics"]["wall_s"]
    assert (s["won"], s["n"]) == (3, 5)


def test_a_pair_with_a_failed_side_is_left_out():
    # the change "wins" pair 5 by failing fast, and a failed parent would lose pair 6
    more = [entry(5, "parent", 3.0), entry(5, "change", 0.1, failed=2),
            entry(6, "parent", 0.1, failed=1), entry(6, "change", 3.0)]
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    s = bench_record.summarize(ENTRIES + more, metrics)
    assert s["dropped"] == 2
    assert s["metrics"] == bench_record.summarize(ENTRIES, metrics)["metrics"]


def test_printed_summary_reads_the_file(tmp_path, capsys):
    path = tmp_path / "BENCH_t.json"
    other = entry(0, "parent", 100.0, workload="paper_compare")
    path.write_text(json.dumps([*ENTRIES, other]))
    bench_record.print_summary(path, PARENT, CHANGE, "bounded_fixed_point")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"bounded_fixed_point: parent {PARENT[:10]}, change {CHANGE[:10]}; "
                        "0 pairs left out, a side not correct")
    assert lines[1] == (
        "  wall_s: change better in 2 of 4 pairs; medians 2.5 (parent), "
        "2.25 (change); parent IQR 1.5 (60.0% of its median, bound 25%)"
    )
    assert [ln.split(":")[0].strip() for ln in lines[1:]] == list(METRICS)


@pytest.mark.parametrize("argv", [["t", "--workload", "all"],
                                  ["t", "--workload", "all", "--rev", "HEAD",
                                   "--pairs", "HEAD", "HEAD", "1"]])
def test_one_mode_is_required(argv):
    with pytest.raises(SystemExit):
        bench_record.main(argv)
