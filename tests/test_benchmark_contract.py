"""The benchmark's tracer targets and span contract hold for the package.

`perfbench/tracer.py` rebinds every function, method and entry point it names
by module and name, and a renamed target only fails there, in a traced
benchmark run.  This reads its three tables, without changing them, and checks
each name against the package.  `perfbench/run.py` also requires each traced
workload to record a set of spans; the cheapest workload is traced here as
the benchmark runs it.  Every workload's command line is parsed and its config
loaded as the CLI does, so a dropped flag or config key fails here too.  The
benchmark's reading of the outputs (the JSON report's keys, the CSV's columns
and the `mamp fixed-point` lines) runs on a small fresh run, so a trimmed
report, CSV or printout fails here too.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mamp import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses look their module up while it executes
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("perfbench_tracer", PERFBENCH / "tracer.py")
run = _load("perfbench_run", PERFBENCH / "run.py")


@pytest.mark.parametrize(
    "module, name",
    [(m, f) for m, f, _, _ in tracer.FUNCTIONS] + list(tracer.ENTRY_POINTS),
)
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"mamp.{module}"), name, None))


@pytest.mark.parametrize("module, cls_name, method", [m[:3] for m in tracer.METHODS])
def test_traced_method_is_defined_on_its_class(module, cls_name, method):
    cls = getattr(importlib.import_module(f"mamp.{module}"), cls_name, None)
    assert isinstance(cls, type)
    # the tracer wraps the method where a class in the hierarchy defines it
    assert any(method in vars(c) for c in tracer.subclasses(cls))


def test_bounded_fixed_point_records_every_required_span(tmp_path):
    # a fixed-point path that stopped building its operator, or reading its
    # spectrum, would otherwise fail only a full --trace 1 benchmark run
    wl = run.WORKLOADS["bounded_fixed_point"]
    report = tmp_path / "launch.json"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "launch.py"), "--report", str(report),
         "--trace", "contract", "--", *run.cli_args(wl, run.REFERENCE_SEED, tmp_path)],
        cwd=run.ROOT, env=run.child_env(), check=True, capture_output=True,
    )
    spans = json.loads(Path(f"{report}.spans").read_text())["spans"]
    assert wl.spans - {span[0] for span in spans} == set()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_command_line_parses_and_loads(name, tmp_path, monkeypatch):
    wl = run.WORKLOADS[name]
    args = cli.build_parser().parse_args(run.cli_args(wl, run.REFERENCE_SEED, tmp_path))
    # the workloads name their configs relative to the checkout's root
    monkeypatch.chdir(run.ROOT)
    config = cli._load_config(args)
    assert (config.base_seed, config.threads) == (run.REFERENCE_SEED, 1)
    assert config.out_dir == str(tmp_path)


_SMALL_RUN = """[experiment]
algorithms = bo_mamp, bo_oamp, se_mamp, fixed_point
N = 512
T = 10
n_seeds = 2
n_mc = 20000

[output]
label = contract
"""


@pytest.mark.parametrize("name", ["paper_compare", "bounded_fixed_point"])
def test_check_outputs_reads_a_fresh_run(name, tmp_path, capsys):
    config = tmp_path / "contract.ini"
    config.write_text(_SMALL_RUN)
    # the workload's subcommand and flags on the small config
    command, _, *flags = run.WORKLOADS[name].argv
    argv = [command, str(config), "--out-dir", str(tmp_path), *flags]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    label = run.WORKLOADS[name].label and "contract"
    wl = run.Workload(name, tuple(argv), label, frozenset())
    inv = run.Invocation(0, 0.0, None, 0.0, out.out, out.err, tmp_path, None)
    values = run.check_outputs(wl, inv)
    assert values["final_mse"] > 0 and values["fp_rel_gap"] <= run.FP_CROSS_RTOL
