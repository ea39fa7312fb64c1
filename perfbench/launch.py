"""One benchmark invocation of the mamp CLI, run in-process as ``python -m mamp.cli``.

    python3 perfbench/launch.py --report FILE [--trace RUN_ID] [--setup-only] -- ARGS...

ARGS go to ``mamp.cli.main`` unchanged.  The launcher stamps the CLOCK_MONOTONIC
time of the first call into an algorithm entry point, so the parent process
can take set-up time as that stamp minus the time it started this process.
``--setup-only`` stops there.  ``--trace`` also wraps the package's public
functions and writes their spans.  The report FILE is JSON and is written
however the CLI ends.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from tracer import ENTRY_POINTS, Tracer, rebind


class SetupDone(BaseException):
    """Raised at the first entry-point call under --setup-only.

    A BaseException, so the harness's ``except ValueError`` cannot swallow it.
    """


def hook_entry_points(state: dict, setup_only: bool) -> None:
    def make(fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if state["entry_monotonic"] is None:
                state["entry_monotonic"] = time.monotonic()
                if setup_only:
                    raise SetupDone
            return fn(*args, **kwargs)

        return hooked

    for module, name in ENTRY_POINTS:
        rebind(module, name, make)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", default=None, metavar="RUN_ID")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    state = {"entry_monotonic": None}
    tracer = Tracer(args.trace) if args.trace is not None else None
    t0 = time.perf_counter()
    import mamp.cli

    if tracer is not None:
        tracer.span("harness.import", t0, time.perf_counter())
        tracer.install()
    hook_entry_points(state, args.setup_only)
    rc = 1
    try:
        rc = mamp.cli.main(cli_args)
    except SetupDone:
        rc = 0
    finally:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        if tracer is not None:
            tracer.dump(args.report + ".spans")
    return rc


if __name__ == "__main__":
    sys.exit(main())
