"""One fresh btspec process: run a CLI command and report on it.

Usage: child.py RESULT_JSON MODE -- CLI_ARGS...

MODE is one of
  run    the command as a user runs it; the only wrapping is the set-up
         boundary (import btspec, operator_for, gradient_matrix);
  setup  import and operator construction only: the command stops as soon
         as gradient_matrix returns;
  trace  the command with every layer wrapped (tracing.py); the spans are
         written next to RESULT_JSON.

RESULT_JSON receives the exit code, set-up time, peak resident memory and,
in trace mode, the per-layer metrics.  run.py starts this script with
src/ on PYTHONPATH.
"""

import json
import os
import resource
import sys
import time


class _SetupDone(Exception):
    pass


def _timed(fn, acc, stop_after=False):
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        acc.append(time.perf_counter() - t)
        if stop_after:
            raise _SetupDone
        return out
    return wrapper


def main() -> int:
    result_path, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("run", "setup", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    result = {}
    t = time.perf_counter()
    import btspec.cli as cli
    setup = [time.perf_counter() - t]

    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        cli.operator_for = _timed(cli.operator_for, setup)
        cli.gradient_matrix = _timed(cli.gradient_matrix, setup,
                                     stop_after=mode == "setup")
    try:
        rc = cli.main(cli_args)
    except _SetupDone:
        rc = 0
    result["rc"] = rc
    if tracer is None:
        # import, then at least one operator_for and one gradient_matrix call
        result["setup_s"] = sum(setup) if len(setup) >= 3 else None
    else:
        result["layers"] = tracer.metrics()
        tracer.write_spans(os.path.join(os.path.dirname(result_path), "spans.json"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
