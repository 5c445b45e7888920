"""One workload repetition in a fresh interpreter.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON holds ``spawned`` (the parent's ``time.monotonic()`` just before it
started this process), ``calls`` (CLI argument lists, each run through
``xi_ineq.cli.main``), ``poly`` (arguments of ``check_poly_min_criterion`` or
null), ``poly_out`` (where its result is written), ``trace`` (0 or 1) and
``trace_out``.  The last line of standard output is one JSON object with the
timings, exit statuses and, when traced, the tracer's summary.

The library is imported before anything else, so ``setup_s`` is the time from
process start until ``xi_ineq.cli`` is imported.

The process runs on one CPU.  The CLI's thread pool (``--threads`` defaults to
``os.cpu_count()``, which ignores affinity) does GIL-bound work, so a second
CPU adds no speed, only GIL hand-offs between CPUs that made repetitions of
one input vary far more than on one CPU.
"""

import os
import sys
import time

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import xi_ineq.cli  # noqa: E402  (the import that setup_s measures)

imported = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    cli = sys.modules["xi_ineq.cli"]
    calls = []
    t_first = time.perf_counter()
    for argv in spec["calls"]:
        t0 = time.perf_counter()
        record = {"argv": argv, "exit": None, "error": None}
        try:
            record["exit"] = cli.main(argv)
        except Exception:           # the op is then missing; the run goes on
            record["error"] = traceback.format_exc(limit=3)
        except SystemExit as exc:   # argparse usage errors
            record["exit"] = exc.code
        record["seconds"] = time.perf_counter() - t0
        calls.append(record)
    if spec["poly"] is not None:
        inequality = sys.modules["xi_ineq.inequality"]
        t0 = time.perf_counter()
        record = {"argv": ["check_poly_min_criterion", *map(str, spec["poly"])],
                  "exit": None, "error": None}
        try:
            res = inequality.check_poly_min_criterion(*spec["poly"])
            with open(spec["poly_out"], "w", encoding="utf-8") as fh:
                json.dump({"min_V": res["min_V"], "min_t": res["min_t"],
                           "passes_threshold": bool(res["passes_threshold"]),
                           "n2_used": res["n2_used"]}, fh)
        except Exception:
            record["error"] = traceback.format_exc(limit=3)
        record["seconds"] = time.perf_counter() - t0
        calls.append(record)
    verdict_s = time.perf_counter() - t_first

    out = {
        "setup_s": imported - spec["spawned"],
        "verdict_s": verdict_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "module": cli.__file__,
    }
    if tracer is not None:
        tracer.finish()
        tracer.save(spec["trace_out"])
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
