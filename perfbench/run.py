"""Benchmark for strongatoms: one seeded workload, one process, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload atoms --seed 1 --seconds 20 --trace 0

A closed loop with one client sends the workload's queries back to back,
through the public API and through ``strongatoms.cli.main`` in-process, in
whole rounds until ``--seconds`` have passed.  Every answer is compared with
the first answer to the same input and, after the timed phase, with an
independent computation (``oracles.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer table with
``--trace 1``).  See README.md for the workloads and the metrics.
"""

import time

_T_TOP = time.perf_counter()

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def interpreter_start_s():
    """Seconds from process start to the first line of this script (Linux
    /proc, 10 ms resolution; 0 where unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, IndexError, ValueError):
        return 0.0
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return max(0.0, uptime - (time.perf_counter() - _T_TOP) - started)


def import_program():
    """Import strongatoms afresh (as a new process would) and return its modules."""
    for name in [m for m in sys.modules if m == "strongatoms" or m.startswith("strongatoms.")]:
        del sys.modules[name]
    lib = importlib.import_module("strongatoms")
    cli = importlib.import_module("strongatoms.cli")
    if Path(lib.__file__).resolve().parent != (ROOT / "src" / "strongatoms").resolve():
        raise ImportError(f"strongatoms imported from {lib.__file__}, not from {ROOT / 'src'}")
    return SimpleNamespace(lib=lib, cli=cli)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


def passes(query, answer):
    """The independent check accepts the answer; a malformed answer fails."""
    try:
        return bool(query.check(answer))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("atoms", "lengths", "classify", "domains"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    interp_s = interpreter_start_s()
    specs_dir = ROOT / "specs"
    if not (ROOT / "src" / "strongatoms" / "__init__.py").is_file() or not specs_dir.is_dir():
        print(f"error: no strongatoms sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import oracles
    import workloads
    from spans import PER_LAYER, Tracer

    outdir = HERE / ".out"
    spec_dir = outdir / f"specs-{args.workload}-{os.getpid()}"
    builder = workloads.BUILDERS[args.workload]

    # Set-up as a CLI user pays it on every run: import, inputs, spec files.
    # It is repeated and its median taken, plus the interpreter start.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(spec_dir, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            mods = import_program()
        except ImportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        spec_dir.mkdir(parents=True)
        ctx = workloads.Ctx(mods, args.seed, args.workload, str(spec_dir), None)
        queries = builder(ctx, str(specs_dir))
        setup_times.append(time.perf_counter() - t0)
    setup_s = interp_s + statistics.median(setup_times)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        ctx.tracer = tracer

    latencies = []
    by_key = {}
    busy = 0.0
    attempted = failed = 0
    first_answer = {}
    query_of = {}
    repeat_mismatch = set()
    unexpected = []
    rounds_done = 0
    round_busy = []
    started = time.perf_counter()
    clock = time.perf_counter
    while True:
        if rounds_done:
            # every round starts from a fresh import, as a new CLI process
            # would, so no program cache carries over from one round to the next
            ctx.mods = import_program()
            if tracer is not None:
                tracer.install()
        busy_before = busy
        for q in queries:
            attempted += 1
            # start each query from an empty cyclic-garbage backlog, so that no
            # query pays for collecting the garbage of the one before it
            gc.collect()
            t0 = clock()
            try:
                raw = q.run()
            except Exception as exc:       # counted, and reported unless expected
                busy += clock() - t0
                failed += 1
                if q.expect_failure is None or not isinstance(exc, q.expect_failure):
                    unexpected.append(f"{q.key}: {type(exc).__name__}: {exc}")
                continue
            dt = clock() - t0
            busy += dt
            latencies.append(dt)
            by_key.setdefault(q.key, []).append(dt)
            try:
                ans = q.canon(raw)
            except (ValueError, KeyError, TypeError) as exc:
                ans = ("unreadable answer", repr(exc))
            if first_answer.setdefault(q.key, ans) != ans:
                repeat_mismatch.add(q.key)
            query_of[q.key] = q
        rounds_done += 1
        round_busy.append(busy - busy_before)
        if clock() - started >= args.seconds:
            break
    wall = clock() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        tracer.write(outdir / f"trace-{args.workload}-{args.seed}.json")

    wrong = sorted(k for k, q in query_of.items() if not passes(q, first_answer[k]))
    try:
        self_test_ok = oracles.self_test()
    except AssertionError:
        self_test_ok = False
    correct = (self_test_ok and not wrong and not repeat_mismatch and not unexpected
               and bool(latencies))
    for line in unexpected[:5]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    for key in wrong[:5] + sorted(repeat_mismatch)[:5]:
        print(f"wrong answer: {key}", file=sys.stderr)

    latencies.sort()
    with open(outdir / f"latency-{args.workload}-{args.seed}-{args.trace}.json", "w") as fh:
        json.dump({"rounds": rounds_done, "wall_s": wall, "busy_s": busy,
                   "round_busy_s": round_busy,
                   "setup_runs_s": setup_times, "interpreter_s": interp_s,
                   "latencies_s": latencies,
                   "median_s_by_query": {k: statistics.median(v) for k, v in by_key.items()}},
                  fh)
    shutil.rmtree(spec_dir, ignore_errors=True)
    print(f"{args.workload}: {rounds_done} rounds, {attempted} queries in {wall:.2f} s "
          f"(busy {busy:.2f} s)", file=sys.stderr)

    if not latencies:
        print("error: no query completed", file=sys.stderr)
        return 1
    if tracer is not None:
        table = tracer.per_layer(rounds_done)
        metrics = {k: {"value": table[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        metrics = {
            "queries_per_s": {"value": len(latencies) / busy, "unit": "1/s"},
            "query_p50_ms": {"value": 1000 * percentile(latencies, 50), "unit": "ms"},
            "query_p90_ms": {"value": 1000 * percentile(latencies, 90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
