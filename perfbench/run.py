"""Run one pdfol benchmark workload and print its metrics.

    python3 perfbench/run.py --workload homological|chain|holonomy \\
        --seed N --seconds S --trace 0|1

Load comes from this one process: a closed loop with one client, no
worker threads or processes.  The run measures a fixed number of whole
passes of the workload (see workloads.py), about S seconds' worth on the
machine the benchmark was built on, so the ops a seed runs, and the
failures among them, do not depend on the speed of the machine.  Every
op's answer is checked against ``expected.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones of a traced replay (tracing.py).  The line before it
holds the details: per-ring medians, p90 where a run holds at least 100
ops, the failed share, the known and unexpected failures, and the
environment.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 5
MIN_PASSES = 2  # every slot's cost enters each median at least twice
P90_MIN_OPS = 100
RINGS = ("exact", "float", "param")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s.p50", "s"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("homological", "chain", "holonomy"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up only, then print the wall-clock time at "
                    "which the first op could start")
    return ap.parse_args(argv)


def setup(workload, seed):
    """Import pdfol, load the answers and draw the first pass: everything
    a run does before its first timed op."""
    if not os.path.isfile(os.path.join(SRC, "pdfol", "__init__.py")):
        raise SystemExit("perfbench: no pdfol sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import workloads
    if not os.path.dirname(os.path.abspath(
            sys.modules["pdfol"].__file__)).startswith(SRC):
        raise SystemExit("perfbench: pdfol was not imported from %s" % SRC)
    expected = workloads.Expected.load(EXPECTED)
    stream = workloads.passes(workload, seed)
    first = next(stream)
    return workloads, expected, first, stream


def probe_setup(args):
    """Wall-clock seconds from starting a fresh process to its first op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    start = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - start


class Record:
    __slots__ = ("ring", "seconds", "ok", "known", "key", "outcome")

    def __init__(self, ring, seconds, ok, known, key, outcome):
        self.ring = ring
        self.seconds = seconds
        self.ok = ok
        self.known = known
        self.key = key
        self.outcome = outcome


def run_op(workloads, expected, op, tracer=None, op_id=None):
    clock = time.perf_counter
    start = clock()
    if tracer is not None:
        tracer.begin_op(op_id)
    try:
        outcome = workloads.execute(op)
        ok = expected.ok(op, outcome)
    finally:
        if tracer is not None:
            tracer.end_op()
    seconds = clock() - start
    return Record(op.ring, seconds, ok, expected.known_failure(op), op.key,
                  outcome)


def measure(workloads, expected, first, stream, n_passes):
    """``n_passes`` whole passes: (ops, records, time)."""
    ops, records = [], []
    start = time.perf_counter()
    batch = first
    for done in range(n_passes):
        if done:
            batch = next(stream)
        for op in batch:
            records.append(run_op(workloads, expected, op))
        ops.extend(batch)
    return ops, records, time.perf_counter() - start


def median(values):
    return statistics.median(values) if values else None


def ops_per_s(records, pass_size):
    """Ops per second of a pass built from each slot's median time over
    the passes, so that a burst of load on a shared core that slows a
    few ops does not move it."""
    slots = [[] for _ in range(pass_size)]
    for i, record in enumerate(records):
        slots[i % pass_size].append(record.seconds)
    return pass_size / sum(median(times) for times in slots)


def summary(records, elapsed):
    """Per-ring medians, p90 and failures: the details line."""
    times = [r.seconds for r in records]
    failed = [r for r in records if not r.ok]
    out = {"ops": len(records), "measured_s": elapsed,
           "failed_share": len(failed) / len(records)}
    for ring in RINGS:
        ring_times = [r.seconds for r in records if r.ring == ring]
        if ring_times:
            out["op_s.p50.%s" % ring] = median(ring_times)
            out["ops.%s" % ring] = len(ring_times)
    if len(times) >= P90_MIN_OPS:
        out["op_s.p90"] = statistics.quantiles(times, n=10)[8]
    out["known_failures"] = sorted({"%s => %s" % (r.key, r.known)
                                    for r in failed if r.known})
    out["unexpected_failures"] = sorted(
        {"%s => %s" % (r.key, json.dumps(r.outcome, sort_keys=True))
         for r in failed if not r.known})
    return out


def verdict(records):
    failed = sum(1 for r in records if not r.ok)
    correct = all(r.ok or r.known for r in records)
    return correct, len(records), failed


def environment():
    import importlib.util
    import mpmath
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def traced(workloads, expected, ops, args):
    """Replay the ops of the untraced phase with every layer wrapped."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install(extra_modules=(workloads,))
    start = time.perf_counter()
    try:
        records = [run_op(workloads, expected, op, tracer, i)
                   for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    elapsed = time.perf_counter() - start
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-%d.json"
                        % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)
    return tracer, records, elapsed, path


def main(argv=None):
    args = parse_args(argv)
    start = time.perf_counter()
    workloads, expected, first, stream = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(time.time()))
        return 0
    own_setup = time.perf_counter() - start
    probes = [] if args.trace else [probe_setup(args)
                                    for _ in range(SETUP_PROBES)]
    n_passes = (workloads.pass_count(args.workload, args.seconds / 2, 1)
                if args.trace else
                workloads.pass_count(args.workload, args.seconds, MIN_PASSES))
    ops, records, elapsed = measure(workloads, expected, first, stream,
                                    n_passes)
    details = summary(records, elapsed)
    details.update(workload=args.workload, seed=args.seed,
                   trace=args.trace, passes=n_passes, setup_s_probes=probes,
                   setup_s_own_process=own_setup, env=environment())
    if args.trace:
        tracer, traced_records, traced_elapsed, path = traced(
            workloads, expected, ops, args)
        import tracing
        metrics = {}
        for name in tracing.PER_LAYER:
            if name == "trace.overhead_ratio":
                value = elapsed / traced_elapsed
            else:
                value = tracer.value(name, len(traced_records))
            metrics[name] = {"value": value, "unit": tracing.unit(name)}
        details.update(spans_file=os.path.relpath(path, ROOT),
                       traced=summary(traced_records, traced_elapsed))
        records = records + traced_records
    else:
        values = {"setup_s": median(probes),
                  "ops_per_s": ops_per_s(records, len(first)),
                  "op_s.p50": median([r.seconds for r in records]),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    correct, attempted, failed = verdict(records)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
