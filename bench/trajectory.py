"""Time source trees of this repository and write BENCH_<label>.json.

    python bench/trajectory.py --tree LABEL=DIR [--tree LABEL=DIR ...]
        [--parts perfbench,examples,tier1] [--workloads chain,...]
        [--seeds 1,271828] [--pairs N] [--seconds 30] [--out DIR]
    python bench/trajectory.py --compare BENCH_A.json BENCH_B.json

A tree is a copy of the repository (a checkout or a ``git archive``
export), and each tree's code runs only in its own subprocesses.  Every
measurement runs once per tree in turn, and the tree that goes first
alternates from round to round, so two trees timed in one invocation
give pairs measured under the same load.  For each tree the file holds:

- ``perfbench``: per workload and seed, one entry per round with the
  last two lines of ``perfbench/run.py --workload W --seed S --seconds
  T``, run from the tree as a subprocess, unchanged;
- ``examples``: the worked example under ``report --json`` and
  ``classify`` in the three rings at the default order and N = 24, 30
  and 48, best of 7 calls of ``pdfol.cli.main`` in one process, and best
  of 5 whole ``python -m pdfol.cli`` processes;
- ``tier1``: the Tier-1 suite's wall time and summary line;
- ``environment``: Python, the usable CPUs and the CPU model.

``--compare`` prints, per workload, seed and end-to-end metric of
BENCHMARK.json, the median [quartiles] of each file and in how many
rounds the second file's value is the better one.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKED = "d(y^2+x^4)-5*x^2*(1+x)*dy"
MODES = ("exact", "float", "param:b")
ORDERS = (None, 24, 30, 48)
COMMANDS = (("report", "--json"), ("classify",))
IN_PROCESS_REPEATS = 7
PROCESS_REPEATS = 5
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider")

# Run in a tree's own interpreter: best-of-R wall time of each argv.
_TIME_CALLS = """
import io, json, sys, time
from pdfol.cli import main
best = {}
for argv in json.loads(sys.argv[1]):
    times = []
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        main(argv, io.StringIO(), io.StringIO())
        times.append(time.perf_counter() - start)
    best[" ".join(argv)] = min(times)
print(json.dumps(best))
"""


def cells():
    """The argv of each worked-example cell: command, ring, order."""
    for command in COMMANDS:
        for mode in MODES:
            for order in ORDERS:
                extra = [] if order is None else ["--order", str(order)]
                yield list(command) + ["--mode", mode] + extra + [
                    "--expr", WORKED]


def env_for(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("FF_ORDER", None)
    env.pop("FF_PRECISION", None)
    return env


def run(argv, tree):
    return subprocess.run(argv, cwd=tree, env=env_for(tree), text=True,
                          capture_output=True, check=False)


def perfbench(tree, workload, seed, seconds):
    proc = run([sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds)], tree)
    lines = proc.stdout.splitlines()[-2:]
    if proc.returncode != 0 or len(lines) != 2:
        raise SystemExit("perfbench/run.py failed in %s:\n%s"
                         % (tree, proc.stderr))
    return lines


def examples(tree):
    argvs = list(cells())
    proc = run([sys.executable, "-c", _TIME_CALLS, json.dumps(argvs),
                str(IN_PROCESS_REPEATS)], tree)
    if proc.returncode != 0:
        raise SystemExit("in-process timing failed in %s:\n%s"
                         % (tree, proc.stderr))
    in_process = json.loads(proc.stdout)
    process = {}
    for argv in argvs:
        times = []
        for _ in range(PROCESS_REPEATS):
            start = time.perf_counter()
            run([sys.executable, "-m", "pdfol.cli"] + argv, tree)
            times.append(time.perf_counter() - start)
        process[" ".join(argv)] = min(times)
    return {"in_process_best_s": in_process, "process_best_s": process}


def tier1(tree):
    start = time.perf_counter()
    proc = run([sys.executable] + list(TIER1), tree)
    wall = time.perf_counter() - start
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return {"wall_s": wall, "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def source_digest(tree):
    """sha256 over the tree's src/ files, paths and bytes, in path order."""
    digest = hashlib.sha256()
    src = os.path.join(tree, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment():
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
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform()}


def record(args):
    trees = []
    for spec in args.tree:
        label, _, path = spec.partition("=")
        if not label or not path:
            raise SystemExit("--tree takes LABEL=DIR, got %r" % spec)
        trees.append((label, os.path.abspath(path)))
    parts = set(args.parts.split(","))
    docs = {label: {"label": label, "src_sha256": source_digest(path),
                    "environment": environment(), "seconds": args.seconds,
                    "perfbench": {}}
            for label, path in trees}

    def in_turn(round_index, measure):
        order = trees if round_index % 2 == 0 else trees[::-1]
        for label, path in order:
            measure(docs[label], path)

    if "perfbench" in parts:
        for r in range(args.pairs):
            for workload in args.workloads.split(","):
                for seed in args.seeds.split(","):
                    def measure(doc, path):
                        lines = perfbench(path, workload, seed, args.seconds)
                        doc["perfbench"].setdefault(workload, {}).setdefault(
                            seed, []).append({"round": r, "lines": lines})
                    in_turn(r, measure)
                    print("round %d %s seed %s done" % (r, workload, seed),
                          file=sys.stderr)
    if "examples" in parts:
        in_turn(0, lambda doc, path: doc.update(examples=examples(path)))
    if "tier1" in parts:
        in_turn(1, lambda doc, path: doc.update(tier1=tier1(path)))
    os.makedirs(args.out, exist_ok=True)
    for label, doc in docs.items():
        path = os.path.join(args.out, "BENCH_%s.json" % label)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(path)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(paths):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    first, second = (json.load(open(p, encoding="utf-8")) for p in paths)
    print("%s -> %s" % (first["label"], second["label"]))
    for workload, seeds in sorted(first["perfbench"].items()):
        for seed, runs in sorted(seeds.items()):
            other = second["perfbench"].get(workload, {}).get(seed)
            if not other:
                continue
            a = [json.loads(run["lines"][1]) for run in runs]
            b = [json.loads(run["lines"][1]) for run in other]
            print("%s seed %s, %d rounds; failed %s -> %s; correct %s -> %s"
                  % (workload, seed, min(len(a), len(b)),
                     sorted({r["failed"] for r in a}),
                     sorted({r["failed"] for r in b}),
                     all(r["correct"] for r in a),
                     all(r["correct"] for r in b)))
            for metric in metrics:
                name = metric["name"]
                va = [r["metrics"][name]["value"] for r in a]
                vb = [r["metrics"][name]["value"] for r in b]
                higher = metric["better"] == "higher"
                wins = sum((y > x) if higher else (y < x)
                           for x, y in zip(va, vb))
                qa, qb = quartiles(va), quartiles(vb)
                print("  %-12s %.4g [%.4g, %.4g] -> %.4g [%.4g, %.4g]  "
                      "median %+.1f %%, spread %.1f %%, better in %d of %d"
                      % (name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                         100 * (qb[1] / qa[1] - 1),
                         100 * (qa[2] - qa[0]) / qa[1], wins,
                         min(len(va), len(vb))))
    for kind in ("in_process_best_s", "process_best_s"):
        cells_a = first.get("examples", {}).get(kind, {})
        cells_b = second.get("examples", {}).get(kind, {})
        for cell in cells_a:
            if cell in cells_b:
                print("%s %-60s %.4f -> %.4f s" % (
                    kind.split("_best")[0], cell.replace(WORKED, "EX"),
                    cells_a[cell], cells_b[cell]))
    if "tier1" in first and "tier1" in second:
        print("tier1 %.1f -> %.1f s (%s | %s)" % (
            first["tier1"]["wall_s"], second["tier1"]["wall_s"],
            first["tier1"]["summary"], second["tier1"]["summary"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[],
                    help="LABEL=DIR, a source tree to time; repeatable")
    ap.add_argument("--compare", nargs=2, metavar="BENCH_JSON")
    ap.add_argument("--parts", default="perfbench,examples,tier1")
    ap.add_argument("--workloads", default="homological,chain,holonomy")
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--pairs", type=int, default=1,
                    help="rounds of perfbench runs per workload and seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", default=".")
    args = ap.parse_args(argv)
    if args.compare:
        compare(args.compare)
    elif args.tree:
        record(args)
    else:
        ap.error("give --tree LABEL=DIR or --compare A B")
    return 0


if __name__ == "__main__":
    sys.exit(main())
