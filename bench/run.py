"""Benchmark of spincs: one process, one BLAS thread, seeded workloads.

    python3 bench/run.py --workload {pathint,resolution} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  A run
sets up five times (a fresh import of spincs, the inputs generated from
--seed, the reference computations) and keeps the last set-up; setup_s is
the median.  It then runs rounds of the workload's fixed operation list
while another round fits in --seconds.  Before every round, outside its
timing, spincs is imported afresh, so each round starts with the program's
caches as a fresh process has them.  Every operation's output is checked
after its round.

Timings use each operation's best time over the rounds: on a shared
machine whose speed drifts by tens of percent over seconds, that is what
repeats.  batch_s is the sum of those best times over the operation list,
op_p50_ms and op_p90_ms their percentiles over the operations.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics, end-to-end ones with --trace 0 and per-layer ones with
--trace 1.  A table of per-kind operation times, the round walls and any
failure go to stderr.  With --trace 1 the rounds alternate between
untraced and traced; per-layer figures are medians over the traced rounds,
trace.overhead_ms is the traced minus the untraced batch time, and the
spans of the last traced round are written to
bench/out/spans-<workload>-<seed>.jsonl.gz.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: with default threading
# small-matrix calls stall for milliseconds on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

# third-party imports are paid once; set-up repeats spincs' own import
import numpy as np  # noqa: E402
import scipy.integrate  # noqa: E402,F401
import scipy.linalg  # noqa: E402,F401
import scipy.special  # noqa: E402,F401

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
MIN_ROUNDS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import():
    """Import spincs as a new process would: drop any loaded copy first, so
    module-level caches start empty and import-time work is repeated."""
    for name in [m for m in sys.modules if m == "spincs" or m.startswith("spincs.")]:
        del sys.modules[name]
    sp = importlib.import_module("spincs")
    importlib.import_module("spincs.cli")
    if Path(sp.__file__).resolve().parent != SRC / "spincs":
        raise ImportError(f"spincs loaded from {sp.__file__}, not from {SRC}")
    return sp


class Program:
    """Stand-in for the spincs package imported last: operations look the
    library up through it at call time."""

    def __init__(self):
        self.module = None

    def __getattr__(self, name):
        return getattr(self.module, name)


def run_round(ops, tracer=None):
    """Run every operation, timing each call, then check every output.
    Returns (wall seconds, latencies, failures)."""
    gc.collect()
    results, latencies = [], []
    start = perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
            idx = tracer.open(f"op.{op.kind}")
        t0 = perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:    # a raising operation is a failed one
            out, err = None, exc
        latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.close(idx)
        results.append((out, err))
    wall = perf_counter() - start
    failures = []
    for op, (out, err) in zip(ops, results):
        if err is None:
            try:
                op.check(out)
            except workloads.CheckFailed as exc:
                err = exc
        if err is not None:
            # keep the message only: the exception's traceback holds the
            # operation's output alive, and peak_rss_mib would grow per round
            failures.append((op, f"{type(err).__name__}: {err}"))
    return wall, latencies, failures


def best_times(latencies):
    """Each operation's best time over the given rounds."""
    return [min(ts) for ts in zip(*latencies)]


def kind_table(ops, best):
    """Per-kind best operation times, with the share of the sorted list each
    kind spans and the sorted times around p50 and p90."""
    ranked = sorted(zip(best, (op.kind for op in ops)))
    n = len(ranked)
    kinds = {}
    for rank, (t, kind) in enumerate(ranked):
        kinds.setdefault(kind, []).append((rank, t))
    lines = [f"{'kind':28s} {'count':>5s} {'median ms':>10s} {'min ms':>9s} {'max ms':>9s}"
             "  sorted share"]
    for kind, rt in sorted(kinds.items(), key=lambda kv: kv[1][len(kv[1]) // 2][1]):
        ts = [t for _, t in rt]
        lines.append(f"{kind:28s} {len(ts):5d} {1e3 * statistics.median(ts):10.3f} "
                     f"{1e3 * ts[0]:9.3f} {1e3 * ts[-1]:9.3f}  "
                     f"{rt[0][0] / n:5.1%}-{rt[-1][0] / n:5.1%}")
    times = [t for t, _ in ranked]
    for q in (0.5, 0.9):
        near = " ".join(f"{1e3 * np.percentile(times, min(100, max(0, 100 * q + d))):.3f}"
                        for d in (-5, -2, 0, 2, 5))
        lines.append(f"p{round(q * 100)} = {1e3 * np.percentile(times, 100 * q):.3f} ms of {n} "
                     "operations;"
                     f" at -5 -2 0 +2 +5 points: {near} ms")
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spincs" / "__init__.py").is_file():
        print(f"no spincs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    prog = Program()
    setup_times, import_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        prog.module = fresh_import()
        import_times.append(perf_counter() - t0)
        ops = workloads.build(args.workload, prog, np.random.default_rng(args.seed), OUT)
        setup_times.append(perf_counter() - t0)

    # rounds (alternating untraced and traced with --trace 1) while another
    # round fits in --seconds, each after a fresh import
    tracer = tracing.Tracer() if args.trace else None
    start = perf_counter()
    rounds, failures, walls, spans = 0, [], [], []
    untraced, traced, layer_rounds = [], [], []
    while True:
        elapsed = perf_counter() - start
        enough = len(untraced) >= MIN_ROUNDS and (
            tracer is None or len(traced) >= MIN_ROUNDS)
        if enough and elapsed * (rounds + 1) / rounds > args.seconds:
            break
        prog.module = fresh_import()
        if tracer is not None and len(untraced) > len(traced):
            tracer.begin_round()
            tracer.install(prog.module)
            _, lat, fails = run_round(ops, tracer)
            tracer.uninstall()
            traced.append(lat)
            layer_rounds.append(tracer.round_figures())
            spans.append(len(tracer.spans))
        else:
            wall, lat, fails = run_round(ops)
            untraced.append(lat)
            walls.append(wall)
        failures += fails
        rounds += 1

    unexpected = [(op, err) for op, err in failures if op.known_fault is None]
    for op, err in failures:
        tag = f"known fault: {op.known_fault}" if op.known_fault else "UNEXPECTED"
        print(f"failed [{op.kind}] {err} ({tag})", file=sys.stderr)
    best = best_times(untraced)
    print(kind_table(ops, best), file=sys.stderr)
    print(f"rounds: {len(untraced)} untraced + {len(traced)} traced, {len(ops)} operations "
          f"each; untraced round walls {' '.join(f'{w:.3f}' for w in walls)} s; "
          f"set-ups {' '.join(f'{t:.3f}' for t in setup_times)} s, of which fresh imports "
          f"{' '.join(f'{t:.3f}' for t in import_times)} s", file=sys.stderr)
    if spans:
        print(f"spans per traced round: {' '.join(map(str, spans))}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "batch_s": (sum(best), "s"),
            "op_p50_ms": (1e3 * float(np.percentile(best, 50)), "ms"),
            "op_p90_ms": (1e3 * float(np.percentile(best, 90)), "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = {}
        for name in layer_rounds[0]:
            unit = ("ms" if name.endswith("_ms") else
                    "fraction" if name.endswith("_frac") else "count")
            metrics[name] = (statistics.median(r[name] for r in layer_rounds), unit)
        overhead = sum(best_times(traced)) - sum(best)
        metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
        write_spans(tracer, ops, args)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": rounds * len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_spans(tracer, ops, args):
    """The spans of the last traced round, one JSON list per line:
    [name, start, end, parent, op, op kind], parent indexing the lines."""
    path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for name, t0, t1, parent, op in tracer.spans:
            fh.write(json.dumps([name, t0, t1, parent, op, ops[op].kind]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
