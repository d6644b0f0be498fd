"""The acceptance battery as in-process operations, in one fresh process.

    python3 perfbench/battery.py GRAPHS OUT --seed N --seconds S [--rounds R] [--spans FILE]

One operation is one graph: tighten_min, extreme_traces of the tightening,
then a Haar-tagged functional with all six suites at length 3 on each
extreme trace.  A round runs every graph of GRAPHS once, in an order drawn
from the seed afresh for each round, so that garbage collection and cache
state do not fall on the same graphs every round.  Rounds start while the
next one is expected, at the mean round time so far, to end within S
seconds (the first round always), or exactly R rounds run.  With
--spans the run is traced (shim.py) and the spans are written there.
OUT receives each operation's latency and answer, the rounds and each
one's wall time, the loop's wall time and the process's peak RSS; the
benchmark checks the answers.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import sys
from time import perf_counter

MAX_LEN = 3
OP_TIMEOUT_S = 30.0


def _timeout(signum, frame):
    raise TimeoutError(f"operation exceeded {OP_TIMEOUT_S} s")


def run_graph(cktrace, graph) -> dict:
    tight, removed = cktrace.structure.tighten_min(graph)
    points, suites = [], []
    for trace in cktrace.traces.extreme_traces(tight):
        points.append([str(x) for _, x in trace.entries])
        fn = cktrace.functionals.haar_tagged_functional(tight, trace)
        suites += [r.passed for r in cktrace.functionals.run_suites(fn, MAX_LEN)]
    return {"removed": sorted(removed), "points": points, "suites": suites}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("graphs")
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        import shim

        tracer = shim.Tracer()
        shim.install(tracer)
    import cktrace
    import cktrace.graph

    with open(args.graphs, encoding="utf-8") as fh:
        graphs = [cktrace.graph.graph_from_doc(doc) for doc in json.load(fh)]

    signal.signal(signal.SIGALRM, _timeout)
    rng = random.Random(f"battery/{args.seed}")
    order = list(range(len(graphs)))
    ops, round_s = [], []
    rounds = 0
    start = perf_counter()
    while (rounds < args.rounds) if args.rounds else (
        rounds == 0 or (perf_counter() - start) * (rounds + 1) / rounds <= args.seconds
    ):
        rng.shuffle(order)
        round_start = perf_counter()
        for i in order:
            began = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            try:
                record = run_graph(cktrace, graphs[i])
            except Exception as exc:  # one failed operation, recorded and counted
                record = {"error": f"{type(exc).__name__}: {exc}"}
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            record["latency_s"] = perf_counter() - began
            record["graph"] = i
            ops.append(record)
        round_s.append(perf_counter() - round_start)
        rounds += 1
    wall = perf_counter() - start

    if tracer is not None:
        tracer.dump(args.spans)
    result = {
        "ops": ops,
        "rounds": rounds,
        "round_s": round_s,
        "wall_s": wall,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
