"""The cktrace benchmark: seeded workloads, checked answers, and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from src/.
The load is one closed-loop client: one operation at a time, each CLI
operation in a fresh `python -m cktrace.cli` process.  A run sets up its
inputs and expected answers SETUP_REPEATS times, then runs whole rounds of
the workload's operations while the next one is expected to end within S
seconds (at least one round).

--trace 0 reports the end-to-end metrics; --trace 1 runs every operation
once plain and once under shim.py and reports the per-layer metrics.  The
last line of standard output is the result; the line before it is the run
record.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 20260810
HELD_OUT_SEED = 20261017
WORKLOADS = ("dense-analyze", "sparse-traces", "verify-tagged", "battery")
SETUP_REPEATS = 5
# The acceptance battery: graph_battery(BATTERY_SEED, BATTERY_GRAPHS).  It is
# the same for every run seed, which only sets the order of each round:
# per-graph cost is so heavy-tailed that a different 100-graph sample per
# seed moves the battery's throughput by about 30 %.
BATTERY_SEED = 20260810
BATTERY_GRAPHS = 100
OP_TIMEOUT_S = 60.0
# No operation starts after this many seconds, so that a run ends within
# 180 s even when the program gets much slower.
LAST_START_S = 110.0
HARD_LIMIT_S = 170.0
PROBE_REPEATS = 3

# The gated end-to-end metrics.  The latency statistics (median, tail and
# slowest operation) are in the run record only: on a shared 2-vCPU host
# whose speed swings by up to 2x over tens of seconds, their quartile
# spread over ten runs reached 0.25-0.38, past the largest bound a metric
# may have, while throughput stayed within about 0.19.
END_TO_END = {
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
LAYER_TIMES = (
    "cli.main", "graph.parse_graph", "graph.simple_cycles", "graph.cyclic_structure",
    "graph.paths_up_to", "structure.tighten_min", "structure.is_tight",
    "structure.emit_entry_set", "structure.auto_gauge_criterion",
    "traces.extreme_traces", "traces.lift_trace", "traces.validate_trace",
    "tagging.circle_eq", "tagging.validate_tag", "monomials.monomials",
    "monomials.multiply", "monomials.cyclic_form", "functionals.value",
    "functionals.traciality", "functionals.invariance", "functionals.gauge",
    "functionals.gram", "functionals.ck", "functionals.cylinder",
)
LAYER_CALLS = (
    "graph.simple_cycles", "structure.tighten_min", "structure.is_tight",
    "structure.emit_entry_set", "structure.auto_gauge_criterion",
    "traces.extreme_traces", "tagging.circle_eq", "monomials.multiply",
    "functionals.value",
)
LAYER_COUNTS = (
    "graph.simple_cycles.cycles", "traces.extreme_traces.points",
    "tagging.circle_eq.reduced", "monomials.monomials.count",
)
LAYER_MAXIMA = ("traces.extreme_traces.max_vertices", "tagging.circle_eq.max_n")


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {"cli.import_s": "s", "cli.import_numpy_s": "s"}
    for name in LAYER_TIMES:
        units["cli.main_self_s" if name == "cli.main" else f"{name}_s"] = "s"
    units.update({f"{name}.calls": "count" for name in LAYER_CALLS})
    units.update({name: "count" for name in LAYER_COUNTS + LAYER_MAXIMA})
    units["monomials.multiply.nonzero_ratio"] = "ratio"
    units["functionals.value.hit_ratio"] = "ratio"
    units["fuzz.graph_battery_s"] = "s"
    units["bench.trace_overhead"] = "ratio"
    return units


class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv, out_path: Path, timeout: float):
    """Run one process to completion: (seconds, exit code or None when it
    timed out, peak RSS in KiB).  Standard output goes to out_path."""
    err_path = out_path.with_suffix(".err")
    box = {}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            box["end"] = perf_counter()
            box["status"] = status
            box["rss"] = usage.ru_maxrss

        reaper = threading.Thread(target=reap)
        reaper.start()
        reaper.join(max(timeout, 0.0))
        timed_out = reaper.is_alive()
        if timed_out:
            proc.kill()
            reaper.join()
    proc.returncode = os.waitstatus_to_exitcode(box["status"])
    code = None if timed_out else proc.returncode
    return box["end"] - start, code, box["rss"]


def read_json(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
        return json.loads(text) if text.strip() else None
    except (OSError, ValueError):  # missing, undecodable or not JSON
        return None


class Run:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.started = perf_counter()
        self.work = ROOT / ".perfbench" / f"{self.workload}-{os.getpid()}"
        self.python = sys.executable
        self.numpy = None
        self.failures = []
        self.attempted = 0

    # -- set-up ---------------------------------------------------------

    def op_timeout(self) -> float:
        return min(OP_TIMEOUT_S, HARD_LIMIT_S - (perf_counter() - self.started))

    def setup(self, traced_fuzz: bool = False):
        """Write the inputs and expected answers, then import cktrace once
        in a fresh process (this also writes its bytecode caches)."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        if self.workload == "battery":
            plan = self.setup_battery(traced_fuzz)
        else:
            plan = workloads.CLI_WORKLOADS[self.workload](self.seed, self.work)
        probe = [self.python, "-c", "import cktrace, numpy; print(numpy.__version__)"]
        _, code, _ = run_process(probe, self.work / "import.out", self.op_timeout())
        if code != 0:
            raise SetupError("cannot import cktrace from src/")
        self.numpy = (self.work / "import.out").read_text().strip()
        return plan

    def cli_argv(self, args, spans: Path | None = None) -> list[str]:
        """A cktrace CLI invocation, under the tracing shim when spans is set."""
        if spans is None:
            return [self.python, "-m", "cktrace.cli", *args]
        return [self.python, str(BENCH / "shim.py"), str(spans), "--", *args]

    def setup_battery(self, traced: bool):
        args = ["fuzz", "--seed", str(BATTERY_SEED), "--count", str(BATTERY_GRAPHS)]
        argv = self.cli_argv(args, self.work / "fuzz.spans" if traced else None)
        _, code, _ = run_process(argv, self.work / "fuzz.out", self.op_timeout())
        report = read_json(self.work / "fuzz.out")
        if code != 0 or not isinstance(report, dict):
            raise SetupError("cktrace fuzz failed")
        graphs = report["graphs"]
        (self.work / "graphs.json").write_text(json.dumps(graphs))
        return workloads.battery_expected(graphs)

    # -- operations -----------------------------------------------------

    def cli_op(self, op, tag: str, traced: bool):
        """Run one CLI operation: (latency, peak RSS KiB, semantic answer or
        None, failure reason or None)."""
        out = self.work / f"{tag}.out"
        argv = self.cli_argv(op["args"], self.work / f"{tag}.spans" if traced else None)
        latency, code, rss = run_process(argv, out, self.op_timeout())
        report = read_json(out)
        reason = oracle.check_report(op, code, report)
        answer = oracle.semantic_fields(op["kind"], report) if reason is None else None
        return latency, rss, answer, reason

    def fail(self, name: str, reason: str):
        self.failures.append(f"{name}: {reason}")

    def rounds(self):
        """Yield round numbers while the next round is expected to end
        within the run's time, the first round always."""
        count = 0
        start = perf_counter()
        while count == 0 or round_fits(perf_counter() - start, count, self.seconds):
            if perf_counter() - self.started > LAST_START_S:
                return
            yield count
            count += 1

    def timed_cli(self, ops):
        samples, rss, done = {}, 0, 0
        start = perf_counter()
        for r in self.rounds():
            for i, op in enumerate(ops):
                if perf_counter() - self.started > LAST_START_S:
                    break
                self.attempted += 1
                latency, peak, _, reason = self.cli_op(op, f"r{r}-{i}", traced=False)
                samples.setdefault(op["name"], []).append(latency)
                rss = max(rss, peak)
                if reason:
                    self.fail(op["name"], reason)
                else:
                    done += 1
        return samples, done, perf_counter() - start, rss

    def battery_child(self, expected, seconds, rounds=0, spans=None):
        out = self.work / ("battery-traced.json" if spans else "battery.json")
        argv = [self.python, str(BENCH / "battery.py"), str(self.work / "graphs.json"),
                str(out), "--seed", str(self.seed), "--seconds", str(seconds), "--rounds", str(rounds)]
        if spans:
            argv += ["--spans", str(spans)]
        _, code, _ = run_process(argv, out.with_suffix(".log"), HARD_LIMIT_S - (perf_counter() - self.started))
        result = read_json(out)
        if code != 0 or not isinstance(result, dict):
            self.attempted += 1
            self.fail("battery", "battery process failed" if code is not None else "timed out")
            return None
        for op in result["ops"]:
            self.attempted += 1
            want = expected[op["graph"]]
            if "error" in op:
                self.fail(f"graph {op['graph']}", op["error"])
                continue
            got = {"removed": op["removed"], "points": op["points"]}
            reason = oracle.compare(want, got)
            if reason is None and not (all(op["suites"]) and len(op["suites"]) == 6 * len(want["points"])):
                reason = f"suites passed: {op['suites']}"
            if reason:
                self.fail(f"graph {op['graph']}", reason)
        return result

    # -- modes ------------------------------------------------------------

    def timed(self):
        setups = []
        for _ in range(SETUP_REPEATS):
            began = perf_counter()
            plan = self.setup()
            setups.append(perf_counter() - began)
        if self.workload == "battery":
            result = self.battery_child(plan, self.seconds)
            if result is None:
                raise SetupError("the battery process failed")
            samples = {}
            for op in result["ops"]:
                samples.setdefault(op["graph"], []).append(op["latency_s"])
            done = sum(1 for op in result["ops"] if "error" not in op)
            wall, rss, rounds = result["wall_s"], result["peak_rss_kib"], result["rounds"]
        else:
            samples, done, wall, rss = self.timed_cli(plan)
            rounds = max(len(v) for v in samples.values())
        # An operation's latency is its median over the run's rounds, so the
        # number of operations, and with it the tail percentile, does not
        # depend on how many rounds fit into the run.
        per_op = {k: statistics.median(v) for k, v in samples.items()}
        if not per_op:
            raise SetupError("no operation ran")
        metrics = {
            "ops_per_s": done / wall,
            "peak_rss_mib": rss / 1024,
            "setup_s": statistics.median(setups),
        }
        details = {
            "rounds": rounds,
            "latency_s": latency_summary(per_op),
            "setup_samples_s": setups,
            "measured_wall_s": wall,
        }
        if self.workload == "battery":
            details["round_s"] = result["round_s"]
        else:
            details["op_median_s"] = per_op
        return metrics, END_TO_END, details

    def traced(self):
        plan = self.setup(traced_fuzz=True)
        docs = []
        if self.workload == "battery":
            spans = self.work / "battery.spans"
            plain = self.battery_child(plan, self.seconds / 3)
            if plain is None:
                raise SetupError("the battery process failed")
            rounds = plain["rounds"]
            traced = self.battery_child(plan, 0, rounds=rounds, spans=spans)
            if traced is None:
                raise SetupError("the traced battery process failed")
            if answers(plain) != answers(traced):
                self.fail("battery", "traced answers differ from the untraced run")
            plain_s = sum(op["latency_s"] for op in plain["ops"])
            traced_s = sum(op["latency_s"] for op in traced["ops"])
            docs.append(read_json(spans))
        else:
            plain_s = traced_s = 0.0
            rounds = 0
            for r in self.rounds():
                rounds += 1
                for i, op in enumerate(plan):
                    if perf_counter() - self.started > LAST_START_S:
                        break
                    self.attempted += 2
                    latency, _, plain_answer, reason = self.cli_op(op, f"r{r}-{i}", False)
                    if reason:
                        self.fail(op["name"], reason)
                    t_latency, _, traced_answer, t_reason = self.cli_op(op, f"r{r}-{i}t", True)
                    if t_reason:
                        self.fail(op["name"] + " (traced)", t_reason)
                    elif plain_answer is not None and traced_answer != plain_answer:
                        self.fail(op["name"], "traced answer differs from the untraced run")
                    plain_s += latency
                    traced_s += t_latency
                    docs.append(read_json(self.work / f"r{r}-{i}t.spans"))
        metrics = layer_metrics(docs, max(rounds, 1))
        if self.workload == "battery":
            # Generating the battery is set-up, timed once per run.
            fuzz = layer_metrics([read_json(self.work / "fuzz.spans")], 1)
            metrics["fuzz.graph_battery_s"] = fuzz["fuzz.graph_battery_s"]
        metrics.update(self.import_probes())
        metrics["bench.trace_overhead"] = traced_s / plain_s if plain_s else 0.0
        units = per_layer_units()
        return {k: metrics[k] for k in units}, units, {"rounds": rounds}

    def import_probes(self) -> dict:
        """Fresh-process import costs over a bare interpreter start."""
        samples = {}
        for label, code in (("bare", "pass"), ("numpy", "import numpy"), ("cktrace", "import cktrace")):
            times = []
            for i in range(PROBE_REPEATS):
                took, status, _ = run_process([self.python, "-c", code], self.work / f"probe-{label}-{i}.out", self.op_timeout())
                if status != 0:
                    raise SetupError(f"import probe {code!r} failed")
                times.append(took)
            samples[label] = statistics.median(times)
        return {
            "cli.import_s": samples["cktrace"] - samples["bare"],
            "cli.import_numpy_s": samples["numpy"] - samples["bare"],
        }


def round_fits(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whether a round after `rounds` rounds that took `elapsed` seconds is
    expected, at their mean duration, to end within `seconds`."""
    return elapsed * (rounds + 1) / rounds <= seconds


def latency_summary(per_op: dict) -> dict:
    """Median, tail and slowest of the operations' latencies.  The tail is
    the highest percentile with at least ten operations beyond it, but never
    below the median."""
    ordered = sorted(per_op.values())
    n = len(ordered)
    tail = max(n - 11, n // 2)
    return {
        "ops": n,
        "p50": statistics.median(ordered),
        "tail": ordered[tail],
        "tail_percentile": round(100 * (tail + 1) / n, 1),
        "ops_beyond_tail": n - 1 - tail,
        "max": ordered[-1],
        "slowest": str(max(per_op, key=per_op.get)),
    }


def answers(battery_result) -> list[dict]:
    return [{k: v for k, v in op.items() if k != "latency_s"} for op in battery_result["ops"]]


def layer_metrics(docs, rounds: int) -> dict:
    """Per-round self times and counts, and run-wide ratios and maxima,
    from the span files of one traced run."""
    self_s, calls, counts = {}, {}, {}
    for doc in docs:
        if not doc:
            continue
        for _, _, name, _, _, own in doc["spans"]:
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        for _, name, n, _, own in doc["hot"]:
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + n
        for key, value in doc["counts"].items():
            if key in LAYER_MAXIMA:
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    out = {}
    for name in LAYER_TIMES:
        key = "cli.main_self_s" if name == "cli.main" else f"{name}_s"
        out[key] = self_s.get(name, 0.0) / rounds
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = calls.get(name, 0) / rounds
    for name in LAYER_COUNTS:
        out[name] = counts.get(name, 0) / rounds
    for name in LAYER_MAXIMA:
        out[name] = counts.get(name, 0)
    multiplies = calls.get("monomials.multiply", 0)
    values = calls.get("functionals.value", 0)
    out["monomials.multiply.nonzero_ratio"] = counts.get("monomials.multiply.nonzero", 0) / multiplies if multiplies else 0.0
    out["functionals.value.hit_ratio"] = counts.get("functionals.value.hits", 0) / values if values else 0.0
    out["fuzz.graph_battery_s"] = self_s.get("fuzz.graph_battery", 0.0) / rounds
    return out


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cktrace" / "__init__.py").is_file():
        print(f"no cktrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args)
    load_start = os.getloadavg()
    try:
        metrics, units, details = run.traced() if run.trace else run.timed()
    except SetupError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    failed = len(run.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **provenance(), "numpy": run.numpy,
        "load_start": load_start, "load_end": os.getloadavg(),
        "failed_ratio": failed / max(run.attempted, 1),
        "failures": run.failures[:20], **details,
    }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
