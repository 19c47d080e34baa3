"""Benchmark for the tlcga checker: four closed-loop query workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of river-check, oracle-sweep, axiom-sweep, bisim-sweep, or
`all`, which runs each workload in a fresh process and prints them all.
One client sends one query at a time on one thread. A run sets up
SETUPS times, each time importing tlcga anew, reports the median and
keeps the last set-up, then repeats passes over the
same query list while the next pass is expected to end within S
seconds (at least one pass). With
--trace 1 untraced and traced passes alternate; the traced passes give
the per-layer metrics and `trace.overhead_s`.

Every answer is checked against known_answers.json and the layer
invariants in workloads.py, and one query is replayed through
`tlcga.cli.main`. Each wrong or missing answer counts in `failed` (the
wrong_verdicts line). The last stdout line is a JSON object with the
keys correct, attempted, failed and metrics; the exit code is 0 only
when every answer was right.

Times are CPU seconds of this process (`time.process_time`). Every
query runs on one thread and reads only files already in the page
cache, so its CPU time is the time a CLI user waits for, less the time
a shared host gives to other tenants. `--seconds` is measured on the
wall clock.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from time import perf_counter, process_time

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 5
NAMES = ("river-check", "oracle-sweep", "axiom-sweep", "bisim-sweep")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("query_p50_s", "s"),
    ("query_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decided_share", "ratio"),
)

# Per-layer metrics, and the end-to-end metric each should move:
#   corpus.build_s, models.content_hash_s     wall_s of river-check; not
#                                             axiom-sweep
#   models.load_s, models.scos_s,             wall_s of bisim-sweep (a small
#   models.union_s                            share; input hardening shows)
#   checking.extension_s, checking.iterations wall_s of river-check and
#                                             query_p50_s of axiom-sweep
#   checking.check_s                          cross-check cost in wall_s of
#                                             oracle-sweep and bisim-sweep
#   transforms.*, parser.*                    wall_s of axiom-sweep
#   strategies.*                              wall_s, query_p90_s and
#                                             decided_share of oracle-sweep
#   stability.*                               wall_s of oracle-sweep (small)
#   bisim.*                                   wall_s of bisim-sweep
#   onestep.*                                 wall_s of axiom-sweep (small)
#   trace.overhead_s                          traced minus untraced wall_s
# Busy seconds per pass, from spans of the same name without "_s".
LAYER_SECONDS = (
    "corpus.build_s",
    "models.content_hash_s",
    "models.load_s",
    "models.scos_s",
    "models.union_s",
    "parser.parse_s",
    "transforms.instance_s",
    "transforms.to_mu_s",
    "checking.extension_s",
    "checking.check_s",
    "strategies.find_witness_s",
    "strategies.verify_s",
    "stability.partition_s",
    "stability.construct_s",
    "bisim.greatest_s",
    "bisim.distinguishing_s",
    "onestep.satisfiable_s",
    "onestep.witness_s",
    "onestep.validate_s",
)
# Work done per pass, counted at the same call sites.
LAYER_COUNTS = (
    ("parser.chars", "chars"),
    ("transforms.mu_chars", "chars"),
    ("checking.iterations", "count"),
    ("strategies.explored", "count"),
    ("strategies.witnesses", "count"),
    ("bisim.pairs", "count"),
    ("bisim.distinguishing_chars", "chars"),
)


class Pass:
    """Timings, counts and answers of one pass over the query list."""

    def __init__(self, queries) -> None:
        self.queries = queries
        self.times: list[float] = []
        self.decided = 0
        self.problems: list[str] = []
        self.counts: Counter = Counter()
        self.traced = False
        self.seconds: dict[str, float] = {}
        # Answers hold only atomic values, so the collector untracks them.
        self.answers: dict[int, dict] = {}

    @property
    def wall(self) -> float:
        return sum(self.times)

    def results(self) -> list:
        return [(q, self.answers[q.qid]) for q in self.queries if q.qid in self.answers]


def run_pass(workload, queries, tracer) -> Pass:
    result = Pass(queries)
    gc.collect()
    # Inputs made before the pass stay out of the collector's scans, as
    # they would in a CLI process that holds only its own query.
    gc.freeze()
    try:
        for query in queries:
            tracer.query_id = query.qid
            start = process_time()
            try:
                answer = tracer.call("query", workload.run, query, tracer, result.counts)
            except Exception:
                result.times.append(process_time() - start)
                traceback.print_exc(file=sys.stderr)
                result.problems.append("query %d (%s) raised" % (query.qid, query.kind))
            else:
                result.times.append(process_time() - start)
                if answer.get("decided", True):
                    result.decided += 1
                result.problems.extend(workload.judge(query, answer, result.counts))
                result.answers[query.qid] = answer
            gc.collect()
    finally:
        gc.unfreeze()
    return result


def timed_passes(workload, budget: float, queries, trace: bool) -> list[Pass]:
    """Passes over the query list while the next one is expected to end
    within `budget` seconds of the first, going by the last passes'
    durations. With `trace`, untraced and traced passes alternate, so
    both see the same host, and at least one of each runs."""
    tracers = [Tracer(False), Tracer(True)] if trace else [Tracer(False)]
    passes: list[Pass] = []
    durations: list[float] = []
    started = perf_counter()
    while len(passes) < len(tracers) or (
        perf_counter() - started + max(durations[-len(tracers):]) <= budget
    ):
        begun = perf_counter()
        tracer = tracers[len(passes) % len(tracers)]
        # Only the last untraced pass's answers are checked again after
        # timing; older inputs and answers are dropped before the next
        # pass, so one set of inputs is alive at a time.
        if not tracer.enabled:
            for older in passes:
                older.queries, older.answers = [], {}
        one = run_pass(workload, queries or workload.pass_inputs(), tracer)
        queries = None
        one.traced = tracer.enabled
        if tracer.enabled:
            one.seconds = tracer.self_seconds()
            tracer.clear()
            one.queries, one.answers = [], {}
        passes.append(one)
        durations.append(perf_counter() - begun)
    return passes


def cli_problems(workload, results) -> list[str]:
    """Replay one query through `tlcga.cli.main` and compare reports."""
    from tlcga import cli

    try:
        argv, same = workload.cli_check(results)
    except StopIteration:
        return ["cli check: the query it replays has no answer"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    if code != 0:
        return ["cli %s exited %d: %s" % (" ".join(argv), code, err.getvalue().strip())]
    if not same(json.loads(out.getvalue())):
        return ["cli %s disagrees with the benchmark's calls" % " ".join(argv)]
    return []


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_s: float, passes: list[Pass]) -> dict:
    times = [t for p in passes for t in p.times]
    attempted = len(times)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "query_p50_s": statistics.median(times),
        "query_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb(),
        "decided_share": sum(p.decided for p in passes) / attempted,
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    values = {}
    for name in LAYER_SECONDS:
        stem = name[: -len("_s")]
        values[name] = statistics.median(p.seconds.get(stem, 0.0) for p in traced)
    for name, _ in LAYER_COUNTS:
        values[name] = statistics.median(p.counts[name] for p in traced)
    values["trace.overhead_s"] = statistics.median(
        p.wall for p in traced
    ) - statistics.median(p.wall for p in untraced)
    return values


def layer_units() -> dict:
    units = {name: "s" for name in LAYER_SECONDS}
    units.update(dict(LAYER_COUNTS))
    units["trace.overhead_s"] = "s"
    return units


def fresh_workloads() -> dict:
    """Import tlcga and the workloads module anew, as a new CLI process
    would (the byte code is cached after the first set-up)."""
    for module in list(sys.modules):
        if module in ("tlcga", "workloads") or module.startswith("tlcga."):
            del sys.modules[module]
    import workloads

    return workloads.WORKLOADS


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    with open(os.path.join(HERE, "known_answers.json"), encoding="utf-8") as handle:
        known = json.load(handle)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setups = []
        for _ in range(SETUPS):
            start = process_time()
            workload = fresh_workloads()[name](seed, workdir, known)
            workload.setup()
            queries = workload.pass_inputs()
            off = Tracer(False)
            for query in workload.warm_inputs():
                workload.run(query, off, Counter())
            setups.append(process_time() - start)
        setup_s = statistics.median(setups)

        passes = timed_passes(workload, seconds, queries, trace)
        untraced = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        problems = [p for one in passes for p in one.problems]
        problems += workload.reference(untraced[-1].results())
        problems += cli_problems(workload, untraced[-1].results())
        e2e = end_to_end(setup_s, untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    samples = sum(len(p.times) for p in untraced)
    print("workload %s  seed %d  passes %d untraced, %d traced  queries per pass %d"
          % (name, seed, len(untraced), len(traced), len(untraced[0].times)))
    notes = {
        "setup_s": "median of %d set-ups, import included" % SETUPS,
        "wall_s": "median of %d passes: %s" % (
            len(untraced), " ".join("%.3f" % p.wall for p in untraced)),
        "query_p50_s": "n=%d queries" % samples,
        "query_p90_s": "n=%d queries" % samples,
    }
    for metric, unit in END_TO_END:
        print("  %-28s %12.6g %-6s %s" % (metric, e2e[metric], unit, notes.get(metric, "")))
    print("  %-28s %12d %-6s" % ("wrong_verdicts", len(problems), "count"))
    for problem in problems[:20]:
        print("  wrong: %s" % problem)
    if trace:
        units = layer_units()
        layers = per_layer(untraced, traced)
        for metric, value in layers.items():
            print("  %-28s %12.6g %s" % (metric, value, units[metric]))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            code = 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "tlcga", "__init__.py")):
        print("no tlcga sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
