"""The four benchmark workloads.

Each query makes the same public tlcga calls, in the same order, as the
matching CLI handler (`tlcga.cli._cmd_check`, `_cmd_oracle`,
`_cmd_bisim`, `_cmd_axioms`), minus argparse and report printing. One
step is added on purpose: an axiom query prints its instance and parses
the text back before translating it, which `_cmd_axioms` does not, so
that the parser is under load in some workload. Every
library call goes through `Tracer.call`, whose span name is the
per-layer metric it feeds (`<module>.<step>` plus `_s`).

Inputs come from `tlcga.sampling` and the corpus during set-up only; a
query sees models (as JSON files, or as fresh objects for the axiom
sweep, whose CLI builds them in-process), formula text and parameters.
`judge` checks an answer against the known answers and runs after the
query's clock has stopped.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any

from tlcga.bisim import distinguishing_formula, greatest_bisimulation
from tlcga.checking import Evaluator, check, check_with_stats
from tlcga.corpus import build_case
from tlcga.formulas import Strategic, strategic
from tlcga.models import disjoint_union, load_model, save_model
from tlcga.onestep import (
    brute_force_satisfiable,
    sequent_satisfiable,
    validate_game_form,
    witness_game_form,
)
from tlcga.parser import parse_state_formula
from tlcga.sampling import (
    DEFAULT_SEED,
    SCHEME_MIN_AGENTS,
    make_rng,
    random_model,
    random_onestep_instance,
    random_oracle_query,
    random_scheme_params,
)
from tlcga.stability import coalitional_ga, partition_outcomes
from tlcga.strategies import find_witness, parse_memory_mode, verify_witness
from tlcga.transforms import axiom_instance, to_mu

from spans import Tracer

SIM, WTS = "simultaneous", "wolves_then_sheep"


@dataclass(frozen=True)
class Query:
    qid: int
    kind: str
    args: Any


def _sheep_wolves_params(n: int, mode: str) -> dict:
    return {"n_sheep": n, "n_wolves": n, "mode": mode}


def _evaluate(model, mu):
    """The body of `checking.extension_of`, keeping the iteration count."""
    evaluator = Evaluator(model)
    return evaluator.extension(mu), evaluator.iterations


class Workload:
    """Inputs, one query, and the correctness gate of one workload."""

    name = ""

    def __init__(self, seed: int, workdir: str, known: dict) -> None:
        self.seed = seed
        self.workdir = workdir
        self.known = known

    def setup(self) -> None:
        """Make the inputs that last the whole run (sampling, files)."""

    def warm_inputs(self) -> list[Query]:
        """A few cheap queries, run untimed at the end of set-up."""
        raise NotImplementedError

    def pass_inputs(self) -> list[Query]:
        raise NotImplementedError

    def run(self, query: Query, tr: Tracer, counts: Counter) -> dict:
        raise NotImplementedError

    def judge(self, query: Query, answer: dict, counts: Counter) -> list[str]:
        raise NotImplementedError

    def cli_check(self, results: list[tuple[Query, dict]]) -> tuple[list[str], Any]:
        """CLI argv for one query, and a function comparing the CLI's
        JSON report with the benchmark's (query, answer) results."""
        raise NotImplementedError

    def reference(self, results: list[tuple[Query, dict]]) -> list[str]:
        """Untimed cross-checks against a reference implementation."""
        return []

    def _write_model(self, model, stem: str) -> str:
        path = os.path.join(self.workdir, "%s-%s.json" % (self.name, stem))
        save_model(model, path)
        return path


# ------------------------------------------------------------ river-check


class RiverCheck(Workload):
    """`tlcga check` on the river-crossing ladder, n = 3..5, both modes.

    The n = 6 rungs are left out. (6,6,wolves_then_sheep) takes 11-12 s
    and 488 MB a query (Python 3.11 on a 2-vCPU Xeon VM), so a run would
    hold a single sample of it. (6,6,simultaneous) takes ~2 s, 40% of a
    pass with it; without it a pass is ~3.4 s and a run holds 8-9
    passes instead of 5. Leaving its times out of the passes of eight
    25-s runs took the spread of wall_s from 0.080 to 0.054 of its
    median. (5,5,wolves_then_sheep) keeps the index-build-dominated
    shape (4 fixpoint iterations over ~66k profiles) and
    (3,3,wolves_then_sheep) the iteration-dominated one.
    """

    name = "river-check"
    LADDER = [(n, mode) for n in (3, 4, 5) for mode in (SIM, WTS)]

    def pass_inputs(self) -> list[Query]:
        rungs = list(self.LADDER)
        random.Random(self.seed).shuffle(rungs)
        return [Query(i, "check", rung) for i, rung in enumerate(rungs)]

    def warm_inputs(self) -> list[Query]:
        return [Query(-1, "check", (2, SIM)), Query(-2, "check", (2, WTS))]

    def run(self, query, tr, counts):
        n, mode = query.args
        case = tr.call(
            "corpus.build", build_case, "sheep-wolves", **_sheep_wolves_params(n, mode)
        )
        text = case.formulas["crossing"]
        phi = tr.call("parser.parse", parse_state_formula, text)
        outcome = tr.call(
            "checking.extension", check_with_stats, case.model, case.start, phi
        )
        model_hash = tr.call("models.content_hash", case.model.content_hash)
        counts["parser.chars"] += len(text)
        counts["checking.iterations"] += outcome.iterations
        return {
            "case": case.name,
            "holds": outcome.holds,
            "iterations": outcome.iterations,
            "model_hash": model_hash,
        }

    def judge(self, query, answer, counts):
        expected = self.known["river_crossing"]["verdicts"].get(answer["case"])
        if expected is None:
            return ["%s: no known answer" % answer["case"]]
        if answer["holds"] != expected:
            return ["%s: holds=%s, known %s" % (answer["case"], answer["holds"], expected)]
        return []

    def cli_check(self, results):
        rung = (3, WTS)
        argv = [
            "check", "--corpus-case", "sheep-wolves",
            "--params", "n_sheep=3,n_wolves=3,mode=%s" % WTS,
            "--formula-name", "crossing",
        ]
        mine = next(a for q, a in results if q.args == rung)

        def compare(report):
            return (
                report["result"]["holds"] == mine["holds"]
                and report["model_hash"] == mine["model_hash"]
                and report["counters"]["iterations"] == mine["iterations"]
            )

        return argv, compare


# ------------------------------------------------------------ oracle-sweep


class OracleSweep(Workload):
    """`tlcga oracle`, then `validate`, `check` and `stability --notion
    coalitional` on each witness.

    Random instances come from two streams. The heavy tail of the search
    (a few play:2/path:2 queries take seconds, the median well under a
    millisecond) comes from the fixed 200-query panel of acceptance
    criterion 10, seed DEFAULT_SEED + 2, so every run carries the same
    tail. The run's own seed adds positional queries, whose searches stay
    in the millisecond range, so varying the seed does not move the tail.
    """

    name = "oracle-sweep"
    CORPUS = ("exampleA", "exampleB", "exampleB-gamma-prime", "password")
    PANEL = 200
    SEEDED_POSITIONAL = 200
    RANDOM_LIMIT = 20000
    CORPUS_LIMIT = 100000

    def setup(self):
        queries = []
        for name in self.CORPUS:
            case = build_case(name)
            for oq in case.oracle_queries:
                queries.append(
                    ("corpus", name, oq.formula, oq.state, oq.mode, self.CORPUS_LIMIT)
                )
        panel = make_rng(DEFAULT_SEED + 2)
        drawn = [random_oracle_query(panel) for _ in range(self.PANEL)]
        rng = make_rng(self.seed)
        positional = 0
        while positional < self.SEEDED_POSITIONAL:
            model, state, assignment, mode = random_oracle_query(rng)
            if str(mode) == "positional":
                drawn.append((model, state, assignment, mode))
                positional += 1
        for index, (model, state, assignment, mode) in enumerate(drawn):
            path = self._write_model(model, "%d" % index)
            text = str(strategic(assignment))
            queries.append(("file", path, text, state, str(mode), self.RANDOM_LIMIT))
        random.Random(self.seed).shuffle(queries)
        self.queries = [Query(i, "oracle", q) for i, q in enumerate(queries)]

    def pass_inputs(self):
        return self.queries

    def warm_inputs(self):
        return [q for q in self.queries if q.args[0] == "corpus"]

    def run(self, query, tr, counts):
        source, where, formula, state, mode_text, limit = query.args
        if source == "corpus":
            case = tr.call("corpus.build", build_case, where)
            model, text = case.model, case.formulas[formula]
        else:
            model, text = tr.call("models.load", load_model, where), formula
        phi = tr.call("parser.parse", parse_state_formula, text)
        if not isinstance(phi, Strategic):
            raise ValueError("expected a single strategic operator, got %s" % phi)
        assignment = phi.assignment
        mode = parse_memory_mode(mode_text)
        found = tr.call(
            "strategies.find_witness", find_witness, model, state, assignment, mode,
            limit=limit,
        )
        answer = {
            "outcome": found.outcome,
            "explored": found.explored,
            "model_hash": tr.call("models.content_hash", model.content_hash),
            "decided": found.outcome != "none (bounded)",
        }
        counts["parser.chars"] += len(text)
        counts["strategies.explored"] += found.explored
        witness = found.witness
        if witness is None:
            return answer
        counts["strategies.witnesses"] += 1
        answer["verified"], _ = tr.call(
            "strategies.verify", verify_witness, model, state, witness, assignment
        )
        answer["holds"] = tr.call("checking.check", check, model, state, phi)
        # `tlcga stability` needs a profile for every agent; a witness
        # only fixes the agents its coalitions name.
        if set(witness.tables) == set(model.agents):
            partition = tr.call(
                "stability.partition", partition_outcomes, model, state, witness,
                assignment,
            )
            derived = tr.call(
                "stability.construct", coalitional_ga, assignment, partition,
                model.agents,
            )
            answer["losing"] = len(partition.losing_coalitions)
            answer["stable"], _ = tr.call(
                "strategies.verify", verify_witness, model, state, witness, derived
            )
        return answer

    def judge(self, query, answer, counts):
        source, where, formula, state, mode_text, _ = query.args
        label = "%s %s %s" % (where, formula if source == "corpus" else state, mode_text)
        problems = []
        if source == "corpus":
            recorded = [
                entry["outcome"]
                for entry in self.known["oracle_corpus"]["outcomes"]
                if (entry["case"], entry["formula"], entry["state"], entry["mode"])
                == (where, formula, state, mode_text)
            ]
            if recorded != [answer["outcome"]]:
                problems.append(
                    "%s: outcome %s, known %s" % (label, answer["outcome"], recorded)
                )
        if answer["outcome"] == "witness":
            if not answer["verified"]:
                problems.append("%s: witness fails verify_witness" % label)
            if not answer["holds"]:
                problems.append("%s: witness found where check is false" % label)
            # A verified witness wins every goal on its own play, so no
            # coalition loses and the coalitional construction holds.
            if "stable" in answer and (answer["losing"] or not answer["stable"]):
                problems.append("%s: witness not coalitionally stable" % label)
        return problems

    def cli_check(self, results):
        key = ("corpus", "exampleA", "gammaA", "s", "path:3", self.CORPUS_LIMIT)
        argv = [
            "oracle", "--corpus-case", "exampleA", "--formula-name", "gammaA",
            "--mode", "path:3", "--limit", str(self.CORPUS_LIMIT),
        ]
        mine = next(a for q, a in results if q.args == key)

        def compare(report):
            return (
                report["result"]["outcome"] == mine["outcome"]
                and report["model_hash"] == mine["model_hash"]
                and report["counters"]["explored"] == mine["explored"]
            )

        return argv, compare


# ------------------------------------------------------------- axiom-sweep


class AxiomSweep(Workload):
    """`tlcga axioms` over all 12 schemes, plus a one-step slice.

    Like the CLI, every scheme draws from its own `make_rng(seed)`
    stream of models of at most 4 states. Each instance is printed,
    parsed, translated and evaluated with a fresh `Evaluator`; models are
    rebuilt for every pass, so per-model set-up costs show on every pass.
    """

    name = "axiom-sweep"
    SAMPLES = 250
    ONESTEP = 200
    CLI_SAMPLES = 20

    def setup(self):
        self.schemes = self.known["axiom_schemes"]["schemes"]

    def _axiom_inputs(self, samples: int) -> list[Query]:
        queries = []
        for scheme in self.schemes:
            rng = make_rng(self.seed)
            minimum = SCHEME_MIN_AGENTS.get(scheme, 1)
            for index in range(samples):
                model = random_model(rng, max_states=4, min_agents=minimum)
                params = random_scheme_params(rng, scheme, model)
                queries.append(
                    Query(len(queries), "axiom", (scheme, index, model, params))
                )
        return queries

    def pass_inputs(self):
        queries = self._axiom_inputs(self.SAMPLES)
        rng = make_rng(self.seed)
        for _ in range(self.ONESTEP):
            queries.append(Query(len(queries), "onestep", random_onestep_instance(rng)))
        return queries

    def warm_inputs(self):
        return self._axiom_inputs(2)

    def run(self, query, tr, counts):
        if query.kind == "onestep":
            return self._run_onestep(query, tr)
        scheme, _, model, params = query.args
        instance = tr.call("transforms.instance", axiom_instance, scheme, **params)
        text = str(instance)
        phi = tr.call("parser.parse", parse_state_formula, text)
        mu = tr.call("transforms.to_mu", to_mu, phi)
        extension, iterations = tr.call("checking.extension", _evaluate, model, mu)
        counts["parser.chars"] += len(text)
        counts["checking.iterations"] += iterations
        return {
            "valid": extension == frozenset(model.states),
            "instance": instance,
            "text": text,
            "reparsed": phi,
            "mu": mu,
        }

    def _run_onestep(self, query, tr):
        sequent, constraint = query.args
        verdict = tr.call("onestep.satisfiable", sequent_satisfiable, sequent, constraint)
        answer = {"satisfiable": bool(verdict)}
        if verdict:
            form = tr.call("onestep.witness", witness_game_form, sequent, constraint)
            answer["problems"] = tuple(
                tr.call("onestep.validate", validate_game_form, form, sequent, constraint)
            )
        return answer

    def judge(self, query, answer, counts):
        if query.kind == "onestep":
            if answer["satisfiable"] and answer["problems"]:
                return ["one-step %d: witness invalid: %s" % (query.qid, answer["problems"])]
            return []
        scheme, index, model, _ = query.args
        # Formulas are dropped from the kept answer: the collector would
        # scan them after every later query of the pass.
        instance, text = answer.pop("instance"), answer.pop("text")
        reparsed, mu = answer.pop("reparsed"), answer.pop("mu")
        counts["transforms.mu_chars"] += len(str(mu))
        problems = []
        if not answer["valid"]:
            problems.append("%s sample %d: not valid: %s" % (scheme, index, text))
        # `<< >>` parses to `true`, so a re-parsed instance is compared by
        # printed text, and by extension where the texts differ.
        if str(reparsed) != text:
            if _evaluate(model, to_mu(instance))[0] != _evaluate(model, mu)[0]:
                problems.append("%s sample %d: re-parse changes meaning" % (scheme, index))
        return problems

    def reference(self, results):
        problems = []
        for query, answer in results:
            if query.kind != "onestep":
                continue
            decided = answer["satisfiable"]
            # Brute force searches game forms of at most `max_actions`
            # actions per agent; a miss at 2 is retried at 3 before the
            # two are called different.
            found = brute_force_satisfiable(*query.args)
            if decided and not found:
                found = brute_force_satisfiable(*query.args, max_actions=3)
            if decided != found:
                problems.append(
                    "one-step %d: decided %s, brute force %s" % (query.qid, decided, found)
                )
        return problems

    def cli_check(self, results):
        argv = ["axioms", "--samples", str(self.CLI_SAMPLES), "--seed", str(self.seed)]
        valid = {
            scheme: all(
                a["valid"]
                for q, a in results
                if q.kind == "axiom" and q.args[0] == scheme and q.args[1] < self.CLI_SAMPLES
            )
            for scheme in self.schemes
        }

        def compare(report):
            ok = "ok (%d samples)" % self.CLI_SAMPLES
            return (
                report["counters"]["schemes"] == len(self.schemes)
                and report["counters"]["counterexamples"]
                == sum(1 for v in valid.values() if not v)
                and all(
                    (report["result"][scheme] == ok) == valid[scheme]
                    for scheme in self.schemes
                )
            )

        return argv, compare


# ------------------------------------------------------------- bisim-sweep


class BisimSweep(Workload):
    """`tlcga bisim` in its three forms.

    Greatest bisimulation of models loaded from JSON (river crossing, the
    scos split of sheep-wolves(1,1,wolves_then_sheep), and seeded 4-agent,
    6-state random models), each small corpus model against its
    `scos()` split, and distinguishing formulas for state pairs of the
    small corpus models. sheep-wolves(1,1,wolves_then_sheep) takes ~25 s
    for its 44 distinguishing formulas (Python 3.11 on a 2-vCPU Xeon VM),
    so it only enters the scos part. sheep-wolves(3,3,simultaneous) is
    left out: its one greatest-bisimulation call takes 5-8 s there, about
    60% of a pass, so a run would hold two samples of it and they alone
    would set wall_s.
    """

    name = "bisim-sweep"
    RIVER = ((2, SIM), (2, WTS))
    # Random models of one size, so the seed does not change how much
    # bisimulation work a pass holds. At 6 states each takes 10-45 ms,
    # below the seven costliest fixed queries (100 ms and up); with 14 of
    # them in a 62-query pass, query_p90_s falls among the fixed queries
    # and the seed does not move it. At 8 states they took 15-160 ms and
    # set query_p90_s themselves, which then moved by a third between
    # seeds.
    RANDOM_MODELS = 14
    RANDOM_STATES = 6
    SCOS_CASES = (
        ("exampleA", {}),
        ("exampleB", {}),
        ("exampleB-gamma-prime", {}),
        ("password", {}),
        ("sheep-wolves", _sheep_wolves_params(1, SIM)),
        ("sheep-wolves", _sheep_wolves_params(1, WTS)),
    )
    DISTINGUISH_CASES = SCOS_CASES[:5]

    def setup(self):
        queries = []
        for n, mode in self.RIVER:
            case = build_case("sheep-wolves", **_sheep_wolves_params(n, mode))
            queries.append(("greatest", self._write_model(case.model, "sw%d%s" % (n, mode))))
        # What `tlcga scos --out` writes for sheep-wolves(1,1,wts): 25 states.
        split, _ = build_case("sheep-wolves", **_sheep_wolves_params(1, WTS)).model.scos()
        queries.append(("greatest", self._write_model(split, "sw1split")))
        rng = make_rng(self.seed)
        kept = 0
        while kept < self.RANDOM_MODELS:
            model = random_model(rng, max_states=self.RANDOM_STATES, min_agents=4, max_agents=4)
            if len(model.states) == self.RANDOM_STATES:
                queries.append(("greatest", self._write_model(model, "r%d" % kept)))
                kept += 1
        for name, params in self.SCOS_CASES:
            queries.append(("scos", name, params))
        for name, params in self.DISTINGUISH_CASES:
            states = build_case(name, **params).model.states
            for left in states:
                for right in states:
                    if left < right:
                        queries.append(("distinguish", name, params, left, right))
        random.Random(self.seed).shuffle(queries)
        self.queries = [Query(i, q[0], q[1:]) for i, q in enumerate(queries)]

    def pass_inputs(self):
        return self.queries

    def warm_inputs(self):
        return [q for q in self.queries if q.kind == "distinguish" and q.args[0] == "exampleA"]

    def run(self, query, tr, counts):
        if query.kind == "greatest":
            (path,) = query.args
            model = tr.call("models.load", load_model, path)
            model_hash = tr.call("models.content_hash", model.content_hash)
            relation = tr.call("bisim.greatest", greatest_bisimulation, model)
            counts["bisim.pairs"] += len(relation)
            return {"model_hash": model_hash, "pairs": len(relation),
                    "states": model.states, "relation": relation}
        if query.kind == "scos":
            name, params = query.args
            case = tr.call("corpus.build", build_case, name, **params)
            model = case.model
            split, copies = tr.call("models.scos", model.scos)
            # `tlcga bisim --other` with the split as the other model: one
            # union, one greatest bisimulation (the body of are_bisimilar).
            union, left_map, right_map = tr.call(
                "models.union", disjoint_union, model, split
            )
            relation = tr.call("bisim.greatest", greatest_bisimulation, union)
            counts["bisim.pairs"] += len(relation)
            return {
                "all_copies_related": all(
                    (left_map[s], right_map[copies[s][0]]) in relation
                    for s in model.states
                ),
                "start_bisimilar": (
                    left_map[case.start], right_map[copies[case.start][0]]
                ) in relation,
            }
        name, params, left, right = query.args
        case = tr.call("corpus.build", build_case, name, **params)
        model = case.model
        tr.call("models.content_hash", model.content_hash)
        relation = tr.call("bisim.greatest", greatest_bisimulation, model)
        counts["bisim.pairs"] += len(relation)
        if (left, right) in relation:
            return {"bisimilar": True}
        phi = tr.call("bisim.distinguishing", distinguishing_formula, model, left, right)
        return {
            "bisimilar": False,
            "formula": phi,
            "separates": phi is not None
            and tr.call("checking.check", check, model, left, phi)
            and not tr.call("checking.check", check, model, right, phi),
        }

    def judge(self, query, answer, counts):
        if query.kind == "greatest":
            relation = answer.pop("relation")
            if not all((s, s) in relation for s in answer.pop("states")) or any(
                (b, a) not in relation for a, b in relation
            ):
                return ["%s: relation not reflexive and symmetric" % (query.args,)]
            return []
        if query.kind == "scos":
            if not (answer["all_copies_related"] and answer["start_bisimilar"]):
                return ["%s%s: not bisimilar to its scos split" % query.args]
            return []
        if answer["bisimilar"]:
            return []
        counts["bisim.distinguishing_chars"] += len(str(answer.pop("formula")))
        if not answer["separates"]:
            return ["%s %s/%s: distinguishing formula does not separate" % (
                query.args[0], query.args[2], query.args[3])]
        return []

    def cli_check(self, results):
        river = [
            (q, a) for q, a in results
            if q.kind == "greatest" and q.args[0].endswith("sw2%s.json" % SIM)
        ]
        query, mine = river[0]

        def compare(report):
            return (
                report["model_hash"] == mine["model_hash"]
                and report["result"]["pairs"] == mine["pairs"]
            )

        return ["bisim", "--model", query.args[0]], compare


WORKLOADS = {
    cls.name: cls for cls in (RiverCheck, OracleSweep, AxiomSweep, BisimSweep)
}
