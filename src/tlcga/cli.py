"""Command-line front end.

Every subcommand prints a run report: a command echo, the content hash
of the model involved, the canonical text of the formula involved, the
result lines, search counters, and the seed. Reports are byte-identical
across runs for identical inputs and seed; wall-clock timing therefore
goes to stderr, never into the report.

Exit codes: 0 the query was answered (whatever the boolean), 1 usage
error, 2 invalid input, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from . import bisim as bisim_mod
from . import corpus as corpus_mod
from . import onestep as onestep_mod
from . import stability as stability_mod
from .checking import check_with_stats
from .formulas import GoalAssignment, Strategic, StateFormula, strategic
from .models import (
    ResourceLimitError,
    _expect,
    _names,
    disjoint_union,
    from_json_dict,
    load_model,
    read_json,
    save_model,
)
from .parser import parse_state_formula
from .sampling import DEFAULT_SEED, falsify_scheme
from .strategies import (
    find_witness,
    parse_memory_mode,
    profile_from_json_dict,
    verify_witness,
)
from .transforms import (
    _SCHEMES,
    induction_formula,
    nexttime_extension,
    normal_form,
    to_mu,
    unfold,
)


class UsageError(Exception):
    """A command line that does not name a well-formed query."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunReport:
    """The deterministic output of one subcommand invocation."""

    command: str
    seed: int
    model_hash: Optional[str] = None
    formula: Optional[str] = None
    result: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def to_json_text(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "model_hash": self.model_hash,
                "formula": self.formula,
                "result": self.result,
                "counters": self.counters,
                "seed": self.seed,
            },
            indent=2,
        )

    def to_text(self) -> str:
        lines = ["command: %s" % self.command]
        if self.model_hash is not None:
            lines.append("model: %s" % self.model_hash)
        if self.formula is not None:
            lines.append("formula: %s" % self.formula)
        for key, value in self.result.items():
            lines.append("%s: %s" % (key, _plain(value)))
        for key, value in self.counters.items():
            lines.append("%s: %s" % (key, _plain(value)))
        lines.append("seed: %d" % self.seed)
        return "\n".join(lines)


def _plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ", ".join(_plain(item) for item in value)
    return str(value)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for randomized work (default %d)" % DEFAULT_SEED,
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker count; every value produces the canonical output",
    )


def _parse_params(text: Optional[str]) -> dict:
    params: dict = {}
    if not text:
        return params
    for piece in text.split(","):
        if "=" not in piece:
            raise UsageError("--params expects k=v pairs, got %r" % piece)
        key, value = (part.strip() for part in piece.split("=", 1))
        if key in params:
            raise ValueError("parameter %s given twice" % key)
        params[key] = int(value) if value.isdecimal() else value
    return params


def _build_case(name: str, params: Optional[str]) -> corpus_mod.CorpusCase:
    params = _parse_params(params)
    try:
        return corpus_mod.build_case(name, **params)
    except KeyError:  # build_case raises it only for a name outside the registry
        raise ValueError("unknown corpus case %s" % name) from None


def _read_formula(args, flag: str, case) -> StateFormula:
    text = getattr(args, flag)
    file_arg = getattr(args, flag + "_file")
    if text is None and file_arg is not None:
        with open(file_arg, "r", encoding="utf-8") as handle:
            text = handle.read().strip()
    if text is None:
        name = getattr(args, flag + "_name")
        if case is None:
            raise UsageError("--%s-name needs --corpus-case" % flag)
        if name not in case.formulas:
            raise ValueError("unknown formula name %s" % name)
        text = case.formulas[name]
    return parse_state_formula(text)


# The JSON documents besides the model, in the order `_resolve` reads
# them: each option's help text, whether it is required, and its decoder.
_DOCUMENTS = {
    "other": ("second model JSON file", False, from_json_dict),
    "witness": ("profile JSON file", True, profile_from_json_dict),
    "profile": ("profile JSON file", False, profile_from_json_dict),
    "sequent": ("sequent JSON file", True, functools.partial(
        _expect, kind=dict, what="the sequent document")),
    "constraint": ("constraint JSON file", True, functools.partial(
        _expect, kind=dict, what="the constraint document")),
}


def _agents_named(phi: StateFormula) -> set[str]:
    """Every agent a coalition of `phi` names."""
    agents: set[str] = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Strategic):
            agents |= node.assignment.grand_union()
            stack.extend(goal for _, goal in node.assignment)
        else:
            stack.extend(
                child
                for child in (getattr(node, name) for name in node.__match_args__)
                if not isinstance(child, str)
            )
    return agents


def _resolve(args, report: RunReport) -> None:
    """Read the inputs `args.inputs` declares, replacing each on `args`.

    The order is fixed: the model source, the formula, the default
    `--state`, the JSON documents, then every state name. Each name the
    user gave, agents in the formula included, is checked here, and the
    report's model hash, formula and state are filled, so a handler only
    computes its answer.
    """
    case = None
    if "model" in args.inputs:
        if args.corpus_case is not None:
            case = _build_case(args.corpus_case, args.params)
            args.model = case.model
        elif args.params:
            raise UsageError("--params only applies to --corpus-case")
        else:
            args.model = load_model(args.model)
        report.model_hash = args.model.content_hash()
    for flag in ("formula", "goals"):
        if flag in args.inputs:
            phi = _read_formula(args, flag, case)
            setattr(args, flag, phi)
            report.formula = str(phi)
            if "model" in args.inputs:
                unknown = _agents_named(phi) - set(args.model.agents)
                if unknown:
                    raise ValueError(
                        "formula names agent %s, which the model does not"
                        " declare" % min(unknown)
                    )
    if "state" in args.inputs:
        if args.state is None:
            if case is None:
                raise UsageError("--state is required with --model")
            args.state = case.start
        report.result["state"] = args.state
    for dest, (_, _, decode) in _DOCUMENTS.items():
        if dest in args.inputs and getattr(args, dest) is not None:
            setattr(args, dest, decode(read_json(getattr(args, dest))))
    if "model" in args.inputs:
        other = getattr(args, "other", None) or args.model
        for dest, model in (("state", args.model), ("other_state", other)):
            name = getattr(args, dest, None)
            if name is not None and not model.has_state(name):
                raise ValueError("unknown state %s" % name)


def _strategic_assignment(phi: StateFormula) -> GoalAssignment:
    if not isinstance(phi, Strategic):
        raise ValueError(
            "expected a single strategic operator, got %s" % phi
        )
    return phi.assignment


# ---------------------------------------------------------------- handlers


def _cmd_check(args, report: RunReport) -> int:
    outcome = check_with_stats(args.model, args.state, args.formula)
    report.result["holds"] = outcome.holds
    report.counters["iterations"] = outcome.iterations
    return 0


def _cmd_oracle(args, report: RunReport) -> int:
    if args.limit < 1:
        raise UsageError("--limit must be at least 1")
    assignment = _strategic_assignment(args.formula)
    mode = parse_memory_mode(args.mode)
    found = find_witness(args.model, args.state, assignment, mode, limit=args.limit)
    report.result["mode"] = str(mode)
    report.result["outcome"] = found.outcome
    if found.witness is not None:
        report.result["witness"] = "\n" + found.witness.render()
        if args.save_witness:
            with open(args.save_witness, "w", encoding="utf-8") as handle:
                json.dump(found.witness.to_json_dict(), handle, indent=2)
            report.result["saved to"] = args.save_witness
    report.counters["explored"] = found.explored
    return 3 if found.outcome == "none (bounded)" else 0


def _cmd_validate(args, report: RunReport) -> int:
    assignment = _strategic_assignment(args.formula)
    ok, failures = verify_witness(args.model, args.state, args.witness, assignment)
    report.result["verified"] = ok
    for index, failure in enumerate(failures):
        report.result["failure %d" % index] = failure
    report.counters["failures"] = len(failures)
    return 0


def _cmd_scos(args, report: RunReport) -> int:
    model = args.model
    split, copies = model.scos()
    report.result["injective before"] = model.is_injective()
    report.result["injective after"] = split.is_injective()
    report.result["states before"] = len(model.states)
    report.result["states after"] = len(split.states)
    report.result["copies"] = "; ".join(
        "%s: %d" % (state, len(copies[state])) for state in model.states
    )
    if args.out:
        save_model(split, args.out)
        report.result["written"] = args.out
    return 0


def _cmd_bisim(args, report: RunReport) -> int:
    model, first, second = args.model, args.state, args.other_state
    if args.other is not None:
        if first is None or second is None:
            raise UsageError(
                "cross-model comparison needs --state and --other-state"
            )
        model, left_map, right_map = disjoint_union(model, args.other)
        first, second = left_map[first], right_map[second]
    elif first is None and second is None:
        relation = bisim_mod.greatest_bisimulation(model)
        proper = sorted(
            (a, b) for a, b in relation if a < b
        )
        report.result["pairs"] = len(relation)
        report.result["distinct bisimilar pairs"] = "; ".join(
            "%s ~ %s" % pair for pair in proper
        ) or "(none)"
        return 0
    elif first is None or second is None:
        raise UsageError("state comparison needs both --state and --other-state")
    witness = bisim_mod.distinguishing_formula(model, first, second)
    report.result["states"] = "%s vs %s" % (args.state, args.other_state)
    report.result["bisimilar"] = witness is None
    if witness is not None:
        report.result["distinguished by"] = str(witness)
    return 0


def _cmd_translate(args, report: RunReport) -> int:
    report.result["mu-calculus"] = str(to_mu(args.formula))
    return 0


def _cmd_nf(args, report: RunReport) -> int:
    report.result["normal form"] = str(normal_form(args.formula))
    return 0


def _cmd_unfold(args, report: RunReport) -> int:
    unfolded, _ = unfold(_strategic_assignment(args.formula))
    report.result["unfolding"] = str(unfolded)
    return 0


def _cmd_ind(args, report: RunReport) -> int:
    assignment = _strategic_assignment(args.formula)
    target = parse_state_formula(args.target)
    report.result["target"] = str(target)
    report.result["induction formula"] = str(
        induction_formula(assignment, target)
    )
    return 0


def _cmd_oplus(args, report: RunReport) -> int:
    extended = nexttime_extension(_strategic_assignment(args.formula))
    report.result["nexttime extension"] = str(strategic(extended))
    report.counters["entries"] = len(extended)
    return 0


def _cmd_onestep_sat(args, report: RunReport) -> int:
    texts = _names(args.sequent.get("formulas"), "formulas of the sequent")
    universes = {
        key: _names(args.sequent[key], "%s of the sequent" % key)
        for key in ("agents", "variables")
        if args.sequent.get(key) is not None
    }
    sequent = onestep_mod.sequent_from_formulas(
        [parse_state_formula(text) for text in texts], **universes
    )
    members = _expect(args.constraint.get("family"), list, "family of the constraint")
    family = [
        _names(member, "member %d of the constraint family" % number)
        for number, member in enumerate(members)
    ]
    variables = args.constraint.get("variables")
    if variables is None:
        variables = sorted(
            set(sequent.variables) | {v for member in family for v in member}
        )
    _names(variables, "variables of the constraint")
    constraint = onestep_mod.SatConstraint.over(variables, family)
    verdict = onestep_mod.sequent_satisfiable(sequent, constraint)
    report.result["agents"] = ",".join(sequent.agents)
    report.result["variables"] = ",".join(sequent.variables)
    report.result["constraint"] = "; ".join(
        "{%s}" % ",".join(sorted(member)) for member in constraint.family
    )
    report.result["satisfiable"] = bool(verdict)
    if verdict:
        form = onestep_mod.witness_game_form(sequent, constraint)
        problems = onestep_mod.validate_game_form(form, sequent, constraint)
        report.result["witness actions"] = len(form.actions)
        report.result["witness validated"] = not problems
    elif verdict.certificate is not None:
        report.result["certificate"] = str(verdict.certificate)
    report.counters["positives"] = len(sequent.positives)
    report.counters["negatives"] = len(sequent.negatives)
    return 0


def _cmd_stability(args, report: RunReport) -> int:
    model, state, profile = args.model, args.state, args.profile
    assignment = _strategic_assignment(args.goals)
    report.result["notion"] = args.notion

    if args.notion == "coeq":
        restricted = stability_mod.coequilibrium_ga(assignment, model.agents)
        report.result["restricted goals"] = str(strategic(restricted))
        report.result["co-equilibrium exists"] = check_with_stats(
            model, state, strategic(restricted)
        ).holds
        if profile is not None:
            ok, _ = verify_witness(model, state, profile, restricted)
            report.result["profile witnesses it"] = ok
        return 0

    if profile is None:
        raise UsageError("--profile is required for notion %s" % args.notion)
    partition = stability_mod.partition_outcomes(
        model, state, profile, assignment
    )
    report.result["winning coalitions"] = "; ".join(
        str(c) for c in partition.winning_coalitions
    ) or "(none)"
    report.result["losing coalitions"] = "; ".join(
        str(c) for c in partition.losing_coalitions
    ) or "(none)"

    if args.notion == "core":
        phi = stability_mod.core_membership_formula(
            assignment, sorted(partition.losers)
        )
        report.result["membership formula"] = str(phi)
        report.result["in core"] = check_with_stats(model, state, phi).holds
        return 0

    builder = {
        "nash": stability_mod.nash_ga,
        "strong": stability_mod.strong_ga,
        "coalitional": stability_mod.coalitional_ga,
    }[args.notion]
    derived = builder(assignment, partition, model.agents)
    report.result["derived goals"] = str(strategic(derived))
    ok, _ = verify_witness(model, state, profile, derived)
    report.result["stable"] = ok
    if args.notion == "nash":
        try:
            improver = stability_mod.has_unilateral_improvement(
                model, state, profile, assignment
            )
        except ValueError:
            pass
        else:
            report.result["improving agent"] = improver or "(none)"
    return 0


def _cmd_axioms(args, report: RunReport) -> int:
    for flag, count in (("--samples", args.samples), ("--max-states", args.max_states)):
        if count < 1:
            raise UsageError("%s must be at least 1" % flag)
    wanted = args.schemes.split(",") if args.schemes else list(_SCHEMES)
    bad = 0
    for scheme in wanted:
        if scheme not in _SCHEMES:
            raise ValueError("unknown scheme %r" % scheme)
        found = falsify_scheme(
            scheme, args.samples, seed=args.seed, max_states=args.max_states
        )
        if found is None:
            report.result[scheme] = "ok (%d samples)" % args.samples
        else:
            bad += 1
            report.result[scheme] = str(found)
    report.counters["schemes"] = len(wanted)
    report.counters["counterexamples"] = bad
    return 0


def _cmd_corpus(args, report: RunReport) -> int:
    if args.list:
        report.result["cases"] = "; ".join(corpus_mod.case_names())
        return 0
    if not args.build:
        raise UsageError("corpus needs --list or --build NAME")
    if not args.out:
        raise UsageError("--build needs --out DIRECTORY")
    case = _build_case(args.build, args.params)
    written = corpus_mod.write_case(case, args.out)
    report.model_hash = case.model.content_hash()
    report.result["case"] = case.name
    report.result["start"] = case.start
    report.result["written"] = "; ".join(written)
    return 0


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tlcga", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def add(name, handler, helptext, *inputs):
        """A subcommand whose `inputs` `_resolve` reads before `handler` runs.

        The inputs are "model" (`--model` or `--corpus-case`), a formula
        flag ("formula" or "goals"), "state" (the state the query is
        asked at) and the JSON documents of `_DOCUMENTS`; "other" is
        bisim's second model, and brings its state pair.
        """
        p = sub.add_parser(name, help=helptext, add_help=True)
        p.set_defaults(handler=handler, inputs=inputs)
        _common_flags(p)
        if "model" in inputs:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--model", help="model JSON file")
            group.add_argument(
                "--corpus-case", help="built-in case name instead of a model file"
            )
            p.add_argument(
                "--params",
                default=None,
                help="corpus case parameters as k=v,k=v (sheep-wolves only)",
            )
        for flag in ("--formula", "--goals"):
            if flag[2:] in inputs:
                group = p.add_mutually_exclusive_group(required=True)
                group.add_argument(flag, help="formula in concrete syntax")
                group.add_argument(
                    flag + "-file", help="file containing the formula text"
                )
                if "model" in inputs:
                    group.add_argument(
                        flag + "-name", help="formula name from the corpus case"
                    )
        if "state" in inputs:
            p.add_argument("--state", default=None)
        for dest, (text, required, _) in _DOCUMENTS.items():
            if dest in inputs:
                p.add_argument("--" + dest, required=required, help=text)
        if "other" in inputs:
            p.add_argument("--state", default=None)
            p.add_argument("--other-state", default=None)
        return p

    add("check", _cmd_check, "truth of a formula at a state",
        "model", "formula", "state")

    p = add("oracle", _cmd_oracle, "search a memory class for a witness",
            "model", "formula", "state")
    p.add_argument("--mode", required=True, help="positional, path:K, play:K")
    p.add_argument("--limit", type=int, default=100000)
    p.add_argument("--save-witness", default=None,
                   help="write a found profile as JSON here")

    add("validate", _cmd_validate, "verify a recorded strategy profile",
        "model", "formula", "state", "witness")

    p = add("scos", _cmd_scos, "state-copying outcome-splitting transform",
            "model")
    p.add_argument("--out", default=None, help="write the split model here")

    add("bisim", _cmd_bisim, "bisimulation relation and distinctions",
        "model", "other")

    add("translate", _cmd_translate, "translate to the fixpoint dialect",
        "formula")
    add("nf", _cmd_nf, "rewrite to nexttime/long-term normal form", "formula")
    add("unfold", _cmd_unfold, "one-step unfolding of an assignment", "formula")

    p = add("ind", _cmd_ind, "induction formula with an explicit target",
            "formula")
    p.add_argument("--target", required=True, help="target state formula")

    add("oplus", _cmd_oplus, "nexttime extension of an assignment", "formula")

    add("onestep-sat", _cmd_onestep_sat, "one-step satisfiability",
        "sequent", "constraint")

    p = add("stability", _cmd_stability, "solution-concept constructions",
            "model", "goals", "state", "profile")
    p.add_argument(
        "--notion",
        required=True,
        choices=("nash", "strong", "coalitional", "coeq", "core"),
    )

    p = add("axioms", _cmd_axioms, "randomized scheme falsification")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--schemes", default=None, help="comma-separated subset")
    p.add_argument("--max-states", type=int, default=4)

    p = add("corpus", _cmd_corpus, "list or build the example registry")
    p.add_argument("--list", action="store_true")
    p.add_argument("--build", default=None, help="case name")
    p.add_argument("--params", default=None, help="k=v,k=v case parameters")
    p.add_argument("--out", default=None, help="output directory")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            raise UsageError("a subcommand is required")
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
    except UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 1

    report = RunReport(
        command="tlcga " + " ".join(shlex.quote(piece) for piece in argv),
        seed=args.seed,
    )
    started = time.perf_counter()
    try:
        _resolve(args, report)
        code = args.handler(args, report)
    except UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 1
    except (ResourceLimitError, RecursionError) as err:
        print("resource limit: %s" % err, file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as err:
        print("invalid input: %s" % err, file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(report.to_json_text() if args.json else report.to_text())
    print("time: %.1f ms" % elapsed_ms, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
