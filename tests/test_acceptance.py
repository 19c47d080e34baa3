"""End-to-end acceptance checks.

Each test covers one acceptance criterion, runs it against its time
budget, and records a single pass/fail line for the summary block.
The randomized sweeps all use fixed seeds so reruns are reproducible.
"""

import time

from conftest import random_atl_query, random_fixpoint_case, record_acceptance

from tlcga.bisim import (
    are_bisimilar,
    distinguishing_formula,
    greatest_bisimulation,
    hm_agreement,
)
from tlcga.checking import check, extension_of
from tlcga.corpus import build_case, default_cases, sheep_wolves
from tlcga.formulas import (
    Coalition,
    GoalAssignment,
    Globally,
    Next,
    Prop,
    Strategic,
    Until,
    strategic,
)
from tlcga.onestep import (
    SatConstraint,
    brute_force_satisfiable,
    sequent_from_formulas,
    sequent_satisfiable,
    validate_game_form,
    witness_game_form,
)
from tlcga.parser import parse_path_formula, parse_state_formula
from tlcga.sampling import (
    DEFAULT_SEED,
    falsify_scheme,
    make_rng,
    random_model,
    random_onestep_instance,
    random_oracle_query,
)
from tlcga.strategies import (
    atl_check,
    find_witness,
    parse_memory_mode,
    verify_witness,
)
from tlcga.transforms import nexttime_extension, to_mu, unfold


class _Budget:
    """Times a criterion and asserts both its outcome and its budget."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds
        self.failures = []

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def require(self, ok, what):
        if not ok:
            self.failures.append(what)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        ok = exc_type is None and not self.failures and elapsed < self.seconds
        line = "criterion %2d %-24s %s (%.2fs of %ds)" % (
            self.number,
            self.label,
            "pass" if ok else "FAIL",
            elapsed,
            self.seconds,
        )
        record_acceptance(line)
        if exc_type is not None:
            return False
        if self.failures:
            raise AssertionError("%s: %s" % (line, "; ".join(self.failures)))
        if elapsed >= self.seconds:
            raise AssertionError("%s: over budget" % line)
        return False


def _assignment(text):
    phi = parse_state_formula(text)
    assert isinstance(phi, Strategic)
    return phi.assignment


def _oracle_outcome(case, query, limit=100000):
    phi = parse_state_formula(case.formulas[query.formula])
    mode = parse_memory_mode(query.mode)
    return find_witness(
        case.model, query.state, phi.assignment, mode, limit=limit
    )


def test_criterion_01_memory_separation_a():
    with _Budget(1, "memory separation A", 1) as b:
        case = build_case("exampleA")
        phi = parse_state_formula(case.formulas["gammaA"])
        b.require(check(case.model, "s", phi), "formula must hold at s")
        for mode, expected in (
            ("positional", "none (exact)"),
            ("path:3", "witness"),
            ("play:3", "witness"),
        ):
            found = find_witness(
                case.model, "s", phi.assignment, parse_memory_mode(mode)
            )
            b.require(
                found.outcome == expected,
                "%s gave %s, wanted %s" % (mode, found.outcome, expected),
            )


def test_criterion_02_memory_separation_b():
    with _Budget(2, "memory separation B", 2) as b:
        case = build_case("exampleB")
        phi = parse_state_formula(case.formulas["gammaB"])
        b.require(check(case.model, "s", phi), "base formula must hold at s")
        for mode, expected in (
            ("path:2", "none (exact)"),
            ("play:2", "witness"),
        ):
            found = find_witness(
                case.model, "s", phi.assignment, parse_memory_mode(mode)
            )
            b.require(
                found.outcome == expected,
                "%s gave %s, wanted %s" % (mode, found.outcome, expected),
            )
        prime = build_case("exampleB-gamma-prime")
        phi_prime = parse_state_formula(prime.formulas["gammaBprime"])
        b.require(
            check(prime.model, "s", phi_prime),
            "strengthened formula must hold at s",
        )
        found = find_witness(
            prime.model, "s", phi_prime.assignment, parse_memory_mode("path:2")
        )
        b.require(
            found.outcome == "witness",
            "strengthened formula needs a path:2 witness, got %s"
            % found.outcome,
        )


def test_criterion_03_outcome_splitting():
    with _Budget(3, "outcome splitting", 2) as b:
        case = build_case("exampleB")
        model = case.model
        b.require(not model.is_injective(), "base model must be ambiguous")
        split, copies = model.scos()
        b.require(split.is_injective(), "split model must be injective")
        for state, names in copies.items():
            wanted = 3 if state == "s2" else 1
            b.require(
                len(names) == wanted,
                "%s should have %d copies, has %d"
                % (state, wanted, len(names)),
            )
        b.require(
            are_bisimilar(model, "s", split, copies["s"][0]),
            "start state must stay bisimilar to its representative",
        )
        prime = build_case("exampleB-gamma-prime")
        for text in (
            case.formulas["gammaB"],
            prime.formulas["gammaBprime"],
        ):
            phi = parse_state_formula(text)
            for state, names in copies.items():
                original = check(model, state, phi)
                for name in names:
                    b.require(
                        check(split, name, phi) == original,
                        "%s should agree between %s and %s"
                        % (text, state, name),
                    )


def test_criterion_04_nexttime_extension_golden():
    with _Budget(4, "nexttime extension", 1) as b:
        gamma = GoalAssignment(
            {
                ("a", "b"): parse_path_formula("(p U q)"),
                ("c",): Globally(Prop("r")),
                ("b", "c"): Next(Prop("s")),
            }
        )
        p_until_q = GoalAssignment({("a", "b"): parse_path_formula("(p U q)")})
        g_r = GoalAssignment({("c",): Globally(Prop("r"))})
        both = GoalAssignment(
            {
                ("a", "b"): parse_path_formula("(p U q)"),
                ("c",): Globally(Prop("r")),
            }
        )
        expected = GoalAssignment(
            {
                ("a", "b"): Next(strategic(p_until_q)),
                ("c",): Next(strategic(g_r)),
                ("b", "c"): Next(
                    parse_state_formula("s & << {c} -> G r >>")
                ),
                ("a", "b", "c"): Next(
                    parse_state_formula(
                        "s & << {a,b} -> (p U q); {c} -> G r >>"
                    )
                ),
            }
        )
        actual = nexttime_extension(gamma)
        b.require(
            actual == expected,
            "got %s, wanted %s" % (actual, expected),
        )
        b.require(
            Next(strategic(both))
            != actual.goal(Coalition({"a", "b", "c"})),
            "grand entry must also require the fresh prop",
        )


def test_criterion_05_fixpoint_agreement():
    with _Budget(5, "fixpoint agreement", 60) as b:
        def agree(model, assignment, label):
            phi = strategic(assignment)
            direct = extension_of(model, phi)
            unfolded = extension_of(model, unfold(assignment)[0])
            translated = extension_of(model, to_mu(phi))
            b.require(
                direct == unfolded == translated,
                "%s: direct=%s unfold=%s mu=%s"
                % (label, sorted(direct), sorted(unfolded),
                   sorted(translated)),
            )

        for case in default_cases():
            for name, text in case.formulas.items():
                phi = parse_state_formula(text)
                if isinstance(phi, Strategic):
                    agree(case.model, phi.assignment,
                          "%s/%s" % (case.name, name))
        rng = make_rng(DEFAULT_SEED)
        for index in range(200):
            model, assignment = random_fixpoint_case(rng)
            agree(model, assignment, "random %d" % index)


def test_criterion_06_axiom_schemes():
    with _Budget(6, "axiom schemes", 300) as b:
        schemes = (
            "triv",
            "safe",
            "merge",
            "grand_coalition",
            "case",
            "con",
            "fix",
            "fp_g",
            "fp_u",
            "superadditivity",
            "agt_maximality",
        )
        for scheme in schemes:
            found = falsify_scheme(scheme, 500, seed=DEFAULT_SEED)
            b.require(found is None, str(found) if found else "")


def test_criterion_07_onestep_satisfiability():
    with _Budget(7, "one-step goals", 300) as b:
        members = [
            parse_state_formula("<< {a} -> X p >>"),
            parse_state_formula("<< {b} -> X q >>"),
            parse_state_formula("!<< {b} -> X !r >>"),
        ]
        sequent = sequent_from_formulas(members, variables=("p", "q", "r"))
        sat_family = SatConstraint.over(
            ("p", "q", "r"), [frozenset("pq"), frozenset("qr")]
        )
        unsat_family = SatConstraint.over(
            ("p", "q", "r"), [frozenset("pq"), frozenset("pr")]
        )
        verdict = sequent_satisfiable(sequent, sat_family)
        b.require(bool(verdict), "golden satisfiable family judged UNSAT")
        verdict = sequent_satisfiable(sequent, unsat_family)
        b.require(not bool(verdict), "golden unsatisfiable family judged SAT")
        b.require(
            verdict.certificate is not None
            and "{q,r}" in str(verdict.certificate),
            "certificate must name the blocked need {q,r}: %s"
            % verdict.certificate,
        )
        rng = make_rng(DEFAULT_SEED)
        for index in range(400):
            sequent, constraint = random_onestep_instance(rng)
            decided = bool(sequent_satisfiable(sequent, constraint))
            if brute_force_satisfiable(sequent, constraint):
                b.require(
                    decided,
                    "sample %d: brute search found a witness but the"
                    " decision said UNSAT" % index,
                )
            if decided:
                form = witness_game_form(sequent, constraint)
                problems = validate_game_form(form, sequent, constraint)
                b.require(
                    problems == [],
                    "sample %d: witness invalid: %s" % (index, problems),
                )


def test_criterion_08_single_coalition_embedding():
    with _Budget(8, "single-coalition check", 30) as b:
        def agree(model, coalition, goal, label):
            via_game = atl_check(model, coalition, goal)
            phi = strategic(GoalAssignment({tuple(coalition): goal}))
            via_checker = extension_of(model, phi)
            b.require(
                via_game == via_checker,
                "%s: game=%s checker=%s"
                % (label, sorted(via_game), sorted(via_checker)),
            )

        for case in default_cases():
            for name, text in case.formulas.items():
                phi = parse_state_formula(text)
                if isinstance(phi, Strategic) and len(phi.assignment) == 1:
                    ((coalition, goal),) = list(phi.assignment)
                    agree(case.model, coalition, goal,
                          "%s/%s" % (case.name, name))
            rng = make_rng(DEFAULT_SEED + len(case.model.states))
            for index in range(20):
                coalition, goal = random_atl_query(rng, case.model)
                agree(case.model, coalition, goal,
                      "%s query %d" % (case.name, index))
        rng = make_rng(DEFAULT_SEED + 1)
        for index in range(300):
            model = random_model(rng)
            coalition, goal = random_atl_query(rng, model)
            agree(model, coalition, goal, "random %d" % index)


def test_criterion_09_river_crossing():
    with _Budget(9, "river crossing 3+3", 60) as b:
        for mode, expected in (
            ("simultaneous", False),
            ("wolves_then_sheep", True),
        ):
            case = build_case(
                "sheep-wolves", n_sheep=3, n_wolves=3, mode=mode
            )
            phi = parse_state_formula(case.formulas["crossing"])
            holds = check(case.model, case.start, phi)
            b.require(
                holds == expected,
                "%s: crossing is %s, expected %s" % (mode, holds, expected),
            )


def test_criterion_10_oracle_soundness():
    with _Budget(10, "oracle soundness", 120) as b:
        def sound(model, state, assignment, found, label):
            if found.witness is None:
                return
            ok, failures = verify_witness(
                model, state, found.witness, assignment
            )
            b.require(ok, "%s: witness rejected: %s" % (label, failures))
            b.require(
                check(model, state, strategic(assignment)),
                "%s: witness found where the checker says false" % label,
            )

        for case in default_cases():
            for query in case.oracle_queries:
                found = _oracle_outcome(case, query)
                b.require(
                    found.outcome == query.outcome,
                    "%s/%s %s: got %s, recorded %s"
                    % (case.name, query.formula, query.mode,
                       found.outcome, query.outcome),
                )
                phi = parse_state_formula(case.formulas[query.formula])
                sound(case.model, query.state, phi.assignment, found,
                      "%s/%s" % (case.name, query.formula))
        rng = make_rng(DEFAULT_SEED + 2)
        for index in range(200):
            model, state, assignment, mode = random_oracle_query(rng)
            found = find_witness(model, state, assignment, mode, limit=20000)
            sound(model, state, assignment, found, "random %d" % index)


def test_criterion_11_bisimulation_invariance():
    river = [
        sheep_wolves(2, 2, "simultaneous"),
        sheep_wolves(2, 2, "wolves_then_sheep"),
        sheep_wolves(3, 3, "simultaneous"),
    ]
    with _Budget(11, "bisimulation invariance", 120) as b:
        for case in default_cases() + river:
            model = case.model
            formulas = [
                parse_state_formula(text)
                for text in case.formulas.values()
            ]
            violations = hm_agreement(model, formulas)
            b.require(
                violations == [],
                "%s: bisimilar states disagree: %s"
                % (case.name, violations),
            )
            # Distinguishing formulas share their subformulas, so building
            # and checking all 55 pairs of an 11-state model is quick; the
            # 31-state wolves_then_sheep rung (463 pairs) still is not.
            if len(model.states) > 11:
                continue
            related = greatest_bisimulation(model)
            for left in model.states:
                for right in model.states:
                    if left >= right:
                        continue
                    phi = distinguishing_formula(model, left, right)
                    if (left, right) in related:
                        b.require(
                            phi is None,
                            "%s: %s ~ %s yet a distinction %s came back"
                            % (case.name, left, right, phi),
                        )
                        continue
                    b.require(
                        phi is not None,
                        "%s: no distinction for %s vs %s"
                        % (case.name, left, right),
                    )
                    # Printing phi takes longer than checking it, so the
                    # message is built only for a failure.
                    if not (check(model, left, phi)
                            and not check(model, right, phi)):
                        b.require(
                            False,
                            "%s: %s does not separate %s from %s"
                            % (case.name, phi, left, right),
                        )
