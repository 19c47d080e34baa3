"""Goal-assignment transformations: extensions, unfolding, translation."""

import itertools
import random
import time

import pytest

from tlcga.formulas import (
    And,
    Coalition,
    GoalAssignment,
    Globally,
    Mu,
    Next,
    Not,
    Nu,
    Or,
    Prop,
    Strategic,
    TRUE,
    Truth,
    Until,
    Var,
    coalition_key,
    path_conjuncts,
    strategic,
)
from tlcga.parser import parse_path_formula, parse_state_formula
from tlcga.sampling import random_assignment
from tlcga.transforms import (
    SideConditionError,
    _dedupe,
    axiom_instance,
    conjoin,
    ecl,
    induction_formula,
    long_term_part,
    monotone_closure,
    negate,
    nexttime_extension,
    nexttime_extension_to,
    normal_form,
    to_mu,
    unfold,
)


def ga(text: str) -> GoalAssignment:
    parsed = parse_state_formula(text)
    assert isinstance(parsed, Strategic)
    return parsed.assignment


def goal(text: str):
    return parse_path_formula(text)


def reference_nexttime_extension(assignment: GoalAssignment) -> GoalAssignment:
    """The nexttime-extension with its unions from every bitmask subfamily."""
    support = assignment.support()
    unions: set[Coalition] = set()
    for index in range(1, 1 << len(support)):
        members: set[str] = set()
        for bit, coalition in enumerate(support):
            if index & (1 << bit):
                members |= coalition
        unions.add(Coalition(members))

    entries = []
    for union in sorted(unions, key=coalition_key):
        next_bodies = []
        for coalition, goal in assignment:
            if coalition <= union:
                for part in path_conjuncts(goal):
                    if isinstance(part, Next):
                        next_bodies.append(part.body)
        body = conjoin(
            _dedupe(next_bodies)
            + [strategic(long_term_part(assignment.restrict(union)))]
        )
        entries.append((union, Next(body)))
    return GoalAssignment(entries)


class TestNexttimeExtension:
    def test_agrees_with_the_bitmask_reference(self):
        for seed in range(300):
            assignment = random_assignment(
                random.Random(seed), ["a", "b", "c", "d"], ["p", "q"],
                max_coalitions=6, allow_conjunction=True,
                allow_empty_coalition=True,
            )
            extended = nexttime_extension(assignment)
            expected = reference_nexttime_extension(assignment)
            assert extended.entries == expected.entries, seed
            assert str(extended) == str(expected), seed

    def test_twenty_entries_over_six_agents(self):
        # The six singletons close to all 63 non-empty coalitions; the
        # 2^20 subfamilies of the support are never walked.
        agents = "abcdef"
        coalitions = [Coalition(a) for a in agents]
        coalitions += [Coalition(pair) for pair in itertools.combinations(agents, 2)]
        assignment = GoalAssignment(
            (coalition, goal("X p" if index % 2 else "G q"))
            for index, coalition in enumerate(coalitions[:20])
        )
        started = time.process_time()
        extended = nexttime_extension(assignment)
        assert time.process_time() - started < 0.1
        assert len(assignment) == 20
        assert len(extended) == 63

    def test_three_entry_worked_example(self):
        extended = nexttime_extension(
            ga("<< {a,b} -> (p U q); {c} -> G r; {b,c} -> X s >>")
        )
        expected = ga(
            "<< {a,b} -> X << {a,b} -> (p U q) >>;"
            " {c} -> X << {c} -> G r >>;"
            " {b,c} -> X (s & << {c} -> G r >>);"
            " {a,b,c} -> X (s & << {a,b} -> (p U q); {c} -> G r >>) >>"
        )
        assert extended == expected

    def test_single_eventuality_is_pushed(self):
        extended = nexttime_extension(ga("<< {a} -> (p U q) >>"))
        assert extended == ga("<< {a} -> X << {a} -> (p U q) >> >>")

    def test_nexttime_pair_gains_the_union(self):
        extended = nexttime_extension(ga("<< {a} -> X p; {b} -> X q >>"))
        assert extended == ga(
            "<< {a} -> X p; {b} -> X q; {a,b} -> X (p & q) >>"
        )

    def test_empty_assignment_stays_empty(self):
        assert nexttime_extension(GoalAssignment()) == GoalAssignment()

    def test_conjunct_goals_split_into_both_parts(self):
        extended = nexttime_extension(ga("<< {a} -> X p && G q >>"))
        assert extended == ga("<< {a} -> X (p & << {a} -> G q >>) >>")

    def test_target_replaces_the_grand_union(self):
        extended = nexttime_extension_to(
            ga("<< {1,2} -> G p; {1,3} -> G q >>"), Var("z")
        )
        assert extended == GoalAssignment(
            [
                (Coalition(["1", "2"]), goal("X << {1,2} -> G p >>")),
                (Coalition(["1", "3"]), goal("X << {1,3} -> G q >>")),
                (Coalition(["1", "2", "3"]), Next(Var("z"))),
            ]
        )

    def test_target_needs_a_grand_union(self):
        with pytest.raises(ValueError):
            nexttime_extension_to(GoalAssignment(), Prop("p"))


class TestUnfold:
    def test_pure_eventuality_shape(self):
        formula, parts = unfold(ga("<< {a} -> (p U q) >>"))
        assert formula == parse_state_formula(
            "q | p & << {a} -> X << {a} -> (p U q) >> >>"
        )
        assert parts.finish == (Prop("q"),)
        assert parts.uholds == (Prop("p"),)
        assert parts.gholds == ()

    def test_pure_invariant_shape(self):
        formula, parts = unfold(ga("<< {a} -> G p >>"))
        assert formula == parse_state_formula(
            "p & << {a} -> X << {a} -> G p >> >>"
        )
        assert parts.finish == ()
        assert parts.gholds == (Prop("p"),)

    def test_two_invariants(self):
        gamma = ga("<< {1,2} -> G p; {1,3} -> G q >>")
        formula, parts = unfold(gamma)
        assert parts.gholds == (Prop("p"), Prop("q"))
        assert formula == parse_state_formula(
            "p & q & << {1,2} -> X << {1,2} -> G p >>;"
            " {1,3} -> X << {1,3} -> G q >>;"
            " {1,2,3} -> X << {1,2} -> G p; {1,3} -> G q >> >>"
        )

    def test_conjunct_eventuality_leaves_the_rest(self):
        formula, parts = unfold(ga("<< {a} -> (p U q) && G r >>"))
        remainder = Strategic(
            GoalAssignment([(Coalition(["a"]), Globally(Prop("r")))])
        )
        assert parts.finish == (And(Prop("q"), remainder),)
        assert parts.uholds == (Prop("p"),)
        assert parts.gholds == (Prop("r"),)
        assert formula == parse_state_formula(
            "q & << {a} -> G r >>"
            " | p & r & << {a} -> X << {a} -> (p U q) && G r >> >>"
        )

    def test_empty_assignment_unfolds_to_truth(self):
        formula, parts = unfold(GoalAssignment())
        assert formula == TRUE
        assert parts.finish == ()

    def test_mixed_assignment(self):
        formula, _ = unfold(ga("<< {a} -> X p && (q U r) >>"))
        assert formula == parse_state_formula(
            "r & << {a} -> X p >>"
            " | q & << {a} -> X (p & << {a} -> (q U r) >>) >>"
        )


class TestInductionFormula:
    def test_eventuality_induction(self):
        gamma = ga("<< {a} -> (p U q) >>")
        assert induction_formula(gamma, Var("z")) == Or(
            Prop("q"),
            And(
                Prop("p"),
                Strategic(
                    GoalAssignment([(Coalition(["a"]), Next(Var("z")))])
                ),
            ),
        )

    def test_induction_at_the_fixpoint_is_the_unfolding(self):
        for text in (
            "<< {a} -> (p U q) >>",
            "<< {1,2} -> G p; {1,3} -> G q >>",
            "<< {a} -> (p U q) && G r; {a,b} -> G s >>",
        ):
            gamma = ga(text)
            assert induction_formula(gamma, Strategic(gamma)) == unfold(gamma)[0]

    def test_rejects_nexttime_assignments(self):
        with pytest.raises(ValueError):
            induction_formula(ga("<< {a} -> X p >>"), Var("z"))

    def test_rejects_mixed_assignments(self):
        with pytest.raises(ValueError):
            induction_formula(ga("<< {a} -> X p && G q >>"), Var("z"))


class TestNormalForm:
    def test_mixed_operator_is_unfolded(self):
        result = normal_form(parse_state_formula("<< {a} -> X p && G q >>"))
        assert result == parse_state_formula(
            "q & << {a} -> X (p & << {a} -> G q >>) >>"
        )

    def test_pure_operators_are_kept(self):
        for text in (
            "<< {a} -> X p >>",
            "<< {a} -> G p >>",
            "<< {a} -> (p U q); {b} -> G r >>",
            "p & !q | << {a} -> X p >>",
        ):
            formula = parse_state_formula(text)
            assert normal_form(formula) == formula

    def test_nested_mixed_goals_are_normalized(self):
        result = normal_form(
            parse_state_formula("!<< {a} -> X << {b} -> X p && G q >> >>")
        )
        assert result == parse_state_formula(
            "!<< {a} -> X (q & << {b} -> X (p & << {b} -> G q >>) >>) >>"
        )

    def test_binders_are_rejected(self):
        with pytest.raises(ValueError):
            normal_form(parse_state_formula("mu z . p | z", dialect="mu"))


class TestTranslation:
    def test_atoms_and_nexttime_pass_through(self):
        for text in ("p & !q | r -> s", "<< {a} -> X (p | q) >>", "true"):
            formula = parse_state_formula(text)
            translated = to_mu(formula)
            assert "U" not in str(translated)
            assert "G " not in str(translated)

    def test_eventuality_becomes_a_least_fixpoint(self):
        translated = to_mu(parse_state_formula("<< {a} -> (p U q) >>"))
        assert translated == Mu(
            "_z0",
            Or(
                Prop("q"),
                And(
                    Prop("p"),
                    Strategic(
                        GoalAssignment(
                            [(Coalition(["a"]), Next(Var("_z0")))]
                        )
                    ),
                ),
            ),
        )

    def test_invariant_becomes_a_greatest_fixpoint(self):
        translated = to_mu(parse_state_formula("<< {a} -> G p >>"))
        assert translated == Nu(
            "_z0",
            And(
                Prop("p"),
                Strategic(
                    GoalAssignment([(Coalition(["a"]), Next(Var("_z0")))])
                ),
            ),
        )

    def test_multi_coalition_invariants(self):
        translated = to_mu(parse_state_formula("<< {1,2} -> G p; {1,3} -> G q >>"))
        assert translated == parse_state_formula(
            "nu _z0 . p & q & << {1,2} -> X (nu _z1 . p & << {1,2} -> X _z1 >>);"
            " {1,3} -> X (nu _z2 . q & << {1,3} -> X _z2 >>);"
            " {1,2,3} -> X _z0 >>",
            dialect="mu",
        )

    def test_mixed_assignment_goes_through_the_unfolding(self):
        translated = to_mu(parse_state_formula("<< {a} -> X p && (q U r) >>"))
        inner = Mu(
            "_z0",
            Or(
                Prop("r"),
                And(
                    Prop("q"),
                    Strategic(
                        GoalAssignment([(Coalition(["a"]), Next(Var("_z0")))])
                    ),
                ),
            ),
        )
        expected = Or(
            And(
                Prop("r"),
                Strategic(GoalAssignment([(Coalition(["a"]), Next(Prop("p")))])),
            ),
            And(
                Prop("q"),
                Strategic(
                    GoalAssignment(
                        [(Coalition(["a"]), Next(And(Prop("p"), inner)))]
                    )
                ),
            ),
        )
        assert translated == expected

    def test_closed_subterms_are_translated_once(self):
        formula = parse_state_formula("<< {a} -> G p >> & << {a} -> G p >>")
        translated = to_mu(formula)
        assert isinstance(translated, And)
        assert translated.left is translated.right

    def test_existing_binders_pass_through(self):
        formula = parse_state_formula("mu z . q | << {a} -> X z >>", dialect="mu")
        assert to_mu(formula) == formula

    def test_implication_is_desugared(self):
        assert to_mu(parse_state_formula("p -> q")) == Or(Not(Prop("p")), Prop("q"))


class TestMonotoneClosure:
    def test_subset_goals_are_conjoined(self):
        closed = monotone_closure(ga("<< {a} -> X p; {a,b} -> X q >>"))
        assert closed == ga("<< {a} -> X p; {a,b} -> X q && X p >>")

    def test_unrelated_coalitions_unchanged(self):
        gamma = ga("<< {a} -> X p; {b} -> X q >>")
        assert monotone_closure(gamma) == gamma

    def test_idempotent_up_to_duplicates(self):
        gamma = ga("<< {a} -> G p; {a,b} -> (q U r) >>")
        once = monotone_closure(gamma)
        assert monotone_closure(once) == once


class TestClosureSet:
    def test_contains_the_formula_and_its_negation(self):
        formula = parse_state_formula("<< {a} -> (p U q) >>")
        closure = ecl(formula)
        assert formula in closure
        assert Not(formula) in closure

    def test_closure_reaches_the_goal_atoms(self):
        formula = parse_state_formula("<< {a} -> (p U q) >>")
        closure = ecl(formula)
        assert Prop("p") in closure
        assert Prop("q") in closure

    def test_closure_is_finite_and_stable(self):
        formula = parse_state_formula(
            "<< {1,2} -> G p; {1,3} -> G q >> | !<< {a} -> X p >>"
        )
        closure = ecl(formula)
        assert len(closure) < 60
        for member in closure:
            assert negate(member) in closure

    def test_mixed_operators_are_rejected(self):
        with pytest.raises(ValueError):
            ecl(parse_state_formula("<< {a} -> X p && G q >>"))


class TestAxiomInstances:
    def test_trivial_assignment_scheme(self):
        instance = axiom_instance("triv")
        assert instance == Strategic(GoalAssignment())

    def test_safety_scheme(self):
        instance = axiom_instance("safe", agents=Coalition(["a", "b"]))
        assert str(instance) == "!<< {a,b} -> X false >>"

    def test_merge_requires_disjoint_coalitions(self):
        with pytest.raises(SideConditionError):
            axiom_instance(
                "merge",
                entries=[
                    (Coalition(["a"]), goal("X p")),
                    (Coalition(["a", "b"]), goal("X q")),
                ],
            )

    def test_merge_shape(self):
        instance = axiom_instance(
            "merge",
            entries=[
                (Coalition(["a"]), goal("X p")),
                (Coalition(["b"]), goal("G q")),
            ],
        )
        assert instance == parse_state_formula(
            "<< {a} -> X p >> & << {b} -> G q >> -> << {a} -> X p; {b} -> G q >>"
        )

    def test_fixpoint_scheme_uses_the_unfolding(self):
        gamma = ga("<< {a} -> (p U q) >>")
        instance = axiom_instance("fix", assignment=gamma)
        unfolded = unfold(gamma)[0]
        assert instance == And(
            parse_state_formula("%s -> %s" % (unfolded, Strategic(gamma))),
            parse_state_formula("%s -> %s" % (Strategic(gamma), unfolded)),
        )

    def test_fp_schemes(self):
        fp_u = axiom_instance(
            "fp_u", coalition=Coalition(["a"]), alpha=Prop("p"), beta=Prop("q")
        )
        assert str(fp_u) == (
            "(<< {a} -> (p U q) >> -> q | p & << {a} -> X << {a} -> (p U q) >> >>)"
            " & (q | p & << {a} -> X << {a} -> (p U q) >> >> -> << {a} -> (p U q) >>)"
        )
        fp_g = axiom_instance("fp_g", coalition=Coalition(["a"]), chi=Prop("p"))
        assert str(fp_g) == (
            "(<< {a} -> G p >> -> p & << {a} -> X << {a} -> G p >> >>)"
            " & (p & << {a} -> X << {a} -> G p >> >> -> << {a} -> G p >>)"
        )

    def test_superadditivity_requires_disjointness(self):
        with pytest.raises(SideConditionError):
            axiom_instance(
                "superadditivity",
                first=Coalition(["a"]),
                first_body=Prop("p"),
                second=Coalition(["a", "b"]),
                second_body=Prop("q"),
            )

    def test_superadditivity_shape(self):
        instance = axiom_instance(
            "superadditivity",
            first=Coalition(["a"]),
            first_body=Prop("p"),
            second=Coalition(["b"]),
            second_body=Prop("q"),
        )
        assert instance == parse_state_formula(
            "<< {a} -> X p >> & << {b} -> X q >>"
            " -> << {a} -> X p; {b} -> X q; {a,b} -> X (p & q) >>"
        )

    def test_grand_coalition_scheme_needs_a_nexttime_goal(self):
        with pytest.raises(SideConditionError):
            axiom_instance(
                "grand_coalition",
                assignment=ga("<< {a,b} -> G p >>"),
                agents=Coalition(["a", "b"]),
                psi=Prop("q"),
            )

    def test_case_scheme_shape(self):
        gamma = ga("<< {a} -> X p; {a,b} -> X r >>")
        instance = axiom_instance(
            "case",
            assignment=gamma,
            coalition=Coalition(["a"]),
            agents=Coalition(["a", "b"]),
            psi=Prop("q"),
        )
        assert instance == parse_state_formula(
            "<< {a} -> X p; {a,b} -> X r >> ->"
            " << {a} -> X (p & q); {a,b} -> X r >>"
            " | << {a} -> X p; {a,b} -> X !q >>"
        )

    def test_agt_maximality_shape(self):
        instance = axiom_instance(
            "agt_maximality", agents=Coalition(["a", "b"]), body=Prop("p")
        )
        assert instance == parse_state_formula(
            "<< {} -> X p >> | << {a,b} -> X !p >>"
        )

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            axiom_instance("modus_ponens")
