"""One-step satisfiability: redistributions, the decision, witnesses."""

import itertools

import pytest

from tlcga import models, onestep
from tlcga.formulas import Coalition, GoalAssignment
from tlcga.onestep import (
    GameFormAction,
    OneStepGameForm,
    OneStepSequent,
    OneStepShapeError,
    Redistribution,
    SatConstraint,
    brute_force_satisfiable,
    forced,
    forced_against,
    formula_satisfiable,
    redistributions,
    sequent_from_formulas,
    sequent_satisfiable,
    validate_game_form,
    witness_game_form,
)
from tlcga.models import ResourceLimitError
from tlcga.parser import parse_state_formula
from tlcga.sampling import make_rng, random_onestep_instance


def phi(text):
    return parse_state_formula(text)


def mixed_sequent():
    """Two solo positives plus a veto on blocking r, over a and b."""
    return sequent_from_formulas(
        [
            phi("<< {a} -> X p >>"),
            phi("<< {b} -> X q >>"),
            phi("!<< {b} -> X !r >>"),
        ],
        variables=["p", "q", "r"],
    )


def constraint(*members):
    return SatConstraint.over(["p", "q", "r"], members)


class TestSequentConstruction:
    def test_reads_polarities_and_universes(self):
        sequent = mixed_sequent()
        assert sequent.agents == ("a", "b")
        assert sequent.variables == ("p", "q", "r")
        assert len(sequent.positives) == 2
        assert len(sequent.negatives) == 1

    def test_duplicates_collapse(self):
        sequent = sequent_from_formulas(
            [phi("<< {a} -> X p >>"), phi("<< {a} -> X p >>")]
        )
        assert len(sequent.positives) == 1

    def test_wrong_polarity_is_rejected(self):
        with pytest.raises(OneStepShapeError, match="X !p"):
            sequent_from_formulas([phi("!<< {a} -> X p >>")])
        with pytest.raises(OneStepShapeError, match="X p"):
            sequent_from_formulas([phi("<< {a} -> X !p >>")])

    def test_long_term_goal_is_rejected(self):
        with pytest.raises(OneStepShapeError):
            sequent_from_formulas([phi("<< {a} -> G p >>")])

    def test_empty_coalition_is_rejected(self):
        with pytest.raises(OneStepShapeError, match="non-empty"):
            sequent_from_formulas([phi("<< {} -> X p >>")])

    def test_undeclared_variable_is_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            sequent_from_formulas([phi("<< {a} -> X p >>")], variables=["q"])

    def test_stray_agent_is_rejected(self):
        with pytest.raises(ValueError, match="agent set"):
            sequent_from_formulas([phi("<< {a,b} -> X p >>")], agents=["a"])

    def test_repeated_names_are_rejected(self):
        formulas = [phi("<< {a} -> X p >>")]
        with pytest.raises(ValueError, match="sequent's agents: a"):
            sequent_from_formulas(formulas, agents=["a", "a"])
        with pytest.raises(ValueError, match="sequent's variables: q"):
            sequent_from_formulas(formulas, variables=["p", "q", "q"])
        with pytest.raises(ValueError, match="sequent's agents: a, b"):
            OneStepSequent(("a", "b", "b", "a"), ("p",), (), ())
        with pytest.raises(ValueError, match="constraint's variables: p"):
            SatConstraint.over(["p", "p"], [["p"]])


def product_redistributions(sequent):
    """Every map from coalitions to a positive claim or a pass marker, in
    `itertools.product` order, keeping those whose backed coalitions are
    pairwise disjoint: the reference for the pruned walk."""
    subsets = [
        Coalition(members)
        for size in range(len(sequent.agents) + 1)
        for members in itertools.combinations(sequent.agents, size)
    ]
    options = [None] + list(range(len(sequent.positives)))
    found = []
    for choice in itertools.product(options, repeat=len(subsets)):
        pairs = [
            (subsets[i], index) for i, index in enumerate(choice) if index is not None
        ]
        if all(not first & second
               for (first, _), (second, _) in itertools.combinations(pairs, 2)):
            found.append(Redistribution(tuple(pairs)))
    return found


class TestRedistributions:
    def test_the_walk_lists_the_disjoint_maps_in_product_order(self):
        rng = make_rng(5150)
        for draw in range(300):
            sequent, _ = random_onestep_instance(rng)
            assert redistributions(sequent) == product_redistributions(sequent), draw
        three = sequent_from_formulas(
            [phi("<< {a} -> X p >>"), phi("<< {b} -> X q >>"), phi("<< {c} -> X r >>")]
        )
        assert redistributions(three) == product_redistributions(three)
        assert len(redistributions(three)) == 412

    def test_single_agent_count_matches_the_map_formula(self):
        sequent = sequent_from_formulas(
            [phi("<< {a} -> X p >>"), phi("<< {a} -> X q >>")]
        )
        found = redistributions(sequent)
        assert len(found) == (2 + 1) ** 2
        assert len(set(found)) == len(found)

    def test_two_agents_skip_overlapping_maps(self):
        sequent = sequent_from_formulas([phi("<< {a,b} -> X p >>")])
        found = redistributions(sequent)
        assert len(found) == 10
        assert len(found) < (1 + 1) ** 4
        for redistribution in found:
            coalitions = [pair[0] for pair in redistribution.pairs]
            for i in range(len(coalitions)):
                for j in range(i + 1, len(coalitions)):
                    assert not coalitions[i] & coalitions[j]

    def test_forced_collects_goals_inside_backing_cells(self):
        sequent = mixed_sequent()
        split = Redistribution(
            ((Coalition(["a"]), 0), (Coalition(["b"]), 1))
        )
        assert forced(sequent, split) == {"p", "q"}
        assert forced(sequent, Redistribution(())) == frozenset()

    def test_restriction_keeps_the_canonical_order(self):
        split = Redistribution.of([(["b"], 1), (["a", "c"], 0)])
        assert split.pairs == ((Coalition(["b"]), 1), (Coalition(["a", "c"]), 0))
        assert split.restricted(Coalition(["a", "b"])).pairs == (
            (Coalition(["a"]), 0),
            (Coalition(["b"]), 1),
        )
        assert split.restricted(Coalition(["c"])).pairs == ((Coalition(["c"]), 0),)

    def test_forced_against_adds_the_blocked_variable(self):
        sequent = mixed_sequent()
        split = Redistribution(
            ((Coalition(["a"]), 0), (Coalition(["b"]), 1))
        )
        negative = sequent.negatives[0]
        assert forced_against(
            sequent, split, negative, Coalition(["b"])
        ) == {"q", "r"}

    def test_forced_against_requires_a_supported_coalition(self):
        sequent = mixed_sequent()
        with pytest.raises(ValueError, match="no goal"):
            forced_against(
                sequent,
                Redistribution(()),
                sequent.negatives[0],
                Coalition(["a"]),
            )


class TestSequentSatisfiable:
    def test_satisfiable_family(self):
        verdict = sequent_satisfiable(
            mixed_sequent(), constraint(["p", "q"], ["q", "r"])
        )
        assert verdict.satisfiable
        assert verdict.certificate is None

    def test_unsatisfiable_family_names_the_blocked_need(self):
        verdict = sequent_satisfiable(
            mixed_sequent(), constraint(["p", "q"], ["p", "r"])
        )
        assert not verdict.satisfiable
        certificate = verdict.certificate
        assert certificate.negative == mixed_sequent().negatives[0]
        needs = {need for _, need in certificate.required}
        assert frozenset({"q", "r"}) in needs
        assert "q,r" in str(certificate)

    def test_empty_sequent_with_empty_member(self):
        sequent = OneStepSequent(("a",), (), (), ())
        family = SatConstraint.over([], [[]])
        assert sequent_satisfiable(sequent, family).satisfiable

    def test_empty_family_rejects_even_the_empty_sequent(self):
        sequent = OneStepSequent(("a",), (), (), ())
        family = SatConstraint((), ())
        verdict = sequent_satisfiable(sequent, family)
        assert not verdict.satisfiable
        assert verdict.certificate.negative is None

    def test_trivial_negative_is_unsatisfiable(self):
        sequent = OneStepSequent(("a",), ("p",), (), (GoalAssignment(),))
        family = SatConstraint.over(["p"], [["p"]])
        assert not sequent_satisfiable(sequent, family).satisfiable

    def test_universe_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            sequent_satisfiable(
                mixed_sequent(), SatConstraint.over(["p", "q"], [["p"]])
            )


class TestFormulaSatisfiable:
    def test_disjunct_can_carry_the_day(self):
        formula = phi("<< {a} -> X p >> | << {a} -> X q >>")
        family = SatConstraint.over(["p", "q"], [["q"]])
        assert formula_satisfiable(formula, family)

    def test_conjunction_with_grand_coalition_veto(self):
        formula = phi("<< {a} -> X p >> & !<< {a} -> X !p >>")
        family = SatConstraint.over(["p"], [["p"]])
        assert formula_satisfiable(formula, family)

    def test_single_atom_with_superset_member(self):
        formula = phi("<< {a} -> X p >>")
        family = SatConstraint.over(["p", "q"], [["p", "q"]])
        assert formula_satisfiable(formula, family)

    def test_split_family_still_serves_two_solo_claims(self):
        """One agent cannot back both claims in one profile, so each
        claim gets its own realizing action and a split family works."""
        formula = phi("<< {a} -> X p >> & << {a} -> X q >>")
        family = SatConstraint.over(["p", "q"], [["p"], ["q"]])
        assert formula_satisfiable(formula, family)
        sequent = sequent_from_formulas(
            [phi("<< {a} -> X p >>"), phi("<< {a} -> X q >>")]
        )
        mismatched = SatConstraint.over(["p", "q"], [["p"], ["q"]])
        assert brute_force_satisfiable(sequent, mismatched)

    def test_uncoverable_forced_set_is_unsatisfiable(self):
        formula = phi("<< {a} -> X p >> & << {b} -> X q >>")
        family = SatConstraint.over(["p", "q"], [["p"], ["q"]])
        assert not formula_satisfiable(formula, family)
        sequent = sequent_from_formulas(
            [phi("<< {a} -> X p >>"), phi("<< {b} -> X q >>")]
        )
        assert not brute_force_satisfiable(sequent, family)

    def test_non_one_step_shapes_are_rejected(self):
        family = SatConstraint.over(["p"], [["p"]])
        with pytest.raises(OneStepShapeError):
            formula_satisfiable(phi("p"), family)
        with pytest.raises(OneStepShapeError):
            formula_satisfiable(phi("<< {a} -> G p >>"), family)


class TestWitnessGameForm:
    def test_witness_for_the_mixed_sequent_validates(self):
        sequent = mixed_sequent()
        family = constraint(["p", "q"], ["q", "r"])
        form = witness_game_form(sequent, family)
        assert validate_game_form(form, sequent, family) == []

    def test_single_positive_single_member_needs_one_action(self):
        sequent = sequent_from_formulas(
            [phi("<< {a} -> X p >>")], agents=["a", "b"]
        )
        family = SatConstraint.over(["p"], [["p"]])
        form = witness_game_form(sequent, family)
        assert len(form.actions) == 1
        assert validate_game_form(form, sequent, family) == []

    def test_grand_coalition_veto_witness(self):
        sequent = sequent_from_formulas(
            [phi("<< {a} -> X p >>"), phi("!<< {a} -> X !p >>")]
        )
        family = SatConstraint.over(["p"], [["p"]])
        form = witness_game_form(sequent, family)
        assert validate_game_form(form, sequent, family) == []

    def test_unsatisfiable_input_is_rejected(self):
        with pytest.raises(ValueError, match="not satisfiable"):
            witness_game_form(
                mixed_sequent(), constraint(["p", "q"], ["p", "r"])
            )

    def test_corrupted_outcome_is_reported(self):
        sequent = sequent_from_formulas(
            [phi("<< {a} -> X p >>")], agents=["a"]
        )
        family = SatConstraint.over(["p"], [["p"]])
        broken = OneStepGameForm(
            agents=("a",),
            actions=(GameFormAction(claim=None, planner=0, bet=0),),
            planners=({Redistribution(()): frozenset({"q"})},),
        )
        report = validate_game_form(broken, sequent, family)
        assert any("escapes the constraint" in line for line in report)

    def test_a_form_over_other_agents_is_rejected(self):
        sequent = mixed_sequent()
        family = constraint(["p", "q"], ["q", "r"])
        form = witness_game_form(sequent, family)
        for agents in [("a",), ("a", "b", "c"), ("b", "a")]:
            other = OneStepGameForm(agents, form.actions, form.planners)
            with pytest.raises(ValueError, match="agents are not the sequent's"):
                validate_game_form(other, sequent, family)


def three_agent_sequent():
    """Two solo positives and a veto: a witness of 27 actions per agent."""
    return sequent_from_formulas(
        [
            phi("<< {a} -> X p >>"),
            phi("<< {b} -> X q >>"),
            phi("!<< {c} -> X !r >>"),
        ]
    ), constraint(["p", "q", "r"], ["p", "r"], ["q", "r"])


class TestValidationBudget:
    def test_the_budget_is_read_at_call_time(self, monkeypatch):
        sequent, family = three_agent_sequent()
        form = witness_game_form(sequent, family)
        assert len(form.actions) ** 3 == 19683
        monkeypatch.setattr(models, "MAX_TRANSITIONS", 19683)
        assert validate_game_form(form, sequent, family) == []

        def refuse(self, profile):
            raise AssertionError("outcome computed for %s" % (profile,))

        # Past the budget, no profile's outcome is computed.
        monkeypatch.setattr(models, "MAX_TRANSITIONS", 19682)
        monkeypatch.setattr(OneStepGameForm, "outcome", refuse)
        with pytest.raises(ResourceLimitError, match="more than 19682 profiles"):
            validate_game_form(form, sequent, family)


def reference_validate(sequent, constraint, agents, action_count, outcome):
    """The four clauses, each block enumerated afresh for every profile."""
    all_profiles = list(
        itertools.product(range(action_count), repeat=len(agents))
    )

    def agreeing(profile, coalition):
        slots = [
            (profile[i],) if agents[i] in coalition else range(action_count)
            for i in range(len(agents))
        ]
        return itertools.product(*slots)

    violations = []
    for number, positive in enumerate(sequent.positives):
        wanted = {
            coalition: onestep._goal_variable(goal, negative=False)
            for coalition, goal in positive
        }
        ok = any(
            all(
                all(
                    variable in outcome(other)
                    for other in agreeing(profile, coalition)
                )
                for coalition, variable in wanted.items()
            )
            for profile in all_profiles
        )
        if not ok:
            violations.append(
                "no profile realizes positive %d %s" % (number, positive)
            )
    for number, negative in enumerate(sequent.negatives):
        blocked = {
            coalition: onestep._goal_variable(goal, negative=True)
            for coalition, goal in negative
        }
        for profile in all_profiles:
            ok = any(
                any(
                    variable in outcome(other)
                    for other in agreeing(profile, coalition)
                )
                for coalition, variable in blocked.items()
            )
            if not ok:
                violations.append(
                    "profile %s defeats negative %d %s"
                    % (profile, number, negative)
                )
                break
    for profile in all_profiles:
        if constraint.covering(outcome(profile)) is None:
            violations.append(
                "outcome {%s} of profile %s escapes the constraint"
                % (",".join(sorted(outcome(profile))), profile)
            )
    for member in constraint.family:
        if not any(outcome(profile) <= member for profile in all_profiles):
            violations.append(
                "no profile stays inside constraint member {%s}"
                % ",".join(sorted(member))
            )
    return violations


KINDS = ("realizes", "defeats", "escapes", "stays")


def random_subset(rng, variables):
    return frozenset(rng.sample(variables, rng.randint(0, len(variables))))


class TestValidationAgainstTheReference:
    """Block rows give the reference's violations, line for line."""

    @staticmethod
    def agree(form, sequent, family):
        got = validate_game_form(form, sequent, family)
        assert got == reference_validate(
            sequent, family, form.agents, len(form.actions), form.outcome
        )
        return got

    def seeded_witnesses(self, seed, draws):
        rng = make_rng(seed)
        for _ in range(draws):
            sequent, family = random_onestep_instance(rng)
            if sequent_satisfiable(sequent, family):
                yield sequent, family, witness_game_form(sequent, family)

    def test_witness_forms_of_seeded_draws(self):
        checked = 0
        for sequent, family, form in self.seeded_witnesses(52000, 250):
            assert self.agree(form, sequent, family) == []
            checked += 1
        assert checked > 90

    def test_witness_forms_with_mutated_planners(self):
        rng = make_rng(52001)
        broken, kinds = 0, set()
        for sequent, family, form in self.seeded_witnesses(52002, 250):
            planners = tuple(
                {
                    formation: random_subset(rng, sequent.variables)
                    if rng.random() < 0.3
                    else member
                    for formation, member in planner.items()
                }
                for planner in form.planners
            )
            mutated = OneStepGameForm(form.agents, form.actions, planners)
            got = self.agree(mutated, sequent, family)
            broken += bool(got)
            kinds |= {kind for line in got for kind in KINDS if kind in line}
        assert broken > 25
        assert kinds == set(KINDS)

    def test_random_outcome_tables(self):
        rng = make_rng(52003)
        edge = [
            OneStepSequent(("a",), ("p",), (GoalAssignment(),), ()),
            OneStepSequent(("a", "b"), ("p",), (), (GoalAssignment(),)),
        ]
        draws = [random_onestep_instance(rng) for _ in range(300)]
        draws += [(sequent, SatConstraint.over(["p"], [["p"], []])) for sequent in edge]
        kinds = set()
        for sequent, family in draws:
            action_count = rng.randint(1, 3)
            profiles = list(
                itertools.product(range(action_count), repeat=len(sequent.agents))
            )
            table = [random_subset(rng, sequent.variables) for _ in profiles]
            got = onestep._validate(sequent, family, action_count, table)
            assert got == reference_validate(
                sequent,
                family,
                sequent.agents,
                action_count,
                dict(zip(profiles, table)).__getitem__,
            )
            kinds |= {kind for line in got for kind in KINDS if kind in line}
        assert kinds == set(KINDS)

    def test_a_three_agent_form(self):
        sequent, family = three_agent_sequent()
        form = witness_game_form(sequent, family)
        assert len(form.actions) == 27
        assert self.agree(form, sequent, family) == []


class TestOneWalk:
    """The verdict and the witness each walk the redistributions once."""

    def test_decide_and_witness_walk_once_each(self, monkeypatch):
        calls = []
        walk = onestep.redistributions

        def counted(sequent):
            calls.append(sequent)
            return walk(sequent)

        monkeypatch.setattr(onestep, "redistributions", counted)
        sequent, family = mixed_sequent(), constraint(["p", "q"], ["q", "r"])
        witness_game_form(sequent, family)
        assert len(calls) == 1
        assert sequent_satisfiable(sequent, family)
        assert len(calls) == 2

    def test_unsatisfiable_draws_are_rejected_with_the_certificate(self):
        rng = make_rng(6160)
        rejected = 0
        for _ in range(300):
            sequent, family = random_onestep_instance(rng)
            verdict = sequent_satisfiable(sequent, family)
            if verdict:
                continue
            with pytest.raises(ValueError) as caught:
                witness_game_form(sequent, family)
            assert str(caught.value) == (
                "sequent is not satisfiable under the constraint: %s"
                % verdict.certificate
            )
            rejected += 1
        assert rejected > 100


class TestBruteForceOracle:
    def test_agrees_on_the_satisfiable_family(self):
        assert brute_force_satisfiable(
            mixed_sequent(), constraint(["p", "q"], ["q", "r"])
        )

    def test_agrees_on_the_unsatisfiable_family(self):
        assert not brute_force_satisfiable(
            mixed_sequent(), constraint(["p", "q"], ["p", "r"])
        )

    def test_found_witnesses_imply_the_decision(self):
        families = [
            constraint(["p", "q"], ["q", "r"]),
            constraint(["p"], ["q"], ["r"]),
            constraint(["p", "q", "r"]),
            constraint([]),
        ]
        for family in families:
            decided = bool(sequent_satisfiable(mixed_sequent(), family))
            searched = brute_force_satisfiable(mixed_sequent(), family)
            if searched:
                assert decided
            if decided:
                form = witness_game_form(mixed_sequent(), family)
                assert validate_game_form(form, mixed_sequent(), family) == []
