"""Bisimulation computation, invariance, and distinguishing formulas."""

from itertools import combinations, product

import pytest

from tlcga import bisim
from tlcga.bisim import (
    _levels,
    _pairs,
    are_bisimilar,
    distinguishing_formula,
    greatest_bisimulation,
    hm_agreement,
)
from tlcga.checking import check
from tlcga.corpus import (
    default_cases,
    example_a,
    example_b,
    example_b_gamma_prime,
    sheep_wolves,
)
from tlcga.models import (
    ConcurrentGameModel,
    Effectivity,
    InvalidModelError,
    disjoint_union,
)
from tlcga.parser import parse_state_formula
from tlcga.sampling import make_rng, random_model


# The pairwise refinement that partition refinement replaced, kept as an
# independent reference. A pair stays related when every profile of
# either state is answered by a profile of the other whose blocks reach,
# coalition by coalition, only states related to some outcome of the
# challenger's block. Block outcomes come from a plain filter over the
# profiles, not from the effectivity index the library uses.

def agreeing_outcomes(model, state, coalition, profile):
    """Outcomes of the profiles that agree with `profile` on `coalition`."""
    return frozenset(
        model.out(state, other)
        for other in model.profiles(state)
        if all(other[i] == profile[i] for i in coalition)
    )


class _ReferenceOutSets:
    def __init__(self, model):
        self.model = model
        count = len(model.agents)
        self.coalitions = [
            indices
            for size in range(count + 1)
            for indices in combinations(range(count), size)
        ]
        self._outcomes = {
            (state, coalition, profile): agreeing_outcomes(
                model, state, coalition, profile
            )
            for state in model.states
            for coalition in self.coalitions
            for profile in model.profiles(state)
        }

    def outcomes(self, state, coalition, profile):
        return self._outcomes[(state, coalition, profile)]


def _covers(outs, big_state, big_profile, small_state, small_profile, related):
    for coalition in outs.coalitions:
        big_out = outs.outcomes(big_state, coalition, big_profile)
        for small in outs.outcomes(small_state, coalition, small_profile):
            if not any((big, small) in related for big in big_out):
                return False
    return True


def _pair_ok(outs, s1, s2, related):
    model = outs.model
    for challenger, answerer in ((s1, s2), (s2, s1)):
        for profile in model.profiles(challenger):
            if not any(
                _covers(outs, challenger, profile, answerer, answer, related)
                for answer in model.profiles(answerer)
            ):
                return False
    return True


def _refine(outs, related):
    return frozenset(
        pair for pair in related if _pair_ok(outs, pair[0], pair[1], related)
    )


def reference_levels(model):
    """Pair-set refinement from atom equivalence to the fixpoint."""
    outs = _ReferenceOutSets(model)
    levels = [frozenset(
        (s1, s2)
        for s1 in model.states
        for s2 in model.states
        if model.props_at(s1) == model.props_at(s2)
    )]
    while True:
        refined = _refine(outs, levels[-1])
        if refined == levels[-1]:
            return levels
        levels.append(refined)


def loop_pair():
    """Two atom-equal single-agent states, one safe loop and one decaying.

    l0 loops forever on p; d0 holds p but falls into the p-free sink d1.
    """
    return ConcurrentGameModel(
        agents=["a"],
        states=["l0", "d0", "d1"],
        actions={s: {"a": ["go"]} for s in ("l0", "d0", "d1")},
        outcome={
            ("l0", ("go",)): "l0",
            ("d0", ("go",)): "d1",
            ("d1", ("go",)): "d1",
        },
        valuation={"p": ["l0", "d0"]},
    )


def duplicated_choice():
    """One state offers the same move twice, the other once.

    Action multiplicity must be invisible: m0 and m1 only differ in how
    many actions lead to the shared sink.
    """
    return ConcurrentGameModel(
        agents=["a"],
        states=["m0", "m1", "sink"],
        actions={
            "m0": {"a": ["x", "y"]},
            "m1": {"a": ["x"]},
            "sink": {"a": ["x"]},
        },
        outcome={
            ("m0", ("x",)): "sink",
            ("m0", ("y",)): "sink",
            ("m1", ("x",)): "sink",
            ("sink", ("x",)): "sink",
        },
        valuation={"p": ["m0", "m1"]},
    )


def coalition_split():
    """Atom-equal states separable only through coalition power.

    At g0 agent a alone forces the p-successor; at g1 reaching p needs
    both agents to coordinate, so {a} has strictly less power there.
    """
    return ConcurrentGameModel(
        agents=["a", "b"],
        states=["g0", "g1", "win", "lose"],
        actions={
            "g0": {"a": ["u", "v"], "b": ["u", "v"]},
            "g1": {"a": ["u", "v"], "b": ["u", "v"]},
            "win": {"a": ["u"], "b": ["u"]},
            "lose": {"a": ["u"], "b": ["u"]},
        },
        outcome={
            ("g0", ("u", "u")): "win",
            ("g0", ("u", "v")): "win",
            ("g0", ("v", "u")): "lose",
            ("g0", ("v", "v")): "lose",
            ("g1", ("u", "u")): "win",
            ("g1", ("u", "v")): "lose",
            ("g1", ("v", "u")): "lose",
            ("g1", ("v", "v")): "win",
            ("win", ("u", "u")): "win",
            ("lose", ("u", "u")): "lose",
        },
        valuation={"p": ["win"]},
    )


def dominated_choice():
    """Atom-equal states where one adds only a dominated option.

    At c0 agent a may also defer to b, whose choice then decides between
    c0 and goal. That block is weaker than what stay or go already
    give, so c0 and c1 are bisimilar.
    """
    return ConcurrentGameModel(
        agents=["a", "b"],
        states=["c0", "c1", "goal"],
        actions={
            "c0": {"a": ["stay", "go", "defer"], "b": ["l", "r"]},
            "c1": {"a": ["stay", "go"], "b": ["w"]},
            "goal": {"a": ["w"], "b": ["w"]},
        },
        outcome={
            ("c0", ("stay", "l")): "c0",
            ("c0", ("stay", "r")): "c0",
            ("c0", ("go", "l")): "goal",
            ("c0", ("go", "r")): "goal",
            ("c0", ("defer", "l")): "c0",
            ("c0", ("defer", "r")): "goal",
            ("c1", ("stay", "w")): "c1",
            ("c1", ("go", "w")): "goal",
            ("goal", ("w", "w")): "c0",
        },
        valuation={"p": ["goal"]},
    )


class TestGreatestBisimulation:
    def test_atom_distinct_states_stay_apart(self):
        model = example_a().model
        related = greatest_bisimulation(model)
        assert related == frozenset({("s", "s"), ("s1", "s1"), ("s2", "s2")})

    def test_contains_identity_and_is_symmetric(self):
        model = example_b().model
        related = greatest_bisimulation(model)
        for state in model.states:
            assert (state, state) in related
        assert all((t, s) in related for s, t in related)

    def test_future_behaviour_separates_equal_atoms(self):
        related = greatest_bisimulation(loop_pair())
        assert ("l0", "d0") not in related
        levels = [
            _pairs(level) for level in _levels(Effectivity(loop_pair()))
        ]
        assert ("l0", "d0") in levels[0]
        assert ("l0", "d0") not in levels[1]

    def test_action_multiplicity_is_invisible(self):
        related = greatest_bisimulation(duplicated_choice())
        assert ("m0", "m1") in related

    def test_dominated_option_is_invisible(self):
        related = greatest_bisimulation(dominated_choice())
        assert ("c0", "c1") in related

    def test_coalition_power_separates(self):
        related = greatest_bisimulation(coalition_split())
        assert ("g0", "g1") not in related

    def test_example_b_states_are_pairwise_distinct(self):
        model = example_b().model
        assert greatest_bisimulation(model) == frozenset(
            (s, s) for s in model.states
        )


class TestSplitCopies:
    def test_each_state_matches_its_first_copy(self):
        model = example_b().model
        split, copies = model.scos()
        for state in model.states:
            assert are_bisimilar(model, state, split, copies[state][0])

    def test_copies_of_one_state_are_mutually_bisimilar(self):
        model = example_b().model
        split, copies = model.scos()
        related = greatest_bisimulation(split)
        names = copies["s2"]
        assert len(names) == 3
        for first in names:
            for second in names:
                assert (first, second) in related

    def test_distinct_originals_stay_distinct_after_splitting(self):
        model = example_b().model
        split, copies = model.scos()
        assert not are_bisimilar(model, "s", split, copies["s1"][0])


class TestCrossModel:
    def test_model_is_bisimilar_to_itself(self):
        model = example_a().model
        for state in model.states:
            assert are_bisimilar(model, state, model, state)

    def test_unrolled_loop_matches_the_loop(self):
        tight = ConcurrentGameModel(
            agents=["a"],
            states=["t0"],
            actions={"t0": {"a": ["go"]}},
            outcome={("t0", ("go",)): "t0"},
            valuation={"p": ["t0"]},
        )
        wide = ConcurrentGameModel(
            agents=["a"],
            states=["w0", "w1"],
            actions={s: {"a": ["go"]} for s in ("w0", "w1")},
            outcome={("w0", ("go",)): "w1", ("w1", ("go",)): "w0"},
            valuation={"p": ["w0", "w1"]},
        )
        assert are_bisimilar(tight, "t0", wide, "w0")
        assert are_bisimilar(tight, "t0", wide, "w1")

    def test_atom_mismatch_across_models(self):
        tight = ConcurrentGameModel(
            agents=["a", "b"],
            states=["t0"],
            actions={"t0": {"a": ["go"], "b": ["go"]}},
            outcome={("t0", ("go", "go")): "t0"},
            valuation={"p": []},
        )
        assert not are_bisimilar(tight, "t0", example_a().model, "s")


class TestInvariance:
    def test_no_violations_on_split_union(self):
        case = example_b()
        split, _ = case.model.scos()
        union, _, _ = disjoint_union(case.model, split)
        texts = [case.formulas[name] for name in sorted(case.formulas)]
        texts.append(example_b_gamma_prime().formulas["gammaBprime"])
        assert hm_agreement(union, [parse_state_formula(t) for t in texts]) == []

    def test_invariance_transfers_truth_to_copies(self):
        case = example_b()
        split, copies = case.model.scos()
        for check_ in case.checks:
            formula = parse_state_formula(case.formulas[check_.formula])
            for copy in copies[check_.state]:
                assert check(split, copy, formula) == check_.holds


class TestDistinguishingFormula:
    def test_none_for_bisimilar_pair(self):
        assert distinguishing_formula(duplicated_choice(), "m0", "m1") is None

    @pytest.mark.parametrize("pair", [("s", "ghost"), ("ghost", "s")])
    @pytest.mark.parametrize(
        "compare",
        [distinguishing_formula, lambda m, s1, s2: are_bisimilar(m, s1, m, s2)],
        ids=["distinguishing_formula", "are_bisimilar"],
    )
    def test_unknown_state_is_named(self, compare, pair):
        with pytest.raises(ValueError, match="^unknown state ghost$"):
            compare(example_a().model, *pair)

    def test_atom_level_split(self):
        model = example_a().model
        formula = distinguishing_formula(model, "s", "s1")
        assert formula is not None
        assert check(model, "s", formula)
        assert not check(model, "s1", formula)

    def test_atom_split_reads_no_action_block(self, monkeypatch):
        def refuse(index, state):
            raise AssertionError("action blocks read for %s" % state)

        monkeypatch.setattr(bisim, "_block_rows", refuse)
        model = example_a().model
        formula = distinguishing_formula(model, "s", "s1")
        assert check(model, "s", formula) and not check(model, "s1", formula)
        river = sheep_wolves(5, 5, "simultaneous").model
        assert str(distinguishing_formula(river, "eaten", "s5w5L")) == "!c & e"

    def test_dynamic_split_is_verified(self):
        model = loop_pair()
        formula = distinguishing_formula(model, "l0", "d0")
        assert formula is not None
        assert check(model, "l0", formula)
        assert not check(model, "d0", formula)

    def test_coalition_split_needs_strategic_power(self):
        model = coalition_split()
        formula = distinguishing_formula(model, "g0", "g1")
        assert formula is not None
        assert check(model, "g0", formula)
        assert not check(model, "g1", formula)
        assert "<<" in str(formula)

    def test_separates_every_nonbisimilar_pair_in_example_b(self):
        model = example_b().model
        for s1 in model.states:
            for s2 in model.states:
                if s1 == s2:
                    continue
                formula = distinguishing_formula(model, s1, s2)
                assert formula is not None
                assert check(model, s1, formula)
                assert not check(model, s2, formula)


class TestAgreementReporting:
    def test_agreement_on_strategic_formulas(self):
        model = duplicated_choice()
        formulas = [
            parse_state_formula("<< {a} -> X p >>"),
            parse_state_formula("<< {a} -> (p U !p) >>"),
            parse_state_formula("<< {a} -> G p >>"),
        ]
        assert hm_agreement(model, formulas) == []

    def test_report_names_both_states_and_the_formula(self):
        """The report shape carries enough to reproduce a failure."""
        model = duplicated_choice()
        report = hm_agreement(model, [parse_state_formula("p")])
        assert report == []


def _with_split(model):
    split, _ = model.scos()
    return disjoint_union(model, split)[0]


class TestAgreesWithPairwiseReference:
    """Partition refinement gives the pairwise levels, level by level."""

    @staticmethod
    def _agree(model):
        expected = reference_levels(model)
        levels = _levels(Effectivity(model))
        assert [_pairs(level) for level in levels] == expected
        assert greatest_bisimulation(model) == expected[-1]

    @pytest.mark.parametrize(
        "case", default_cases(), ids=lambda case: case.name
    )
    def test_default_cases(self, case):
        self._agree(case.model)

    @pytest.mark.parametrize(
        "case", default_cases(), ids=lambda case: case.name
    )
    def test_default_cases_with_their_split(self, case):
        self._agree(_with_split(case.model))

    @pytest.mark.parametrize(
        "build",
        [loop_pair, duplicated_choice, coalition_split, dominated_choice],
    )
    def test_hand_built_models(self, build):
        self._agree(build())

    def test_random_models(self):
        rng = make_rng(2005)
        for _ in range(200):
            self._agree(random_model(rng, max_states=8, max_agents=4))

    def test_random_models_with_three_actions(self):
        # With two actions per agent dominated profiles hardly ever
        # occur; with three, a few draws need the minimal-vector filter.
        rng = make_rng(1987)
        for _ in range(200):
            self._agree(
                random_model(rng, max_states=6, max_agents=3, max_actions=3)
            )


def duplicated_action():
    """An agent lists one action twice; the loader does not reject it.

    Actions are listed out of sorted order, so numbering blocks by
    first appearance and by sorted restriction differ.
    """
    return ConcurrentGameModel(
        agents=["a", "b"],
        states=["u", "v"],
        actions={
            "u": {"a": ["y", "x", "y"], "b": ["r", "l"]},
            "v": {"a": ["x"], "b": ["l"]},
        },
        outcome={
            ("u", ("x", "l")): "u",
            ("u", ("x", "r")): "v",
            ("u", ("y", "l")): "v",
            ("u", ("y", "r")): "v",
            ("v", ("x", "l")): "u",
        },
        valuation={"p": ["v"]},
    )


class TestEffectivityAgreesWithFilter:
    """The effectivity index gives the blocks the plain filter gives."""

    @staticmethod
    def _agree(model):
        index = Effectivity(model)
        coalitions = _ReferenceOutSets(model).coalitions
        assert coalitions[0] == () and len(coalitions[-1]) == len(model.agents)
        for state in model.states:
            profiles = model.profiles(state)
            for coalition in coalitions:
                blocks = index.blocks(state, coalition)
                assert len(blocks.of_profile) == len(profiles)
                assert len(blocks.outcomes) == len(blocks.of_restriction)
                first_seen = list(dict.fromkeys(blocks.of_profile))
                assert first_seen == list(range(len(blocks.outcomes)))
                for profile, block in zip(profiles, blocks.of_profile):
                    restriction = tuple(profile[i] for i in coalition)
                    assert blocks.of_restriction[restriction] == block
                    assert blocks.outcomes[block] == agreeing_outcomes(
                        model, state, coalition, profile
                    )

    @pytest.mark.parametrize(
        "case", default_cases(), ids=lambda case: case.name
    )
    def test_default_cases(self, case):
        self._agree(case.model)

    def test_river_crossing(self):
        self._agree(sheep_wolves(2, 2, "wolves_then_sheep").model)

    def test_duplicated_action(self):
        model = duplicated_action()
        self._agree(model)
        index = Effectivity(model)
        assert index.blocks("u", (0, 1)).of_profile == (0, 1, 2, 3, 0, 1)
        assert index.blocks("u", (0,)).of_profile == (0, 0, 1, 1, 0, 0)
        assert index.blocks("u", (1,)).of_restriction == {("r",): 0, ("l",): 1}

    def test_every_restriction_path(self):
        # At u agent a lists x twice, so u's profiles repeat; v's do not.
        acts = {"u": {"a": ["x", "y", "x"], "b": ["l", "r"], "c": ["m", "n"]},
                "v": {"a": ["x"], "b": ["l", "r"], "c": ["m"]}}
        states = ["u", "v", "w"]
        outcome = {}
        for state in ("u", "v"):
            distinct = [dict.fromkeys(acts[state][agent]) for agent in "abc"]
            for i, profile in enumerate(product(*distinct)):
                outcome[(state, profile)] = states[i % 3]
        acts["w"] = {"a": ["x"], "b": ["l"], "c": ["m"]}
        outcome[("w", ("x", "l", "m"))] = "u"
        model = ConcurrentGameModel(
            agents=["a", "b", "c"], states=states, actions=acts,
            outcome=outcome, valuation={"p": ["v"]},
        )
        self._agree(model)
        index = Effectivity(model)
        # The empty coalition: one block holding every outcome.
        nobody = index.blocks("u", ())
        assert nobody.of_profile == (0,) * 12
        assert nobody.of_restriction == {(): 0}
        assert nobody.outcomes == (frozenset(states),)
        # One member: restrictions are 1-tuples.
        assert index.blocks("u", (0,)).of_restriction == {("x",): 0, ("y",): 1}
        assert index.blocks("u", (0,)).of_profile == (0,) * 4 + (1,) * 4 + (0,) * 4
        # A proper coalition of two members.
        pair = index.blocks("u", (0, 2))
        assert list(pair.of_restriction) == [
            ("x", "m"), ("x", "n"), ("y", "m"), ("y", "n")]
        assert pair.of_profile == (0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1)
        # The grand coalition: repeated profiles share a block at u, and
        # v's distinct profiles are each their own singleton block.
        everyone = index.blocks("u", (0, 1, 2))
        assert everyone.of_profile == tuple(range(8)) + tuple(range(4))
        assert len(everyone.of_restriction) == 8
        alone = index.blocks("v", (0, 1, 2))
        assert list(alone.of_profile) == [0, 1]
        assert alone.outcomes == tuple(
            frozenset([model.out("v", profile)]) for profile in model.profiles("v"))

    def test_random_models(self):
        rng = make_rng(4421)
        for _ in range(150):
            self._agree(
                random_model(rng, max_states=5, max_agents=3, max_actions=3)
            )

    def test_partial_outcome_keeps_the_typed_error(self):
        model = ConcurrentGameModel(
            agents=["a"],
            states=["s"],
            actions={"s": {"a": ["x", "y"]}},
            outcome={("s", ("x",)): "s"},
            valuation={},
        )
        with pytest.raises(
            InvalidModelError, match=r"no outcome at s for profile \(a=y\)"
        ):
            Effectivity(model).blocks("s", ())
        with pytest.raises(InvalidModelError, match="no outcome at s"):
            check(model, "s", parse_state_formula("<< {a} -> X !p >>"))
