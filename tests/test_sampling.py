"""Seeded generators: determinism, well-formedness, harness sanity."""

from conftest import random_atl_query, random_fixpoint_case

from tlcga.checking import valid_on
from tlcga.formulas import GoalAssignment, Implies, Next, Prop, strategic
from tlcga.sampling import (
    DEFAULT_SEED,
    falsify_scheme,
    make_rng,
    random_assignment,
    random_model,
    random_oracle_query,
    random_scheme_params,
    random_state_formula,
)
from tlcga.transforms import _SCHEMES, axiom_instance


class TestDeterminism:
    def test_same_seed_same_models(self):
        first = [random_model(make_rng(5)).to_json_dict() for _ in range(1)]
        rng_a, rng_b = make_rng(99), make_rng(99)
        for _ in range(20):
            assert (
                random_model(rng_a).to_json_dict()
                == random_model(rng_b).to_json_dict()
            )

    def test_same_seed_same_assignments(self):
        rng_a, rng_b = make_rng(3), make_rng(3)
        agents, props = ("a", "b"), ("p", "q")
        for _ in range(20):
            assert str(random_assignment(rng_a, agents, props)) == str(
                random_assignment(rng_b, agents, props)
            )


class TestShapes:
    def test_models_are_well_formed(self):
        rng = make_rng(DEFAULT_SEED)
        for _ in range(50):
            model = random_model(rng)
            assert model.validate() == []

    def test_assignments_respect_the_bounds(self):
        rng = make_rng(DEFAULT_SEED)
        for _ in range(50):
            model = random_model(rng)
            gamma = random_assignment(
                rng, model.agents, model.props_used(), max_coalitions=3
            )
            assert 1 <= len(gamma) <= 3
            for coalition, _ in gamma:
                assert coalition <= frozenset(model.agents)

    def test_fixpoint_cases_stay_small(self):
        rng = make_rng(DEFAULT_SEED)
        for _ in range(20):
            model, gamma = random_fixpoint_case(rng)
            assert len(model.states) <= 6
            assert len(gamma) <= 3

    def test_atl_queries_are_single_goals(self):
        rng = make_rng(DEFAULT_SEED)
        model = random_model(rng)
        for _ in range(20):
            coalition, goal = random_atl_query(rng, model)
            assert coalition <= frozenset(model.agents)

    def test_oracle_queries_name_a_real_state(self):
        rng = make_rng(DEFAULT_SEED)
        for _ in range(20):
            model, state, gamma, mode = random_oracle_query(rng)
            assert model.has_state(state)
            assert len(gamma) >= 1

    def test_formulas_use_the_given_alphabet(self):
        rng = make_rng(DEFAULT_SEED)
        phi = random_state_formula(rng, ("p",), depth=3)
        assert "p" in str(phi)


class TestFalsification:
    def test_a_broken_scheme_is_caught(self):
        # Forcing X p does not make p true now; a counterexample must
        # surface quickly on random models.
        broken = Implies(
            strategic(GoalAssignment({("a",): Next(Prop("p"))})), Prop("p")
        )
        rng = make_rng(DEFAULT_SEED)
        for attempt in range(200):
            model = random_model(rng)
            if not valid_on(model, broken):
                return
        raise AssertionError("no counterexample found in 200 models")

    def test_sound_schemes_survive_sampling(self):
        for scheme in _SCHEMES:
            assert falsify_scheme(scheme, 40) is None

    def test_every_scheme_is_instantiable_from_params(self):
        rng = make_rng(DEFAULT_SEED)
        for scheme in _SCHEMES:
            model = random_model(rng, min_agents=2)
            params = random_scheme_params(rng, scheme, model)
            axiom_instance(scheme, **params)
