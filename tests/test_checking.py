"""Fixpoint evaluation and end-to-end truth checking."""

import pytest

from tlcga.checking import (
    Evaluator,
    NonNexttimeGoalError,
    UnboundVariableError,
    check,
    check_with_stats,
    extension_of,
    valid_on,
)
from tlcga.corpus import (
    build_case,
    default_cases,
    example_a,
    example_b,
    example_b_gamma_prime,
    password,
)
from tlcga.formulas import Implies, Prop, Var, path_conjuncts, strategic
from tlcga.models import ConcurrentGameModel
from tlcga.parser import parse_state_formula
from tlcga.sampling import (
    make_rng,
    random_assignment,
    random_model,
    random_state_formula,
)
from tlcga.transforms import _Translator, to_mu

from test_bisim import duplicated_action


def chain():
    """c0 -> c1 -> c2 with a loop at c2; goal holds at c2 only."""
    return ConcurrentGameModel(
        agents=["a"],
        states=["c0", "c1", "c2"],
        actions={s: {"a": ["go"]} for s in ("c0", "c1", "c2")},
        outcome={
            ("c0", ("go",)): "c1",
            ("c1", ("go",)): "c2",
            ("c2", ("go",)): "c2",
        },
        valuation={"goal": ["c2"], "safe": ["c0", "c1", "c2"]},
    )


def phi(text, dialect="mu"):
    return parse_state_formula(text, dialect=dialect)


class TestEvaluatorBasics:
    def test_booleans_and_props(self):
        model = example_a().model
        ev = Evaluator(model)
        assert ev.extension(phi("true")) == {"s", "s1", "s2"}
        assert ev.extension(phi("false")) == set()
        assert ev.extension(phi("p | q")) == {"s", "s1"}
        assert ev.extension(phi("!p & !q")) == {"s2"}
        assert ev.extension(phi("unknown_prop")) == set()

    def test_unbound_variable(self):
        ev = Evaluator(example_a().model)
        with pytest.raises(UnboundVariableError):
            ev.extension(Var("z"))

    def test_implication_must_be_translated(self):
        ev = Evaluator(example_a().model)
        with pytest.raises(ValueError, match="translated by to_mu"):
            ev.extension(Implies(Prop("p"), Prop("q")))

    def test_temporal_goal_needs_translation(self):
        ev = Evaluator(example_a().model)
        with pytest.raises(NonNexttimeGoalError):
            ev.extension(phi("<< {a} -> G p >>", dialect="tlcga"))


class TestStrategicStep:
    def test_single_agent_choice(self):
        model = example_b().model
        ev = Evaluator(model)
        assert ev.extension(phi("<< {1} -> X p >>")) == {"s", "s1", "s2", "s31"}
        # At s2 agent 1 picks the p-successor or the q-successor.
        assert ev.extension(phi("<< {1} -> X !p >>")) == {"s2", "s32"}

    def test_empty_coalition_requires_all_successors(self):
        model = example_b().model
        ev = Evaluator(model)
        assert ev.extension(phi("<< {} -> X p >>")) == {"s", "s1", "s31"}
        assert ev.extension(phi("<< {} -> X (p | q) >>")) == {
            "s",
            "s1",
            "s2",
            "s31",
            "s32",
        }

    def test_grand_coalition_picks_any_successor(self):
        model = example_b().model
        ev = Evaluator(model)
        assert ev.extension(phi("<< {1,2,3} -> X !p >>")) == {"s2", "s32"}

    def test_conjoined_nexttime_goals(self):
        model = example_b().model
        ev = Evaluator(model)
        merged = phi("<< {1} -> X p && X q >>", dialect="tlcga_plus")
        assert ev.extension(merged) == ev.extension(phi("<< {1} -> X (p & q) >>"))

    def test_opposing_coalitions(self):
        model = example_b().model
        ev = Evaluator(model)
        # {2} alone cannot force p somewhere agent 3 can dodge... at s
        # every successor satisfies p, so even the empty coalition wins.
        assert "s" in ev.extension(phi("<< {2} -> X p >>"))
        # But nobody can force !p from s.
        assert "s" not in ev.extension(phi("<< {1,2,3} -> X !p >>"))


class TestFixpoints:
    def test_reachability_as_least_fixpoint(self):
        model = chain()
        ev = Evaluator(model)
        reach = phi("mu z . goal | << {a} -> X z >>")
        assert ev.extension(reach) == {"c0", "c1", "c2"}
        assert ev.iterations >= 3

    def test_safety_as_greatest_fixpoint(self):
        model = chain()
        ev = Evaluator(model)
        assert ev.extension(phi("nu z . safe & << {a} -> X z >>")) == {
            "c0",
            "c1",
            "c2",
        }
        assert ev.extension(phi("nu z . !goal & << {a} -> X z >>")) == set()

    def test_nested_fixpoints(self):
        model = example_b().model
        ev = Evaluator(model)
        # Reach a state from which p can be kept forever.
        inner = "nu y . p & << {1} -> X y >>"
        outer = phi("mu z . (%s) | << {1} -> X z >>" % inner)
        assert ev.extension(outer) == {"s", "s1", "s2", "s31"}

    def test_environment_sensitive_caching(self):
        model = chain()
        ev = Evaluator(model)
        # The same open subformula appears under two different binders;
        # the cache must separate the bindings.
        formula = phi("(mu z . goal | << {a} -> X z >>) & (nu z . << {a} -> X z >>)")
        assert ev.extension(formula) == {"c0", "c1", "c2"}


class TestCheck:
    def test_example_a_assignment_holds(self):
        case = example_a()
        formula = parse_state_formula(case.formulas["gammaA"])
        assert check(case.model, "s", formula) is True

    def test_example_b_assignment_holds(self):
        case = example_b()
        formula = parse_state_formula(case.formulas["gammaB"])
        assert check(case.model, "s", formula) is True

    def test_example_b_strengthening_holds(self):
        case = example_b_gamma_prime()
        formula = parse_state_formula(case.formulas["gammaBprime"])
        assert check(case.model, "s", formula) is True

    def test_recorded_corpus_values(self):
        for case in default_cases():
            if case.name.startswith("sheep-wolves"):
                continue
            for query in case.checks:
                formula = parse_state_formula(case.formulas[query.formula])
                assert (
                    check(case.model, query.state, formula) is query.holds
                ), (case.name, query)

    def test_password_protective_fails(self):
        case = password()
        formula = parse_state_formula(case.formulas["protective"])
        assert check(case.model, "s00", formula) is False

    def test_unknown_state(self):
        case = example_a()
        with pytest.raises(ValueError, match="unknown state"):
            check(case.model, "nowhere", Prop("p"))

    def test_stats_report_iterations(self):
        case = example_a()
        formula = parse_state_formula(case.formulas["gammaA"])
        result = check_with_stats(case.model, "s", formula)
        assert result.holds is True
        assert result.iterations > 0


class TestValidity:
    def test_tautology(self):
        assert valid_on(example_a().model, phi("p | !p")) is True

    def test_non_validity(self):
        assert valid_on(example_a().model, phi("p")) is False

    def test_extension_of_translates(self):
        model = example_b().model
        ext = extension_of(model, phi("<< {1} -> G p >>", dialect="tlcga"))
        assert ext == {"s", "s1", "s2", "s31"}


class TestExtensionOf:
    """`Evaluator.extension_of` is `extension` after `to_mu`, translating
    with one memo for the evaluator's lifetime."""

    def test_agrees_with_translating_first_on_the_corpus(self):
        for case in default_cases():
            ev = Evaluator(case.model)
            for text in case.formulas.values():
                formula = parse_state_formula(text)
                expected = Evaluator(case.model).extension(to_mu(formula))
                assert ev.extension_of(formula) == expected, (case.name, text)

    def test_agrees_with_translating_first_on_random_formulas(self):
        rng = make_rng(7310)
        for draw in range(300):
            model = random_model(rng, max_states=4, max_agents=2)
            props = model.props_used()
            ev = Evaluator(model)
            for formula in (
                random_state_formula(rng, props, 3, model.agents),
                strategic(random_assignment(
                    rng, model.agents, props, 3, allow_conjunction=True
                )),
            ):
                expected = Evaluator(model).extension(to_mu(formula))
                assert ev.extension_of(formula) == expected, (draw, str(formula))

    def test_asking_twice_translates_once(self, monkeypatch):
        calls = []
        translate = _Translator._state

        def counting(self, phi):
            calls.append(phi)
            return translate(self, phi)

        monkeypatch.setattr(_Translator, "_state", counting)
        case = example_b()
        formula = parse_state_formula(case.formulas["gammaB"])
        ev = Evaluator(case.model)
        first = ev.extension_of(formula)
        translated = len(calls)
        assert translated > 0
        assert ev.extension_of(formula) == first
        assert ev.extension_of(parse_state_formula(case.formulas["gammaB"])) == first
        assert len(calls) == translated


def reference_strategic(evaluator, assignment, env):
    """The strategic step as a per-profile filter over the blocks.

    At each state the candidates are a list of profile positions, and
    each requirement keeps those whose block's outcomes lie inside its
    target. This is the step the bitmask version replaced.
    """
    index = evaluator.effectivity
    requirements = []
    for coalition, goal in assignment:
        target = frozenset(evaluator.model.states)
        for part in path_conjuncts(goal):
            target &= evaluator.extension(part.body, env)
        requirements.append((index.positions(coalition), target))
    result = []
    for state in evaluator.model.states:
        candidates = range(len(evaluator.model.profiles(state)))
        for positions, target in requirements:
            of_profile, outcomes, _ = index.blocks(state, positions)
            ok = [outs <= target for outs in outcomes]
            candidates = [p for p in candidates if ok[of_profile[p]]]
            if not candidates:
                break
        if candidates:
            result.append(state)
    return frozenset(result)


class ReferenceEvaluator(Evaluator):
    def _strategic(self, assignment, env):
        return reference_strategic(self, assignment, env)


def assert_masks_agree(model, formula, label):
    fast, slow = Evaluator(model), ReferenceEvaluator(model)
    assert fast.extension_of(formula) == slow.extension_of(formula), label
    assert fast.iterations == slow.iterations, label


class TestMasksAgainstTheProfileFilter:
    """The bitmask step gives the extensions of the per-profile filter."""

    def test_corpus_formulas(self):
        for case in default_cases():
            for name, text in case.formulas.items():
                assert_masks_agree(
                    case.model, parse_state_formula(text), (case.name, name)
                )

    @pytest.mark.parametrize("mode", ["simultaneous", "wolves_then_sheep"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_river_crossing(self, n, mode):
        case = build_case("sheep-wolves", n_sheep=n, n_wolves=n, mode=mode)
        sheep, wolves = "s1", "w%d" % n
        for text in (
            case.formulas["crossing"],
            "<< {%s} -> X !e; {%s} -> X e >>" % (sheep, wolves),
            "<< {%s,%s} -> (!e U c); {} -> X !c >>" % (sheep, wolves),
            "<< {%s} -> G !e >>" % ",".join(case.model.agents[:n]),
        ):
            assert_masks_agree(case.model, parse_state_formula(text), text)

    def test_random_assignments_of_two_or_three_coalitions(self):
        rng = make_rng(22022)
        drawn = 0
        while drawn < 200:
            model = random_model(rng, max_states=5, max_agents=3)
            assignment = random_assignment(
                rng, model.agents, model.props_used(), 3,
                allow_conjunction=True, allow_empty_coalition=True,
            )
            if len(assignment) < 2:
                continue
            drawn += 1
            assert_masks_agree(model, strategic(assignment), str(assignment))

    def test_repeated_actions_take_the_general_path(self):
        model = duplicated_action()
        index = Evaluator(model).effectivity
        assert not isinstance(index.blocks("u", (0, 1)).of_profile, range)
        for text in (
            "<< {a,b} -> X p >>",
            "<< {a,b} -> X !p >>",
            "<< {a} -> X p; {b} -> X !p >>",
            "<< {a,b} -> G !p >>",
            "<< {a} -> (true U p); {a,b} -> X !p >>",
            "<< {b} -> G (p | !p); {a} -> X p >>",
        ):
            assert_masks_agree(model, parse_state_formula(text), text)
