"""Solution-concept constructors: goal algebra, partitions, stability."""

import time
from dataclasses import dataclass
from itertools import product

import pytest

from tlcga.checking import Evaluator, check, extension_of
from tlcga.corpus import build_river_crossing
from tlcga.formulas import (
    And,
    Coalition,
    GoalAssignment,
    Globally,
    Next,
    Not,
    PathFormula,
    Prop,
    StateFormula,
    TRIVIAL_GOAL,
    TRUE,
    Until,
    make_path_and,
    path_conjuncts,
    strategic,
)
from tlcga.models import ConcurrentGameModel
from tlcga.sampling import make_rng, random_goal, random_model, random_oracle_query
from tlcga.stability import (
    GoalNegationError,
    OutcomePartition,
    coalitional_ga,
    coequilibrium_ga,
    core_membership_formula,
    deviation_ga,
    has_unilateral_improvement,
    individual_goals,
    merge_goals,
    nash_ga,
    negate_goal,
    partition_outcomes,
    strong_ga,
)
from tlcga.strategies import (
    FiniteStrategyProfile,
    InvalidWitnessError,
    MemoryMode,
    PartialStrategyError,
    POSITIONAL,
    initial_memory,
    memory_state,
    parse_rendered_memory,
    play_goals,
    update_memory,
    verify_witness,
)
from tlcga.transforms import conjoin, to_mu


# The walk along the single play of a full profile that the stability
# layer used before it read the grand coalition's closure (`play_goals`),
# kept as an independent reference.

@dataclass(frozen=True)
class Lasso:
    """The single play induced when every agent follows the profile."""

    states: tuple[str, ...]
    profiles: tuple[tuple[str, ...], ...]
    cycle_start: int

    def state_at(self, position: int) -> str:
        if position < len(self.states):
            return self.states[position]
        cycle = self.states[self.cycle_start:]
        offset = (position - self.cycle_start) % len(cycle)
        return cycle[offset]


def play_lasso(
    model: ConcurrentGameModel, state: str, profile: FiniteStrategyProfile
) -> Lasso:
    """Follow the full profile until the joint memory repeats."""
    memory = initial_memory(state)
    visited: dict[tuple, int] = {}
    states: list[str] = []
    profiles: list[tuple[str, ...]] = []
    while memory not in visited:
        visited[memory] = len(states)
        current = memory_state(memory)
        states.append(current)
        joint = tuple(
            profile.action(agent, memory) for agent in model.agents
        )
        for agent, action in zip(model.agents, joint):
            if action not in model.actions_of(current, agent):
                raise InvalidWitnessError(
                    "action %s of agent %s unavailable at %s"
                    % (action, agent, current)
                )
        profiles.append(joint)
        memory = update_memory(profile.mode, memory, joint, model.out(current, joint))
    return Lasso(tuple(states), tuple(profiles), visited[memory])


def eval_on_lasso(evaluator: Evaluator, lasso: Lasso, goal: PathFormula) -> bool:
    """Truth of a path goal on the ultimately periodic play of the
    evaluator's model."""
    cache: dict[StateFormula, frozenset[str]] = {}

    def holds(phi: StateFormula, position: int) -> bool:
        if phi not in cache:
            cache[phi] = evaluator.extension(to_mu(phi))
        return lasso.state_at(position) in cache[phi]

    horizon = len(lasso.states)
    for part in path_conjuncts(goal):
        if isinstance(part, Next):
            if not holds(part.body, 1):
                return False
        elif isinstance(part, Globally):
            if not all(holds(part.body, i) for i in range(horizon)):
                return False
        elif isinstance(part, Until):
            for position in range(horizon):
                if holds(part.right, position):
                    break
                if not holds(part.left, position):
                    return False
            else:
                return False
        else:
            raise TypeError("not a path goal: %r" % (part,))
    return True


def first_step_improves(model, state, profile, agent, goal) -> bool:
    """Whether one of the agent's first actions, with the others'
    first actions taken from the profile, reaches the goal's
    nexttime bodies."""
    memory = (state,)
    joint = {
        other: profile.action(other, memory)
        for other in model.agents
        if other != agent
    }
    bodies = [part.body for part in path_conjuncts(goal)]
    target = extension_of(model, conjoin(bodies))
    for action in model.actions_of(state, agent):
        full = tuple(
            action if name == agent else joint[name] for name in model.agents
        )
        if model.out(state, full) in target:
            return True
    return False


def lasso_unilateral_improvement(model, state, profile, assignment):
    """`has_unilateral_improvement` with every play judged on its lasso."""
    goals = individual_goals(assignment)
    lasso = play_lasso(model, state, profile)
    evaluator = Evaluator(model)
    losers = [c for c, goal in assignment if not eval_on_lasso(evaluator, lasso, goal)]
    for agent in sorted(next(iter(c)) for c in losers if len(c) == 1):
        goal = goals[agent]
        if all(isinstance(part, Next) for part in path_conjuncts(goal)):
            if first_step_improves(model, state, profile, agent, goal):
                return agent
            continue
        if profile.mode.kind != "positional":
            raise ValueError(
                "long-term deviations are only enumerated for positional"
                " profiles, not %s" % profile.mode
            )
        evaluator = Evaluator(model)
        choice_sets = [model.actions_of(s, agent) for s in model.states]
        for choices in product(*choice_sets):
            tables = dict(profile.tables)
            tables[agent] = {(s,): action for s, action in zip(model.states, choices)}
            candidate = FiniteStrategyProfile(mode=profile.mode, tables=tables)
            if eval_on_lasso(evaluator, play_lasso(model, state, candidate), goal):
                return agent
    return None


P = Prop("p")
Q = Prop("q")
WA = Prop("wa")
WB = Prop("wb")


def one_shot(win_a, win_b):
    """Two agents pick h or t once, then the play parks in a terminal."""
    states = ["s", "hh", "ht", "th", "tt"]
    actions = {"s": {"a": ("h", "t"), "b": ("h", "t")}}
    outcome = {}
    for x in "ht":
        for y in "ht":
            outcome[("s", (x, y))] = x + y
    for term in states[1:]:
        actions[term] = {"a": ("z",), "b": ("z",)}
        outcome[(term, ("z", "z"))] = term
    return ConcurrentGameModel(
        agents=["a", "b"],
        states=states,
        actions=actions,
        outcome=outcome,
        valuation={"wa": win_a, "wb": win_b},
    )


def full_positional(model, **initial):
    """Positional profile: chosen actions at s, the only action elsewhere."""
    tables = {}
    for agent in model.agents:
        table = {}
        for state in model.states:
            acts = model.actions_of(state, agent)
            table[(state,)] = initial[agent] if len(acts) > 1 else acts[0]
        tables[agent] = table
    return FiniteStrategyProfile(POSITIONAL, tables)


def last_actions(model):
    """Positional profile: every agent takes its last action everywhere."""
    return FiniteStrategyProfile(POSITIONAL, {
        agent: {(state,): model.actions_of(state, agent)[-1]
                for state in model.states}
        for agent in model.agents
    })


def safety_walk():
    """Agent a keeps the play at g (where p holds) or drops it to d.

    q holds everywhere, so b's invariant goal is free; a's holds only
    on the g-loop.
    """
    return ConcurrentGameModel(
        agents=["a", "b"],
        states=["g", "d"],
        actions={
            "g": {"a": ("stay", "go"), "b": ("w",)},
            "d": {"a": ("idle",), "b": ("w",)},
        },
        outcome={
            ("g", ("stay", "w")): "g",
            ("g", ("go", "w")): "d",
            ("d", ("idle", "w")): "d",
        },
        valuation={"p": ["g"], "q": ["g", "d"]},
    )


COORDINATION = GoalAssignment({("a",): Next(WA), ("b",): Next(WB)})


class TestGoalAlgebra:
    def test_negating_a_nexttime_goal_negates_the_body(self):
        assert negate_goal(Next(P)) == Next(Not(P))
        assert negate_goal(Next(Not(P))) == Next(P)

    def test_negating_an_invariant_gives_an_eventuality(self):
        assert negate_goal(Globally(P)) == Until(TRUE, Not(P))

    def test_negating_an_until_is_rejected(self):
        with pytest.raises(GoalNegationError):
            negate_goal(Until(P, Q))

    def test_negating_a_homogeneous_conjunction_merges_first(self):
        goal = make_path_and((Next(P), Next(Q)))
        assert negate_goal(goal) == Next(Not(And(P, Q)))

    def test_negating_a_mixed_conjunction_is_rejected(self):
        with pytest.raises(GoalNegationError):
            negate_goal(make_path_and((Next(P), Globally(Q))))

    def test_merge_distributes_over_like_connectives(self):
        assert merge_goals([]) == TRIVIAL_GOAL
        assert merge_goals([Next(P)]) == Next(P)
        assert merge_goals([Next(P), Next(Q)]) == Next(And(P, Q))
        assert merge_goals([Globally(P), Globally(Q)]) == Globally(And(P, Q))

    def test_mixed_merge_stays_a_conjunction(self):
        merged = merge_goals([Next(P), Globally(Q)])
        assert merged == make_path_and((Next(P), Globally(Q)))

    def test_individual_goals_requires_singletons(self):
        with pytest.raises(ValueError):
            individual_goals(GoalAssignment({("a", "b"): Next(P)}))
        assert individual_goals(COORDINATION) == {"a": Next(WA), "b": Next(WB)}


class TestPartition:
    def test_winners_and_losers_on_the_induced_play(self):
        model = one_shot(win_a=["hh", "tt"], win_b=["hh", "tt"])
        profile = full_positional(model, a="h", b="t")
        part = partition_outcomes(model, "s", profile, COORDINATION)
        assert part.winners == frozenset()
        assert part.losers == frozenset({"a", "b"})
        profile = full_positional(model, a="h", b="h")
        part = partition_outcomes(model, "s", profile, COORDINATION)
        assert part.winners == frozenset({"a", "b"})
        assert part.losing_coalitions == ()

    def test_only_singleton_supports_classify_agents(self):
        model = safety_walk()
        gamma = GoalAssignment({("a", "b"): Globally(P)})
        profile = full_positional(model, a="stay", b="w")
        part = partition_outcomes(model, "g", profile, gamma)
        assert part.winning_coalitions == (Coalition(("a", "b")),)
        assert part.winners == frozenset()
        assert part.losers == frozenset()

    def test_long_term_goals_follow_the_lasso(self):
        model = safety_walk()
        gamma = GoalAssignment({("a",): Globally(P), ("b",): Globally(Q)})
        dropping = full_positional(model, a="go", b="w")
        part = partition_outcomes(model, "g", dropping, gamma)
        assert part.winners == frozenset({"b"})
        assert part.losers == frozenset({"a"})


class TestNashAssignment:
    def test_both_winners_pin_the_play_only(self):
        part = OutcomePartition(
            (Coalition("a"), Coalition("b")),
            (),
            frozenset({"a", "b"}),
            frozenset(),
        )
        nash = nash_ga(COORDINATION, part, ("a", "b"))
        assert nash == GoalAssignment({("a", "b"): Next(And(WA, WB))})

    def test_single_loser_gets_a_blocking_entry(self):
        part = OutcomePartition(
            (Coalition("a"),),
            (Coalition("b"),),
            frozenset({"a"}),
            frozenset({"b"}),
        )
        nash = nash_ga(COORDINATION, part, ("a", "b"))
        assert nash == GoalAssignment(
            {
                ("a", "b"): Next(And(WA, Not(WB))),
                ("a",): Next(Not(WB)),
            }
        )

    def test_two_losers_get_one_blocking_entry_each(self):
        part = OutcomePartition(
            (),
            (Coalition("a"), Coalition("b")),
            frozenset(),
            frozenset({"a", "b"}),
        )
        nash = nash_ga(COORDINATION, part, ("a", "b"))
        assert nash == GoalAssignment(
            {
                ("a", "b"): Next(And(Not(WA), Not(WB))),
                ("b",): Next(Not(WA)),
                ("a",): Next(Not(WB)),
            }
        )

    def test_losing_until_goals_are_rejected(self):
        gamma = GoalAssignment({("a",): Until(P, Q), ("b",): Next(WB)})
        part = OutcomePartition(
            (Coalition("b"),),
            (Coalition("a"),),
            frozenset({"b"}),
            frozenset({"a"}),
        )
        with pytest.raises(GoalNegationError):
            nash_ga(gamma, part, ("a", "b"))


class TestStrongAssignment:
    def test_every_losing_group_is_blocked(self):
        gamma = GoalAssignment(
            {("a",): Next(P), ("b",): Next(Q), ("c",): Next(WA)}
        )
        part = OutcomePartition(
            (Coalition("a"),),
            (Coalition("b"), Coalition("c")),
            frozenset({"a"}),
            frozenset({"b", "c"}),
        )
        strong = strong_ga(gamma, part, ("a", "b", "c"))
        assert strong == GoalAssignment(
            {
                ("a", "b", "c"): Next(P),
                ("a", "c"): Next(Not(Q)),
                ("a", "b"): Next(Not(WA)),
                ("a",): Next(Not(And(Q, WA))),
            }
        )


class TestCoalitionalAssignment:
    def test_losing_coalitions_are_blocked_by_their_complements(self):
        gamma = GoalAssignment(
            {("x", "y"): Globally(P), ("x", "z"): Globally(Q)}
        )
        part = OutcomePartition(
            (Coalition(("x", "y")),),
            (Coalition(("x", "z")),),
            frozenset(),
            frozenset(),
        )
        built = coalitional_ga(gamma, part, ("x", "y", "z"))
        assert built == GoalAssignment(
            {
                ("x", "y", "z"): Globally(P),
                ("y",): Until(TRUE, Not(Q)),
            }
        )

    def test_colliding_entries_are_conjoined(self):
        gamma = GoalAssignment({(): Next(P), ("a", "b"): Next(Q)})
        part = OutcomePartition(
            (Coalition(("a", "b")),),
            (Coalition(()),),
            frozenset(),
            frozenset(),
        )
        built = coalitional_ga(gamma, part, ("a", "b"))
        assert built == GoalAssignment({("a", "b"): Next(And(Q, Not(P)))})


class TestCoequilibrium:
    def test_restriction_keeps_singletons_and_the_grand_coalition(self):
        gamma = GoalAssignment(
            {
                ("a",): Next(P),
                ("b",): Next(Q),
                ("a", "b"): Globally(P),
                ("a", "c"): Next(WA),
                ("a", "b", "c"): Globally(Q),
            }
        )
        kept = coequilibrium_ga(gamma, ("a", "b", "c"))
        assert kept == GoalAssignment(
            {
                ("a",): Next(P),
                ("b",): Next(Q),
                ("a", "b", "c"): Globally(Q),
            }
        )

    def test_pair_entries_survive_only_as_the_grand_coalition(self):
        gamma = GoalAssignment({("a", "b"): Globally(P)})
        assert coequilibrium_ga(gamma, ("a", "b")) == gamma
        assert coequilibrium_ga(gamma, ("a", "b", "c")) == GoalAssignment()

    def test_checking_the_safety_walk(self):
        model = safety_walk()
        gamma = GoalAssignment({("a",): Globally(P), ("b",): Globally(Q)})
        restricted = strategic(coequilibrium_ga(gamma, model.agents))
        assert check(model, "g", restricted)
        assert not check(model, "d", restricted)


class TestCore:
    def test_membership_formula_lists_every_losing_group(self):
        gamma = COORDINATION
        phi = core_membership_formula(gamma, ["a", "b"])
        solo_a = Not(strategic(GoalAssignment({("a",): Next(WA)})))
        solo_b = Not(strategic(GoalAssignment({("b",): Next(WB)})))
        pair = Not(
            strategic(GoalAssignment({("a", "b"): Next(And(WA, WB))}))
        )
        assert phi == And(And(solo_a, solo_b), pair)

    def test_no_losers_means_membership_is_trivial(self):
        assert core_membership_formula(COORDINATION, []) == TRUE

    def test_matching_pennies_losers_cannot_force_a_win(self):
        model = one_shot(win_a=["hh", "tt"], win_b=["ht", "th"])
        gamma = COORDINATION
        deviation = strategic(deviation_ga(gamma, Coalition("a")))
        assert not check(model, "s", deviation)
        assert check(model, "s", core_membership_formula(gamma, ["a"]))

    def test_a_forcing_loser_breaks_membership(self):
        model = one_shot(win_a=["hh", "ht"], win_b=[])
        gamma = COORDINATION
        deviation = strategic(deviation_ga(gamma, Coalition("a")))
        assert check(model, "s", deviation)
        assert not check(model, "s", core_membership_formula(gamma, ["a"]))

    def test_deviation_goal_requires_individual_goals(self):
        with pytest.raises(ValueError):
            deviation_ga(COORDINATION, Coalition(("a", "c")))


class TestUnilateralImprovement:
    def test_matching_pennies_has_no_equilibrium(self):
        model = one_shot(win_a=["hh", "tt"], win_b=["ht", "th"])
        for x in "ht":
            for y in "ht":
                profile = full_positional(model, a=x, b=y)
                improver = has_unilateral_improvement(
                    model, "s", profile, COORDINATION
                )
                assert improver in ("a", "b")

    def test_coordination_is_stable_exactly_when_matched(self):
        model = one_shot(win_a=["hh", "tt"], win_b=["hh", "tt"])
        for x in "ht":
            for y in "ht":
                profile = full_positional(model, a=x, b=y)
                improver = has_unilateral_improvement(
                    model, "s", profile, COORDINATION
                )
                assert (improver is None) == (x == y)

    def test_positional_swaps_cover_invariant_goals(self):
        model = safety_walk()
        gamma = GoalAssignment({("a",): Globally(P), ("b",): Globally(Q)})
        dropping = full_positional(model, a="go", b="w")
        assert has_unilateral_improvement(model, "g", dropping, gamma) == "a"
        staying = full_positional(model, a="stay", b="w")
        assert has_unilateral_improvement(model, "g", staying, gamma) is None

    def test_a_long_term_deviation_is_searched_where_it_reaches(self):
        # s1 has 2^29 positional tables on sheep-wolves(2,2,wts), but the
        # deviation search decides only at the states its choices reach.
        model, start = build_river_crossing(2, 2, "wolves_then_sheep")
        profile = last_actions(model)
        gamma = GoalAssignment({("s1",): Until(TRUE, Prop("c"))})
        began = time.process_time()
        assert has_unilateral_improvement(model, start, profile, gamma) is None
        assert time.process_time() - began < 1

    def test_long_term_deviations_need_a_positional_profile(self):
        model = safety_walk()
        gamma = GoalAssignment({("a",): Globally(P), ("b",): Globally(Q)})
        mode = MemoryMode("path", 2)
        tables = {
            "a": {("g",): "go", ("g", "d"): "idle", ("d", "d"): "idle"},
            "b": {("g",): "w", ("g", "d"): "w", ("d", "d"): "w"},
        }
        profile = FiniteStrategyProfile(mode, tables)
        with pytest.raises(ValueError):
            has_unilateral_improvement(model, "g", profile, gamma)


class TestCharacterizationCoherence:
    """The derived assignment agrees with the direct deviation search."""

    def sweep(self, model, gamma):
        seen = {}
        for x in "ht":
            for y in "ht":
                profile = full_positional(model, a=x, b=y)
                part = partition_outcomes(model, "s", profile, gamma)
                nash = nash_ga(gamma, part, model.agents)
                stable = (
                    has_unilateral_improvement(model, "s", profile, gamma)
                    is None
                )
                ok, failures = verify_witness(model, "s", profile, nash)
                assert ok == stable, failures
                seen.setdefault(part, False)
                seen[part] = seen[part] or stable
        for part, stable in seen.items():
            nash = nash_ga(gamma, part, model.agents)
            assert check(model, "s", strategic(nash)) == stable

    def test_matching_pennies(self):
        self.sweep(
            one_shot(win_a=["hh", "tt"], win_b=["ht", "th"]), COORDINATION
        )

    def test_coordination(self):
        self.sweep(
            one_shot(win_a=["hh", "tt"], win_b=["hh", "tt"]), COORDINATION
        )

    def test_dictator(self):
        self.sweep(one_shot(win_a=["hh", "ht"], win_b=[]), COORDINATION)

    def test_invariant_goals_on_the_safety_walk(self):
        model = safety_walk()
        gamma = GoalAssignment({("a",): Globally(P), ("b",): Globally(Q)})
        for choice in ("stay", "go"):
            profile = full_positional(model, a=choice, b="w")
            part = partition_outcomes(model, "g", profile, gamma)
            nash = nash_ga(gamma, part, model.agents)
            stable = (
                has_unilateral_improvement(model, "g", profile, gamma) is None
            )
            assert stable == (choice == "stay")
            assert check(model, "g", strategic(nash)) == stable


def reachable_memories(model, state, mode):
    """Every memory some play from `state` reaches, in first-seen order."""
    order = [initial_memory(state)]
    seen = set(order)
    for memory in order:
        here = memory_state(memory)
        for profile in model.profiles(here):
            target = update_memory(mode, memory, profile, model.out(here, profile))
            if target not in seen:
                seen.add(target)
                order.append(target)
    return order


FAULTS = ("missing", "null", "unavailable")
STRATEGIC_GOAL_SEEDS = (48623, 48624, 48625)


def random_tables(rng, model, memories, faults=()):
    """Per-agent tables over `memories`. Each kind of fault named in
    `faults` ("missing", "null", "unavailable") hits an entry with
    probability 0.1."""
    tables = {}
    for agent in model.agents:
        table = tables[agent] = {}
        for memory in memories:
            available = model.actions_of(memory_state(memory), agent)
            roll = rng.random()
            fault = faults[int(roll * 10)] if roll < 0.1 * len(faults) else None
            if fault == "null":
                table[memory] = None
            elif fault == "unavailable":
                table[memory] = "m%d" % len(available)
            elif fault is None:
                table[memory] = rng.choice(available)
    return tables


def outcome(call, *args):
    """("value", result), or ("raised", type, message) for what it raised."""
    try:
        return "value", call(*args)
    except (ValueError, KeyError) as exc:
        return "raised", type(exc), str(exc)


def closure_fault(model, profile, lasso_fault):
    """What the closure raises where the lasso raised `lasso_fault`.

    Both stop at the first memory of the play with a faulty entry. There
    the lasso reports a missing entry before any null or unavailable one,
    while the closure reports the first faulty agent in agent order.
    """
    _, kind, message = lasso_fault
    if kind is not PartialStrategyError:
        return lasso_fault
    memory = parse_rendered_memory(message.split(" for memory ", 1)[1])
    for agent in model.agents:
        table = profile.tables[agent]
        if memory not in table:
            return lasso_fault
        action = table[memory]
        state = memory_state(memory)
        if action not in model.actions_of(state, agent):
            return "raised", InvalidWitnessError, (
                "action %s of agent %s unavailable at %s" % (action, agent, state)
            )
    raise AssertionError("no faulty entry at %r" % (memory,))


class TestPlayGoalsAgreesWithLasso:
    """`play_goals` and `has_unilateral_improvement` give the answers the
    lasso walk gives, and raise what it raises up to the fault order that
    `closure_fault` states."""

    @staticmethod
    def lasso_goals(model, state, profile, assignment):
        lasso = play_lasso(model, state, profile)
        evaluator = Evaluator(model)
        return tuple(eval_on_lasso(evaluator, lasso, goal) for _, goal in assignment)

    @staticmethod
    def closure_goals(model, state, profile, assignment):
        return play_goals(Evaluator(model), state, profile, assignment)

    @pytest.mark.parametrize("seed", [48611, 48612])
    def test_random_profiles_over_reachable_memories(self, seed):
        rng = make_rng(seed)
        seen = {"judged": 0, "raised": 0, "reordered": 0}
        modes = set()
        for draw in range(600):
            model, state, assignment, mode = random_oracle_query(rng)
            memories = reachable_memories(model, state, mode)
            faults = FAULTS if draw % 2 else ()
            profile = FiniteStrategyProfile(
                mode, random_tables(rng, model, memories, faults)
            )
            args = (model, state, profile, assignment)
            expected = outcome(self.lasso_goals, *args)
            found = outcome(self.closure_goals, *args)
            modes.add(str(mode))
            if expected[0] == "value":
                seen["judged"] += 1
                assert found == expected, (seed, draw)
                continue
            seen["raised"] += 1
            wanted = closure_fault(model, profile, expected)
            seen["reordered"] += wanted != expected
            assert found == wanted, (seed, draw)
        assert modes == {"positional", "path:2", "play:2"}
        assert seen["judged"] >= 300 and min(seen.values()) > 0, seen

    @pytest.mark.parametrize("seed", [48621, 48622, *STRATEGIC_GOAL_SEEDS])
    def test_unilateral_improvement_on_positional_profiles(self, seed):
        rng = make_rng(seed)
        # Goal bodies under these seeds may hold strategic operators,
        # which only mean what they say on the original model.
        strategic_bodies = seed in STRATEGIC_GOAL_SEEDS
        answers = set()
        for draw in range(150):
            model = random_model(
                rng, max_states=4, max_agents=3, max_actions=3, max_props=1
            )
            agents = model.agents if strategic_bodies else ()
            assignment = GoalAssignment(
                [((agent,), random_goal(rng, model.props_used(), agents=agents))
                 for agent in model.agents]
            )
            state = rng.choice(model.states)
            # One kind of fault at a time: the fault order differs only
            # where a missing entry meets a null or unavailable one.
            faults = (FAULTS[draw % 3],) if draw % 4 == 3 else ()
            tables = random_tables(rng, model, [(s,) for s in model.states], faults)
            args = (model, state, FiniteStrategyProfile(POSITIONAL, tables), assignment)
            expected = outcome(lasso_unilateral_improvement, *args)
            assert outcome(has_unilateral_improvement, *args) == expected, (seed, draw)
            answers.add(expected[:2] if expected[0] == "value" else expected[1])
        assert {("value", None), ("value", "a"), PartialStrategyError,
                InvalidWitnessError} <= answers, answers
