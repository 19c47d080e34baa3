"""Strategy search, witness verification, induced plays, ATL fixpoints."""

from typing import NamedTuple

import pytest

from test_stability import eval_on_lasso, play_lasso

from tlcga.checking import Evaluator, check, extension_of
from tlcga.corpus import (
    build_case,
    default_cases,
    example_a,
    example_b,
    example_b_gamma_prime,
    password,
)
from tlcga.formulas import (
    GoalAssignment,
    Globally,
    Next,
    Prop,
    Strategic,
    Until,
    path_conjuncts,
)
from tlcga.parser import parse_path_formula, parse_state_formula
from tlcga.sampling import DEFAULT_SEED, make_rng, random_oracle_query
from tlcga.strategies import (
    FiniteStrategyProfile,
    InvalidWitnessError,
    MemoryMode,
    PartialStrategyError,
    POSITIONAL,
    WitnessSearchResult,
    _Closure,
    _completed,
    _goal_extensions,
    _goal_failures,
    atl_check,
    find_witness,
    initial_memory,
    memory_sort_key,
    memory_state,
    parse_memory_mode,
    play_goals,
    render_memory,
    update_memory,
    verify_witness,
)


# The search that rebuilds every coalition's closure from scratch at each
# step and judges a branch only at its leaves, kept as an independent
# reference for the incremental search with early cuts.

class _MissingEntry(Exception):
    def __init__(self, agent, memory):
        self.agent = agent
        self.memory = memory


class _Judged(NamedTuple):
    """A complete reference closure in the shape `_goal_failures` reads."""

    root: tuple
    order: list
    edges: dict
    complete: bool = True

    @property
    def head(self):
        return len(self.order)


def reference_closure(index, start, mode, coalition, lookup):
    """Memories reachable when the coalition follows `lookup`: (nodes in
    first-seen order, edges as node -> ordered targets)."""
    model = index.model
    members = sorted(coalition)
    positions = index.positions(members)
    root = initial_memory(start)
    order = [root]
    edges = {}
    seen = {root}
    queue = [root]
    while queue:
        memory = queue.pop(0)
        state = memory_state(memory)
        joint = tuple(lookup(agent, memory) for agent in members)
        of_profile, _, of_restriction = index.blocks(state, positions)
        block = of_restriction[joint]
        targets = []
        for profile, in_block in zip(model.profiles(state), of_profile):
            if in_block != block:
                continue
            target = update_memory(mode, memory, profile, model.out(state, profile))
            targets.append(target)
            if target not in seen:
                seen.add(target)
                order.append(target)
                queue.append(target)
        edges[memory] = targets
    return order, edges


def reference_find_witness(model, state, assignment, mode, limit):
    evaluator = Evaluator(model)
    extensions = _goal_extensions(evaluator, assignment)
    index = evaluator.effectivity
    support = assignment.support()
    agents_involved = sorted({a for c in support for a in c})
    decisions = {}
    steps = 0
    exhausted = True

    def lookup(agent, memory):
        key = (agent, memory)
        if key in decisions:
            return decisions[key]
        available = model.actions_of(memory_state(memory), agent)
        if len(available) == 1:
            return available[0]
        raise _MissingEntry(agent, memory)

    def first_missing():
        for coalition in support:
            try:
                reference_closure(index, state, mode, coalition, lookup)
            except _MissingEntry as missing:
                return missing
        return None

    def verifies(candidate):
        for coalition, goal in assignment:
            order, edges = reference_closure(
                index, state, mode, coalition, candidate.action
            )
            judged = _Judged(initial_memory(state), order, edges)
            if next(_goal_failures(goal, judged, extensions), None):
                return False
        return True

    def assemble():
        tables = {a: {} for a in agents_involved}
        for coalition in support:
            order, _ = reference_closure(index, state, mode, coalition, lookup)
            for memory in order:
                for agent in sorted(coalition):
                    tables[agent].setdefault(memory, lookup(agent, memory))
        return FiniteStrategyProfile(mode, tables)

    def search():
        nonlocal steps, exhausted
        if steps >= limit:
            exhausted = False
            return None
        steps += 1
        missing = first_missing()
        if missing is None:
            candidate = assemble()
            return candidate if verifies(candidate) else None
        key = (missing.agent, missing.memory)
        for action in model.actions_of(memory_state(missing.memory), missing.agent):
            decisions[key] = action
            found = search()
            if found is not None:
                return found
            del decisions[key]
            if not exhausted:
                return None
        return None

    witness = search()
    return WitnessSearchResult(witness, exhausted if witness is None else True, steps)


def assignment_of(case, name):
    formula = parse_state_formula(case.formulas[name])
    assert isinstance(formula, Strategic)
    return formula.assignment


class TestMemoryModes:
    def test_parsing(self):
        assert parse_memory_mode("positional") == POSITIONAL
        assert parse_memory_mode("path:3") == MemoryMode("path", 3)
        assert parse_memory_mode("play:2") == MemoryMode("play", 2)
        for bad in ("path", "play:x", "path:0", "total"):
            with pytest.raises(ValueError):
                parse_memory_mode(bad)

    def test_path_memory_keeps_a_state_window(self):
        mode = MemoryMode("path", 2)
        memory = initial_memory("s")
        memory = update_memory(mode, memory, ("a1", "b"), "s1")
        assert memory == ("s", "s1")
        memory = update_memory(mode, memory, ("a", "b"), "s")
        assert memory == ("s1", "s")

    def test_positional_memory_is_the_current_state(self):
        memory = initial_memory("s")
        memory = update_memory(POSITIONAL, memory, ("a1", "b"), "s1")
        assert memory == ("s1",)

    def test_play_memory_keeps_the_profiles(self):
        mode = MemoryMode("play", 2)
        memory = initial_memory("s")
        memory = update_memory(mode, memory, ("a1", "b"), "s1")
        assert memory == ("s", ("a1", "b"), "s1")
        memory = update_memory(mode, memory, ("a", "b"), "s")
        assert memory == ("s1", ("a", "b"), "s")

    def test_rendering(self):
        assert render_memory(("s", ("a1", "b"), "s1")) == "s [a1,b] s1"
        assert render_memory(("s", "s1")) == "s s1"

    def test_sort_key_orders_by_length_then_content(self):
        memories = [("s", "s1"), ("s",), ("s", "s2")]
        ordered = sorted(memories, key=memory_sort_key)
        assert ordered == [("s",), ("s", "s1"), ("s", "s2")]


class TestVerifyWitness:
    def test_the_recorded_two_round_witness(self):
        case = example_a()
        gamma = assignment_of(case, "gammaA")
        mode = MemoryMode("path", 3)
        profile = FiniteStrategyProfile(
            mode,
            {
                "a": {
                    ("s",): "a1",
                    ("s", "s1"): "a",
                    ("s", "s1", "s"): "a2",
                    ("s1", "s", "s2"): "a",
                    ("s", "s2", "s"): "a2",
                    ("s2", "s", "s2"): "a",
                    ("s2", "s", "s1"): "a",
                    ("s1", "s", "s1"): "a",
                    ("s", "s2"): "a",
                },
                "b": {},
            },
        )
        # Agent b has a single action everywhere; fill its table from
        # the closure the verifier walks.
        tables = dict(profile.tables)
        tables["b"] = {memory: "b" for memory in profile.tables["a"]}
        profile = FiniteStrategyProfile(mode, tables)
        ok, failures = verify_witness(case.model, "s", profile, gamma)
        assert ok, failures

    def test_positional_failure_is_reported(self):
        case = example_a()
        gamma = assignment_of(case, "gammaA")
        profile = FiniteStrategyProfile(
            POSITIONAL,
            {
                "a": {("s",): "a1", ("s1",): "a", ("s2",): "a"},
                "b": {("s",): "b", ("s1",): "b", ("s2",): "b"},
            },
        )
        ok, failures = verify_witness(case.model, "s", profile, gamma)
        assert not ok
        assert any("eventuality" in failure for failure in failures)

    def test_every_failing_conjunct_is_reported_in_order(self):
        case = example_a()
        formula = parse_state_formula(
            "<< {a} -> X q && G p && (p U q); {a,b} -> X p && G (p | !q) >>"
        )
        single = {("s",): "b", ("s1",): "b", ("s2",): "b"}
        positional = FiniteStrategyProfile(
            POSITIONAL, {"a": {("s",): "a2", ("s1",): "a", ("s2",): "a"}, "b": single}
        )
        assert verify_witness(case.model, "s", positional, formula.assignment) == (
            False,
            [
                "coalition {a}: one-step goal X q fails toward s2",
                "coalition {a}: invariant goal G p fails at s2",
                "coalition {a}: eventuality goal (p U q) fails",
                "coalition {a,b}: one-step goal X p fails toward s2",
            ],
        )
        memories = [("s",), ("s", "s1"), ("s1", "s"), ("s", "s2"), ("s2", "s")]
        path = FiniteStrategyProfile(
            parse_memory_mode("path:2"),
            {
                "a": dict(zip(memories, ["a1", "a", "a2", "a", "a1"])),
                "b": {memory: "b" for memory in memories},
            },
        )
        assert verify_witness(case.model, "s", path, formula.assignment) == (
            False,
            [
                "coalition {a}: invariant goal G p fails at s s1",
                "coalition {a,b}: one-step goal X p fails toward s1",
                "coalition {a,b}: invariant goal G p | !q fails at s s1",
            ],
        )

    def test_partial_tables_are_rejected(self):
        case = example_a()
        gamma = assignment_of(case, "gammaA")
        profile = FiniteStrategyProfile(POSITIONAL, {"a": {("s",): "a1"}, "b": {}})
        with pytest.raises(PartialStrategyError):
            verify_witness(case.model, "s", profile, gamma)

    def test_unavailable_actions_are_rejected(self):
        case = example_a()
        gamma = assignment_of(case, "gammaA")
        profile = FiniteStrategyProfile(
            POSITIONAL,
            {
                "a": {("s",): "zz", ("s1",): "a", ("s2",): "a"},
                "b": {("s",): "b", ("s1",): "b", ("s2",): "b"},
            },
        )
        with pytest.raises(InvalidWitnessError):
            verify_witness(case.model, "s", profile, gamma)


class TestFindWitness:
    def test_no_positional_witness_in_the_circling_model(self):
        case = example_a()
        gamma = assignment_of(case, "gammaA")
        result = find_witness(case.model, "s", gamma, POSITIONAL)
        assert result.witness is None
        assert result.exact is True
        assert result.outcome == "none (exact)"

    def test_path_memory_of_three_wins(self):
        case = example_a()
        gamma = assignment_of(case, "gammaA")
        result = find_witness(case.model, "s", gamma, MemoryMode("path", 3))
        assert result.outcome == "witness"
        ok, failures = verify_witness(case.model, "s", result.witness, gamma)
        assert ok, failures

    def test_play_memory_of_three_wins(self):
        case = example_a()
        gamma = assignment_of(case, "gammaA")
        result = find_witness(case.model, "s", gamma, MemoryMode("play", 3))
        assert result.outcome == "witness"
        ok, failures = verify_witness(case.model, "s", result.witness, gamma)
        assert ok, failures

    def test_state_histories_cannot_tell_deviators_apart(self):
        case = example_b()
        gamma = assignment_of(case, "gammaB")
        result = find_witness(case.model, "s", gamma, MemoryMode("path", 2))
        assert result.outcome == "none (exact)"

    def test_one_round_of_play_memory_wins(self):
        case = example_b()
        gamma = assignment_of(case, "gammaB")
        result = find_witness(case.model, "s", gamma, MemoryMode("play", 2))
        assert result.outcome == "witness"
        ok, failures = verify_witness(case.model, "s", result.witness, gamma)
        assert ok, failures
        # The witness must react to the deviator revealed by the taken
        # profile at s2.
        table = result.witness.tables["1"]
        assert table[("s", ("a1", "a2", "b3"), "s2")] == "ap"
        assert table[("s", ("a1", "b2", "a3"), "s2")] == "aq"

    def test_the_strengthened_assignment_has_a_path_witness(self):
        case = example_b_gamma_prime()
        gamma = assignment_of(case, "gammaBprime")
        result = find_witness(case.model, "s", gamma, MemoryMode("path", 2))
        assert result.outcome == "witness"
        ok, failures = verify_witness(case.model, "s", result.witness, gamma)
        assert ok, failures

    def test_search_is_deterministic(self):
        case = example_b()
        gamma = assignment_of(case, "gammaB")
        first = find_witness(case.model, "s", gamma, MemoryMode("play", 2))
        second = find_witness(case.model, "s", gamma, MemoryMode("play", 2))
        assert first.witness == second.witness
        assert first.explored == second.explored

    @pytest.mark.parametrize(
        "name, formula, mode, outcome, explored",
        [
            ("exampleA", "gammaA", "positional", "none (exact)", 3),
            ("exampleA", "gammaA", "path:3", "witness", 5),
            ("exampleA", "gammaA", "play:3", "witness", 5),
            ("exampleB", "gammaB", "path:2", "none (exact)", 11),
            ("exampleB", "gammaB", "play:2", "witness", 6),
            ("exampleB-gamma-prime", "gammaBprime", "path:2", "witness", 4),
            ("password", "exchange", "positional", "witness", 5),
            ("password", "protective", "positional", "none (exact)", 13),
        ],
    )
    def test_corpus_queries_keep_their_outcome_and_search_size(
        self, name, formula, mode, outcome, explored
    ):
        case = build_case(name)
        (query,) = [
            q for q in case.oracle_queries
            if (q.formula, q.mode) == (formula, mode)
        ]
        assert query.outcome == outcome
        result = find_witness(
            case.model, query.state, assignment_of(case, formula),
            parse_memory_mode(mode),
        )
        assert (result.outcome, result.explored) == (outcome, explored)

    def test_step_budget_reports_bounded_absence(self):
        case = example_b()
        gamma = assignment_of(case, "gammaB")
        result = find_witness(case.model, "s", gamma, MemoryMode("path", 2), limit=2)
        assert result.witness is None
        assert result.exact is False
        assert result.outcome == "none (bounded)"

    def test_password_exchange_has_a_positional_witness(self):
        case = password()
        gamma = assignment_of(case, "exchange")
        result = find_witness(case.model, "s00", gamma, POSITIONAL)
        assert result.outcome == "witness"
        assert result.witness.tables["A"][("s00",)] == "send"
        assert result.witness.tables["B"][("s00",)] == "send"

    def test_password_protection_has_no_positional_witness(self):
        case = password()
        gamma = assignment_of(case, "protective")
        result = find_witness(case.model, "s00", gamma, POSITIONAL)
        assert result.outcome == "none (exact)"

    def test_unknown_state_is_rejected(self):
        case = example_a()
        gamma = assignment_of(case, "gammaA")
        with pytest.raises(ValueError, match="unknown state"):
            find_witness(case.model, "nowhere", gamma, POSITIONAL)


def _corpus_queries():
    for case in default_cases():
        for query in case.oracle_queries:
            yield (
                "%s/%s %s" % (case.name, query.formula, query.mode),
                case.model,
                query.state,
                assignment_of(case, query.formula),
                parse_memory_mode(query.mode),
                100000,
            )


def _random_queries(seed, count):
    rng = make_rng(seed)
    for index in range(count):
        model, state, assignment, mode = random_oracle_query(rng)
        yield "seed %d #%d" % (seed, index), model, state, assignment, mode, 20000


class TestSearchAgreesWithReference:
    """The incremental search finds what the from-scratch search finds.

    Wherever the reference decides within its limit, the outcome and the
    witness must be equal and the incremental search may not enter more
    nodes; its cuts only drop branches without a witness.
    """

    def _agree(self, queries):
        modes = set()
        for label, model, state, assignment, mode, limit in queries:
            expected = reference_find_witness(model, state, assignment, mode, limit)
            if expected.outcome == "none (bounded)":
                continue
            modes.add(mode.kind)
            found = find_witness(model, state, assignment, mode, limit=limit)
            assert found.outcome == expected.outcome, label
            assert found.witness == expected.witness, label
            assert found.explored <= expected.explored, label
        return modes

    def test_corpus_queries(self):
        self._agree(_corpus_queries())

    def test_criterion_ten_panel(self):
        self._agree(_random_queries(DEFAULT_SEED + 2, 200))

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_queries(self, seed):
        modes = self._agree(_random_queries(seed, 100))
        assert modes == {"positional", "path", "play"}


class TestGoalJudgmentSinceMarks:
    """`_goal_failures` judged since each successive mark of a growing
    closure adds up to the judgment of the complete closure, and reports
    each failure at the step that first shows it."""

    @staticmethod
    def _grow_and_judge(rng, index, state, mode, coalition, parts, extensions):
        """Grow a closure step by step under random decisions, judging each
        part since the mark taken before every step. Returns the closure,
        its mark after each step, and per part the (step, failure) pairs."""
        closure = _Closure(index, state, mode, coalition)
        decisions = {}
        lookup = lambda agent, memory: decisions.get((agent, memory))
        after, judged = [], {part: [] for part in parts}
        while True:
            mark = closure.mark()
            missing = closure.grow(lookup)
            for part in parts:
                for failure in _goal_failures(part, closure, extensions, mark):
                    judged[part].append((len(after), failure))
            after.append(closure.mark())
            if missing is None:
                break
            agent, memory = missing
            decisions[missing] = rng.choice(
                index.model.actions_of(memory_state(memory), agent)
            )
        # A step taken on the complete closure judges nothing anew.
        mark = closure.mark()
        assert closure.grow(lookup) is None
        for part in parts:
            assert list(_goal_failures(part, closure, extensions, mark)) == []
        return closure, after, judged

    @staticmethod
    def _first_showing_step(closure, after, part, memory):
        """The step after which the closure first shows the failure."""
        if isinstance(part, Globally):  # once `memory` is reached
            position = closure.order.index(memory)
            return next(k for k, (reached, _) in enumerate(after) if reached > position)
        if isinstance(part, Next):  # once the root is expanded
            return next(k for k, (_, head) in enumerate(after) if head > 0)
        return len(after) - 1  # once the closure is complete

    def test_marks_add_up_to_the_whole_closure(self):
        rng = make_rng(DEFAULT_SEED + 7)
        broken = set()
        for draw in range(400):
            model, state, assignment, mode = random_oracle_query(rng)
            evaluator = Evaluator(model)
            extensions = _goal_extensions(evaluator, assignment)
            index = evaluator.effectivity
            for coalition, goal in assignment:
                parts = list(dict.fromkeys(path_conjuncts(goal)))
                closure, after, judged = self._grow_and_judge(
                    rng, index, state, mode, coalition, parts, extensions
                )
                for part in parts:
                    label = (draw, str(part))
                    whole = list(_goal_failures(part, closure, extensions))
                    assert [failure for _, failure in judged[part][:1]] == whole, label
                    # Each memory is judged once: no failure is reported twice.
                    memories = [memory for _, (_, memory) in judged[part]]
                    assert len(set(memories)) == len(memories), label
                    if whole:
                        (_, memory), = whole
                        step = self._first_showing_step(closure, after, part, memory)
                        assert judged[part][0][0] == step, label
                        broken.add(type(part).__name__)
        assert broken == {"Next", "Globally", "Until"}


class TestOracleAgreesWithChecker:
    def test_witnesses_imply_checker_truth(self):
        queries = [
            (example_a(), "gammaA", "play:3"),
            (example_b(), "gammaB", "play:2"),
            (example_b_gamma_prime(), "gammaBprime", "path:2"),
            (password(), "exchange", "positional"),
        ]
        for case, name, mode_text in queries:
            gamma = assignment_of(case, name)
            result = find_witness(
                case.model, case.start, gamma, parse_memory_mode(mode_text)
            )
            assert result.outcome == "witness", (case.name, name)
            formula = parse_state_formula(case.formulas[name])
            assert check(case.model, case.start, formula) is True


def induced_closure(model, state, profile):
    """The grand coalition's closure: the memories of the induced play."""
    index = Evaluator(model).effectivity
    return _completed(index, state, profile.mode, profile.action, model.agents)


def on_the_play(model, state, profile, goal_text):
    """`play_goals` for one goal."""
    goal = parse_path_formula(goal_text)
    assignment = GoalAssignment({model.agents: goal})
    (holds,) = play_goals(Evaluator(model), state, profile, assignment)
    return holds


class TestInducedPlay:
    """The induced play through the lasso reference and through the grand
    coalition's closure that `play_goals` judges."""

    def test_lasso_of_a_positional_profile(self):
        case = example_a()
        profile = FiniteStrategyProfile(
            POSITIONAL,
            {
                "a": {("s",): "a1", ("s1",): "a", ("s2",): "a"},
                "b": {("s",): "b", ("s1",): "b", ("s2",): "b"},
            },
        )
        lasso = play_lasso(case.model, "s", profile)
        assert lasso.states == ("s", "s1")
        assert lasso.cycle_start == 0
        assert lasso.state_at(5) == "s1"
        closure = induced_closure(case.model, "s", profile)
        assert closure.order == [("s",), ("s1",)]
        assert closure.edges == {("s",): [("s1",)], ("s1",): [("s",)]}

    def test_goal_evaluation_on_the_lasso(self):
        case = example_a()
        profile = FiniteStrategyProfile(
            POSITIONAL,
            {
                "a": {("s",): "a1", ("s1",): "a", ("s2",): "a"},
                "b": {("s",): "b", ("s1",): "b", ("s2",): "b"},
            },
        )
        lasso = play_lasso(case.model, "s", profile)
        evaluator = Evaluator(case.model)
        goals = {
            "(p U q)": True,
            "X q": True,
            "G p": False,
            "G (p | q)": True,
            "(true U !(p | q))": False,
        }
        for text, holds in goals.items():
            goal = parse_path_formula(text)
            assert eval_on_lasso(evaluator, lasso, goal) == holds, text
            assert on_the_play(case.model, "s", profile, text) == holds, text

    def test_memoryful_lassos_unroll_before_looping(self):
        case = example_a()
        mode = MemoryMode("path", 3)
        table_a = {
            ("s",): "a1",
            ("s", "s1"): "a",
            ("s", "s1", "s"): "a2",
            ("s1", "s", "s2"): "a",
            ("s", "s2", "s"): "a2",
            ("s2", "s", "s2"): "a",
            ("s2", "s", "s1"): "a",
            ("s1", "s", "s1"): "a",
            ("s", "s2"): "a",
        }
        profile = FiniteStrategyProfile(
            mode,
            {"a": table_a, "b": {memory: "b" for memory in table_a}},
        )
        lasso = play_lasso(case.model, "s", profile)
        assert lasso.states[:4] == ("s", "s1", "s", "s2")
        assert eval_on_lasso(
            Evaluator(case.model), lasso, parse_path_formula("(true U !(p | q))")
        )
        closure = induced_closure(case.model, "s", profile)
        states = [memory_state(memory) for memory in closure.order]
        assert states[:4] == ["s", "s1", "s", "s2"]
        assert all(len(targets) == 1 for targets in closure.edges.values())
        assert on_the_play(case.model, "s", profile, "(true U !(p | q))")

    def test_a_missing_entry_is_reported_after_an_unavailable_one(self):
        # At s, agent a names an action it does not have and agent b has
        # no entry. The lasso reference reports b, the first agent without
        # an entry; the closure, like `verify_witness`, reports a, the
        # first faulty agent.
        case = example_a()
        profile = FiniteStrategyProfile(
            POSITIONAL, {"a": {("s",): "a3"}, "b": {}}
        )
        with pytest.raises(PartialStrategyError) as lasso_fault:
            play_lasso(case.model, "s", profile)
        assert str(lasso_fault.value) == "agent b has no action for memory s"
        message = "action a3 of agent a unavailable at s"
        with pytest.raises(InvalidWitnessError) as fault:
            on_the_play(case.model, "s", profile, "X q")
        assert str(fault.value) == message
        with pytest.raises(InvalidWitnessError) as fault:
            verify_witness(case.model, "s", profile, assignment_of(case, "gammaA"))
        assert str(fault.value) == message


class TestAtlFixpoints:
    def test_one_step_force(self):
        model = example_b().model
        assert atl_check(model, ["1"], Next(Prop("p"))) == {"s", "s1", "s2", "s31"}
        assert atl_check(model, [], Next(Prop("p"))) == {"s", "s1", "s31"}

    def test_invariants_match_the_checker(self):
        model = example_b().model
        assert atl_check(model, ["1"], Globally(Prop("p"))) == extension_of(
            model, parse_state_formula("<< {1} -> G p >>")
        )

    def test_eventualities_match_the_checker(self):
        model = password().model
        goal = Until(parse_state_formula("true"), parse_state_formula("H_A & H_B"))
        assert atl_check(model, ["A", "B"], goal) == extension_of(
            model, parse_state_formula("<< {A,B} -> (true U (H_A & H_B)) >>")
        )
        assert "s00" in atl_check(model, ["A", "B"], goal)

    def test_conjunction_goals_are_rejected(self):
        model = example_b().model
        with pytest.raises(ValueError):
            atl_check(model, ["1"], parse_path_formula("X p && G q"))
