"""Built-in example models, formulas, and their recorded truth values.

Each corpus case bundles a model, a start state, named formulas in
concrete syntax, frozen check results, and oracle queries with their
expected outcomes. The test suite and the command line both draw from
this registry.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

from . import models
from .models import ConcurrentGameModel, ResourceLimitError, save_model


@dataclass(frozen=True)
class CheckQuery:
    """A formula/state pair with its recorded truth value."""

    formula: str
    state: str
    holds: bool


@dataclass(frozen=True)
class OracleQuery:
    """A strategy-search query with its recorded outcome.

    outcome is "witness" when the search must produce a verified
    strategy profile, or "none (exact)" when it must exhaust the memory
    class without finding one.
    """

    formula: str
    state: str
    mode: str
    outcome: str


@dataclass(frozen=True)
class CorpusCase:
    name: str
    model: ConcurrentGameModel
    start: str
    formulas: dict[str, str]
    checks: tuple[CheckQuery, ...] = ()
    oracle_queries: tuple[OracleQuery, ...] = ()


def example_a() -> CorpusCase:
    """Two agents circling through three states.

    The goal assignment gives the pair an eventuality toward q while
    agent a alone must eventually leave both p and q. A strategy for a
    that remembers one round of history wins; no positional one does.
    """
    single = {"a": ["a"], "b": ["b"]}
    model = ConcurrentGameModel(
        agents=["a", "b"],
        states=["s", "s1", "s2"],
        actions={
            "s": {"a": ["a1", "a2"], "b": ["b"]},
            "s1": single,
            "s2": single,
        },
        outcome={
            ("s", ("a1", "b")): "s1",
            ("s", ("a2", "b")): "s2",
            ("s1", ("a", "b")): "s",
            ("s2", ("a", "b")): "s",
        },
        valuation={"p": ["s"], "q": ["s1"]},
    )
    gamma = "<< {a,b} -> (p U q); {a} -> (true U !(p | q)) >>"
    return CorpusCase(
        name="exampleA",
        model=model,
        start="s",
        formulas={"gammaA": gamma},
        checks=(CheckQuery("gammaA", "s", True),),
        oracle_queries=(
            OracleQuery("gammaA", "s", "positional", "none (exact)"),
            OracleQuery("gammaA", "s", "path:3", "witness"),
            OracleQuery("gammaA", "s", "play:3", "witness"),
        ),
    )


def _example_b_model() -> ConcurrentGameModel:
    idle = {"1": ["idle"], "2": ["idle"], "3": ["idle"]}
    return ConcurrentGameModel(
        agents=["1", "2", "3"],
        states=["s", "s1", "s2", "s31", "s32"],
        actions={
            "s": {"1": ["a1"], "2": ["a2", "b2"], "3": ["a3", "b3"]},
            "s1": idle,
            "s2": {"1": ["ap", "aq"], "2": ["idle"], "3": ["idle"]},
            "s31": idle,
            "s32": idle,
        },
        outcome={
            ("s", ("a1", "a2", "a3")): "s1",
            ("s", ("a1", "a2", "b3")): "s2",
            ("s", ("a1", "b2", "a3")): "s2",
            ("s", ("a1", "b2", "b3")): "s2",
            ("s1", ("idle", "idle", "idle")): "s1",
            ("s2", ("ap", "idle", "idle")): "s31",
            ("s2", ("aq", "idle", "idle")): "s32",
            ("s31", ("idle", "idle", "idle")): "s31",
            ("s32", ("idle", "idle", "idle")): "s32",
        },
        valuation={
            "p": ["s", "s1", "s2", "s31"],
            "q": ["s", "s1", "s2", "s32"],
        },
    )


def example_b() -> CorpusCase:
    """Three agents where only play-based memory wins.

    Agent 1 must keep p alive with agent 2 and q alive with agent 3.
    Both targets hinge on which teammate deviated into s2, which only
    the taken action profile reveals, so state-history strategies fail
    at depth two while one round of play memory suffices.
    """
    gamma = "<< {1,2} -> G p; {1,3} -> G q >>"
    return CorpusCase(
        name="exampleB",
        model=_example_b_model(),
        start="s",
        formulas={"gammaB": gamma, "soloGp": "<< {1} -> G p >>"},
        checks=(
            CheckQuery("gammaB", "s", True),
            CheckQuery("soloGp", "s2", True),
            CheckQuery("soloGp", "s31", True),
            CheckQuery("soloGp", "s32", False),
        ),
        oracle_queries=(
            OracleQuery("gammaB", "s", "path:2", "none (exact)"),
            OracleQuery("gammaB", "s", "play:2", "witness"),
        ),
    )


def example_b_gamma_prime() -> CorpusCase:
    """The strengthened assignment over the same model.

    Each pair only has to reach, in one step, a state from which agent 1
    alone sustains the target, and the grand coalition keeps p and q
    together. This variant holds on state-history strategies as well.
    """
    gamma_prime = (
        "<< {1,2} -> X << {1} -> G p >>; {1,3} -> X << {1} -> G q >>;"
        " {1,2,3} -> G (p & q) >>"
    )
    return CorpusCase(
        name="exampleB-gamma-prime",
        model=_example_b_model(),
        start="s",
        formulas={"gammaBprime": gamma_prime},
        checks=(CheckQuery("gammaBprime", "s", True),),
        oracle_queries=(
            OracleQuery("gammaBprime", "s", "path:2", "witness"),
        ),
    )


def build_password_model() -> ConcurrentGameModel:
    """Two parties deciding each round whether to share a password.

    Sending grants the other party access permanently; both act
    simultaneously and a send cannot be taken back. State ids spell out
    the access bits, H_A first.
    """
    states = ["s00", "s10", "s01", "s11"]
    acts = ["send", "withhold"]
    actions = {state: {"A": acts, "B": acts} for state in states}
    outcome = {}
    for state in states:
        has_a = state[1] == "1"
        has_b = state[2] == "1"
        for act_a in acts:
            for act_b in acts:
                next_a = has_a or act_b == "send"
                next_b = has_b or act_a == "send"
                target = "s%d%d" % (next_a, next_b)
                outcome[(state, (act_a, act_b))] = target
    return ConcurrentGameModel(
        agents=["A", "B"],
        states=states,
        actions=actions,
        outcome=outcome,
        valuation={"H_A": ["s10", "s11"], "H_B": ["s01", "s11"]},
    )


def password() -> CorpusCase:
    exchange = "<< {A,B} -> (true U (H_A & H_B)) >>"
    fair = "<< {A,B} -> (((H_A -> H_B) & (H_B -> H_A)) U (H_A & H_B)) >>"
    protective = (
        "<< {A,B} -> (true U (H_A & H_B));"
        " {A} -> G (H_B -> H_A); {B} -> G (H_A -> H_B) >>"
    )
    return CorpusCase(
        name="password",
        model=build_password_model(),
        start="s00",
        formulas={
            "exchange": exchange,
            "fair": fair,
            "protective": protective,
        },
        checks=(
            CheckQuery("exchange", "s00", True),
            CheckQuery("fair", "s00", True),
            # With one-shot simultaneous sends, any strategy that ever
            # sends loses its guard goal to a withholding partner, and
            # never sending loses the exchange goal.
            CheckQuery("protective", "s00", False),
        ),
        oracle_queries=(
            OracleQuery("exchange", "s00", "positional", "witness"),
            OracleQuery("protective", "s00", "positional", "none (exact)"),
        ),
    )


EATEN = "eaten"
CROSSED = "crossed"


def _dangerous(sheep: int, wolves: int) -> bool:
    # Wolves eat when they strictly outnumber sheep; with no sheep
    # present there is nothing to eat.
    return wolves > sheep >= 1


def build_river_crossing(
    n_sheep: int, n_wolves: int, mode: str = "simultaneous"
) -> tuple[ConcurrentGameModel, str]:
    """A boat puzzle where every animal is its own agent.

    States track how many sheep and wolves remain on the left bank and
    where the boat is; the animals on the boat's side may board, and a
    load of one or two crosses while anything else leaves the state
    unchanged. A crossing that leaves wolves outnumbering sheep on a
    bank or on the boat ends in the absorbing eaten state (proposition
    e); moving everyone across ends in the absorbing crossed state
    (proposition c). In wolves_then_sheep mode each round splits in two:
    wolves commit first and sheep answer, with an intermediate state
    holding the wolves' pending boarders.

    Animals are interchangeable, so the lowest-numbered ones are deemed
    to stand on the left bank; an animal on the far side has its action
    ignored. So a state's transitions depend only on how many sheep and
    how many wolves board on the boat's side: bitmasks by agent position
    count them in each profile, and each state resolves the target of
    each count once, at the first profile with that count (the order in
    which states are added is the order of those first profiles).
    Returns the model and its start state.

    A sink has one transition and every other state one per profile,
    2^(n_sheep + n_wolves). A build of more than `models.MAX_TRANSITIONS`
    transitions raises `ResourceLimitError` before the state that would
    pass that budget is added, and at once when two non-sink states
    would pass it, whatever the start: from an uneaten start of n >= 2
    animals a lone wolf (else a lone sheep) crosses into a second one.
    """
    if mode not in ("simultaneous", "wolves_then_sheep"):
        raise ValueError("unknown mode %r" % mode)
    if n_sheep < 0 or n_wolves < 0 or n_sheep + n_wolves == 0:
        raise ValueError("need a non-negative number of animals, at least one")
    budget = models.MAX_TRANSITIONS
    over_budget = "river crossing would have more than %d transitions" % budget
    # 2^(n+1) > budget exactly when n + 1 reaches its bit length: no 2^n built.
    if n_sheep + n_wolves + 1 >= budget.bit_length():
        raise ResourceLimitError(over_budget)

    sheep = ["s%d" % (i + 1) for i in range(n_sheep)]
    wolves = ["w%d" % (i + 1) for i in range(n_wolves)]
    agents = sorted(sheep + wolves)
    both = ("board", "stay")
    bit = {agent: 1 << i for i, agent in enumerate(agents)}
    everyone = (1 << len(agents)) - 1
    flock = sum(bit[name] for name in sheep)

    def resolve(sheep_left, wolves_left, side, boarding_sheep, boarding_wolves):
        """Config after a boarding attempt, ending a full round."""
        if not 1 <= boarding_sheep + boarding_wolves <= 2:
            return (sheep_left, wolves_left, side)
        sign = -1 if side == "L" else 1
        sheep_left += sign * boarding_sheep
        wolves_left += sign * boarding_wolves
        if (_dangerous(boarding_sheep, boarding_wolves)
                or _dangerous(sheep_left, wolves_left)
                or _dangerous(n_sheep - sheep_left, n_wolves - wolves_left)):
            return EATEN
        if sheep_left == wolves_left == 0:
            return CROSSED
        return (sheep_left, wolves_left, "R" if side == "L" else "L")

    states: list[str] = []
    actions: dict[str, dict[str, tuple[str, ...]]] = {}
    rows: dict[str, tuple[str, ...]] = {}
    worklist: list[tuple] = []
    transitions = 0

    def visit(config) -> str:
        # The state id, added when first seen. A sink is its own id; a full
        # config is (sheep_left, wolves_left, side), a half one adds pending.
        nonlocal transitions
        sink = isinstance(config, str)
        state = config if sink else "s%dw%d%s" % config[:3] + "".join(
            "p%d" % pending for pending in config[3:])
        if state not in actions:
            transitions += 1 if sink else 1 << len(agents)
            if transitions > budget:
                raise ResourceLimitError(over_budget)
            states.append(state)
            actions[state] = dict.fromkeys(agents, ("stay",) if sink else both)
            if sink:
                rows[state] = (state,)
            else:
                worklist.append(config)
        return state

    visit(EATEN)
    visit(CROSSED)
    start = visit(EATEN if _dangerous(n_sheep, n_wolves) else (n_sheep, n_wolves, "L"))
    boarding = [
        sum(bit[a] for a, act in zip(agents, profile) if act == "board")
        for profile in itertools.product(both, repeat=len(agents))
    ]
    while worklist:
        config = worklist.pop()
        state = visit(config)
        sheep_left, wolves_left, side = config[:3]
        left = sum(bit[name] for name in sheep[:sheep_left] + wolves[:wolves_left])
        here = left if side == "L" else everyone ^ left
        sheep_mask, wolves_mask = here & flock, here & ~flock
        # This state's target per (boarding sheep, boarding wolves) count.
        targets: dict[tuple[int, int], str] = {}
        row = []
        for boarders in boarding:
            count = ((boarders & sheep_mask).bit_count(),
                     (boarders & wolves_mask).bit_count())
            target = targets.get(count)
            if target is None:
                boarding_sheep, boarding_wolves = count
                if mode == "simultaneous":
                    target = resolve(*config, boarding_sheep, boarding_wolves)
                elif len(config) == 3:
                    target = (*config, boarding_wolves)
                else:
                    target = resolve(*config[:3], boarding_sheep, config[3])
                target = targets[count] = visit(target)
            row.append(target)
        rows[state] = tuple(row)

    valuation = {"e": [EATEN], "c": [CROSSED]}
    return ConcurrentGameModel.from_rows(agents, states, actions, rows, valuation), start


def _crossing_formula(sheep: list[str], wolves: list[str]) -> str:
    everyone = ",".join(sorted(sheep + wolves))
    flock = ",".join(sorted(sheep))
    if not sheep or not wolves:
        # The safety goal is dropped when the flock is everyone (the
        # coalitions would coincide) or nobody.
        return "<< {%s} -> (true U c) >>" % everyone
    return "<< {%s} -> (true U c); {%s} -> G !e >>" % (everyone, flock)


def sheep_wolves(
    n_sheep: int, n_wolves: int, mode: str = "simultaneous"
) -> CorpusCase:
    model, start = build_river_crossing(n_sheep, n_wolves, mode)
    sheep = ["s%d" % (i + 1) for i in range(n_sheep)]
    wolves = ["w%d" % (i + 1) for i in range(n_wolves)]
    formulas = {"crossing": _crossing_formula(sheep, wolves)}
    checks: tuple[CheckQuery, ...] = ()
    if (n_sheep, n_wolves) == (1, 1):
        # One wolf can never outnumber the sheep, and together they fit
        # in the boat, so the crossing succeeds in either mode.
        checks = (CheckQuery("crossing", start, True),)
    if (n_sheep, n_wolves) == (1, 0):
        checks = (CheckQuery("crossing", start, True),)
    if (n_sheep, n_wolves) == (3, 3):
        checks = (
            CheckQuery(
                "crossing", start, mode == "wolves_then_sheep"
            ),
        )
    return CorpusCase(
        name="sheep-wolves(%d,%d,%s)" % (n_sheep, n_wolves, mode),
        model=model,
        start=start,
        formulas=formulas,
        checks=checks,
    )


def build_case(name: str, **params) -> CorpusCase:
    """Build a corpus case by registry name.

    sheep-wolves takes n_sheep and n_wolves, optionally mode; a build of
    more than `models.MAX_TRANSITIONS` transitions raises
    ResourceLimitError. The other names take no parameters. A bad name,
    a missing count or a bad value raises ValueError naming the
    parameter.
    """
    if name == "sheep-wolves":
        for key in (*params, "n_sheep", "n_wolves"):
            if key not in ("n_sheep", "n_wolves", "mode"):
                raise ValueError("sheep-wolves has no parameter %r" % key)
            if key not in params:
                raise ValueError("sheep-wolves needs parameter %s" % key)
            value = params[key]
            if key != "mode" and not (isinstance(value, int) and value >= 0):
                raise ValueError(
                    "parameter %s must be a non-negative integer, got %r"
                    % (key, value)
                )
        return sheep_wolves(**params)
    builders = {
        "exampleA": example_a,
        "exampleB": example_b,
        "exampleB-gamma-prime": example_b_gamma_prime,
        "password": password,
    }
    if name not in builders:
        raise KeyError("unknown corpus case %r" % name)
    if params:
        raise ValueError("case %s takes no parameters" % name)
    return builders[name]()


def case_names() -> list[str]:
    return [
        "exampleA",
        "exampleB",
        "exampleB-gamma-prime",
        "sheep-wolves(n,m,mode)",
        "password",
    ]


def default_cases() -> list[CorpusCase]:
    """The concrete instances that test sweeps iterate over.

    Every parameter-free case plus the two smallest river crossings,
    each with its recorded answers; kept here, next to the builders,
    as the corpus's one list of ready-made instances.
    """
    return [
        example_a(),
        example_b(),
        example_b_gamma_prime(),
        password(),
        sheep_wolves(1, 1, "simultaneous"),
        sheep_wolves(1, 1, "wolves_then_sheep"),
    ]


def write_case(case: CorpusCase, directory: str) -> list[str]:
    """Write a case's model and formulas to a directory; returns paths."""
    os.makedirs(directory, exist_ok=True)
    written = []
    model_path = os.path.join(directory, "model.json")
    save_model(case.model, model_path)
    written.append(model_path)
    for name, text in sorted(case.formulas.items()):
        path = os.path.join(directory, name + ".tlcga")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        written.append(path)
    meta_path = os.path.join(directory, "case.json")
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "name": case.name,
                "start": case.start,
                "formulas": sorted(case.formulas),
                "checks": [
                    {"formula": c.formula, "state": c.state, "holds": c.holds}
                    for c in case.checks
                ],
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    written.append(meta_path)
    return written
