"""Seeded random instances for property sweeps.

Everything here draws from an explicit random.Random, so a fixed seed
reproduces the exact same models, goals, and scheme parameters. The
generators favour small instances: the sweeps that use them run many
samples, and small models already exercise every code path.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Optional

from .checking import valid_on
from .formulas import (
    And,
    Coalition,
    GoalAssignment,
    Globally,
    Next,
    Not,
    Or,
    PathFormula,
    Prop,
    StateFormula,
    Until,
    make_path_and,
    path_conjuncts,
    strategic,
)
from .models import ConcurrentGameModel
from .strategies import MemoryMode, POSITIONAL
from .transforms import _nonempty_subsets, axiom_instance

DEFAULT_SEED = 1729

_AGENT_POOL = ("a", "b", "c", "d")
_PROP_POOL = ("p", "q", "r", "t")


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_model(
    rng: random.Random,
    max_states: int = 6,
    max_agents: int = 3,
    max_actions: int = 2,
    max_props: int = 3,
    min_agents: int = 1,
) -> ConcurrentGameModel:
    """A random total model over short canonical agent and state names."""
    agents = _AGENT_POOL[: rng.randint(min_agents, max_agents)]
    states = ["t%d" % i for i in range(rng.randint(1, max_states))]
    actions: dict[str, dict[str, tuple[str, ...]]] = {}
    rows: dict[str, tuple[str, ...]] = {}
    for state in states:
        actions[state] = {
            agent: tuple("m%d" % i for i in range(rng.randint(1, max_actions)))
            for agent in agents
        }
        profiles = product(*actions[state].values())
        rows[state] = tuple([rng.choice(states) for _ in profiles])
    valuation = {
        _PROP_POOL[i]: [s for s in states if rng.random() < 0.5]
        for i in range(rng.randint(1, max_props))
    }
    return ConcurrentGameModel.from_rows(agents, states, actions, rows, valuation)


def random_state_formula(
    rng: random.Random,
    props,
    depth: int = 2,
    agents=(),
) -> StateFormula:
    """A closed boolean formula, with shallow strategic nesting if
    an agent pool is supplied."""
    if depth <= 0 or rng.random() < 0.35:
        leaf: StateFormula = Prop(rng.choice(tuple(props)))
        return leaf if rng.random() < 0.7 else Not(leaf)
    roll = rng.random()
    if roll < 0.35:
        return And(
            random_state_formula(rng, props, depth - 1, agents),
            random_state_formula(rng, props, depth - 1, agents),
        )
    if roll < 0.7:
        return Or(
            random_state_formula(rng, props, depth - 1, agents),
            random_state_formula(rng, props, depth - 1, agents),
        )
    if roll < 0.9 or not agents:
        return Not(random_state_formula(rng, props, depth - 1, agents))
    return strategic(
        random_assignment(rng, agents, props, max_coalitions=1, depth=0)
    )


def random_goal(
    rng: random.Random,
    props,
    depth: int = 1,
    agents=(),
    allow_conjunction: bool = False,
) -> PathFormula:
    body = lambda: random_state_formula(rng, props, depth, agents)
    roll = rng.random()
    if allow_conjunction and roll < 0.15:
        first = random_goal(rng, props, depth, agents)
        second = random_goal(rng, props, depth, agents)
        return make_path_and(path_conjuncts(first) + path_conjuncts(second))
    if roll < 0.45:
        return Next(body())
    if roll < 0.75:
        return Until(body(), body())
    return Globally(body())


def random_coalition(
    rng: random.Random, agents, allow_empty: bool = False
) -> Coalition:
    pool = tuple(agents)
    low = 0 if allow_empty else 1
    size = rng.randint(low, len(pool))
    return Coalition(rng.sample(pool, size))


def random_assignment(
    rng: random.Random,
    agents,
    props,
    max_coalitions: int = 3,
    depth: int = 1,
    allow_conjunction: bool = False,
    allow_empty_coalition: bool = False,
) -> GoalAssignment:
    pool = _nonempty_subsets(agents)
    if allow_empty_coalition:
        pool.insert(0, Coalition())
    rng.shuffle(pool)
    count = rng.randint(1, min(max_coalitions, len(pool)))
    return GoalAssignment(
        [
            (
                coalition,
                random_goal(rng, props, depth, (), allow_conjunction),
            )
            for coalition in pool[:count]
        ]
    )


def random_memory_mode(rng: random.Random) -> MemoryMode:
    return rng.choice(
        (POSITIONAL, MemoryMode("path", 2), MemoryMode("play", 2))
    )


def random_oracle_query(
    rng: random.Random,
) -> tuple[ConcurrentGameModel, str, GoalAssignment, MemoryMode]:
    """A small strategy-search instance kept cheap enough to sweep."""
    model = random_model(rng, max_states=4, max_agents=2)
    assignment = random_assignment(
        rng, model.agents, model.props_used(), max_coalitions=2
    )
    return model, rng.choice(model.states), assignment, random_memory_mode(rng)


def random_scheme_params(
    rng: random.Random, scheme: str, model: ConcurrentGameModel
) -> dict:
    """Instantiation parameters drawn from the model's own alphabet."""
    agents = Coalition(model.agents)
    props = model.props_used()
    body = lambda: random_state_formula(rng, props, 1)
    if scheme == "triv":
        return {}
    if scheme in ("safe", "agt_maximality"):
        params = {"agents": agents}
        if scheme == "agt_maximality":
            params["body"] = body()
        return params
    if scheme == "merge":
        groups = _random_disjoint_groups(rng, model.agents)
        return {
            "entries": [
                (group, random_goal(rng, props)) for group in groups
            ]
        }
    if scheme == "grand_coalition":
        gamma = random_assignment(rng, model.agents, props, 2)
        gamma = gamma.update(agents, Next(body()))
        return {"assignment": gamma, "agents": agents, "psi": body()}
    if scheme == "case":
        coalition = random_coalition(rng, model.agents)
        gamma = random_assignment(rng, model.agents, props, 2)
        gamma = gamma.update(coalition, Next(body()))
        return {
            "assignment": gamma,
            "coalition": coalition,
            "agents": agents,
            "psi": body(),
        }
    if scheme == "con":
        coalition = random_coalition(rng, model.agents)
        sub = Coalition(
            rng.sample(sorted(coalition), rng.randint(1, len(coalition)))
        )
        gamma = random_assignment(rng, model.agents, props, 2)
        gamma = gamma.update(coalition, Next(body())).update(sub, Next(body()))
        return {"assignment": gamma, "coalition": coalition, "sub": sub}
    if scheme == "fix":
        return {
            "assignment": random_assignment(rng, model.agents, props, 2)
        }
    if scheme == "fp_g":
        return {"coalition": random_coalition(rng, model.agents), "chi": body()}
    if scheme == "fp_u":
        return {
            "coalition": random_coalition(rng, model.agents),
            "alpha": body(),
            "beta": body(),
        }
    if scheme == "superadditivity":
        first, second = _random_disjoint_pair(rng, model.agents)
        return {
            "first": first,
            "first_body": body(),
            "second": second,
            "second_body": body(),
        }
    if scheme == "merge_prime":
        return {
            "assignments": {
                agent: random_assignment(rng, model.agents, props, 2)
                for agent in model.agents
            },
            "agents": agents,
        }
    raise ValueError("unknown scheme %r" % scheme)


def _random_disjoint_groups(rng: random.Random, agents) -> list[Coalition]:
    pool = list(agents)
    rng.shuffle(pool)
    kept = pool[: rng.randint(1, len(pool))]
    group_count = rng.randint(1, len(kept))
    groups: list[list[str]] = [[] for _ in range(group_count)]
    for position, agent in enumerate(kept):
        groups[position % group_count].append(agent)
    return [Coalition(group) for group in groups if group]


def _random_disjoint_pair(
    rng: random.Random, agents
) -> tuple[Coalition, Coalition]:
    pool = list(agents)
    rng.shuffle(pool)
    cut = rng.randint(1, len(pool) - 1)
    return Coalition(pool[:cut]), Coalition(pool[cut:])


SCHEME_MIN_AGENTS = {"superadditivity": 2}


class SchemeCounterexample:
    """A model falsifying a scheme instance, found by random search."""

    def __init__(self, scheme, sample_index, model, instance):
        self.scheme = scheme
        self.sample_index = sample_index
        self.model = model
        self.instance = instance

    def __str__(self):
        return "scheme %s fails on sample %d: %s" % (
            self.scheme,
            self.sample_index,
            self.instance,
        )


def random_onestep_instance(rng: random.Random):
    """A small one-step sequent plus a compatible constraint family.

    Stays inside |agents| <= 2, |variables| <= 3 and at most three
    one-step formulas so exhaustive cross-checks remain affordable.
    """
    from .onestep import SatConstraint, sequent_from_formulas
    from .parser import parse_state_formula

    agents = _AGENT_POOL[: rng.randint(1, 2)]
    variables = _PROP_POOL[: rng.randint(1, 3)]
    members = []
    for _ in range(rng.randint(1, 3)):
        coalition = ",".join(
            sorted(rng.sample(agents, rng.randint(1, len(agents))))
        )
        variable = rng.choice(variables)
        if rng.random() < 0.6:
            text = "<< {%s} -> X %s >>" % (coalition, variable)
        else:
            text = "!<< {%s} -> X !%s >>" % (coalition, variable)
        members.append(parse_state_formula(text))
    family = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(0, len(variables))
        family.append(frozenset(rng.sample(variables, size)))
    sequent = sequent_from_formulas(
        members, agents=agents, variables=variables
    )
    return sequent, SatConstraint.over(variables, family)


def falsify_scheme(
    scheme: str,
    samples: int,
    seed: int = DEFAULT_SEED,
    max_states: int = 4,
) -> Optional[SchemeCounterexample]:
    """Hunt for a model where a scheme instance fails; None means none
    found over the whole sample budget."""
    rng = make_rng(seed)
    minimum = SCHEME_MIN_AGENTS.get(scheme, 1)
    for index in range(samples):
        model = random_model(
            rng, max_states=max_states, min_agents=minimum
        )
        params = random_scheme_params(rng, scheme, model)
        instance = axiom_instance(scheme, **params)
        if not valid_on(model, instance):
            return SchemeCounterexample(scheme, index, model, instance)
    return None
