"""Shared pytest wiring for the acceptance suite.

The acceptance tests record one verdict line apiece; this hook prints
them together at the end of the run so the pass/fail status of every
criterion is visible in one block.

`random_fixpoint_case` and `random_atl_query` draw the instances of the
sweeps in `test_sampling.py` and `test_acceptance.py`.

Hypothesis runs derandomized, so property tests draw the same examples
on every run, and without deadlines, so a slow machine does not fail
them.
"""

import random

from hypothesis import settings

from tlcga.formulas import Coalition, GoalAssignment, Globally, Next, PathFormula, Until
from tlcga.models import ConcurrentGameModel
from tlcga.sampling import (
    random_assignment,
    random_coalition,
    random_model,
    random_state_formula,
)

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

_ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_fixpoint_case(
    rng: random.Random,
) -> tuple[ConcurrentGameModel, GoalAssignment]:
    """A model of at most six states with an assignment of at most
    three coalitions, for unfolding/translation agreement sweeps."""
    model = random_model(rng, max_states=6)
    assignment = random_assignment(
        rng,
        model.agents,
        model.props_used(),
        max_coalitions=3,
        allow_conjunction=True,
        allow_empty_coalition=True,
    )
    return model, assignment


def random_atl_query(
    rng: random.Random, model: ConcurrentGameModel
) -> tuple[Coalition, PathFormula]:
    """A single-coalition, single-goal query over the model's alphabet."""
    coalition = random_coalition(rng, model.agents, allow_empty=True)
    props = model.props_used()
    body = lambda: random_state_formula(rng, props, 1)
    roll = rng.random()
    if roll < 1 / 3:
        goal: PathFormula = Next(body())
    elif roll < 2 / 3:
        goal = Until(body(), body())
    else:
        goal = Globally(body())
    return coalition, goal
