"""Solution-concept constructors over induced plays.

A strategy profile together with a goal assignment splits the supported
coalitions into winners and losers on the profile's induced play. Each
stability notion (equilibrium, strong and coalitional stability,
co-equilibrium, the cooperative core) is characterized by a derived
goal assignment or formula, reducing the notion to witness verification
or model checking.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .checking import Evaluator
from .formulas import (
    Coalition,
    GoalAssignment,
    Globally,
    Next,
    Not,
    PathFormula,
    StateFormula,
    TRUE,
    Until,
    make_path_and,
    path_conjuncts,
    strategic,
)
from .models import ConcurrentGameModel, Effectivity
from .strategies import FiniteStrategyProfile, _completed, find_witness, play_goals
from .transforms import conjoin, negate


class GoalNegationError(ValueError):
    """Raised when a derived goal falls outside the goal grammar.

    Path goals are closed under negation only for the nexttime and
    invariant shapes; negating an until (or a mixed conjunction) has no
    equivalent goal, so the requested constructor cannot be expressed.
    """


def negate_goal(goal: PathFormula) -> PathFormula:
    """The goal satisfied exactly when the given one fails.

    X b flips to X !b and G b becomes true U !b; an until conjunct has
    no expressible complement.
    """
    parts = path_conjuncts(goal)
    if len(parts) != 1:
        merged = merge_goals(parts)
        if isinstance(merged, (Next, Globally)):
            return negate_goal(merged)
        raise GoalNegationError(
            "cannot negate a mixed conjunction of goals: %s" % goal
        )
    single = parts[0]
    if isinstance(single, Next):
        return Next(negate(single.body))
    if isinstance(single, Globally):
        return Until(TRUE, negate(single.body))
    raise GoalNegationError("negating an until goal is inexpressible: %s" % goal)


def merge_goals(goals) -> PathFormula:
    """Conjoin goals, staying single-shaped when they are homogeneous.

    All-nexttime conjuncts merge into one X over the conjoined bodies
    and all-invariant conjuncts into one G, since both connectives
    distribute over conjunction; anything else stays an explicit goal
    conjunction.
    """
    parts = []
    for goal in goals:
        parts.extend(path_conjuncts(goal))
    if not parts:
        return make_path_and(())
    if all(isinstance(part, Next) for part in parts):
        return Next(conjoin(part.body for part in parts))
    if all(isinstance(part, Globally) for part in parts):
        return Globally(conjoin(part.body for part in parts))
    return make_path_and(parts)


@dataclass(frozen=True)
class OutcomePartition:
    """Who wins and who loses on the induced play.

    Only supported coalitions are classified; unsupported ones carry
    the trivial goal and appear in neither list. Likewise winners and
    losers split only the agents that carry their own singleton goal.
    """

    winning_coalitions: tuple[Coalition, ...]
    losing_coalitions: tuple[Coalition, ...]
    winners: frozenset[str]
    losers: frozenset[str]


def partition_outcomes(
    model: ConcurrentGameModel,
    state: str,
    profile: FiniteStrategyProfile,
    assignment: GoalAssignment,
) -> OutcomePartition:
    """Evaluate every supported goal on the profile's induced play."""
    if not model.has_state(state):
        raise ValueError("unknown state %s" % state)
    holds = play_goals(Evaluator(model), state, profile, assignment)
    winning = []
    losing = []
    for (coalition, _), won in zip(assignment, holds):
        if won:
            winning.append(coalition)
        else:
            losing.append(coalition)
    return OutcomePartition(
        winning_coalitions=tuple(winning),
        losing_coalitions=tuple(losing),
        winners=frozenset(
            next(iter(c)) for c in winning if len(c) == 1
        ),
        losers=frozenset(next(iter(c)) for c in losing if len(c) == 1),
    )


def individual_goals(assignment: GoalAssignment) -> dict[str, PathFormula]:
    """The agent-to-goal map of a singleton-supported assignment."""
    goals: dict[str, PathFormula] = {}
    for coalition, goal in assignment:
        if len(coalition) != 1:
            raise ValueError(
                "expected individual goals only, found one for %s" % coalition
            )
        goals[next(iter(coalition))] = goal
    return goals


def nash_ga(
    assignment: GoalAssignment,
    partition: OutcomePartition,
    agents,
) -> GoalAssignment:
    """The assignment witnessed exactly by equilibria with this outcome.

    The grand coalition pins the play to the partition: winners' goals
    hold and losers' goals fail. Each loser's complement additionally
    guarantees the loser stays blocked under any unilateral deviation.
    """
    goals = individual_goals(assignment)
    grand = Coalition(agents)
    pinned = [goals[a] for a in sorted(partition.winners)]
    pinned += [negate_goal(goals[a]) for a in sorted(partition.losers)]
    entries = [(grand, merge_goals(pinned))]
    for loser in sorted(partition.losers):
        entries.append(
            (Coalition(set(agents) - {loser}), negate_goal(goals[loser]))
        )
    return GoalAssignment(entries)


def strong_ga(
    assignment: GoalAssignment,
    partition: OutcomePartition,
    agents,
) -> GoalAssignment:
    """Stability against collective deviations of losing groups.

    The grand coalition secures all winners' goals; for every non-empty
    group of losers, its complement guarantees the group cannot make
    all its members win at once.
    """
    goals = individual_goals(assignment)
    grand = Coalition(agents)
    entries = [
        (grand, merge_goals(goals[a] for a in sorted(partition.winners)))
    ]
    losers = sorted(partition.losers)
    for size in range(1, len(losers) + 1):
        for group in combinations(losers, size):
            entries.append(
                (
                    Coalition(set(agents) - set(group)),
                    negate_goal(merge_goals(goals[a] for a in group)),
                )
            )
    return GoalAssignment(entries)


def coalitional_ga(
    assignment: GoalAssignment,
    partition: OutcomePartition,
    agents,
) -> GoalAssignment:
    """Stability against deviations of losing supported coalitions.

    The grand coalition secures every winning coalition's goal, and for
    each losing supported coalition its complement blocks that goal.
    Entries landing on the same coalition are conjoined.
    """
    goals = dict(assignment)
    grand = Coalition(agents)
    table: dict[Coalition, list[PathFormula]] = {}
    table.setdefault(grand, []).extend(
        goals[c] for c in partition.winning_coalitions
    )
    for losing in partition.losing_coalitions:
        rest = Coalition(set(agents) - set(losing))
        table.setdefault(rest, []).append(negate_goal(goals[losing]))
    return GoalAssignment(
        [(coalition, merge_goals(parts)) for coalition, parts in table.items()]
    )


def coequilibrium_ga(assignment: GoalAssignment, agents) -> GoalAssignment:
    """Restrict to the grand coalition and the singleton goals.

    A profile witnessing the restriction satisfies the social goal and
    protects every individual goal against all other agents deviating.
    """
    grand = Coalition(agents)
    return GoalAssignment(
        (coalition, goal)
        for coalition, goal in assignment
        if len(coalition) == 1 or coalition == grand
    )


def deviation_ga(
    assignment: GoalAssignment, coalition: Coalition
) -> GoalAssignment:
    """The goal a deviating coalition pursues: all members' own goals."""
    goals = individual_goals(assignment)
    members = sorted(coalition)
    missing = [a for a in members if a not in goals]
    if missing:
        raise ValueError(
            "no individual goal for deviating agents: %s" % ", ".join(missing)
        )
    return GoalAssignment(
        [(Coalition(coalition), merge_goals(goals[a] for a in members))]
    )


def core_membership_formula(
    assignment: GoalAssignment, losers
) -> StateFormula:
    """No individually losing group has a beneficial deviation.

    A profile whose loser set this is belongs to the cooperative core
    exactly when the formula holds at the initial state; an empty loser
    set gives the constant true.
    """
    names = sorted(losers)
    clauses = []
    for size in range(1, len(names) + 1):
        for group in combinations(names, size):
            clauses.append(
                Not(strategic(deviation_ga(assignment, Coalition(group))))
            )
    return conjoin(clauses)


def has_unilateral_improvement(
    model: ConcurrentGameModel,
    state: str,
    profile: FiniteStrategyProfile,
    assignment: GoalAssignment,
) -> Optional[str]:
    """Search for a loser who can deviate alone and win.

    The witness oracle, with no step budget, picks the deviator's choices
    on the original model while the other agents follow the profile.
    Nexttime goals are searched in any memory mode; other goals need a
    positional profile. Returns the first improving agent in canonical
    order, or None when the profile is an equilibrium.
    """
    goals = individual_goals(assignment)
    partition = partition_outcomes(model, state, profile, assignment)
    for agent in sorted(partition.losers):
        goal = goals[agent]
        if profile.mode.kind != "positional" and not all(
            isinstance(part, Next) for part in path_conjuncts(goal)
        ):
            raise ValueError(
                "long-term deviations are only enumerated for positional"
                " profiles, not %s" % profile.mode
            )
        # Read the others' entries a deviation can reach before searching,
        # so a faulty one raises whatever order the search would take.
        others = [other for other in model.agents if other != agent]
        fixed = {}
        if others:
            index = Effectivity(model)
            reach = _completed(index, state, profile.mode, profile.action, others).order
            fixed = {(o, m): profile.action(o, m) for m in reach for o in others}
        own = GoalAssignment([(Coalition(model.agents), goal)])
        search = find_witness(model, state, own, profile.mode, sys.maxsize, fixed)
        if search.witness is not None:
            return agent
    return None
