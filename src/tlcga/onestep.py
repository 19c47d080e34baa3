"""One-step coalition satisfiability over a variable constraint family.

A one-step sequent collects positive claims (a goal assignment whose
goals all have the form X p) and negative claims (all goals X !p). The
sequent is satisfiable relative to a family of allowed variable sets S
when some finite game form realizes every positive claim, blocks every
negative one, keeps every outcome inside some member of S, and reaches
below every member of S. The decision procedure reduces this to two
combinatorial conditions over redistributions: ways of handing each of
a few pairwise disjoint coalitions one positive assignment to act on.
One blocking rule (`_blocker`) answers, per redistribution and negative
claim, which coalition the others can block and under which member. One
walk over the redistributions (`_walk`) applies it and the covering
rule; the verdict, the certificate and the witness game form all read
that walk.

Coalitions in sequent supports must be non-empty: an empty coalition
would force its variable into every outcome, which the redistribution
conditions cannot see. An empty constraint family rejects every
sequent, since even the empty redistribution needs a covering member.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from . import models
from .formulas import (
    And,
    Coalition,
    GoalAssignment,
    Next,
    Not,
    Or,
    Prop,
    StateFormula,
    Strategic,
)


class OneStepShapeError(ValueError):
    """Raised when input is not in the one-step fragment."""


def _goal_variable(goal, negative: bool) -> str:
    if negative:
        if (
            isinstance(goal, Next)
            and isinstance(goal.body, Not)
            and isinstance(goal.body.body, Prop)
        ):
            return goal.body.body.name
        raise OneStepShapeError(
            "negative one-step goals must look like X !p, got %s" % goal
        )
    if isinstance(goal, Next) and isinstance(goal.body, Prop):
        return goal.body.name
    raise OneStepShapeError(
        "positive one-step goals must look like X p, got %s" % goal
    )


def _check_assignment(assignment: GoalAssignment, negative: bool) -> set[str]:
    used = set()
    for coalition, goal in assignment:
        if not coalition:
            raise OneStepShapeError(
                "one-step goal assignments need non-empty coalitions"
            )
        used.add(_goal_variable(goal, negative))
    return used


def _reject_repeats(names: tuple[str, ...], field: str) -> None:
    if len(set(names)) != len(names):
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise ValueError("repeated names in %s: %s" % (field, ", ".join(repeated)))


@dataclass(frozen=True)
class OneStepSequent:
    """Positive and negative one-step claims over a shared vocabulary."""

    agents: tuple[str, ...]
    variables: tuple[str, ...]
    positives: tuple[GoalAssignment, ...]
    negatives: tuple[GoalAssignment, ...]

    def __post_init__(self) -> None:
        _reject_repeats(self.agents, "the sequent's agents")
        _reject_repeats(self.variables, "the sequent's variables")
        mentioned: set[str] = set()
        for assignment in self.positives:
            mentioned |= _check_assignment(assignment, negative=False)
        for assignment in self.negatives:
            mentioned |= _check_assignment(assignment, negative=True)
        if not self.agents:
            raise ValueError("a one-step sequent needs at least one agent")
        stray = mentioned - set(self.variables)
        if stray:
            raise ValueError(
                "goals mention undeclared variables: %s"
                % ", ".join(sorted(stray))
            )
        agents = set(self.agents)
        for assignment in self.positives + self.negatives:
            for coalition, _ in assignment:
                if not coalition <= agents:
                    raise ValueError(
                        "coalition %s is not part of the agent set" % coalition
                    )


def sequent_from_formulas(
    formulas: Iterable[StateFormula],
    agents: Optional[Iterable[str]] = None,
    variables: Optional[Iterable[str]] = None,
) -> OneStepSequent:
    """Read a sequent off formulas of the shapes <<..>> and !<<..>>.

    The agent and variable universes default to exactly the names
    mentioned; pass them explicitly when the surrounding context is
    larger, since both universes affect satisfiability.
    """
    positives: list[GoalAssignment] = []
    negatives: list[GoalAssignment] = []
    for phi in formulas:
        if isinstance(phi, Strategic):
            positives.append(phi.assignment)
        elif isinstance(phi, Not) and isinstance(phi.body, Strategic):
            negatives.append(phi.body.assignment)
        else:
            raise OneStepShapeError(
                "sequent members must be <<..>> or !<<..>>, got %s" % phi
            )
    mentioned_agents: set[str] = set()
    mentioned_vars: set[str] = set()
    for assignment, negative in [(a, False) for a in positives] + [
        (a, True) for a in negatives
    ]:
        for coalition, goal in assignment:
            mentioned_agents |= coalition
            mentioned_vars.add(_goal_variable(goal, negative))
    return OneStepSequent(
        agents=tuple(sorted(agents)) if agents else tuple(sorted(mentioned_agents)),
        variables=tuple(sorted(variables))
        if variables
        else tuple(sorted(mentioned_vars)),
        positives=tuple(dict.fromkeys(positives)),
        negatives=tuple(dict.fromkeys(negatives)),
    )


@dataclass(frozen=True)
class SatConstraint:
    """The family of allowed outcome variable sets."""

    variables: tuple[str, ...]
    family: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        _reject_repeats(self.variables, "the constraint's variables")
        declared = set(self.variables)
        for member in self.family:
            if not member <= declared:
                raise ValueError(
                    "constraint member {%s} leaves the declared variables"
                    % ",".join(sorted(member))
                )

    @staticmethod
    def over(
        variables: Iterable[str], family: Iterable[Iterable[str]]
    ) -> "SatConstraint":
        members = tuple(
            dict.fromkeys(frozenset(member) for member in family)
        )
        return SatConstraint(tuple(sorted(variables)), members)

    def covering(self, needed: frozenset[str]) -> Optional[frozenset[str]]:
        for member in self.family:
            if needed <= member:
                return member
        return None


@dataclass(frozen=True)
class Redistribution:
    """Pairwise disjoint coalitions, each backing one positive claim.

    Pairs hold indices into the sequent's positive list and are kept in
    canonical coalition order.
    """

    pairs: tuple[tuple[Coalition, int], ...]

    @staticmethod
    def of(pairs: Iterable[tuple[Iterable[str], int]]) -> "Redistribution":
        """The redistribution of the non-empty pairs, in canonical order."""
        kept = [(Coalition(members), index) for members, index in pairs if members]
        kept.sort(key=lambda pair: (len(pair[0]), pair[0].sorted_members()))
        return Redistribution(tuple(kept))

    def restricted(self, coalition: Coalition) -> "Redistribution":
        """Each backing coalition cut down to its members in `coalition`."""
        return Redistribution.of(
            (backer & coalition, index) for backer, index in self.pairs
        )

    def resolve(
        self, sequent: OneStepSequent
    ) -> tuple[tuple[Coalition, GoalAssignment], ...]:
        return tuple(
            (coalition, sequent.positives[index])
            for coalition, index in self.pairs
        )


def redistributions(sequent: OneStepSequent) -> list[Redistribution]:
    """Every redistribution, enumerated canonically and duplicate-free.

    Represented as maps from coalitions to a positive claim or a pass
    marker, in the order of listing every map with the pass marker first
    and the first coalition varying slowest. A depth-first walk backs one
    more coalition per level, never one overlapping a coalition already
    backed, so it builds no overlapping map.
    """
    subsets = [
        Coalition(members)
        for size in range(len(sequent.agents) + 1)
        for members in itertools.combinations(sequent.agents, size)
    ]
    found = []

    def walk(start: int, pairs: tuple, backed: frozenset) -> None:
        found.append(Redistribution(pairs))
        # Passing sorts first, so maps backing their next coalition later come first.
        for position in reversed(range(start, len(subsets))):
            coalition = subsets[position]
            if coalition & backed:
                continue
            for index in range(len(sequent.positives)):
                pair = ((coalition, index),)
                walk(position + 1, pairs + pair, backed | coalition)

    walk(0, (), frozenset())
    return found


def forced(sequent: OneStepSequent, redistribution: Redistribution) -> frozenset[str]:
    """Variables some backed coalition is strong enough to guarantee."""
    result = set()
    for coalition, index in redistribution.pairs:
        for supported, goal in sequent.positives[index]:
            if supported <= coalition:
                result.add(_goal_variable(goal, negative=False))
    return frozenset(result)


def forced_against(
    sequent: OneStepSequent,
    redistribution: Redistribution,
    negative: GoalAssignment,
    blocked: Coalition,
) -> frozenset[str]:
    """Variables unavoidable when the rest block the coalition's X !q.

    Collects what the backed coalitions still force using only members
    inside the blocked coalition, plus the blocked variable itself.
    """
    goal = dict(iter(negative)).get(blocked)
    if goal is None:
        raise ValueError(
            "coalition %s carries no goal in the negative assignment" % blocked
        )
    return forced(sequent, redistribution.restricted(blocked)) | {
        _goal_variable(goal, negative=True)
    }


_Needs = tuple[tuple[Optional[Coalition], frozenset[str]], ...]


def _blocker(
    sequent: OneStepSequent,
    constraint: SatConstraint,
    redistribution: Redistribution,
    negative: GoalAssignment,
) -> tuple[Optional[Coalition], Optional[frozenset[str]], _Needs]:
    """The first coalition of the negative claim the rest can block.

    Returns it with its covering member, which is None for the grand
    coalition: that one is blocked when its variable is in every member.
    When no coalition can be blocked, returns None and the needs that no
    member covers, in claim order.
    """
    grand = Coalition(sequent.agents)
    needs = []
    for blocked, goal in negative:
        if blocked == grand:
            variable = _goal_variable(goal, negative=True)
            if all(variable in member for member in constraint.family):
                return blocked, None, ()
            needs.append((None, frozenset({variable})))
            continue
        needed = forced_against(sequent, redistribution, negative, blocked)
        member = constraint.covering(needed)
        if member is not None:
            return blocked, member, ()
        needs.append((blocked, needed))
    return None, None, tuple(needs)


@dataclass(frozen=True)
class SatCertificate:
    """Why a sequent fails: the redistribution nobody can cover.

    For a coverage failure (condition 1) required holds the single
    forced set. For a blocking failure (condition 2) negative names the
    offending claim and required lists, per candidate blocked
    coalition, the set that no constraint member covers; the grand
    coalition candidate appears when its variable misses some member.
    """

    pairs: tuple[tuple[Coalition, GoalAssignment], ...]
    negative: Optional[GoalAssignment]
    required: _Needs

    def __str__(self) -> str:
        backing = (
            "; ".join(
                "%s backs %s" % (coalition, assignment)
                for coalition, assignment in self.pairs
            )
            or "the empty redistribution"
        )
        needs = "; ".join(
            "%s needs {%s}"
            % (
                "every member" if coalition is None else "blocking %s" % coalition,
                ",".join(sorted(variables)),
            )
            for coalition, variables in self.required
        )
        if self.negative is None:
            return "no constraint member covers %s (%s)" % (backing, needs)
        return "cannot block %s under %s (%s)" % (
            self.negative,
            backing,
            needs,
        )


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    certificate: Optional[SatCertificate]

    def __bool__(self) -> bool:
        return self.satisfiable


def _require_same_universe(
    sequent: OneStepSequent, constraint: SatConstraint
) -> None:
    if set(sequent.variables) != set(constraint.variables):
        raise ValueError(
            "sequent variables {%s} differ from constraint variables {%s}"
            % (
                ",".join(sequent.variables),
                ",".join(constraint.variables),
            )
        )


_Blocks = tuple[tuple[Coalition, Optional[frozenset[str]]], ...]
_Plan = tuple[tuple[Redistribution, frozenset[str], _Blocks], ...]


def _walk(
    sequent: OneStepSequent, constraint: SatConstraint
) -> tuple[Optional[SatCertificate], _Plan]:
    """Check both conditions on every redistribution, in canonical order.

    Stops at the first failure and returns its certificate. Otherwise
    returns, per redistribution, its covering member (condition 1) and
    the blocked coalition and member `_blocker` gives each negative
    claim (condition 2): the verdict and the witness both read this.
    """
    _require_same_universe(sequent, constraint)
    plan = []
    for redistribution in redistributions(sequent):
        needed = forced(sequent, redistribution)
        default = constraint.covering(needed)
        if default is None:
            pairs = redistribution.resolve(sequent)
            return SatCertificate(pairs, None, ((None, needed),)), ()
        blocks = []
        for negative in sequent.negatives:
            blocked, member, needs = _blocker(
                sequent, constraint, redistribution, negative
            )
            if blocked is None:
                pairs = redistribution.resolve(sequent)
                return SatCertificate(pairs, negative, needs), ()
            blocks.append((blocked, member))
        plan.append((redistribution, default, tuple(blocks)))
    return None, tuple(plan)


def sequent_satisfiable(
    sequent: OneStepSequent, constraint: SatConstraint
) -> SatResult:
    """Decide satisfiability by the two redistribution conditions.

    Condition 1: every redistribution's forced set fits inside some
    constraint member. Condition 2: for every redistribution and every
    negative claim, some coalition of the claim can be blocked -- the
    grand coalition when its variable is in every member, any other
    when the combined forced set fits some member.
    """
    certificate, _ = _walk(sequent, constraint)
    return SatResult(certificate is None, certificate)


def _dnf(phi: StateFormula) -> list[list[StateFormula]]:
    if isinstance(phi, Or):
        return _dnf(phi.left) + _dnf(phi.right)
    if isinstance(phi, And):
        return [
            left + right
            for left in _dnf(phi.left)
            for right in _dnf(phi.right)
        ]
    if isinstance(phi, Strategic) or (
        isinstance(phi, Not) and isinstance(phi.body, Strategic)
    ):
        return [[phi]]
    raise OneStepShapeError(
        "one-step formulas allow only <<..>>, !<<..>>, & and |, got %s" % phi
    )


def formula_satisfiable(
    phi: StateFormula,
    constraint: SatConstraint,
    agents: Optional[Iterable[str]] = None,
) -> bool:
    """Satisfiability of an and/or combination of one-step claims.

    Expands to disjunctive normal form and accepts when any branch's
    sequent is satisfiable. The agent universe defaults to every agent
    the whole formula mentions, so all branches share it. This is the
    paper's one-step satisfiability, stated for one-step formulas rather
    than sequents; nothing in the package calls it.
    """
    branches = _dnf(phi)
    if agents is None:
        mentioned: set[str] = set()
        for branch in branches:
            for member in branch:
                assignment = (
                    member.assignment
                    if isinstance(member, Strategic)
                    else member.body.assignment
                )
                for coalition, _ in assignment:
                    mentioned |= coalition
        agents = sorted(mentioned)
    agents = tuple(agents)
    for branch in branches:
        sequent = sequent_from_formulas(
            branch, agents=agents, variables=constraint.variables
        )
        if sequent_satisfiable(sequent, constraint):
            return True
    return False


@dataclass(frozen=True)
class GameFormAction:
    """A vote: a positive claim to act on, a planner, and a bet.

    claim is an index into the sequent's positives or None for pass;
    planner indexes the game form's choice functions; bet feeds the
    modular vote that picks whose planner resolves the outcome.
    """

    claim: Optional[int]
    planner: int
    bet: int


@dataclass(frozen=True)
class OneStepGameForm:
    """An explicit game form whose outcomes are variable sets.

    Every agent shares the same action list. The outcome of a profile
    is computed from which coalitions formed behind which positive
    claim: the planner of the betting winner maps that formation to a
    constraint member.
    """

    agents: tuple[str, ...]
    actions: tuple[GameFormAction, ...]
    planners: tuple[Mapping[Redistribution, frozenset[str]], ...]

    def formation(self, profile: tuple[int, ...]) -> Redistribution:
        behind: dict[int, set[str]] = {}
        for agent, action_index in zip(self.agents, profile):
            claim = self.actions[action_index].claim
            if claim is not None:
                behind.setdefault(claim, set()).add(agent)
        return Redistribution.of(
            (members, claim) for claim, members in behind.items()
        )

    def outcome(self, profile: tuple[int, ...]) -> frozenset[str]:
        total = sum(self.actions[index].bet for index in profile)
        winner = profile[total % len(self.agents)]
        planner = self.planners[self.actions[winner].planner]
        return planner[self.formation(profile)]


def validate_game_form(
    form: OneStepGameForm,
    sequent: OneStepSequent,
    constraint: SatConstraint,
) -> list[str]:
    """Check the four satisfaction clauses directly, by enumeration.

    Returns human-readable violations; an empty list means the form
    witnesses satisfiability of the sequent under the constraint. The
    form must be over the sequent's agents, and of at most
    `models.MAX_TRANSITIONS` profiles (else `ResourceLimitError`).
    """
    if form.agents != sequent.agents:
        raise ValueError("the game form's agents are not the sequent's")
    count, budget = len(form.actions), models.MAX_TRANSITIONS
    if count ** len(form.agents) > budget:
        raise models.ResourceLimitError(
            "one-step witness would have more than %d profiles" % budget
        )
    profiles = itertools.product(range(count), repeat=len(form.agents))
    return _validate(sequent, constraint, count, list(map(form.outcome, profiles)))


def _validate(
    sequent: OneStepSequent,
    constraint: SatConstraint,
    action_count: int,
    outcomes: Sequence[frozenset[str]],
) -> list[str]:
    """The violated clauses, given one outcome per profile.

    `outcomes` follows `itertools.product(range(action_count),
    repeat=len(sequent.agents))`. A coalition's block at a profile holds
    the profiles that agree with it on the coalition's members. There the
    coalition forces p when p is in all the block's outcomes (their
    intersection), and cannot avoid q when q is in one (their union).
    Each coalition's merged blocks form a row aligned with the profiles,
    built on first use by grouping the profiles by their restriction.
    """
    agents = sequent.agents

    def profiles():
        return itertools.product(range(action_count), repeat=len(agents))

    @functools.cache
    def row(coalition: Coalition, merge) -> Sequence[frozenset[str]]:
        if len(coalition) == len(agents):  # every block is one profile
            return outcomes
        members = [i for i, agent in enumerate(agents) if agent in coalition]
        key = operator.itemgetter(*members)
        blocks: dict = {}
        for part, outcome in set(zip(map(key, profiles()), outcomes)):
            blocks.setdefault(part, []).append(outcome)
        merged = {part: merge(*block) for part, block in blocks.items()}
        return list(map(merged.get, map(key, profiles())))

    violations = []
    for number, positive in enumerate(sequent.positives):
        wanted = [
            (_goal_variable(goal, False), row(coalition, frozenset.intersection))
            for coalition, goal in positive
        ]
        if not any(
            all(variable in blocks[i] for variable, blocks in wanted)
            for i in range(len(outcomes))
        ):
            violations.append("no profile realizes positive %d %s" % (number, positive))
    for number, negative in enumerate(sequent.negatives):
        blocked = [
            (_goal_variable(goal, True), row(coalition, frozenset.union))
            for coalition, goal in negative
        ]
        for i, profile in enumerate(profiles()):
            if not any(variable in blocks[i] for variable, blocks in blocked):
                violations.append(
                    "profile %s defeats negative %d %s" % (profile, number, negative)
                )
                break
    reached = set(outcomes)
    escaping = {outcome for outcome in reached if constraint.covering(outcome) is None}
    for profile, outcome in zip(profiles(), outcomes):
        if outcome in escaping:
            violations.append(
                "outcome {%s} of profile %s escapes the constraint"
                % (",".join(sorted(outcome)), profile)
            )
    for member in constraint.family:
        if not any(outcome <= member for outcome in reached):
            violations.append(
                "no profile stays inside constraint member {%s}"
                % ",".join(sorted(member))
            )
    return violations


def witness_game_form(
    sequent: OneStepSequent, constraint: SatConstraint
) -> OneStepGameForm:
    """Build an explicit witness for a satisfiable sequent.

    Follows the voting construction: actions pick a positive claim (or
    pass), a planner mapping coalition formations to covering
    constraint members, and a bet deciding whose planner applies. The
    planner list holds one default plan plus one override per blocking
    scenario that the default does not already serve. The result always
    passes validate_game_form; unsatisfiable input is rejected.

    When there are no negative claims and the constraint family is a
    single member, one action per agent suffices: its outcome is that
    member, which covers everything any positive forces.
    """
    certificate, plan = _walk(sequent, constraint)
    if certificate is not None:
        raise ValueError(
            "sequent is not satisfiable under the constraint: %s" % certificate
        )
    default = {redistribution: member for redistribution, member, _ in plan}

    if not sequent.negatives and len(constraint.family) == 1:
        return OneStepGameForm(
            agents=sequent.agents,
            actions=(GameFormAction(claim=None, planner=0, bet=0),),
            planners=(default,),
        )

    planners: list[dict] = [default]
    overrides: set[tuple[Redistribution, frozenset[str]]] = set()

    def override(residue: Redistribution, member: frozenset[str]) -> None:
        if default[residue] != member and (residue, member) not in overrides:
            overrides.add((residue, member))
            table = dict(default)
            table[residue] = member
            planners.append(table)

    for member in constraint.family:
        override(Redistribution(()), member)
    for redistribution, _, blocks in plan:
        for blocked, member in blocks:
            if member is not None:
                override(redistribution.restricted(blocked), member)

    actions = tuple(
        GameFormAction(claim=claim, planner=planner, bet=bet)
        for claim in [None] + list(range(len(sequent.positives)))
        for planner in range(len(planners))
        for bet in range(len(sequent.agents))
    )
    return OneStepGameForm(
        agents=sequent.agents,
        actions=actions,
        planners=tuple(planners),
    )


def brute_force_satisfiable(
    sequent: OneStepSequent,
    constraint: SatConstraint,
    max_actions: int = 2,
) -> bool:
    """Search exhaustively for a game form within an action budget.

    Enumerates outcome tables over the downward closure of the
    constraint family and checks the four satisfaction clauses
    directly. Finding a witness proves satisfiability outright; finding
    none only rules out witnesses within the budget, so a negative
    answer is evidence, not proof, when the budget is small.
    """
    _require_same_universe(sequent, constraint)
    closure: list[frozenset[str]] = []
    seen = set()
    for member in constraint.family:
        names = sorted(member)
        for size in range(len(names) + 1):
            for subset in itertools.combinations(names, size):
                candidate = frozenset(subset)
                if candidate not in seen:
                    seen.add(candidate)
                    closure.append(candidate)
    if not closure:
        return False
    for action_count in range(1, max_actions + 1):
        profile_count = action_count ** len(sequent.agents)
        for table in itertools.product(closure, repeat=profile_count):
            if not _validate(sequent, constraint, action_count, table):
                return True
    return False
