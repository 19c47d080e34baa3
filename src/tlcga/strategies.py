"""Finite-memory strategy profiles: search, verification, induced plays.

A strategy profile fixes, per agent, an action for every memory value it
can reach. Memory modes cover positional play, bounded suffixes of the
visited states, and bounded suffixes of the full play including the
action profiles taken. The search enumerates assignments lazily along
the memories its own choices make reachable, so reported absence is
exact for the whole memory class unless the step budget interrupts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .checking import Evaluator
from .formulas import (
    GoalAssignment,
    Globally,
    Next,
    PathFormula,
    StateFormula,
    Until,
    path_conjuncts,
)
from .models import ConcurrentGameModel, Effectivity, _expect, _names


class PartialStrategyError(ValueError):
    """A strategy table misses a reachable memory value."""


class InvalidWitnessError(ValueError):
    """A strategy table prescribes an unavailable action."""


@dataclass(frozen=True)
class MemoryMode:
    """How much of the history an agent's choices may depend on.

    kind "path" keeps the last `depth` visited states, kind "play" keeps
    them together with the action profiles taken in between, and
    "positional" is path with depth one.
    """

    kind: str
    depth: int

    def __post_init__(self) -> None:
        if self.kind not in ("positional", "path", "play"):
            raise ValueError("unknown memory kind %r" % self.kind)
        if self.kind == "positional" and self.depth != 1:
            raise ValueError("positional memory has depth 1")
        if self.depth < 1:
            raise ValueError("memory depth must be at least 1")

    def __str__(self) -> str:
        if self.kind == "positional":
            return "positional"
        return "%s:%d" % (self.kind, self.depth)


POSITIONAL = MemoryMode("positional", 1)


def parse_memory_mode(text: str) -> MemoryMode:
    if text == "positional":
        return POSITIONAL
    for kind in ("path", "play"):
        prefix = kind + ":"
        if text.startswith(prefix):
            try:
                depth = int(text[len(prefix):])
            except ValueError:
                raise ValueError("bad memory depth in %r" % text) from None
            return MemoryMode(kind, depth)
    raise ValueError(
        "memory mode must be positional, path:K, or play:K, got %r" % text
    )


def initial_memory(state: str) -> tuple:
    return (state,)


def update_memory(
    mode: MemoryMode, memory: tuple, profile: tuple[str, ...], target: str
) -> tuple:
    if mode.kind == "play":
        extended = memory + (profile, target)
        while (len(extended) + 1) // 2 > mode.depth:
            extended = extended[2:]
        return extended
    extended = memory + (target,)
    return extended[-mode.depth:]


def memory_state(memory: tuple) -> str:
    return memory[-1]


def render_memory(memory: tuple) -> str:
    """Human-readable memory: states bare, profiles in brackets."""
    parts = [
        "[%s]" % ",".join(item) if isinstance(item, tuple) else item
        for item in memory
    ]
    return " ".join(parts)


def memory_sort_key(memory: tuple):
    return (
        len(memory),
        tuple("\x00".join(item) if isinstance(item, tuple) else item for item in memory),
    )


@dataclass(frozen=True)
class FiniteStrategyProfile:
    """Explicit per-agent action tables over memory values."""

    mode: MemoryMode
    tables: Mapping[str, Mapping[tuple, str]]

    def action(self, agent: str, memory: tuple) -> str:
        table = self.tables.get(agent)
        if table is None or memory not in table:
            raise PartialStrategyError(
                "agent %s has no action for memory %s"
                % (agent, render_memory(memory))
            )
        return table[memory]

    def to_json_dict(self) -> dict:
        return {
            "mode": str(self.mode),
            "tables": {
                agent: [
                    {"memory": list(memory), "action": action}
                    for memory, action in sorted(
                        table.items(), key=lambda kv: memory_sort_key(kv[0])
                    )
                ]
                for agent, table in sorted(self.tables.items())
            },
        }

    def render(self) -> str:
        lines = []
        for agent, table in sorted(self.tables.items()):
            lines.append("agent %s:" % agent)
            for memory, action in sorted(
                table.items(), key=lambda kv: memory_sort_key(kv[0])
            ):
                lines.append("  %s -> %s" % (render_memory(memory), action))
        return "\n".join(lines)


def parse_rendered_memory(text: str) -> tuple:
    """Invert render_memory: bare tokens are states, bracketed profiles."""
    parts: list = []
    for token in text.split():
        if token.startswith("[") and token.endswith("]"):
            parts.append(tuple(token[1:-1].split(",")))
        else:
            parts.append(token)
    return tuple(parts)


def _memory_from_json(value, agent: str) -> tuple:
    """Read a memory as `to_json_dict` writes it.

    That is a list of states (strings) and profiles (lists of action
    strings). A string is read as `render_memory` writes it, the form
    of documents written before memories were lists.
    """
    if isinstance(value, str):
        return parse_rendered_memory(value)
    what = "memory of agent %s" % agent
    return tuple(
        item if isinstance(item, str) else tuple(_names(item, "profile in " + what))
        for item in _expect(value, list, what)
    )


def profile_from_json_dict(data) -> FiniteStrategyProfile:
    try:
        mode = parse_memory_mode(_expect(data["mode"], str, "mode of the profile"))
        tables = {
            agent: {
                _memory_from_json(entry["memory"], agent): entry["action"]
                for entry in entries
            }
            for agent, entries in _expect(
                data["tables"], dict, "tables of the profile"
            ).items()
        }
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed strategy profile: %s" % exc) from None
    return FiniteStrategyProfile(mode, tables)


def _goal_extensions(
    evaluator: Evaluator, assignment: GoalAssignment
) -> dict[StateFormula, frozenset[str]]:
    """The extensions of the goals' state subformulas."""
    extensions: dict[StateFormula, frozenset[str]] = {}

    def record(phi: StateFormula) -> None:
        if phi not in extensions:
            extensions[phi] = evaluator.extension_of(phi)

    for _, goal in assignment:
        for part in path_conjuncts(goal):
            if isinstance(part, Next):
                record(part.body)
            elif isinstance(part, Until):
                record(part.left)
                record(part.right)
            elif isinstance(part, Globally):
                record(part.body)
    return extensions


class _Closure:
    """The memories one coalition reaches when its members follow a lookup.

    A breadth-first search from the root memory, kept between calls:
    `order` holds the reached memories in first-seen order and `seen` the
    same as a set, `edges` maps each expanded memory to its ordered
    targets, and `order[head:]` waits to be expanded. `grow` resumes the
    search where it stopped (a new closure is empty, and its first `grow`
    reaches the root) and `undo` returns it to an earlier `mark`.
    While the lookup only gains entries, a memory once reached stays
    reached and its edges never change, so a resumed search visits the
    same memories in the same order as one from scratch.
    """

    def __init__(
        self,
        index: Effectivity,
        start: str,
        mode: MemoryMode,
        coalition: Iterable[str],
    ) -> None:
        self.index = index
        self.mode = mode
        self.members = sorted(coalition)
        self.positions: Optional[tuple[int, ...]] = None
        self.root = initial_memory(start)
        self.order: list[tuple] = []
        self.seen: set[tuple] = set()
        self.edges: dict[tuple, list[tuple]] = {}
        self.head = 0

    @property
    def complete(self) -> bool:
        return bool(self.order) and self.head == len(self.order)

    def mark(self) -> tuple[int, int]:
        return len(self.order), self.head

    def undo(self, mark: tuple[int, int]) -> None:
        reached, head = mark
        for memory in self.order[head:self.head]:
            del self.edges[memory]
        for memory in self.order[reached:]:
            self.seen.discard(memory)
        del self.order[reached:]
        self.head = head

    def grow(
        self, lookup: Callable[[str, tuple], Optional[str]]
    ) -> Optional[tuple[str, tuple]]:
        """Expand memories until the closure is complete (None) or a
        member has no action yet: the (agent, memory) entry it stopped
        at. Raises whatever `lookup` raises.
        """
        model = self.index.model
        order, seen, edges = self.order, self.seen, self.edges
        if not order:
            order.append(self.root)
            seen.add(self.root)
        while self.head < len(order):
            memory = order[self.head]
            state = memory_state(memory)
            joint = []
            for agent in self.members:
                action = lookup(agent, memory)
                if action is None:
                    return agent, memory
                if action not in model.actions_of(state, agent):
                    raise InvalidWitnessError(
                        "action %s of agent %s unavailable at %s"
                        % (action, agent, state)
                    )
                joint.append(action)
            if self.positions is None:
                # Only now is every member known to be an agent of the model.
                self.positions = self.index.positions(self.members)
            of_profile, _, of_restriction = self.index.blocks(state, self.positions)
            block = of_restriction[tuple(joint)]
            targets = []
            for profile, in_block, target in zip(
                model.profiles(state), of_profile, model.row(state)
            ):
                if in_block != block:
                    continue
                target = update_memory(self.mode, memory, profile, target)
                targets.append(target)
                if target not in seen:
                    seen.add(target)
                    order.append(target)
            edges[memory] = targets
            self.head += 1
        return None


def _goal_failures(
    goal: PathFormula,
    closure: _Closure,
    extensions: Mapping[StateFormula, frozenset[str]],
    since: tuple[int, int] = (0, 0),
) -> Iterator[tuple[PathFormula, tuple]]:
    """The goal's conjuncts that the closure breaks for every completion,
    judged on what it gained since the mark `since` (by default the whole
    closure), in order, each with the memory that breaks it.

    An `X` goal is judged once the root is expanded: the successor it
    fails toward. A `G` goal is judged on the memories reached since: the
    first one outside its body. A `U` goal is judged, at the root, once
    the closure is complete and was not complete at the mark. While the
    lookup only gains entries none of these verdicts changes, so the
    judgments since successive marks together give the whole closure's.
    """
    reached, head = since
    for part in path_conjuncts(goal):
        if isinstance(part, Until):
            if closure.complete and not 0 < reached == head:
                left_set = extensions[part.left]
                right_set = extensions[part.right]
                satisfied: set[tuple] = set()
                changed = True
                while changed:
                    changed = False
                    # Newest first: a memory's targets are mostly
                    # reached after it, so a chain settles in one sweep.
                    for memory in reversed(closure.order):
                        if memory in satisfied:
                            continue
                        state = memory_state(memory)
                        if state in right_set or (
                            state in left_set
                            and all(t in satisfied for t in closure.edges[memory])
                        ):
                            satisfied.add(memory)
                            changed = True
                if closure.root not in satisfied:
                    yield part, closure.root
            continue
        if isinstance(part, Globally):
            memories = closure.order[reached:]
        elif isinstance(part, Next):
            memories = closure.edges[closure.root] if head == 0 < closure.head else []
        else:
            raise TypeError("not a path goal: %r" % (part,))
        target_set = extensions[part.body]
        for memory in memories:
            if memory_state(memory) not in target_set:
                yield part, memory
                break


def _describe_failure(part: PathFormula, memory: tuple) -> str:
    if isinstance(part, Next):
        return "one-step goal X %s fails toward %s" % (part.body, memory_state(memory))
    if isinstance(part, Globally):
        return "invariant goal G %s fails at %s" % (part.body, render_memory(memory))
    return "eventuality goal (%s U %s) fails" % (part.left, part.right)


def _completed(index, state, mode, lookup, coalition) -> _Closure:
    """The coalition's closure under a total lookup, grown to completion."""
    closure = _Closure(index, state, mode, coalition)
    missing = closure.grow(lookup)
    if missing is not None:
        # Only a table entry that is JSON null gets here.
        agent, memory = missing
        raise InvalidWitnessError(
            "action None of agent %s unavailable at %s"
            % (agent, memory_state(memory))
        )
    return closure


def verify_witness(
    model: ConcurrentGameModel,
    state: str,
    profile: FiniteStrategyProfile,
    assignment: GoalAssignment,
) -> tuple[bool, list[str]]:
    """Check a strategy profile against every supported coalition's goal.

    For each coalition the profile's actions are fixed on its members
    while everyone else ranges over all actions; the goal must hold on
    every play of that restricted system.
    """
    if not model.has_state(state):
        raise ValueError("unknown state %s" % state)
    evaluator = Evaluator(model)
    extensions = _goal_extensions(evaluator, assignment)
    index = evaluator.effectivity
    return _verify(index, state, profile.mode, profile.action, assignment, extensions)


def _verify(index, state, mode, lookup, assignment, extensions):
    failures: list[str] = []
    for coalition, goal in assignment:
        closure = _completed(index, state, mode, lookup, coalition)
        for part, memory in _goal_failures(goal, closure, extensions):
            failures.append(
                "coalition %s: %s" % (coalition, _describe_failure(part, memory))
            )
    return not failures, failures


def play_goals(
    evaluator: Evaluator,
    state: str,
    profile: FiniteStrategyProfile,
    assignment: GoalAssignment,
) -> tuple[bool, ...]:
    """Whether each goal, in assignment order, holds on the play the
    profile induces when every agent follows it.

    That play is the closure of the grand coalition: with every action
    fixed, each memory has exactly one successor.
    """
    extensions = _goal_extensions(evaluator, assignment)
    index = evaluator.effectivity
    closure = _completed(index, state, profile.mode, profile.action, index.model.agents)
    return tuple(
        next(_goal_failures(goal, closure, extensions), None) is None
        for _, goal in assignment
    )


@dataclass(frozen=True)
class WitnessSearchResult:
    witness: Optional[FiniteStrategyProfile]
    exact: bool
    explored: int

    @property
    def outcome(self) -> str:
        if self.witness is not None:
            return "witness"
        return "none (exact)" if self.exact else "none (bounded)"


def find_witness(
    model: ConcurrentGameModel,
    state: str,
    assignment: GoalAssignment,
    mode: MemoryMode,
    limit: int = 100000,
    fixed: Optional[Mapping[tuple[str, tuple], str]] = None,
) -> WitnessSearchResult:
    """Search the memory class for a verifying strategy profile.

    Decisions start from the `(agent, memory) -> action` entries of
    `fixed` and are made lazily at the first reachable memory that lacks
    one, in a fixed canonical order; actions are tried in their declared
    order, so the found witness is deterministic. Each coalition's
    closure grows with the decisions of the current branch and is undone
    on backtrack; the branch is kept on an explicit stack, so a search's
    depth is bounded only by `limit`. A branch is cut as soon as a
    closure breaks its goal for every completion (see `_goal_failures`);
    such a branch holds no witness, so the cuts do not change which
    witness is found.
    `explored` counts the search nodes entered, cut ones included. When
    the search space is exhausted without success the absence is exact
    for the whole class; when the step budget runs out first it is only
    bounded.
    """
    if not model.has_state(state):
        raise ValueError("unknown state %s" % state)
    evaluator = Evaluator(model)
    extensions = _goal_extensions(evaluator, assignment)
    index = evaluator.effectivity
    goals = [goal for _, goal in assignment]
    closures = [
        _Closure(index, state, mode, coalition) for coalition in assignment.support()
    ]
    agents_involved = sorted({a for c in closures for a in c.members})
    decisions: dict[tuple[str, tuple], str] = dict(fixed or {})

    def lookup(agent: str, memory: tuple) -> Optional[str]:
        action = decisions.get((agent, memory))
        if action is None:
            available = model.actions_of(memory_state(memory), agent)
            if len(available) == 1:
                return available[0]
        return action

    def assemble() -> FiniteStrategyProfile:
        tables: dict[str, dict[tuple, str]] = {a: {} for a in agents_involved}
        for closure in closures:
            for memory in closure.order:
                for agent in closure.members:
                    tables[agent].setdefault(memory, lookup(agent, memory))
        return FiniteStrategyProfile(mode, tables)

    def undo(marks: list[tuple[int, int]]) -> None:
        for closure, mark in zip(closures, marks):
            closure.undo(mark)

    # One frame per decision on the current branch: the entry decided,
    # the closures' marks from before the node that made the decision,
    # and the actions not yet tried there.
    stack: list[tuple[tuple[str, tuple], list[tuple[int, int]], Iterator[str]]] = []
    steps = 0
    while True:
        if steps >= limit:
            return WitnessSearchResult(None, False, steps)
        steps += 1
        marks = [closure.mark() for closure in closures]
        missing = None
        for closure, goal, mark in zip(closures, goals, marks):
            entry = closure.grow(lookup)
            if next(_goal_failures(goal, closure, extensions, mark), None):
                undo(marks)
                break
            if missing is None:
                missing = entry
        else:
            if missing is not None:
                agent, memory = missing
                actions = model.actions_of(memory_state(memory), agent)
                stack.append((missing, marks, iter(actions)))
            else:
                candidate = assemble()
                ok, _ = _verify(
                    index, state, mode, candidate.action, assignment, extensions
                )
                if ok:
                    return WitnessSearchResult(candidate, True, steps)
                undo(marks)
        # Resume the deepest decision that has an action left to try.
        while stack:
            missing, marks, untried = stack[-1]
            action = next(untried, None)
            if action is not None:
                decisions[missing] = action
                break
            decisions.pop(missing, None)
            stack.pop()
            undo(marks)
        else:
            return WitnessSearchResult(None, True, steps)


def atl_check(
    model: ConcurrentGameModel,
    coalition: Iterable[str],
    goal: PathFormula,
) -> frozenset[str]:
    """Classic coalition-logic extension of a single path goal.

    Uses the effectivity fixpoints directly, independent of the
    translation pipeline; conjunction goals are not supported here.
    Public API (`tlcga.atl_check`), and the independent reference the
    checker and the oracle are compared against.
    """
    evaluator = Evaluator(model)
    index = evaluator.effectivity
    positions = index.positions(coalition)

    def force(targets: frozenset[str]) -> frozenset[str]:
        """States where the coalition has a one-step action into `targets`."""
        return frozenset(
            state for state in model.states
            if any(outs <= targets for outs in index.blocks(state, positions).outcomes)
        )

    if isinstance(goal, Next):
        return force(evaluator.extension_of(goal.body))
    if isinstance(goal, Until):
        left = evaluator.extension_of(goal.left)
        right = evaluator.extension_of(goal.right)
        current: frozenset[str] = frozenset()
        while True:
            updated = right | (left & force(current))
            if updated == current:
                return current
            current = updated
    if isinstance(goal, Globally):
        body = evaluator.extension_of(goal.body)
        current = frozenset(model.states)
        while True:
            updated = body & force(current)
            if updated == current:
                return current
            current = updated
    raise ValueError("one path goal at a time; conjunctions are not supported")
