"""Abstract syntax for the coalitional goal-assignment logic.

State formulas, path formulas (coalition goals), coalitions, and goal
assignments, plus the structural operations the transformation and
model-checking layers build on. All values are immutable and hashable;
equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping


class Coalition(frozenset):
    """A set of agent names, displayed with members sorted."""

    __slots__ = ()

    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self))

    def __str__(self) -> str:
        return "{%s}" % ",".join(self.sorted_members())

    __repr__ = __str__


def coalition_key(coalition: Iterable[str]) -> tuple[str, ...]:
    """Canonical sort key used wherever coalitions are enumerated."""
    return tuple(sorted(coalition))


@dataclass(frozen=True)
class StateFormula:
    """Base class for state formulas."""

    def __str__(self) -> str:
        return format_state(self)

    def __invert__(self) -> "Not":
        return Not(self)

    def __and__(self, other: "StateFormula") -> "And":
        return And(self, other)

    def __or__(self, other: "StateFormula") -> "Or":
        return Or(self, other)


@dataclass(frozen=True)
class PathFormula:
    """Base class for coalition goals (path formulas)."""

    def __str__(self) -> str:
        return format_path(self)


@dataclass(frozen=True)
class Truth(StateFormula):
    pass


@dataclass(frozen=True)
class Falsity(StateFormula):
    pass


@dataclass(frozen=True)
class Prop(StateFormula):
    name: str


@dataclass(frozen=True)
class Var(StateFormula):
    """A fixpoint variable; distinguished from Prop by binding context."""

    name: str


@dataclass(frozen=True)
class Not(StateFormula):
    body: StateFormula


@dataclass(frozen=True)
class And(StateFormula):
    left: StateFormula
    right: StateFormula


@dataclass(frozen=True)
class Or(StateFormula):
    left: StateFormula
    right: StateFormula


@dataclass(frozen=True)
class Implies(StateFormula):
    """Sugar for !left | right; eliminated by desugar before evaluation."""

    left: StateFormula
    right: StateFormula


@dataclass(frozen=True)
class Strategic(StateFormula):
    """The coalitional strategic operator applied to a goal assignment.

    Holds at a state when some strategy profile simultaneously fulfils
    the goal of every coalition in the assignment's support.
    """

    assignment: "GoalAssignment"


@dataclass(frozen=True)
class Mu(StateFormula):
    """Least fixpoint binder."""

    var: str
    body: StateFormula


@dataclass(frozen=True)
class Nu(StateFormula):
    """Greatest fixpoint binder."""

    var: str
    body: StateFormula


@dataclass(frozen=True)
class Next(PathFormula):
    body: StateFormula


@dataclass(frozen=True)
class Until(PathFormula):
    left: StateFormula
    right: StateFormula


@dataclass(frozen=True)
class Globally(PathFormula):
    body: StateFormula


@dataclass(frozen=True)
class PathAnd(PathFormula):
    """Conjunction of goals, available in the extended dialect only."""

    left: PathFormula
    right: PathFormula


TRUE = Truth()
FALSE = Falsity()
TRIVIAL_GOAL = Next(TRUE)


def path_conjuncts(goal: PathFormula) -> tuple[PathFormula, ...]:
    """Flatten a goal into its X/U/G conjuncts, in order of appearance."""
    if isinstance(goal, PathAnd):
        return path_conjuncts(goal.left) + path_conjuncts(goal.right)
    return (goal,)


def make_path_and(conjuncts: Iterable[PathFormula]) -> PathFormula:
    """Combine goals into a left-nested conjunction.

    An empty input yields the trivial goal. Left nesting is the canonical
    shape: the concrete grammar has no path-level parentheses, so only
    left-nested conjunctions can be printed and re-parsed.
    """
    flat: list[PathFormula] = []
    for part in conjuncts:
        flat.extend(path_conjuncts(part))
    if not flat:
        return TRIVIAL_GOAL
    result = flat[0]
    for part in flat[1:]:
        result = PathAnd(result, part)
    return result


def normalize_goal(goal: PathFormula) -> PathFormula:
    """Rebuild a goal with its conjuncts left-nested, preserving order."""
    parts = path_conjuncts(goal)
    if len(parts) == 1:
        return parts[0]
    return make_path_and(parts)


class GoalAssignment:
    """A finite map from coalitions to goals.

    Entries mapping to the trivial goal X true are dropped at
    construction, so the stored key set always equals the support.
    Unlisted coalitions implicitly carry the trivial goal.
    """

    __slots__ = ("entries",)

    def __init__(
        self,
        entries: Mapping[Iterable[str], PathFormula]
        | Iterable[tuple[Iterable[str], PathFormula]] = (),
    ) -> None:
        if isinstance(entries, Mapping):
            pairs = list(entries.items())
        else:
            pairs = list(entries)
        table: dict[Coalition, PathFormula] = {}
        for members, goal in pairs:
            coalition = Coalition(members)
            goal = normalize_goal(goal)
            if coalition in table:
                raise ValueError("duplicate coalition %s" % (coalition,))
            if goal == TRIVIAL_GOAL:
                continue
            table[coalition] = goal
        object.__setattr__(
            self,
            "entries",
            tuple(sorted(table.items(), key=lambda kv: coalition_key(kv[0]))),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GoalAssignment is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GoalAssignment):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __iter__(self) -> Iterator[tuple[Coalition, PathFormula]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return format_goal_assignment(self)

    def __repr__(self) -> str:
        return "GoalAssignment(%r)" % (list(self.entries),)

    @property
    def is_trivial(self) -> bool:
        return not self.entries

    def support(self) -> tuple[Coalition, ...]:
        return tuple(coalition for coalition, _ in self.entries)

    def goal(self, coalition: Iterable[str]) -> PathFormula:
        wanted = Coalition(coalition)
        for key, goal in self.entries:
            if key == wanted:
                return goal
        return TRIVIAL_GOAL

    def goal_conjuncts(self, coalition: Iterable[str]) -> tuple[PathFormula, ...]:
        return path_conjuncts(self.goal(coalition))

    def update(self, coalition: Iterable[str], goal: PathFormula) -> "GoalAssignment":
        """The assignment that maps `coalition` to `goal`, all else unchanged.

        Updating with the trivial goal removes the coalition from the
        support.
        """
        wanted = Coalition(coalition)
        kept = [(key, value) for key, value in self.entries if key != wanted]
        kept.append((wanted, goal))
        return GoalAssignment(kept)

    def drop(self, coalition: Iterable[str]) -> "GoalAssignment":
        """Exclude a coalition from the support."""
        return self.update(coalition, TRIVIAL_GOAL)

    def drop_conjunct(self, coalition: Iterable[str], conjunct: PathFormula) -> "GoalAssignment":
        """Remove one conjunct of a coalition's goal, keeping the rest."""
        wanted = Coalition(coalition)
        remaining = [
            part for part in self.goal_conjuncts(wanted) if part != conjunct
        ]
        return self.update(wanted, make_path_and(remaining))

    def restrict(self, coalition: Iterable[str]) -> "GoalAssignment":
        """Keep only the entries whose coalition is a subset of `coalition`."""
        bound = Coalition(coalition)
        return GoalAssignment(
            (key, value) for key, value in self.entries if key <= bound
        )

    def grand_union(self) -> Coalition:
        """The union of all supported coalitions."""
        members: set[str] = set()
        for key, _ in self.entries:
            members |= key
        return Coalition(members)


EMPTY_ASSIGNMENT = GoalAssignment()


def strategic(assignment: GoalAssignment) -> StateFormula:
    """Apply the strategic operator, collapsing the trivial assignment.

    The operator applied to the empty assignment is identically true, so
    it is returned as the constant rather than as an operator node.
    """
    if assignment.is_trivial:
        return TRUE
    return Strategic(assignment)


class GoalAssignmentKind(Enum):
    """How the goals of an assignment mix the temporal connectives."""

    NEXTTIME = "nexttime"
    LONG_TERM_UNTIL = "long-term-until"
    LONG_TERM_GLOBALLY = "long-term-globally"
    MIXED = "mixed"


def classify(assignment: GoalAssignment) -> GoalAssignmentKind:
    """Classify an assignment by the temporal shape of its goals.

    Nexttime when every conjunct of every goal is an X-formula (the empty
    assignment counts), long-term when every conjunct is U or G, with the
    until flavour as soon as one U occurs, and mixed otherwise.
    """
    saw_next = False
    saw_until = False
    saw_globally = False
    for _, goal in assignment:
        for part in path_conjuncts(goal):
            if isinstance(part, Next):
                saw_next = True
            elif isinstance(part, Until):
                saw_until = True
            elif isinstance(part, Globally):
                saw_globally = True
    if not saw_until and not saw_globally:
        return GoalAssignmentKind.NEXTTIME
    if saw_next:
        return GoalAssignmentKind.MIXED
    if saw_until:
        return GoalAssignmentKind.LONG_TERM_UNTIL
    return GoalAssignmentKind.LONG_TERM_GLOBALLY


def split_long_term_and_next(
    assignment: GoalAssignment,
) -> tuple[GoalAssignment, GoalAssignment]:
    """Split each goal into its U/G conjuncts and its X conjuncts.

    Returns the long-term part and the nexttime part. A coalition whose
    goal has no conjunct of the requested shape is absent from that part.
    """
    long_entries: list[tuple[Coalition, PathFormula]] = []
    next_entries: list[tuple[Coalition, PathFormula]] = []
    for coalition, goal in assignment:
        long_parts = [
            part
            for part in path_conjuncts(goal)
            if isinstance(part, (Until, Globally))
        ]
        next_parts = [
            part for part in path_conjuncts(goal) if isinstance(part, Next)
        ]
        if long_parts:
            long_entries.append((coalition, make_path_and(long_parts)))
        if next_parts:
            next_entries.append((coalition, make_path_and(next_parts)))
    return GoalAssignment(long_entries), GoalAssignment(next_entries)


def desugar(phi: StateFormula) -> StateFormula:
    """Eliminate Implies and the false constant.

    Rewrites a -> b as !a | b and false as !true, recursing through
    goal assignments and fixpoint bodies. The result uses only the
    connectives the semantics is defined on.
    """
    if isinstance(phi, (Truth, Prop, Var)):
        return phi
    if isinstance(phi, Falsity):
        return Not(TRUE)
    if isinstance(phi, Not):
        return Not(desugar(phi.body))
    if isinstance(phi, And):
        return And(desugar(phi.left), desugar(phi.right))
    if isinstance(phi, Or):
        return Or(desugar(phi.left), desugar(phi.right))
    if isinstance(phi, Implies):
        return Or(Not(desugar(phi.left)), desugar(phi.right))
    if isinstance(phi, Strategic):
        return Strategic(
            GoalAssignment(
                (coalition, desugar_goal(goal))
                for coalition, goal in phi.assignment
            )
        )
    if isinstance(phi, Mu):
        return Mu(phi.var, desugar(phi.body))
    if isinstance(phi, Nu):
        return Nu(phi.var, desugar(phi.body))
    raise TypeError("not a state formula: %r" % (phi,))


def desugar_goal(goal: PathFormula) -> PathFormula:
    if isinstance(goal, Next):
        return Next(desugar(goal.body))
    if isinstance(goal, Until):
        return Until(desugar(goal.left), desugar(goal.right))
    if isinstance(goal, Globally):
        return Globally(desugar(goal.body))
    if isinstance(goal, PathAnd):
        return PathAnd(desugar_goal(goal.left), desugar_goal(goal.right))
    raise TypeError("not a path formula: %r" % (goal,))


def free_vars(phi: StateFormula) -> frozenset[str]:
    """Fixpoint variables occurring free in the formula."""
    if isinstance(phi, Var):
        return frozenset((phi.name,))
    if isinstance(phi, (Truth, Falsity, Prop)):
        return frozenset()
    if isinstance(phi, Not):
        return free_vars(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, Strategic):
        names: frozenset[str] = frozenset()
        for _, goal in phi.assignment:
            for part in path_conjuncts(goal):
                if isinstance(part, Next):
                    names |= free_vars(part.body)
                elif isinstance(part, Until):
                    names |= free_vars(part.left) | free_vars(part.right)
                elif isinstance(part, Globally):
                    names |= free_vars(part.body)
        return names
    if isinstance(phi, (Mu, Nu)):
        return free_vars(phi.body) - {phi.var}
    raise TypeError("not a state formula: %r" % (phi,))


def polarity_violations(phi: StateFormula) -> list[str]:
    """Bound fixpoint variables that occur under an odd number of negations.

    Negations are counted between a variable occurrence and its binder;
    the left side of an implication counts as one negation. Returns a
    list of messages, empty when every bound occurrence is positive.
    """
    messages: list[str] = []

    def walk(node: StateFormula, bound: dict[str, bool], negated: bool) -> None:
        if isinstance(node, Var):
            if node.name in bound and bound[node.name] != negated:
                messages.append(
                    "variable %s occurs under an odd number of negations"
                    % node.name
                )
            return
        if isinstance(node, (Truth, Falsity, Prop)):
            return
        if isinstance(node, Not):
            walk(node.body, bound, not negated)
            return
        if isinstance(node, (And, Or)):
            walk(node.left, bound, negated)
            walk(node.right, bound, negated)
            return
        if isinstance(node, Implies):
            walk(node.left, bound, not negated)
            walk(node.right, bound, negated)
            return
        if isinstance(node, Strategic):
            for _, goal in node.assignment:
                for part in path_conjuncts(goal):
                    if isinstance(part, Next):
                        walk(part.body, bound, negated)
                    elif isinstance(part, Until):
                        walk(part.left, bound, negated)
                        walk(part.right, bound, negated)
                    elif isinstance(part, Globally):
                        walk(part.body, bound, negated)
            return
        if isinstance(node, (Mu, Nu)):
            inner = dict(bound)
            inner[node.var] = negated
            walk(node.body, inner, negated)
            return
        raise TypeError("not a state formula: %r" % (node,))

    walk(phi, {}, False)
    return messages


def substitute(phi: StateFormula, name: str, replacement: StateFormula) -> StateFormula:
    """Replace free occurrences of a fixpoint variable.

    No capture avoidance is attempted; callers substitute closed formulas
    or use fresh variable names.
    """
    if isinstance(phi, Var):
        return replacement if phi.name == name else phi
    if isinstance(phi, (Truth, Falsity, Prop)):
        return phi
    if isinstance(phi, Not):
        return Not(substitute(phi.body, name, replacement))
    if isinstance(phi, And):
        return And(
            substitute(phi.left, name, replacement),
            substitute(phi.right, name, replacement),
        )
    if isinstance(phi, Or):
        return Or(
            substitute(phi.left, name, replacement),
            substitute(phi.right, name, replacement),
        )
    if isinstance(phi, Implies):
        return Implies(
            substitute(phi.left, name, replacement),
            substitute(phi.right, name, replacement),
        )
    if isinstance(phi, Strategic):
        def on_goal(goal: PathFormula) -> PathFormula:
            if isinstance(goal, Next):
                return Next(substitute(goal.body, name, replacement))
            if isinstance(goal, Until):
                return Until(
                    substitute(goal.left, name, replacement),
                    substitute(goal.right, name, replacement),
                )
            if isinstance(goal, Globally):
                return Globally(substitute(goal.body, name, replacement))
            return PathAnd(on_goal(goal.left), on_goal(goal.right))

        return Strategic(
            GoalAssignment(
                (coalition, on_goal(goal)) for coalition, goal in phi.assignment
            )
        )
    if isinstance(phi, (Mu, Nu)):
        if phi.var == name:
            return phi
        body = substitute(phi.body, name, replacement)
        return Mu(phi.var, body) if isinstance(phi, Mu) else Nu(phi.var, body)
    raise TypeError("not a state formula: %r" % (phi,))


_LEVEL_BINDER = 0
_LEVEL_IMPLIES = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_NOT = 4
_LEVEL_ATOM = 5


def format_state(phi: StateFormula) -> str:
    """Render a state formula in the concrete grammar with minimal parens."""
    return _format(phi, _LEVEL_BINDER, True)


def _format(phi: StateFormula, level: int, tail: bool) -> str:
    """Render `phi` as an operand at `level`.

    `tail` is true when nothing follows the operand inside the enclosing
    bracket, which is exactly when an unparenthesized binder cannot
    swallow trailing text.
    """
    if isinstance(phi, Truth):
        return "true"
    if isinstance(phi, Falsity):
        return "false"
    if isinstance(phi, (Prop, Var)):
        return phi.name
    if isinstance(phi, Strategic):
        return format_goal_assignment(phi.assignment)
    if isinstance(phi, Not):
        return "!" + _format(phi.body, _LEVEL_NOT, tail)
    if isinstance(phi, And):
        text = (
            _format(phi.left, _LEVEL_AND, False)
            + " & "
            + _format(phi.right, _LEVEL_AND + 1, tail)
        )
        return text if level <= _LEVEL_AND else "(" + text + ")"
    if isinstance(phi, Or):
        text = (
            _format(phi.left, _LEVEL_OR, False)
            + " | "
            + _format(phi.right, _LEVEL_OR + 1, tail)
        )
        return text if level <= _LEVEL_OR else "(" + text + ")"
    if isinstance(phi, Implies):
        text = (
            _format(phi.left, _LEVEL_IMPLIES + 1, False)
            + " -> "
            + _format(phi.right, _LEVEL_IMPLIES, tail)
        )
        return text if level <= _LEVEL_IMPLIES else "(" + text + ")"
    if isinstance(phi, (Mu, Nu)):
        keyword = "mu" if isinstance(phi, Mu) else "nu"
        text = "%s %s . %s" % (keyword, phi.var, _format(phi.body, _LEVEL_BINDER, True))
        return text if tail else "(" + text + ")"
    raise TypeError("not a state formula: %r" % (phi,))


def format_path(goal: PathFormula) -> str:
    """Render a goal in the concrete grammar."""
    if isinstance(goal, Next):
        return "X " + _format(goal.body, _LEVEL_BINDER, True)
    if isinstance(goal, Globally):
        return "G " + _format(goal.body, _LEVEL_BINDER, True)
    if isinstance(goal, Until):
        return "(%s U %s)" % (
            _format(goal.left, _LEVEL_BINDER, True),
            _format(goal.right, _LEVEL_BINDER, True),
        )
    if isinstance(goal, PathAnd):
        # Only left-nested conjunctions are renderable; the grammar has no
        # path-level parentheses.
        if isinstance(goal.right, PathAnd):
            raise ValueError(
                "cannot render a right-nested goal conjunction; "
                "normalize with make_path_and first"
            )
        return format_path(goal.left) + " && " + format_path(goal.right)
    raise TypeError("not a path formula: %r" % (goal,))


def format_goal_assignment(assignment: GoalAssignment) -> str:
    if assignment.is_trivial:
        return "<< >>"
    body = "; ".join(
        "%s -> %s" % (coalition, format_path(goal))
        for coalition, goal in assignment
    )
    return "<< %s >>" % body
