"""Abstract syntax for the coalitional goal-assignment logic.

State formulas, path formulas (coalition goals), coalitions, and goal
assignments, plus the structural operations the transformation and
model-checking layers build on. All values are immutable and hashable.

Formula DAGs share subterms (the fixpoint translation and the
characteristic formulas of bisimulation build them), so no operation
here walks a subtree more than once per node: each node computes its
structural hash and its free fixpoint variables once, in its
constructor, from its children's stored values. Equality is structural,
with identity and the stored hashes as fast paths: nodes whose hashes
differ are unequal without a walk.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
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


_NO_VARS: frozenset[str] = frozenset()
_EMPTY_HASH = hash(())


def _union(left: frozenset[str], right: frozenset[str]) -> frozenset[str]:
    """Union that returns an operand, not a copy, when it adds nothing."""
    if right <= left:
        return left
    if left <= right:
        return right
    return left | right


class _Node:
    """Behaviour shared by formula nodes.

    A node's fields are named in `__match_args__` and compared by
    `_same_fields`. `_hash` is the hash of the tuple of fields, which
    reads the children's stored hashes, and `free_vars` holds the
    fixpoint variables free in the node. Constructors write the slots
    through the `_set_*` descriptors below, since assignment raises.
    """

    __slots__ = ("_hash", "free_vars")
    __match_args__: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._same_fields(other)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __reduce__(self):
        return self.__class__, tuple(
            getattr(self, name) for name in self.__match_args__
        )

    def __repr__(self) -> str:
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join(
                "%s=%r" % (name, getattr(self, name))
                for name in self.__match_args__
            ),
        )


class _Leaf(_Node):
    __slots__ = ()

    def __init__(self) -> None:
        _set_hash(self, _EMPTY_HASH)
        _set_free(self, _NO_VARS)

    def _same_fields(self, other) -> bool:
        return True


class _Named(_Node):
    __slots__ = __match_args__ = ("name",)

    def _same_fields(self, other) -> bool:
        return self.name == other.name


class _Unary(_Node):
    __slots__ = __match_args__ = ("body",)

    def __init__(self, body: _Node) -> None:
        _set_body(self, body)
        _set_hash(self, hash((body,)))
        _set_free(self, body.free_vars)

    def _same_fields(self, other) -> bool:
        return self.body == other.body


class _Pair(_Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: _Node, right: _Node) -> None:
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((left, right)))
        _set_free(self, _union(left.free_vars, right.free_vars))

    def _same_fields(self, other) -> bool:
        return self.left == other.left and self.right == other.right


_set_hash = _Node._hash.__set__
_set_free = _Node.free_vars.__set__
_set_name = _Named.name.__set__
_set_body = _Unary.body.__set__
_set_left = _Pair.left.__set__
_set_right = _Pair.right.__set__


class StateFormula(_Node):
    """Base class for state formulas."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_state(self)

    def __invert__(self) -> "Not":
        return Not(self)

    def __and__(self, other: "StateFormula") -> "And":
        return And(self, other)

    def __or__(self, other: "StateFormula") -> "Or":
        return Or(self, other)


class PathFormula(_Node):
    """Base class for coalition goals (path formulas)."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_path(self)


class Truth(_Leaf, StateFormula):
    __slots__ = ()


class Falsity(_Leaf, StateFormula):
    __slots__ = ()


class Prop(_Named, StateFormula):
    __slots__ = ()

    def __init__(self, name: str) -> None:
        _set_name(self, name)
        _set_hash(self, hash((name,)))
        _set_free(self, _NO_VARS)


class Var(_Named, StateFormula):
    """A fixpoint variable; distinguished from Prop by binding context."""

    __slots__ = ()

    def __init__(self, name: str) -> None:
        _set_name(self, name)
        _set_hash(self, hash((name,)))
        _set_free(self, frozenset((name,)))


class Not(_Unary, StateFormula):
    __slots__ = ()


class And(_Pair, StateFormula):
    __slots__ = ()


class Or(_Pair, StateFormula):
    __slots__ = ()


class Implies(_Pair, StateFormula):
    """Sugar for !left | right; eliminated by desugar before evaluation."""

    __slots__ = ()


class Strategic(StateFormula):
    """The coalitional strategic operator applied to a goal assignment.

    Holds at a state when some strategy profile simultaneously fulfils
    the goal of every coalition in the assignment's support.
    """

    __slots__ = __match_args__ = ("assignment",)

    def __init__(self, assignment: "GoalAssignment") -> None:
        _set_assignment(self, assignment)
        _set_hash(self, hash((assignment,)))
        _set_free(self, assignment.free_vars)

    def _same_fields(self, other) -> bool:
        return self.assignment == other.assignment


class _Binder(_Unary, StateFormula):
    """A fixpoint binder: `var` is bound in `body`."""

    __slots__ = ("var",)
    __match_args__ = ("var", "body")

    def __init__(self, var: str, body: StateFormula) -> None:
        _set_var(self, var)
        _set_body(self, body)
        _set_hash(self, hash((var, body)))
        free = body.free_vars
        if var in free:
            free = free - {var} or _NO_VARS
        _set_free(self, free)

    def _same_fields(self, other) -> bool:
        return self.var == other.var and self.body == other.body


_set_assignment = Strategic.assignment.__set__
_set_var = _Binder.var.__set__


class Mu(_Binder):
    """Least fixpoint binder."""

    __slots__ = ()


class Nu(_Binder):
    """Greatest fixpoint binder."""

    __slots__ = ()


class Next(_Unary, PathFormula):
    __slots__ = ()


class Until(_Pair, PathFormula):
    __slots__ = ()


class Globally(_Unary, PathFormula):
    __slots__ = ()


class PathAnd(_Pair, PathFormula):
    """Conjunction of goals, available in the extended dialect only."""

    __slots__ = ()


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
    Unlisted coalitions implicitly carry the trivial goal. Like a formula
    node, an assignment stores its hash and free variables on
    construction.
    """

    __slots__ = ("entries", "_hash", "free_vars")

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
        entries = tuple(sorted(table.items(), key=lambda kv: coalition_key(kv[0])))
        free = _NO_VARS
        for _, goal in entries:
            free = _union(free, goal.free_vars)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash(entries))
        object.__setattr__(self, "free_vars", free)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GoalAssignment is immutable")

    def __reduce__(self):
        return GoalAssignment, (self.entries,)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GoalAssignment):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

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
