"""Formula transformations for the strategic operator.

The central constructions rewrite a goal assignment into statements
about the current state and the next state: the nexttime-extension, the
unfolding formula, and the induction formula, which together yield a
normal form and a translation into the fixpoint dialect where every
strategic operator carries nexttime goals only. Axiom-scheme
instantiation for the semantic falsification harness also lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    And,
    Coalition,
    Falsity,
    GoalAssignment,
    GoalAssignmentKind,
    Globally,
    Implies,
    Mu,
    Next,
    Not,
    Nu,
    Or,
    PathAnd,
    PathFormula,
    Prop,
    StateFormula,
    Strategic,
    TRUE,
    Truth,
    Until,
    Var,
    classify,
    coalition_key,
    make_path_and,
    path_conjuncts,
    split_long_term_and_next,
    strategic,
)

FRESH_VARIABLE_PREFIX = "_z"


def conjoin(parts: list[StateFormula]) -> StateFormula:
    """Left-fold conjunction with truth constants removed."""
    kept = [part for part in parts if not isinstance(part, Truth)]
    if not kept:
        return TRUE
    result = kept[0]
    for part in kept[1:]:
        result = And(result, part)
    return result


def disjoin(parts: list[StateFormula]) -> StateFormula:
    """Left-fold disjunction with falsity constants removed."""
    kept = [part for part in parts if not isinstance(part, Falsity)]
    if not kept:
        return Falsity()
    result = kept[0]
    for part in kept[1:]:
        result = Or(result, part)
    return result


def _dedupe(parts: list) -> list:
    seen = set()
    kept = []
    for part in parts:
        if part not in seen:
            seen.add(part)
            kept.append(part)
    return kept


def long_term_part(assignment: GoalAssignment) -> GoalAssignment:
    """The U/G conjuncts of each goal, as an assignment."""
    return split_long_term_and_next(assignment)[0]


def nexttime_extension(assignment: GoalAssignment) -> GoalAssignment:
    """Push a goal assignment one step into the future.

    The support becomes the set of unions of non-empty subfamilies of
    the original support. Each such union C is assigned
    X(conjunction of the bodies of X-goals of subcoalitions of C,
    conjoined with the strategic claim for the U/G goals restricted to
    C). Conjuncts reducing to truth are removed and entries reducing to
    the trivial goal are dropped.
    """
    support = assignment.support()
    unions: set[Coalition] = set()
    for index in range(1, 1 << len(support)):
        members: set[str] = set()
        for bit, coalition in enumerate(support):
            if index & (1 << bit):
                members |= coalition
        unions.add(Coalition(members))

    entries: list[tuple[Coalition, PathFormula]] = []
    for union in sorted(unions, key=coalition_key):
        next_bodies: list[StateFormula] = []
        for coalition, goal in assignment:
            if coalition <= union:
                for part in path_conjuncts(goal):
                    if isinstance(part, Next):
                        next_bodies.append(part.body)
        body = conjoin(
            _dedupe(next_bodies)
            + [strategic(long_term_part(assignment.restrict(union)))]
        )
        entries.append((union, Next(body)))
    return GoalAssignment(entries)


def nexttime_extension_to(
    assignment: GoalAssignment, target: StateFormula
) -> GoalAssignment:
    """The nexttime-extension with the grand-union entry replaced by X target."""
    if assignment.is_trivial:
        raise ValueError("assignment with empty support has no grand union")
    extended = nexttime_extension(assignment)
    return extended.update(assignment.grand_union(), Next(target))


@dataclass(frozen=True)
class UnfoldParts:
    """The pieces of an unfolding, kept for structural tests."""

    finish: tuple[StateFormula, ...]
    uholds: tuple[StateFormula, ...]
    gholds: tuple[StateFormula, ...]


def _unfold_parts(assignment: GoalAssignment) -> UnfoldParts:
    finish: list[StateFormula] = []
    uholds: list[StateFormula] = []
    gholds: list[StateFormula] = []
    for coalition, goal in assignment:
        for part in path_conjuncts(goal):
            if isinstance(part, Until):
                rest = strategic(assignment.drop_conjunct(coalition, part))
                finish.append(conjoin([part.right, rest]))
                uholds.append(part.left)
            elif isinstance(part, Globally):
                gholds.append(part.body)
    return UnfoldParts(
        tuple(_dedupe(finish)), tuple(_dedupe(uholds)), tuple(_dedupe(gholds))
    )


def _assemble(parts: UnfoldParts, claim: StateFormula) -> StateFormula:
    step = conjoin(list(parts.uholds) + list(parts.gholds) + [claim])
    return disjoin(list(parts.finish) + [step])


def unfold(assignment: GoalAssignment) -> tuple[StateFormula, UnfoldParts]:
    """The unfolding formula of a goal assignment, with its parts.

    The disjunction covers the ways a profile can fulfil the goals: some
    eventuality finishes right now (leaving the remaining goals), or all
    local obligations hold here and the nexttime-extension holds.
    """
    parts = _unfold_parts(assignment)
    return _assemble(parts, strategic(nexttime_extension(assignment))), parts


def induction_formula(
    assignment: GoalAssignment, target: StateFormula
) -> StateFormula:
    """Like the unfolding, but the grand union is handed X target instead.

    Only defined for long-term assignments; with the strategic claim of
    the assignment itself as the target this coincides structurally with
    the unfolding.
    """
    kind = classify(assignment)
    if kind not in (
        GoalAssignmentKind.LONG_TERM_UNTIL,
        GoalAssignmentKind.LONG_TERM_GLOBALLY,
    ):
        raise ValueError(
            "induction formula needs a long-term assignment, got %s" % kind.value
        )
    parts = _unfold_parts(assignment)
    return _assemble(
        parts, strategic(nexttime_extension_to(assignment, target))
    )


def normal_form(phi: StateFormula) -> StateFormula:
    """Rewrite until every strategic subformula is nexttime or long-term.

    Mixed goal assignments are replaced by their unfolding, bottom-up,
    repeating until none remain. Fixpoint binders are not accepted.
    """
    if isinstance(phi, (Truth, Falsity, Prop)):
        return phi
    if isinstance(phi, (Mu, Nu, Var)):
        raise ValueError("normal form is defined on binder-free formulas")
    if isinstance(phi, Not):
        return Not(normal_form(phi.body))
    if isinstance(phi, And):
        return And(normal_form(phi.left), normal_form(phi.right))
    if isinstance(phi, Or):
        return Or(normal_form(phi.left), normal_form(phi.right))
    if isinstance(phi, Implies):
        return Implies(normal_form(phi.left), normal_form(phi.right))
    if isinstance(phi, Strategic):
        rebuilt = GoalAssignment(
            (coalition, _normal_form_goal(goal))
            for coalition, goal in phi.assignment
        )
        if classify(rebuilt) != GoalAssignmentKind.MIXED:
            return strategic(rebuilt)
        unfolded, _ = unfold(rebuilt)
        return normal_form(unfolded)
    raise TypeError("not a state formula: %r" % (phi,))


def _normal_form_goal(goal: PathFormula) -> PathFormula:
    if isinstance(goal, Next):
        return Next(normal_form(goal.body))
    if isinstance(goal, Until):
        return Until(normal_form(goal.left), normal_form(goal.right))
    if isinstance(goal, Globally):
        return Globally(normal_form(goal.body))
    if isinstance(goal, PathAnd):
        return PathAnd(_normal_form_goal(goal.left), _normal_form_goal(goal.right))
    raise TypeError("not a path formula: %r" % (goal,))


class _Translator:
    """Translation into the fixpoint dialect with nexttime goals only."""

    def __init__(self) -> None:
        self.counter = 0
        self.memo: dict[StateFormula, StateFormula] = {}

    def fresh(self) -> str:
        name = "%s%d" % (FRESH_VARIABLE_PREFIX, self.counter)
        self.counter += 1
        return name

    def state(self, phi: StateFormula) -> StateFormula:
        if phi.free_vars:
            return self._state(phi)
        result = self.memo.get(phi)
        if result is None:
            result = self.memo[phi] = self._state(phi)
        return result

    def _state(self, phi: StateFormula) -> StateFormula:
        if isinstance(phi, (Truth, Falsity, Prop, Var)):
            return phi
        if isinstance(phi, Not):
            return Not(self.state(phi.body))
        if isinstance(phi, And):
            return And(self.state(phi.left), self.state(phi.right))
        if isinstance(phi, Or):
            return Or(self.state(phi.left), self.state(phi.right))
        if isinstance(phi, Implies):
            return Or(Not(self.state(phi.left)), self.state(phi.right))
        if isinstance(phi, Mu):
            return Mu(phi.var, self.state(phi.body))
        if isinstance(phi, Nu):
            return Nu(phi.var, self.state(phi.body))
        if isinstance(phi, Strategic):
            return self.strategic_node(phi.assignment)
        raise TypeError("not a state formula: %r" % (phi,))

    def strategic_node(self, assignment: GoalAssignment) -> StateFormula:
        kind = classify(assignment)
        if kind == GoalAssignmentKind.NEXTTIME:
            return strategic(
                GoalAssignment(
                    (coalition, self.goal(goal))
                    for coalition, goal in assignment
                )
            )
        if kind == GoalAssignmentKind.MIXED:
            unfolded, _ = unfold(assignment)
            return self.state(unfolded)
        variable = self.fresh()
        body = self.state(induction_formula(assignment, Var(variable)))
        if kind == GoalAssignmentKind.LONG_TERM_UNTIL:
            return Mu(variable, body)
        return Nu(variable, body)

    def goal(self, goal: PathFormula) -> PathFormula:
        if isinstance(goal, Next):
            return Next(self.state(goal.body))
        if isinstance(goal, PathAnd):
            return PathAnd(self.goal(goal.left), self.goal(goal.right))
        raise TypeError("nexttime assignment carries a non-X goal: %r" % (goal,))


def to_mu(phi: StateFormula) -> StateFormula:
    """Translate so every strategic operator carries nexttime goals only.

    Until-flavoured assignments become least fixpoints of their
    induction formulas, all-globally ones greatest fixpoints, and mixed
    ones go through their unfolding first. The result is semantically
    equivalent under the play-based semantics.
    """
    return _Translator().state(phi)


def monotone_closure(assignment: GoalAssignment) -> GoalAssignment:
    """Conjoin onto each goal the goals of all supported subcoalitions."""
    entries = []
    for coalition, goal in assignment:
        parts = list(path_conjuncts(goal))
        for other, other_goal in assignment:
            if other != coalition and other <= coalition:
                parts.extend(path_conjuncts(other_goal))
        entries.append((coalition, make_path_and(_dedupe(parts))))
    return GoalAssignment(entries)


def negate(phi: StateFormula) -> StateFormula:
    """Single-negation closure partner: strip one Not or prepend one."""
    if isinstance(phi, Not):
        return phi.body
    return Not(phi)


def _components(phi: StateFormula) -> list[StateFormula]:
    """Immediate components per the closure table; [] for literals."""
    if isinstance(phi, (Truth, Prop)):
        return []
    if isinstance(phi, And):
        return [phi.left, phi.right]
    if isinstance(phi, Or):
        return [phi.left, phi.right]
    if isinstance(phi, Strategic):
        return _strategic_components(phi.assignment, positive=True)
    if isinstance(phi, Not):
        inner = phi.body
        if isinstance(inner, (Truth, Prop)):
            return []
        if isinstance(inner, Not):
            return [inner.body]
        if isinstance(inner, And):
            return [negate(inner.left), negate(inner.right)]
        if isinstance(inner, Or):
            return [negate(inner.left), negate(inner.right)]
        if isinstance(inner, Strategic):
            return _strategic_components(inner.assignment, positive=False)
    raise ValueError(
        "closure is defined on normal-form formulas, found %s" % (phi,)
    )


def _strategic_components(
    assignment: GoalAssignment, positive: bool
) -> list[StateFormula]:
    kind = classify(assignment)
    if kind == GoalAssignmentKind.NEXTTIME:
        bodies: list[StateFormula] = []
        for _, goal in assignment:
            for part in path_conjuncts(goal):
                bodies.append(part.body if positive else negate(part.body))
        return _dedupe(bodies)
    if kind == GoalAssignmentKind.MIXED:
        raise ValueError("closure needs normal form; mixed assignment found")
    induced = induction_formula(assignment, strategic(assignment))
    return [induced if positive else negate(induced)]


def ecl(phi: StateFormula) -> frozenset[StateFormula]:
    """Extended closure: components plus single-negation partners.

    The input must be in normal form. The least set containing the
    formula, closed under taking components and under the one-step
    negation partner; finite for every input.
    """
    pending = [phi]
    closed: set[StateFormula] = set()
    while pending:
        current = pending.pop()
        if current in closed:
            continue
        closed.add(current)
        partner = negate(current)
        if partner not in closed:
            pending.append(partner)
        pending.extend(_components(current))
    return frozenset(closed)


_SCHEMES = (
    "triv",
    "safe",
    "merge",
    "grand_coalition",
    "case",
    "con",
    "fix",
    "fp_g",
    "fp_u",
    "superadditivity",
    "agt_maximality",
    "merge_prime",
)


class SideConditionError(ValueError):
    """A scheme instantiation violated the scheme's side conditions."""


def iff(left: StateFormula, right: StateFormula) -> StateFormula:
    return And(Implies(left, right), Implies(right, left))


def axiom_instance(scheme: str, **params) -> StateFormula:
    """Instantiate one of the semantic axiom schemes.

    Raises SideConditionError when the supplied pieces violate the
    scheme's side conditions; the result is a formula expected to hold
    at every state of every model.
    """
    if scheme not in _SCHEMES:
        raise ValueError("unknown scheme %r" % scheme)
    return globals()["_scheme_" + scheme](**params)


def _scheme_triv() -> StateFormula:
    return Strategic(GoalAssignment())


def _scheme_safe(agents: Coalition) -> StateFormula:
    if not agents:
        raise SideConditionError("agent universe must be non-empty")
    return Not(Strategic(GoalAssignment([(agents, Next(Falsity()))])))


def _scheme_merge(
    entries: list[tuple[Coalition, PathFormula]]
) -> StateFormula:
    coalitions = [Coalition(c) for c, _ in entries]
    if len(set(coalitions)) != len(coalitions):
        raise SideConditionError("coalitions must be distinct")
    for i, first in enumerate(coalitions):
        for second in coalitions[i + 1 :]:
            if first & second:
                raise SideConditionError(
                    "coalitions %s and %s overlap" % (first, second)
                )
    antecedent = conjoin(
        [Strategic(GoalAssignment([(c, goal)])) for c, goal in entries]
    )
    return Implies(antecedent, strategic(GoalAssignment(entries)))


def _scheme_grand_coalition(
    assignment: GoalAssignment, agents: Coalition, psi: StateFormula
) -> StateFormula:
    goal = assignment.goal(agents)
    if not isinstance(goal, Next):
        raise SideConditionError("grand coalition must carry a nexttime goal")
    body = goal.body
    left = assignment.update(agents, Next(And(body, psi)))
    right = assignment.update(agents, Next(And(body, Not(psi))))
    return Implies(
        strategic(assignment), Or(strategic(left), strategic(right))
    )


def _scheme_case(
    assignment: GoalAssignment,
    coalition: Coalition,
    agents: Coalition,
    psi: StateFormula,
) -> StateFormula:
    goal = assignment.goal(coalition)
    if not isinstance(goal, Next):
        raise SideConditionError("chosen coalition must carry a nexttime goal")
    body = goal.body
    left = assignment.update(coalition, Next(And(body, psi)))
    right = assignment.restrict(coalition).update(agents, Next(Not(psi)))
    return Implies(
        strategic(assignment), Or(strategic(left), strategic(right))
    )


def _scheme_con(
    assignment: GoalAssignment, coalition: Coalition, sub: Coalition
) -> StateFormula:
    goal = assignment.goal(coalition)
    sub_goal = assignment.goal(sub)
    if not isinstance(goal, Next) or not isinstance(sub_goal, Next):
        raise SideConditionError("both coalitions must carry nexttime goals")
    if not sub <= coalition:
        raise SideConditionError("second coalition must be a subset of the first")
    updated = assignment.update(coalition, Next(And(goal.body, sub_goal.body)))
    return Implies(strategic(assignment), strategic(updated))


def _scheme_fix(assignment: GoalAssignment) -> StateFormula:
    unfolded, _ = unfold(assignment)
    return iff(unfolded, strategic(assignment))


def _scheme_fp_g(coalition: Coalition, chi: StateFormula) -> StateFormula:
    outer = GoalAssignment([(coalition, Globally(chi))])
    inner = GoalAssignment([(coalition, Next(strategic(outer)))])
    return iff(strategic(outer), And(chi, strategic(inner)))


def _scheme_fp_u(
    coalition: Coalition, alpha: StateFormula, beta: StateFormula
) -> StateFormula:
    outer = GoalAssignment([(coalition, Until(alpha, beta))])
    inner = GoalAssignment([(coalition, Next(strategic(outer)))])
    return iff(strategic(outer), Or(beta, And(alpha, strategic(inner))))


def _scheme_superadditivity(
    first: Coalition,
    first_body: StateFormula,
    second: Coalition,
    second_body: StateFormula,
) -> StateFormula:
    if not first or not second:
        raise SideConditionError("coalitions must be non-empty")
    if first & second:
        raise SideConditionError("coalitions must be disjoint")
    antecedent = And(
        Strategic(GoalAssignment([(first, Next(first_body))])),
        Strategic(GoalAssignment([(second, Next(second_body))])),
    )
    merged = GoalAssignment(
        [
            (Coalition(first | second), Next(And(first_body, second_body))),
            (first, Next(first_body)),
            (second, Next(second_body)),
        ]
    )
    return Implies(antecedent, strategic(merged))


def _scheme_agt_maximality(agents: Coalition, body: StateFormula) -> StateFormula:
    if not agents:
        raise SideConditionError("agent universe must be non-empty")
    empty_entry = Strategic(GoalAssignment([(Coalition(), Next(body))]))
    grand_entry = Strategic(GoalAssignment([(agents, Next(Not(body)))]))
    return Or(empty_entry, grand_entry)


def _scheme_merge_prime(
    assignments: dict[str, GoalAssignment], agents: Coalition
) -> StateFormula:
    if set(assignments) != set(agents):
        raise SideConditionError("one assignment per agent is required")
    entries = []
    for members in _nonempty_subsets(agents):
        goals = {assignments[a].goal(members) for a in members}
        if len(goals) == 1:
            entries.append((members, goals.pop()))
    antecedent = conjoin(
        [strategic(assignments[a]) for a in sorted(agents)]
    )
    return Implies(antecedent, strategic(GoalAssignment(entries)))


def _nonempty_subsets(agents: Coalition) -> list[Coalition]:
    ordered = sorted(agents)
    subsets = []
    for index in range(1, 1 << len(ordered)):
        subsets.append(
            Coalition(
                name for bit, name in enumerate(ordered) if index & (1 << bit)
            )
        )
    return subsets
