"""Extension-based evaluation of formulas over concurrent game models.

The evaluator works on the fixpoint dialect where every strategic
operator carries nexttime goals only; check() first translates its
input so arbitrary goal assignments can be queried. Extensions are
state sets computed bottom-up, with least and greatest fixpoints found
by iteration from the empty and the full state set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .formulas import (
    And,
    Falsity,
    GoalAssignment,
    Implies,
    Mu,
    Next,
    Not,
    Nu,
    Or,
    Prop,
    StateFormula,
    Strategic,
    Truth,
    Var,
    path_conjuncts,
)
from .models import ConcurrentGameModel, Effectivity
from .transforms import to_mu


class UnboundVariableError(ValueError):
    """A fixpoint variable was used outside any binder or environment."""


class NonNexttimeGoalError(ValueError):
    """The evaluator met a strategic operator with a U or G goal."""


class Evaluator:
    """Evaluates fixpoint-dialect formulas on one model.

    Keeps a cache keyed by subformula and the bindings of its free
    variables, owns the effectivity index its strategic steps read, and
    counts fixpoint iterations for reporting. Both caches live as long
    as the evaluator, so build one per query.
    """

    def __init__(self, model: ConcurrentGameModel) -> None:
        self.model = model
        self.iterations = 0
        self.effectivity = Effectivity(model)
        self._all = frozenset(model.states)
        self._cache: dict = {}

    def extension(
        self, phi: StateFormula, env: Mapping[str, frozenset[str]] | None = None
    ) -> frozenset[str]:
        env = env or {}
        key = (
            phi,
            tuple(
                (name, env[name])
                for name in sorted(phi.free_vars)
                if name in env
            ),
        )
        cached = self._cache.get(key)
        if cached is None:
            cached = self._compute(phi, env)
            self._cache[key] = cached
        return cached

    def _compute(self, phi: StateFormula, env) -> frozenset[str]:
        if isinstance(phi, Truth):
            return self._all
        if isinstance(phi, Falsity):
            return frozenset()
        if isinstance(phi, Prop):
            return self.model.valuation.get(phi.name, frozenset())
        if isinstance(phi, Var):
            try:
                return env[phi.name]
            except KeyError:
                raise UnboundVariableError(
                    "variable %s is not bound" % phi.name
                ) from None
        if isinstance(phi, Not):
            return self._all - self.extension(phi.body, env)
        if isinstance(phi, And):
            return self.extension(phi.left, env) & self.extension(phi.right, env)
        if isinstance(phi, Or):
            return self.extension(phi.left, env) | self.extension(phi.right, env)
        if isinstance(phi, Implies):
            raise ValueError("implication must be desugared before evaluation")
        if isinstance(phi, Strategic):
            return self._strategic(phi.assignment, env)
        if isinstance(phi, Mu):
            return self._fixpoint(phi, env, frozenset())
        if isinstance(phi, Nu):
            return self._fixpoint(phi, env, self._all)
        raise TypeError("not a state formula: %r" % (phi,))

    def _fixpoint(self, phi, env, current: frozenset[str]) -> frozenset[str]:
        budget = len(self.model.states) + 2
        for _ in range(budget):
            self.iterations += 1
            inner = dict(env)
            inner[phi.var] = current
            updated = self.extension(phi.body, inner)
            if updated == current:
                return current
            current = updated
        raise ValueError(
            "fixpoint for %s did not converge; check variable polarity" % phi.var
        )

    def _strategic(self, assignment: GoalAssignment, env) -> frozenset[str]:
        index = self.effectivity
        requirements = []
        for coalition, goal in assignment:
            target = self._all
            for part in path_conjuncts(goal):
                if not isinstance(part, Next):
                    raise NonNexttimeGoalError(
                        "evaluator needs nexttime goals, found %s; translate first"
                        % part
                    )
                target &= self.extension(part.body, env)
            requirements.append((index.positions(coalition), target))

        result = []
        for state in self.model.states:
            # Profile positions whose blocks meet every requirement so far.
            candidates = range(len(self.model.profiles(state)))
            for positions, target in requirements:
                of_profile, outcomes, _ = index.blocks(state, positions)
                ok = [outs <= target for outs in outcomes]
                candidates = [p for p in candidates if ok[of_profile[p]]]
                if not candidates:
                    break
            if candidates:
                result.append(state)
        return frozenset(result)


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    iterations: int


def extension_of(
    model: ConcurrentGameModel, phi: StateFormula
) -> frozenset[str]:
    """States satisfying a formula of any dialect (translated first)."""
    return Evaluator(model).extension(to_mu(phi))


def check(model: ConcurrentGameModel, state: str, phi: StateFormula) -> bool:
    return check_with_stats(model, state, phi).holds


def check_with_stats(
    model: ConcurrentGameModel, state: str, phi: StateFormula
) -> CheckResult:
    if not model.has_state(state):
        raise ValueError("unknown state %s" % state)
    evaluator = Evaluator(model)
    ext = evaluator.extension(to_mu(phi))
    return CheckResult(state in ext, evaluator.iterations)


def valid_on(model: ConcurrentGameModel, phi: StateFormula) -> bool:
    """Whether the formula holds at every state of the model."""
    return extension_of(model, phi) == frozenset(model.states)


def falsify(
    models: Iterable[ConcurrentGameModel],
    formulas: Callable[[ConcurrentGameModel], Iterable[StateFormula]],
) -> Optional[tuple[ConcurrentGameModel, str, StateFormula]]:
    """First (model, state, formula) where a candidate validity fails."""
    for model in models:
        for phi in formulas(model):
            ext = extension_of(model, phi)
            for state in model.states:
                if state not in ext:
                    return model, state, phi
    return None
