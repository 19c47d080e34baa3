"""Extension-based evaluation of formulas over concurrent game models.

The evaluator works on the fixpoint dialect where every strategic
operator carries nexttime goals only. `Evaluator.extension_of` accepts
any dialect: it translates with the evaluator's own `to_mu` memo and
then evaluates, and check() and every other caller go through it.
Extensions are state sets computed bottom-up, with least and greatest
fixpoints found by iteration from the empty and the full state set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
from .transforms import _Translator


class UnboundVariableError(ValueError):
    """A fixpoint variable was used outside any binder or environment."""


class NonNexttimeGoalError(ValueError):
    """The evaluator met a strategic operator with a U or G goal."""


class Evaluator:
    """Evaluates fixpoint-dialect formulas on one model.

    Keeps a cache keyed by subformula and the bindings of its free
    variables, owns the effectivity index its strategic steps read and
    the translator `extension_of` uses, and counts fixpoint iterations
    for reporting. The translator's memo gives the same translated object
    for the same closed input, so the cache hits by identity rather than
    by comparing two equal translations node by node. All three live as
    long as the evaluator, so build one per query.
    """

    def __init__(self, model: ConcurrentGameModel) -> None:
        self.model = model
        self.iterations = 0
        self.effectivity = Effectivity(model)
        self._all = frozenset(model.states)
        self._cache: dict = {}
        self._translator = _Translator()

    def extension_of(self, phi: StateFormula) -> frozenset[str]:
        """States satisfying a closed formula of any dialect."""
        return self.extension(self._translator.state(phi))

    def extension(
        self, phi: StateFormula, env: Mapping[str, frozenset[str]] | None = None
    ) -> frozenset[str]:
        env = env or {}
        bindings = ()
        if phi.free_vars and env:
            bindings = tuple(
                (name, env[name]) for name in sorted(phi.free_vars) if name in env
            )
        key = (phi, bindings)
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
            raise ValueError(
                "implication must be translated by to_mu before evaluation"
            )
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
        """States where one profile puts every coalition inside its target.

        A coalition's target is the meet of its nexttime goals. At each
        state the candidates are a bitmask over the profile positions:
        each requirement ORs the masks (`Effectivity.masks`) of the
        outcome sets inside its target, and ANDs that in, stopping at 0.
        """
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
            # Bitmask of the profile positions whose blocks meet every
            # requirement so far.
            candidates = (1 << len(self.model.profiles(state))) - 1
            for positions, target in requirements:
                fits = 0
                for outs, mask in index.masks(state, positions):
                    if outs <= target:
                        fits |= mask
                candidates &= fits
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
    return Evaluator(model).extension_of(phi)


def check(model: ConcurrentGameModel, state: str, phi: StateFormula) -> bool:
    return check_with_stats(model, state, phi).holds


def check_with_stats(
    model: ConcurrentGameModel, state: str, phi: StateFormula
) -> CheckResult:
    if not model.has_state(state):
        raise ValueError("unknown state %s" % state)
    evaluator = Evaluator(model)
    ext = evaluator.extension_of(phi)
    return CheckResult(state in ext, evaluator.iterations)


def valid_on(model: ConcurrentGameModel, phi: StateFormula) -> bool:
    """Whether the formula holds at every state of the model.

    Public API (`tlcga.valid_on`); the axiom sweeps call it too.
    """
    return extension_of(model, phi) == frozenset(model.states)
