"""Bisimulation for concurrent game models, and distinguishing formulas.

Two states are bisimilar when they satisfy the same atoms and every
profile of one can be answered by a profile of the other so that, for
every coalition, each outcome of the answering block is covered by a
related outcome of the challenging block, in both directions. Bisimilar
states satisfy the same formulas; for non-bisimilar states a
level-indexed characteristic formula separates them.

Refinement works on partitions of the states. Level 0 groups states by
their atoms. At the next level every profile of a state gets a vector
that lists, per coalition, the set of current classes its action block
reaches. While the relation is an equivalence, the pairwise condition
above holds for two states exactly when their sets of ⊆-minimal
vectors (componentwise inclusion) are equal, so a state's new class is
keyed by its current class and that set. Refinement stops when the
number of classes stops growing. A level costs one vector per profile
over the 2^|Agt| coalitions, plus the ⊆-minimal filter over each
state's distinct vectors.

The blocks and their outcome sets come from a `models.Effectivity`
index. Each public call builds its own, reads it at every level, and
drops it when it returns; `hm_agreement` and `distinguishing_formula`
share theirs with the evaluator they check formulas with.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from .checking import Evaluator
from .formulas import (
    Coalition,
    GoalAssignment,
    Next,
    Not,
    Prop,
    StateFormula,
    strategic,
)
from .models import ConcurrentGameModel, Effectivity, disjoint_union
from .transforms import conjoin, disjoin


def _coalitions(model: ConcurrentGameModel) -> list[tuple[int, ...]]:
    """Every coalition as agent positions, from empty to grand."""
    count = len(model.agents)
    return [
        indices
        for size in range(count + 1)
        for indices in combinations(range(count), size)
    ]


def _block_rows(
    index: Effectivity, state: str
) -> tuple[list[frozenset[str]], set[tuple[int, ...]]]:
    """The state's action blocks, and each profile's row of block indices.

    A row holds one block per coalition, grand coalition first: its
    small blocks make the componentwise tests of `_minimal` fail early.
    Profiles that fall in the same blocks share one row.
    """
    blocks: list[frozenset[str]] = []
    columns = []
    for coalition in _coalitions(index.model)[::-1]:
        of_profile, outcomes, _ = index.blocks(state, coalition)
        offset = len(blocks)
        blocks.extend(outcomes)
        columns.append([offset + block for block in of_profile])
    return blocks, set(zip(*columns))


def _minimal(vectors: set[tuple[int, ...]]) -> frozenset:
    """The ⊆-minimal vectors, with class sets as bitmasks."""
    kept: list[tuple[int, ...]] = []
    for vector in sorted(vectors, key=lambda v: sum(m.bit_count() for m in v)):
        if not any(
            all((low & ~high) == 0 for low, high in zip(below, vector))
            for below in kept
        ):
            kept.append(vector)
    return frozenset(kept)


def _split(
    rows: dict[str, tuple[list[frozenset[str]], set[tuple[int, ...]]]],
    partition: dict[str, int],
) -> dict[str, int]:
    """One refinement step: key each state by class and minimal vectors."""
    bit = {state: 1 << cls for state, cls in partition.items()}
    ids: dict[tuple[int, frozenset], int] = {}
    refined = {}
    for state, (blocks, state_rows) in rows.items():
        masks = []
        for block in blocks:
            mask = 0
            for target in block:
                mask |= bit[target]
            masks.append(mask)
        vectors = {tuple([masks[i] for i in row]) for row in state_rows}
        key = (partition[state], _minimal(vectors))
        refined[state] = ids.setdefault(key, len(ids))
    return refined


def _partition_levels(index: Effectivity) -> list[dict[str, int]]:
    """Class ids per state, from atom equivalence to the fixpoint.

    Class ids are numbered in state order, so the first state of each
    class is its least member by position.
    """
    model = index.model
    rows = {state: _block_rows(index, state) for state in model.states}
    atoms: dict[frozenset[str], int] = {}
    levels = [
        {state: atoms.setdefault(model.props_at(state), len(atoms))
         for state in model.states}
    ]
    while True:
        refined = _split(rows, levels[-1])
        if len(set(refined.values())) == len(set(levels[-1].values())):
            return levels
        levels.append(refined)


def _pairs(partition: dict[str, int]) -> frozenset:
    classes: dict[int, list[str]] = {}
    for state, cls in partition.items():
        classes.setdefault(cls, []).append(state)
    return frozenset(
        (s1, s2)
        for members in classes.values()
        for s1 in members
        for s2 in members
    )


def greatest_bisimulation(model: ConcurrentGameModel) -> frozenset:
    """The largest bisimulation, as a symmetric set of state pairs."""
    return _pairs(_partition_levels(Effectivity(model))[-1])


def are_bisimilar(
    left: ConcurrentGameModel,
    left_state: str,
    right: ConcurrentGameModel,
    right_state: str,
) -> bool:
    """Bisimilarity across two models over the same agents.

    Public API (`tlcga.are_bisimilar`); nothing in the package calls it.
    """
    union, left_map, right_map = disjoint_union(left, right)
    related = greatest_bisimulation(union)
    return (left_map[left_state], right_map[right_state]) in related


def hm_agreement(
    model: ConcurrentGameModel, formulas: Iterable[StateFormula]
) -> list[tuple[str, str, StateFormula]]:
    """Violations of formula-invariance over the greatest bisimulation.

    Returns every (state, state, formula) where a bisimilar pair
    disagrees; sound semantics yield an empty list. Public API
    (`tlcga.hm_agreement`): the paper's bisimulation invariance, as a
    check a user can run on a model.
    """
    evaluator = Evaluator(model)
    related = _pairs(_partition_levels(evaluator.effectivity)[-1])
    violations = []
    for phi in formulas:
        extension = evaluator.extension_of(phi)
        for s1, s2 in sorted(related):
            if s1 < s2 and (s1 in extension) != (s2 in extension):
                violations.append((s1, s2, phi))
    return violations


class _Characteristics:
    """Level-indexed characteristic formulas per refinement class."""

    def __init__(self, index: Effectivity) -> None:
        model = index.model
        self.model = model
        self.index = index
        self.coalitions = _coalitions(model)
        self.levels = _partition_levels(index)
        self.position = {state: i for i, state in enumerate(model.states)}
        self._representatives: list[dict[int, str]] = []
        for partition in self.levels:
            firsts: dict[int, str] = {}
            for state in model.states:
                firsts.setdefault(partition[state], state)
            self._representatives.append(firsts)
        self._memo: dict[tuple[int, str], StateFormula] = {}
        self._names = [
            Coalition(model.agents[k] for k in indices)
            for indices in self.coalitions
        ]

    def representative(self, level: int, state: str) -> str:
        """The least state by position in the class of `state`."""
        return self._representatives[level][self.levels[level][state]]

    def formula(self, level: int, state: str) -> StateFormula:
        rep = self.representative(level, state)
        key = (level, rep)
        if key in self._memo:
            return self._memo[key]
        result = self._build(level, rep)
        self._memo[key] = result
        return result

    def _atoms(self, state: str) -> StateFormula:
        parts: list[StateFormula] = []
        here = self.model.props_at(state)
        for prop in self.model.props_used():
            parts.append(Prop(prop) if prop in here else Not(Prop(prop)))
        return conjoin(parts)

    def _build(self, level: int, state: str) -> StateFormula:
        if level == 0:
            return self._atoms(state)
        parts: list[StateFormula] = [self._atoms(state)]
        for position in range(len(self.model.profiles(state))):
            entries = []
            for name, indices in zip(self._names, self.coalitions):
                blocks = self.index.blocks(state, indices)
                outcomes = blocks.outcomes[blocks.of_profile[position]]
                reps = sorted(
                    {self.representative(level - 1, u) for u in outcomes},
                    key=self.position.__getitem__,
                )
                body = disjoin([self.formula(level - 1, rep) for rep in reps])
                entries.append((name, Next(body)))
            parts.append(strategic(GoalAssignment(entries)))
        return conjoin(parts)


def distinguishing_formula(
    model: ConcurrentGameModel, s1: str, s2: str
) -> Optional[StateFormula]:
    """A formula true at s1 and false at s2, when they are not bisimilar.

    Built from level-indexed characteristic formulas and verified
    against the evaluator before being returned; None when the states
    are bisimilar.
    """
    for state in (s1, s2):
        if not model.has_state(state):
            raise ValueError("unknown state %s" % state)
    evaluator = Evaluator(model)
    chars = _Characteristics(evaluator.effectivity)
    if chars.levels[-1][s1] == chars.levels[-1][s2]:
        return None
    first_split = next(
        k for k, partition in enumerate(chars.levels)
        if partition[s1] != partition[s2]
    )
    for level in range(first_split, len(chars.levels)):
        for positive, negative in ((s1, s2), (s2, s1)):
            candidate = chars.formula(level, positive)
            extension = evaluator.extension_of(candidate)
            if positive in extension and negative not in extension:
                if positive == s1:
                    return candidate
                return Not(candidate)
    raise AssertionError(
        "no characteristic formula separates %s and %s" % (s1, s2)
    )
