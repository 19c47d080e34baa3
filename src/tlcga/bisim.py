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
index that each public call builds and drops; `hm_agreement` and
`distinguishing_formula` share it with their evaluator. Levels are
refined on demand: a pair is answered at the first level that splits it
and verifies (atoms alone need no block), while a bisimilar pair, like
the whole relation, needs every level.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Optional

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


def _levels(index: Effectivity) -> Iterator[dict[str, int]]:
    """Class ids per state, from atom equivalence to the fixpoint.

    Class ids are numbered in state order, so the first state of each
    class is its least member by position. Level 0 is yielded before any
    action block is read; the blocks are built when level 1 is asked for.
    """
    model = index.model
    atoms: dict[frozenset[str], int] = {}
    partition = {state: atoms.setdefault(model.props_at(state), len(atoms))
                 for state in model.states}
    yield partition
    rows = {state: _block_rows(index, state) for state in model.states}
    while True:
        refined = _split(rows, partition)
        if len(set(refined.values())) == len(set(partition.values())):
            return
        yield refined
        partition = refined


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
    *_, final = _levels(Effectivity(model))
    return _pairs(final)


def are_bisimilar(
    left: ConcurrentGameModel,
    left_state: str,
    right: ConcurrentGameModel,
    right_state: str,
) -> bool:
    """Bisimilarity across two models over the same agents.

    Public API (`tlcga.are_bisimilar`); nothing in the package calls it.
    """
    for model, state in ((left, left_state), (right, right_state)):
        if not model.has_state(state):
            raise ValueError("unknown state %s" % state)
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
    *_, final = _levels(evaluator.effectivity)
    pairs = sorted((s1, s2) for s1, s2 in _pairs(final) if s1 < s2)
    violations = []
    for phi in formulas:
        extension = evaluator.extension_of(phi)
        for s1, s2 in pairs:
            if (s1 in extension) != (s2 in extension):
                violations.append((s1, s2, phi))
    return violations


class _Characteristics:
    """Characteristic formulas per class of each level iterated so far."""

    def __init__(self, index: Effectivity) -> None:
        model = index.model
        self.model = model
        self.index = index
        self.coalitions = _coalitions(model)
        self._source = _levels(index)
        self.levels: list[dict[str, int]] = []
        self._firsts: list[dict[int, str]] = []
        self._memo: dict[tuple[int, int], StateFormula] = {}
        self._names = [
            Coalition(model.agents[k] for k in indices)
            for indices in self.coalitions
        ]

    def __iter__(self) -> Iterator[dict[str, int]]:
        for partition in self._source:
            firsts: dict[int, str] = {}
            for state, cls in partition.items():
                firsts.setdefault(cls, state)
            self.levels.append(partition)
            self._firsts.append(firsts)
            yield partition

    def formula(self, level: int, cls: int) -> StateFormula:
        """The formula of class `cls`, built from its first member."""
        key = (level, cls)
        if key not in self._memo:
            self._memo[key] = self._build(level, self._firsts[level][cls])
        return self._memo[key]

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
                classes = sorted({self.levels[level - 1][u] for u in outcomes})
                body = disjoin([self.formula(level - 1, c) for c in classes])
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
    for level, partition in enumerate(chars):
        if partition[s1] == partition[s2]:
            continue
        for positive, negative in ((s1, s2), (s2, s1)):
            candidate = chars.formula(level, partition[positive])
            extension = evaluator.extension_of(candidate)
            if positive in extension and negative not in extension:
                return candidate if positive == s1 else Not(candidate)
    if partition[s1] == partition[s2]:
        return None
    raise AssertionError(
        "no characteristic formula separates %s and %s" % (s1, s2)
    )
