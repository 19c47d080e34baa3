"""Finite concurrent game models.

A model fixes a set of agents, a finite state space, a non-empty list of
actions per state and agent, a total deterministic outcome function over
action profiles, and a valuation of atomic propositions. Profiles are
tuples aligned with the model's canonical (sorted) agent order. The
outcome function is held as one row of targets per state, aligned with
`profiles(state)`; every reader goes through `row`. `Effectivity`
indexes, for one query, each coalition's action blocks and their outcome
sets.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, NamedTuple, Sequence


class InvalidModelError(ValueError):
    """Raised when loading or using a structurally broken model."""


class ResourceLimitError(RuntimeError):
    """Raised when a construction or search exceeds its configured budget."""


# The most transitions any model the program builds may have: a `scos`
# split or a river crossing. The split of
# sheep-wolves(4,4,wolves_then_sheep) has 1,392,833; its copies share
# their rows, so it holds about 6 MB (27 MB peak RSS with its build).
MAX_TRANSITIONS = 2_000_000


def format_profile(agents: tuple[str, ...], profile: tuple[str, ...]) -> str:
    """Render a profile as agent=action pairs in agent order."""
    return "(" + ", ".join(
        "%s=%s" % (agent, action) for agent, action in zip(agents, profile)
    ) + ")"


class ConcurrentGameModel:
    """Immutable finite concurrent game model.

    The constructor takes the outcome as a `(state, profile) -> target`
    mapping, for hand-written models and tests; built models use
    `from_rows`. A profile the mapping lacks is a gap (None) in its row;
    keys that fit no row are kept, in order, for `validate` alone.
    """

    __slots__ = (
        "agents",
        "states",
        "actions",
        "valuation",
        "_state_set",
        "_props_at",
        "_profiles",
        "_rows",
        "_stray",
    )

    def __init__(
        self,
        agents: Iterable[str],
        states: Iterable[str],
        actions: Mapping[str, Mapping[str, Iterable[str]]],
        outcome: Mapping[tuple[str, tuple[str, ...]], str],
        valuation: Mapping[str, Iterable[str]],
    ) -> None:
        self._init(agents, states, actions, valuation)
        rows, placed = {}, 0
        for state in self.states:
            row = rows[state] = tuple([
                outcome.get((state, profile)) for profile in self.profiles(state)
            ])
            placed += len(row) - row.count(None)
        stray = []
        # A repeated action repeats profiles, so `placed` can overcount.
        repeats = any(len(set(acts)) < len(acts)
                      for per in self.actions.values() for acts in per.values())
        if repeats or placed != len(outcome):
            available = {state: set(self.profiles(state)) for state in self.states}
            stray = [(state, profile) for state, profile in outcome
                     if profile not in available.get(state, ())]
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_stray", stray)

    @classmethod
    def from_rows(cls, agents, states, actions, rows: Mapping[str, Sequence[str]],
                  valuation) -> "ConcurrentGameModel":
        """A model whose `rows[state]` lists the state's targets in the
        order of `profiles(state)`, one per profile."""
        model = cls.__new__(cls)
        model._init(agents, states, actions, valuation)
        object.__setattr__(model, "_rows", {s: tuple(rows[s]) for s in model.states})
        object.__setattr__(model, "_stray", [])
        return model

    def _init(self, agents, states, actions, valuation) -> None:
        agent_list = list(agents)
        if len(set(agent_list)) != len(agent_list):
            raise InvalidModelError("duplicate agent names")
        object.__setattr__(self, "agents", tuple(sorted(agent_list)))
        state_list = list(states)
        if len(set(state_list)) != len(state_list):
            raise InvalidModelError("duplicate state ids")
        object.__setattr__(self, "states", tuple(state_list))
        object.__setattr__(self, "_state_set", frozenset(state_list))
        object.__setattr__(
            self,
            "actions",
            {
                state: {
                    agent: tuple(acts)
                    for agent, acts in actions.get(state, {}).items()
                }
                for state in state_list
            },
        )
        object.__setattr__(
            self,
            "valuation",
            {prop: frozenset(where) for prop, where in valuation.items()},
        )
        props_at: dict[str, frozenset[str]] = {}
        for state in state_list:
            props_at[state] = frozenset(
                prop for prop, where in self.valuation.items() if state in where
            )
        object.__setattr__(self, "_props_at", props_at)
        object.__setattr__(self, "_profiles", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ConcurrentGameModel is immutable")

    def has_state(self, state: str) -> bool:
        return state in self._state_set

    def props_at(self, state: str) -> frozenset[str]:
        return self._props_at[state]

    def props_used(self) -> tuple[str, ...]:
        return tuple(sorted(self.valuation))

    def actions_of(self, state: str, agent: str) -> tuple[str, ...]:
        return self.actions[state].get(agent, ())

    def profiles(self, state: str) -> tuple[tuple[str, ...], ...]:
        """All locally available action profiles, in canonical order.

        The product is built once per action signature (the state's
        action tuples in agent order), so states with equal action lists
        get the same tuple object.
        """
        cached = self._profiles.get(state)
        if cached is None:
            # One dict serves both keys: state ids are strings and
            # signatures tuples, so they cannot collide.
            signature = tuple([
                self.actions_of(state, agent) for agent in self.agents
            ])
            cached = self._profiles.get(signature)
            if cached is None:
                cached = self._profiles[signature] = tuple(
                    itertools.product(*signature)
                )
            self._profiles[state] = cached
        return cached

    def row(self, state: str) -> tuple[str, ...]:
        """The state's targets, aligned with `profiles(state)`; a gap
        raises what `out` raises for the first missing profile."""
        row = self._rows[state]
        if None in row:
            self.out(state, self.profiles(state)[row.index(None)])
        return row

    def out(self, state: str, profile: tuple[str, ...]) -> str:
        """The target of `profile` at `state`, found by the profile's
        position in `profiles(state)`. A gap, an unavailable profile or an
        unknown state raises InvalidModelError."""
        try:
            target = self._rows[state][self.profiles(state).index(profile)]
        except (KeyError, ValueError):
            target = None
        if target is None:
            raise InvalidModelError(
                "no outcome at %s for profile %s"
                % (state, format_profile(self.agents, profile))
            )
        return target

    def profile_as_mapping(self, profile: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.agents, profile))

    def validate(self) -> list[str]:
        """Well-formedness violations: the model rules `from_json_dict` enforces."""
        problems: list[str] = []
        if not self.agents:
            problems.append("model declares no agents")
        if not self.states:
            problems.append("model has no states")
        for state in self.states:
            for agent in self.agents:
                acts = self.actions_of(state, agent)
                if not acts:
                    problems.append(
                        "empty action set for agent %s at state %s" % (agent, state)
                    )
                elif len(set(acts)) != len(acts):
                    problems.append(
                        "duplicate actions for agent %s at state %s" % (agent, state)
                    )
            for profile, target in zip(self.profiles(state), self._rows[state]):
                if target is None:
                    problems.append(
                        "outcome not total: no transition at %s for profile %s"
                        % (state, format_profile(self.agents, profile))
                    )
                elif target not in self._state_set:
                    problems.append(
                        "transition from %s via %s targets unknown state %s"
                        % (state, format_profile(self.agents, profile), target)
                    )
        for state, profile in self._stray:
            if state not in self._state_set:
                problems.append("transition from unknown state %s" % state)
            else:
                problems.append(
                    "transition from %s uses unavailable profile %s"
                    % (state, format_profile(self.agents, profile))
                )
        for prop, where in sorted(self.valuation.items()):
            for state in sorted(where - self._state_set):
                problems.append(
                    "valuation of %s mentions unknown state %s" % (prop, state)
                )
        return problems

    def is_injective(self) -> bool:
        """Whether distinct profiles always lead to distinct outcomes."""
        for state in self.states:
            if len(set(self.row(state))) != len(self.profiles(state)):
                return False
        return True

    def scos(self) -> tuple["ConcurrentGameModel", dict[str, tuple[str, ...]]]:
        """State-copying and outcome-splitting transformation.

        Returns an injective model together with the map from original
        state to its copies. Each state gets as many copies as the
        maximal number of profiles leading to it from any single source;
        profile i (in canonical enumeration order per source) is
        redirected to copy i. Copy 0 is the designated representative.
        Every copy of a state gets all of its transitions; a split of more
        than `MAX_TRANSITIONS` raises `ResourceLimitError` before
        anything is built.
        """
        ranks: dict[str, list[int]] = {}
        copy_count: dict[str, int] = {state: 1 for state in self.states}
        for source in self.states:
            per_target: dict[str, int] = {}
            ranks[source] = rank_of = []
            for target in self.row(source):
                rank = per_target.get(target, 0)
                rank_of.append(rank)
                per_target[target] = rank + 1
            for target, count in per_target.items():
                if count > copy_count[target]:
                    copy_count[target] = count
        transitions = sum(
            copy_count[state] * len(self.profiles(state)) for state in self.states
        )
        if transitions > MAX_TRANSITIONS:
            raise ResourceLimitError(
                "scos split would have %d transitions, more than %d"
                % (transitions, MAX_TRANSITIONS)
            )

        taken = set(self._state_set)
        copy_names: dict[str, tuple[str, ...]] = {}
        for state in self.states:
            names = []
            for index in range(copy_count[state]):
                name = "%s#%d" % (state, index)
                while name in taken:
                    name += "'"
                taken.add(name)
                names.append(name)
            copy_names[state] = tuple(names)

        new_states = [name for state in self.states for name in copy_names[state]]
        new_actions = {
            name: {
                agent: self.actions_of(state, agent) for agent in self.agents
            }
            for state in self.states
            for name in copy_names[state]
        }
        new_rows: dict[str, tuple[str, ...]] = {}
        for source in self.states:
            redirected = tuple([
                copy_names[target][rank]
                for target, rank in zip(self.row(source), ranks[source])
            ])
            for copy in copy_names[source]:
                new_rows[copy] = redirected
        new_valuation = {
            prop: frozenset(
                name for state in where for name in copy_names[state]
            )
            for prop, where in self.valuation.items()
        }
        model = ConcurrentGameModel.from_rows(
            self.agents, new_states, new_actions, new_rows, new_valuation
        )
        return model, copy_names

    def to_json_dict(self) -> dict:
        return {
            "agents": list(self.agents),
            "states": [
                {"id": state, "props": sorted(self.props_at(state))}
                for state in self.states
            ],
            "actions": {
                state: {
                    agent: list(self.actions_of(state, agent))
                    for agent in self.agents
                }
                for state in self.states
            },
            "transitions": {
                state: [
                    {"profile": self.profile_as_mapping(profile), "to": target}
                    for profile, target in zip(self.profiles(state), self.row(state))
                ]
                for state in self.states
            },
        }

    def content_hash(self) -> str:
        """The model's content id: 16 hex digits of a SHA-256.

        The hashed bytes are `to_json_dict()` as `json.dumps` writes it
        with `sort_keys=True`, `separators=(",", ":")` and the default
        `ensure_ascii`. They are fed to the hash one state at a time,
        without building the document.
        """
        quote = encode_basestring_ascii
        agents = self.agents
        keys = [quote(agent) + ":" for agent in agents]
        ids = sorted(self.states)
        digest = hashlib.sha256()
        digest.update(b'{"actions":{')
        for i, state in enumerate(ids):
            acts = ",".join([
                key + "[" + ",".join(map(quote, self.actions_of(state, agent))) + "]"
                for key, agent in zip(keys, agents)
            ])
            digest.update(
                (("," if i else "") + quote(state) + ":{" + acts + "}").encode()
            )
        digest.update(
            ('},"agents":[' + ",".join(map(quote, agents)) + '],"states":[').encode()
        )
        for i, state in enumerate(self.states):
            props = ",".join(map(quote, sorted(self._props_at[state])))
            digest.update(
                (("," if i else "") + '{"id":' + quote(state) + ',"props":['
                 + props + "]}").encode()
            )
        digest.update(b'],"transitions":{')
        for state in self.states:
            # Raise what `to_json_dict` raises: the first gap in model order.
            self.row(state)
        # Each transition record is a profile prefix plus its quoted
        # target. `profiles` shares one tuple per action signature, so
        # the prefixes are built once per tuple, keyed by its id.
        prefixes: dict[int, list[str]] = {}
        for i, state in enumerate(ids):
            profiles = self.profiles(state)
            heads = prefixes.get(id(profiles))
            if heads is None:
                heads = prefixes[id(profiles)] = [
                    '{"profile":{' + ",".join([
                        key + quote(action) for key, action in zip(keys, profile)
                    ]) + '},"to":'
                    for profile in profiles
                ]
            targets = self._rows[state]
            tails = {target: quote(target) + "}" for target in set(targets)}
            entries = map(operator.add, heads, map(tails.__getitem__, targets))
            digest.update(
                (("," if i else "") + quote(state) + ":[" + ",".join(entries)
                 + "]").encode()
            )
        digest.update(b"}}")
        return digest.hexdigest()[:16]


class Blocks(NamedTuple):
    """One coalition's action blocks at one state; see `Effectivity`."""

    of_profile: Sequence[int]
    outcomes: tuple[frozenset[str], ...]
    of_restriction: dict[tuple[str, ...], int]


class Effectivity:
    """The action blocks of a model's coalitions, built on first use.

    A coalition (a tuple of agent positions in `model.agents`) splits a
    state's profiles into blocks that agree on its actions. `blocks`
    gives each profile's block (aligned with `profiles(state)`, numbered
    by first appearance), each block's outcome set, and the block of
    each joint action. The coalition can force a target set exactly when
    one of its blocks has all its outcomes in the target.

    The split depends only on the profiles, and the model gives states
    with equal action lists one shared profile tuple. So `of_profile`
    and `of_restriction` are built once per (profile tuple, coalition)
    and shared by every such state; no reader may mutate them. When the
    profiles are distinct, the grand coalition's blocks are the profiles
    themselves: `of_profile` is `range(len(profiles))`. When an agent
    lists an action twice, it takes the general path.

    Only `outcomes` is built per state, from the model's `row(state)`,
    so a missing outcome raises what `row` raises. A block's outcome set
    is filled from the distinct (block, outcome) pairs; the grand
    coalition's identity blocks get one singleton per distinct outcome.

    `masks` serves the strategic step: a state's distinct block outcome
    sets, each with the bitmask of the profile positions whose blocks
    have it. Masks are built only when asked, so a reader of `blocks`
    alone (bisimulation reads every coalition's) does not pay for them.

    An index lives for one query: an `Evaluator` owns one, and the
    oracle, `atl_check` and each bisimulation call make their own. It is
    not cached on the model, which would keep it alive with the model.
    Profile tuples are keyed by their id, which stays valid because the
    model holds every tuple it has handed out.
    """

    def __init__(self, model: ConcurrentGameModel) -> None:
        self.model = model
        self._agent_index = {agent: i for i, agent in enumerate(model.agents)}
        self._shapes: dict[
            tuple[int, tuple[int, ...]],
            tuple[Sequence[int], dict[tuple[str, ...], int]],
        ] = {}
        self._shape_masks: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        self._blocks: dict[tuple[str, tuple[int, ...]], Blocks] = {}
        self._masks: dict[
            tuple[str, tuple[int, ...]], list[tuple[frozenset[str], int]]
        ] = {}

    def positions(self, coalition: Iterable[str]) -> tuple[int, ...]:
        return tuple(sorted({self._agent_index[agent] for agent in coalition}))

    def blocks(self, state: str, coalition: tuple[int, ...]) -> Blocks:
        cached = self._blocks.get((state, coalition))
        if cached is None:
            cached = self._blocks[(state, coalition)] = self._build(
                state, coalition
            )
        return cached

    def _build(self, state: str, coalition: tuple[int, ...]) -> Blocks:
        profiles = self.model.profiles(state)
        row = self.model.row(state)
        of_profile, of_restriction = self._shape(profiles, coalition)
        if isinstance(of_profile, range):
            singleton = {target: frozenset((target,)) for target in set(row)}
            return Blocks(of_profile, tuple(map(singleton.__getitem__, row)),
                          of_restriction)
        outcomes: list[set[str]] = [set() for _ in of_restriction]
        for block, target in set(zip(of_profile, row)):
            outcomes[block].add(target)
        return Blocks(of_profile, tuple(map(frozenset, outcomes)), of_restriction)

    def _shape(
        self, profiles: tuple[tuple[str, ...], ...], coalition: tuple[int, ...]
    ) -> tuple[Sequence[int], dict[tuple[str, ...], int]]:
        """`of_profile` and `of_restriction` of the coalition's blocks."""
        key = (id(profiles), coalition)
        shape = self._shapes.get(key)
        if shape is not None:
            return shape
        if len(coalition) == len(self.model.agents):
            of_restriction = dict(zip(profiles, itertools.count()))
            if len(of_restriction) == len(profiles):
                shape = self._shapes[key] = (range(len(profiles)), of_restriction)
                return shape
            # An agent lists an action twice, so profiles repeat.
            restrictions = profiles
        elif len(coalition) > 1:
            restrictions = list(map(operator.itemgetter(*coalition), profiles))
        elif coalition:
            # One position's getter gives the bare action; zip wraps it.
            restrictions = list(zip(map(operator.itemgetter(*coalition), profiles)))
        else:
            restrictions = [()] * len(profiles)
        of_restriction = {}
        of_profile = tuple([
            of_restriction.setdefault(restriction, len(of_restriction))
            for restriction in restrictions
        ])
        shape = self._shapes[key] = (of_profile, of_restriction)
        return shape

    def masks(
        self, state: str, coalition: tuple[int, ...]
    ) -> list[tuple[frozenset[str], int]]:
        """Each distinct block outcome set, with its blocks' profile bitmask.

        Bit p of a mask stands for position p of `profiles(state)`.
        """
        key = (state, coalition)
        cached = self._masks.get(key)
        if cached is None:
            profiles = self.model.profiles(state)
            of_profile, _ = self._shape(profiles, coalition)
            if isinstance(of_profile, range):
                # Identity blocks: group the positions by their target.
                members: dict[str, list[int]] = {}
                for position, target in enumerate(self.model.row(state)):
                    members.setdefault(target, []).append(position)
                cached = [
                    (frozenset((target,)), _bits(where))
                    for target, where in members.items()
                ]
            else:
                merged: dict[frozenset[str], int] = {}
                outcomes = self.blocks(state, coalition).outcomes
                block_masks = self._block_masks(profiles, coalition)
                for outs, mask in zip(outcomes, block_masks):
                    merged[outs] = merged.get(outs, 0) | mask
                cached = list(merged.items())
            self._masks[key] = cached
        return cached

    def _block_masks(
        self, profiles: tuple[tuple[str, ...], ...], coalition: tuple[int, ...]
    ) -> list[int]:
        """Each block's bitmask of profile positions, shared like its shape."""
        key = (id(profiles), coalition)
        masks = self._shape_masks.get(key)
        if masks is None:
            of_profile, of_restriction = self._shape(profiles, coalition)
            members: list[list[int]] = [[] for _ in of_restriction]
            for position, block in enumerate(of_profile):
                members[block].append(position)
            masks = self._shape_masks[key] = list(map(_bits, members))
        return masks


def _bits(positions: Iterable[int]) -> int:
    """The bitmask with the given bit positions set."""
    return sum(map((1).__lshift__, positions))


_JSON_TYPES = {list: "list", dict: "object", str: "string"}


def _expect(value, kind: type, what: str):
    """`value` if it has the JSON type `kind` (list, dict or str), else an error."""
    if not isinstance(value, kind):
        raise InvalidModelError("%s must be a JSON %s" % (what, _JSON_TYPES[kind]))
    return value


def _names(value, what: str) -> list[str]:
    """`value` if it is a JSON list of strings, else an error."""
    if not all(isinstance(name, str) for name in _expect(value, list, what)):
        raise InvalidModelError("each entry of %s must be a JSON string" % what)
    return value


def from_json_dict(data: Mapping) -> ConcurrentGameModel:
    """Decode a model document; raise the first problem `validate()` finds.

    Decoding checks only the document's shape: JSON types, string names,
    profiles over exactly the declared agents, no transition given twice,
    and no actions or transitions for an unknown state.
    """
    try:
        agents = data["agents"]
        state_entries = data["states"]
        actions = data["actions"]
        transitions = data["transitions"]
    except (KeyError, TypeError) as exc:
        raise InvalidModelError("missing model section: %s" % exc) from None
    _names(agents, "agents")
    _expect(state_entries, list, "states")
    _expect(actions, dict, "actions")
    _expect(transitions, dict, "transitions")
    agent_order, agent_set = tuple(sorted(agents)), set(agents)

    states = []
    valuation: dict[str, set[str]] = {}
    for entry in state_entries:
        state = _expect(entry, dict, "each entry of states").get("id")
        if not isinstance(state, str):
            raise InvalidModelError("state entry %s needs a string id" % entry)
        states.append(state)
        for prop in _names(entry.get("props", []), "props of state %s" % state):
            valuation.setdefault(prop, set()).add(state)
    for section, table in (("actions", actions), ("transitions", transitions)):
        unknown = set(table) - set(states)
        if unknown:
            raise InvalidModelError(
                "%s declared for unknown state %s" % (section, min(unknown))
            )

    action_table: dict[str, dict[str, list[str]]] = {}
    for state, per_state in actions.items():
        _expect(per_state, dict, "actions of state %s" % state)
        action_table[state] = {
            agent: _names(
                per_state[agent], "actions of agent %s at state %s" % (agent, state)
            )
            for agent in agents
            if agent in per_state
        }
    outcome: dict[tuple[str, tuple[str, ...]], str] = {}
    for state, declared in transitions.items():
        what = "each transition of state %s" % state
        for item in _expect(declared, list, "transitions of state %s" % state):
            if "to" not in _expect(item, dict, what):
                raise InvalidModelError("transition at %s has no target" % state)
            mapping = _expect(item.get("profile"), dict, "profile of " + what)
            if mapping.keys() != agent_set:
                missing = agent_set - mapping.keys()
                fault = "omits agent" if missing else "names unknown agent"
                agent = min(missing or mapping.keys() - agent_set)
                raise InvalidModelError(
                    "transition at %s %s %s" % (state, fault, agent)
                )
            profile = tuple([mapping[agent] for agent in agent_order])
            if not all(isinstance(action, str) for action in profile):
                raise InvalidModelError(
                    "each action in the profile of %s must be a JSON string" % what
                )
            if (state, profile) in outcome:
                raise InvalidModelError(
                    "duplicate transition at %s for profile %s"
                    % (state, format_profile(agent_order, profile))
                )
            outcome[(state, profile)] = _expect(item["to"], str, "target of " + what)

    model = ConcurrentGameModel(agents, states, action_table, outcome, valuation)
    problems = model.validate()
    if problems:
        raise InvalidModelError(problems[0])
    return model


def read_json(path: str):
    """The document in JSON file `path`.

    A file that is not JSON (bad syntax, bad UTF-8, or nesting too deep
    for the decoder), or an object that gives one key twice, raises
    InvalidModelError naming the file.
    """

    def unique(pairs: list) -> dict:
        document = dict(pairs)
        if len(document) != len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise InvalidModelError(
                        "%s repeats the key %s in one object" % (path, key)
                    )
                seen.add(key)
        return document

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=unique)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise InvalidModelError("%s is not valid JSON: %s" % (path, err)) from None
        except RecursionError:
            raise InvalidModelError("%s is nested too deeply to read" % path) from None


def load_model(path: str) -> ConcurrentGameModel:
    return from_json_dict(read_json(path))


def save_model(model: ConcurrentGameModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model.to_json_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def disjoint_union(
    left: ConcurrentGameModel, right: ConcurrentGameModel
) -> tuple[ConcurrentGameModel, dict[str, str], dict[str, str]]:
    """Combine two models over the same agents into one.

    Returns the union model and the state renamings applied to each
    side. Only used for cross-model bisimulation queries; the union has
    no transitions between the two sides.
    """
    if left.agents != right.agents:
        raise InvalidModelError(
            "agent universes differ: %s vs %s" % (left.agents, right.agents)
        )
    left_map = {state: "L:" + state for state in left.states}
    right_map = {state: "R:" + state for state in right.states}
    states = [left_map[s] for s in left.states] + [right_map[s] for s in right.states]
    actions = {}
    rows: dict[str, tuple[str, ...]] = {}
    for model, renaming in ((left, left_map), (right, right_map)):
        for state in model.states:
            actions[renaming[state]] = {
                agent: model.actions_of(state, agent) for agent in model.agents
            }
            rows[renaming[state]] = tuple(map(renaming.__getitem__, model.row(state)))
    valuation: dict[str, set[str]] = {}
    for model, renaming in ((left, left_map), (right, right_map)):
        for prop, where in model.valuation.items():
            valuation.setdefault(prop, set()).update(
                renaming[state] for state in where
            )
    union = ConcurrentGameModel.from_rows(left.agents, states, actions, rows, valuation)
    return union, left_map, right_map
