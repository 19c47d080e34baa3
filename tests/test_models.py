"""Model machinery: validation, out-sets, copy-splitting, serialization."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from tlcga.corpus import default_cases, example_a, example_b, sheep_wolves
from tlcga.models import (
    ConcurrentGameModel,
    Effectivity,
    InvalidModelError,
    disjoint_union,
    format_profile,
    from_json_dict,
    load_model,
    save_model,
)
from tlcga.sampling import make_rng, random_model


def canonical_json(model) -> str:
    """Reference for `content_hash`: the whole model document, built and
    written as compact, key-sorted JSON with the default ASCII escaping."""
    return json.dumps(model.to_json_dict(), sort_keys=True, separators=(",", ":"))


def reference_hash(model) -> str:
    return hashlib.sha256(canonical_json(model).encode()).hexdigest()[:16]


def tiny_loop():
    return ConcurrentGameModel(
        agents=["a"],
        states=["s"],
        actions={"s": {"a": ["go"]}},
        outcome={("s", ("go",)): "s"},
        valuation={},
    )


class TestValidation:
    def test_example_a_is_valid(self):
        assert example_a().model.validate() == []

    def test_example_b_is_valid(self):
        assert example_b().model.validate() == []

    def test_missing_transition_is_reported(self):
        model = ConcurrentGameModel(
            agents=["a"],
            states=["s"],
            actions={"s": {"a": ["x", "y"]}},
            outcome={("s", ("x",)): "s"},
            valuation={},
        )
        problems = model.validate()
        assert len(problems) == 1
        assert "outcome not total" in problems[0]
        assert "(a=y)" in problems[0]

    def test_empty_action_set_is_reported(self):
        model = ConcurrentGameModel(
            agents=["a", "b"],
            states=["s"],
            actions={"s": {"a": ["x"]}},
            outcome={},
            valuation={},
        )
        assert any("empty action set for agent b" in p for p in model.validate())

    def test_unknown_target_is_reported(self):
        model = ConcurrentGameModel(
            agents=["a"],
            states=["s"],
            actions={"s": {"a": ["x"]}},
            outcome={("s", ("x",)): "elsewhere"},
            valuation={},
        )
        assert any("unknown state elsewhere" in p for p in model.validate())

    def test_unknown_valuation_state_is_reported(self):
        model = ConcurrentGameModel(
            agents=["a"],
            states=["s"],
            actions={"s": {"a": ["x"]}},
            outcome={("s", ("x",)): "s"},
            valuation={"p": ["ghost"]},
        )
        assert any("mentions unknown state ghost" in p for p in model.validate())

    # Stray transitions (an unknown source, then an unavailable profile)
    # sit between the states' own, so the list shows they are reported in
    # the mapping's order, after every state's own faults.
    FAULTY = {
        ("s", ("x", "z")): "t",
        ("ghost", ("x", "z")): "s",
        ("u", ("x", "z")): "nowhere",
        ("s", ("w", "z")): "t",
    }
    FAULTS = [
        "outcome not total: no transition at s for profile (a=y, b=z)",
        "empty action set for agent a at state t",
        "duplicate actions for agent a at state u",
        "transition from u via (a=x, b=z) targets unknown state nowhere",
        "transition from u via (a=x, b=z) targets unknown state nowhere",
        "transition from unknown state ghost",
        "transition from s uses unavailable profile (a=w, b=z)",
        "valuation of p mentions unknown state phantom",
        "valuation of q mentions unknown state aa",
        "valuation of q mentions unknown state zz",
    ]

    def test_every_fault_is_listed_in_order(self):
        model = ConcurrentGameModel(
            agents=["b", "a"],
            states=["s", "t", "u"],
            actions={
                "s": {"a": ["x", "y"], "b": ["z"]},
                "t": {"a": [], "b": ["z"]},
                "u": {"a": ["x", "x"], "b": ["z"]},
            },
            outcome=self.FAULTY,
            valuation={"q": ["zz", "u", "aa"], "p": ["s", "phantom"]},
        )
        assert model.validate() == self.FAULTS

    def test_strays_are_listed_when_no_action_repeats(self):
        # As above, but u's actions are distinct: no duplicate-actions
        # fault, and u's one profile gives its target fault once.
        model = ConcurrentGameModel(
            agents=["b", "a"],
            states=["s", "t", "u"],
            actions={
                "s": {"a": ["x", "y"], "b": ["z"]},
                "t": {"a": [], "b": ["z"]},
                "u": {"a": ["x"], "b": ["z"]},
            },
            outcome=self.FAULTY,
            valuation={"q": ["zz", "u", "aa"], "p": ["s", "phantom"]},
        )
        assert model.validate() == [
            fault for fault in dict.fromkeys(self.FAULTS)
            if not fault.startswith("duplicate actions")
        ]

    @pytest.mark.parametrize(
        "agents, states, faults",
        [
            ([], ["s"], ["model declares no agents",
                         "outcome not total: no transition at s for profile ()"]),
            (["a"], [], ["model has no states"]),
        ],
        ids=["no-agents", "no-states"],
    )
    def test_an_empty_universe_is_listed(self, agents, states, faults):
        model = ConcurrentGameModel(agents, states, {}, {}, {})
        assert model.validate() == faults

    def test_immutable(self):
        model = tiny_loop()
        with pytest.raises(AttributeError):
            model.states = ()


def out_set(model, state, coalition, joint):
    """The outcomes `Effectivity.blocks` gives the coalition's joint action."""
    index = Effectivity(model)
    positions = index.positions(coalition)
    blocks = index.blocks(state, positions)
    restriction = tuple(joint[model.agents[i]] for i in positions)
    return blocks.outcomes[blocks.of_restriction[restriction]]


class TestOutSets:
    def test_single_agent_restriction(self):
        model = example_b().model
        assert out_set(model, "s", ["1"], {"1": "a1"}) == {"s1", "s2"}

    def test_full_profile_is_deterministic(self):
        model = example_b().model
        joint = {"1": "a1", "2": "a2", "3": "a3"}
        assert out_set(model, "s", ["1", "2", "3"], joint) == {"s1"}

    def test_empty_coalition_yields_all_successors(self):
        model = example_b().model
        assert out_set(model, "s", [], {}) == {"s1", "s2"}

    def test_monotone_in_the_coalition(self):
        model = example_b().model
        joint = {"1": "a1", "2": "b2", "3": "b3"}
        for coalition in ([], ["1"], ["1", "2"], ["1", "2", "3"]):
            smaller = out_set(model, "s", coalition, joint)
            assert out_set(model, "s", ["1", "2", "3"], joint) <= smaller

    def test_unavailable_action_has_no_block(self):
        model = example_b().model
        index = Effectivity(model)
        blocks = index.blocks("s", index.positions(["1"]))
        available = {(action,) for action in model.actions_of("s", "1")}
        assert set(blocks.of_restriction) == available
        assert ("zz",) not in blocks.of_restriction


def twin_states():
    """s and t share their action lists but not their outcomes; u has its own."""
    shared = {"a": ("x", "y"), "b": ("z",)}
    return ConcurrentGameModel(
        ["a", "b"],
        ["s", "t", "u"],
        {"s": shared, "t": dict(shared), "u": {"a": ("x",), "b": ("z",)}},
        {
            ("s", ("x", "z")): "s",
            ("s", ("y", "z")): "t",
            ("t", ("x", "z")): "u",
            ("t", ("y", "z")): "u",
            ("u", ("x", "z")): "u",
        },
        {},
    )


class TestSharedShapes:
    """States with equal action lists share their profiles and block shapes."""

    COALITIONS = [(), (0,), (1,), (0, 1)]

    def test_equal_action_lists_share_one_profile_tuple(self):
        model = twin_states()
        assert model.profiles("s") is model.profiles("t")
        assert model.profiles("u") is not model.profiles("s")
        assert model.profiles("u") == (("x", "z"),)

    @pytest.mark.parametrize("coalition", COALITIONS)
    def test_block_shapes_are_shared_and_outcomes_are_not(self, coalition):
        index = Effectivity(twin_states())
        s, t, u = (index.blocks(state, coalition) for state in "stu")
        assert s.of_profile is t.of_profile
        assert s.of_restriction is t.of_restriction
        assert s.outcomes != t.outcomes
        assert s.of_profile is not u.of_profile
        assert len(u.of_profile) == 1
        assert index.masks("s", coalition) != index.masks("t", coalition)

    def test_outcomes_and_masks_are_the_states_own(self):
        index = Effectivity(twin_states())
        assert index.blocks("s", (1,)).outcomes == ({"s", "t"},)
        assert index.blocks("t", (1,)).outcomes == ({"u"},)
        assert index.masks("s", (0,)) == [({"s"}, 0b01), ({"t"}, 0b10)]
        # Blocks with equal outcome sets merge into one mask.
        assert index.masks("t", (0,)) == [({"u"}, 0b11)]
        assert index.masks("t", (0, 1)) == [({"u"}, 0b11)]


class TestCopySplitting:
    def test_example_b_is_not_injective(self):
        assert example_b().model.is_injective() is False

    def test_single_loop_is_injective(self):
        assert tiny_loop().is_injective() is True

    def test_copy_counts_match_profile_multiplicity(self):
        model = example_b().model
        split, copies = model.scos()
        assert len(copies["s2"]) == 3
        for state in ("s", "s1", "s31", "s32"):
            assert len(copies[state]) == 1
        assert split.is_injective() is True
        assert split.validate() == []

    def test_copies_keep_the_valuation(self):
        model = example_b().model
        split, copies = model.scos()
        for state in model.states:
            for copy in copies[state]:
                assert split.props_at(copy) == model.props_at(state)

    def test_profiles_are_redirected_in_canonical_order(self):
        model = example_b().model
        split, copies = model.scos()
        source = copies["s"][0]
        assert split.out(source, ("a1", "a2", "a3")) == copies["s1"][0]
        assert split.out(source, ("a1", "a2", "b3")) == copies["s2"][0]
        assert split.out(source, ("a1", "b2", "a3")) == copies["s2"][1]
        assert split.out(source, ("a1", "b2", "b3")) == copies["s2"][2]

    def test_splitting_an_injective_model_changes_nothing(self):
        model = tiny_loop()
        split, copies = model.scos()
        assert [copies[s] for s in model.states] == [("s#0",)]
        assert Effectivity(split).blocks("s#0", ()).outcomes == ({"s#0"},)


class TestSerialization:
    def test_round_trip_preserves_content(self):
        model = example_b().model
        again = from_json_dict(model.to_json_dict())
        assert canonical_json(again) == canonical_json(model)
        assert again.content_hash() == model.content_hash()

    def test_save_and_load(self, tmp_path):
        model = example_a().model
        path = str(tmp_path / "model.json")
        save_model(model, path)
        assert canonical_json(load_model(path)) == canonical_json(model)

    def test_duplicate_transition_is_rejected(self):
        data = tiny_loop().to_json_dict()
        data["transitions"]["s"].append(data["transitions"]["s"][0])
        with pytest.raises(InvalidModelError, match=r"duplicate transition at s for profile \(a=go\)"):
            from_json_dict(data)

    def test_missing_profile_is_rejected(self):
        data = example_a().model.to_json_dict()
        data["transitions"]["s"] = data["transitions"]["s"][:1]
        with pytest.raises(
            InvalidModelError,
            match=r"^outcome not total: no transition at s for profile \(a=a2, b=b\)$",
        ):
            from_json_dict(data)

    def test_omitted_agent_is_rejected(self):
        data = tiny_loop().to_json_dict()
        data["transitions"]["s"][0]["profile"] = {}
        with pytest.raises(InvalidModelError, match="omits agent a"):
            from_json_dict(data)

    def test_unknown_agent_is_rejected(self):
        data = tiny_loop().to_json_dict()
        data["transitions"]["s"][0]["profile"]["ghost"] = "go"
        with pytest.raises(InvalidModelError, match="unknown agent ghost"):
            from_json_dict(data)

    def test_unknown_target_is_rejected(self):
        data = tiny_loop().to_json_dict()
        data["transitions"]["s"][0]["to"] = "ghost"
        with pytest.raises(
            InvalidModelError,
            match=r"^transition from s via \(a=go\) targets unknown state ghost$",
        ):
            from_json_dict(data)

    def test_empty_action_set_is_rejected(self):
        data = tiny_loop().to_json_dict()
        data["actions"]["s"]["a"] = []
        with pytest.raises(
            InvalidModelError, match="^empty action set for agent a at state s$"
        ):
            from_json_dict(data)

    # One broken document per rule of `validate()` that no test above
    # covers; the loader raises the rule's message. (A document cannot
    # put an unknown state into the valuation: props are listed per state.)
    @pytest.mark.parametrize(
        "breaks, message",
        [
            (
                lambda data: data["actions"]["s"].update(a=["go", "go"]),
                "duplicate actions for agent a at state s",
            ),
            (
                lambda data: data["transitions"]["s"].append(
                    {"profile": {"a": "stop"}, "to": "s"}
                ),
                r"transition from s uses unavailable profile \(a=stop\)",
            ),
            (
                lambda data: data.update(
                    agents=[],
                    actions={"s": {}},
                    transitions={"s": [{"profile": {}, "to": "s"}]},
                ),
                "model declares no agents",
            ),
            (
                lambda data: data.update(states=[], actions={}, transitions={}),
                "model has no states",
            ),
        ],
        ids=["duplicate-actions", "unavailable-profile", "no-agents", "no-states"],
    )
    def test_model_rules_are_checked_on_load(self, breaks, message):
        data = tiny_loop().to_json_dict()
        breaks(data)
        with pytest.raises(InvalidModelError, match="^%s$" % message):
            from_json_dict(data)

    def test_string_agents_are_rejected(self):
        data = example_a().model.to_json_dict()
        data["agents"] = "ab"
        with pytest.raises(InvalidModelError, match="agents must be a JSON list"):
            from_json_dict(data)

    def test_invalid_json_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(InvalidModelError, match="not valid JSON"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff", "is not valid JSON: 'utf-8' codec can't decode"),
            (b"[" * 100000 + b"]" * 100000, "is nested too deeply to read"),
        ],
        ids=["encoding", "depth"],
    )
    def test_unreadable_json_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(InvalidModelError) as caught:
            load_model(str(path))
        assert str(caught.value).startswith("%s %s" % (path, message))


def through_mapping(model):
    """The same model built by the mapping constructor from its rows."""
    outcome = {
        (state, profile): target
        for state in model.states
        for profile, target in zip(model.profiles(state), model.row(state))
    }
    return ConcurrentGameModel(
        model.agents, model.states, model.actions, outcome, model.valuation
    )


def _built_models():
    for mode in ("simultaneous", "wolves_then_sheep"):
        for n in range(1, 6):
            yield "sheep-wolves(%d,%d,%s)" % (n, n, mode), sheep_wolves(n, n, mode).model
    for case in default_cases():
        yield "split " + case.name, case.model.scos()[0]
    model = example_a().model
    yield "exampleA + split", disjoint_union(model, model.scos()[0])[0]
    rng = make_rng(6201)
    for draw in range(200):
        yield "random draw %d" % draw, random_model(rng, max_actions=3)


class TestRowConstructors:
    """`from_rows` and the mapping constructor build the same model."""

    def test_every_built_model_agrees_with_its_mapping(self):
        for label, model in _built_models():
            other = through_mapping(model)
            assert other.content_hash() == model.content_hash(), label
            assert other.to_json_dict() == model.to_json_dict(), label
            assert other.validate() == model.validate() == [], label
            for state in model.states:
                assert other.row(state) == model.row(state), (label, state)

    def test_a_gap_raises_what_out_raises(self):
        model = ConcurrentGameModel(
            agents=["a"],
            states=["s"],
            actions={"s": {"a": ["x", "y", "z"]}},
            outcome={("s", ("x",)): "s"},
            valuation={},
        )
        for read in (lambda: model.row("s"), model.scos, model.is_injective,
                     model.to_json_dict, model.content_hash):
            with pytest.raises(
                InvalidModelError, match=r"^no outcome at s for profile \(a=y\)$"
            ):
                read()

    @pytest.mark.parametrize(
        "state, profile", [("s", ("w",)), ("ghost", ("x",))],
        ids=["unavailable-profile", "unknown-state"],
    )
    def test_out_names_a_profile_it_cannot_place(self, state, profile):
        model = ConcurrentGameModel(
            ["a"], ["s"], {"s": {"a": ["x"]}},
            {("s", ("x",)): "s", (state, profile): "s"}, {},
        )
        with pytest.raises(InvalidModelError, match="^no outcome at %s" % state):
            model.out(state, profile)


class TestDisjointUnion:
    def test_sides_are_prefixed_and_disconnected(self):
        model = example_a().model
        union, left_map, right_map = disjoint_union(model, model)
        assert left_map["s"] == "L:s"
        assert right_map["s"] == "R:s"
        assert union.validate() == []
        assert union.out("L:s", ("a1", "b")) == "L:s1"
        assert union.out("R:s", ("a1", "b")) == "R:s1"
        assert union.props_at("L:s1") == {"q"}

    def test_mismatched_agents_are_rejected(self):
        with pytest.raises(InvalidModelError, match="agent universes differ"):
            disjoint_union(example_a().model, example_b().model)


def test_format_profile_lists_agents_in_order():
    assert format_profile(("a", "b"), ("a1", "b")) == "(a=a1, b=b)"


def named_model(agents, states, actions, props):
    """A total model over the given names: every agent has `actions` at
    every state, profile i leads to state i modulo the state count, and
    prop j holds at every state whose position is divisible by j + 2,
    so the second state has none."""
    outcome = {}
    for state in states:
        for i, profile in enumerate(itertools.product(actions, repeat=len(agents))):
            outcome[(state, profile)] = states[i % len(states)]
    valuation = {
        prop: [s for k, s in enumerate(states) if k % (j + 2) == 0]
        for j, prop in enumerate(props)
    }
    return ConcurrentGameModel(
        agents,
        states,
        {state: {agent: actions for agent in agents} for state in states},
        outcome,
        valuation,
    )


# Quotes, backslashes, control characters, non-ASCII and astral text, a
# lone surrogate and the empty string; the reference escapes astral
# characters as surrogate pairs.
_AWKWARD = ['q"uote', "back\\slash", "ctl\x00\x1f\n\t", "\x7f", "\u00e9t\u00e9",
            "\u6cb3", "\U0001d538\U0001f600", "\ud800", "", "plain", "Z", "a b"]


class TestContentHash:
    """`content_hash` hashes the bytes of the reference document."""

    @pytest.mark.parametrize("case", default_cases(), ids=lambda case: case.name)
    def test_corpus_cases(self, case):
        assert case.model.content_hash() == reference_hash(case.model)

    @pytest.mark.parametrize("mode", ["simultaneous", "wolves_then_sheep"])
    def test_river_crossing(self, mode):
        for n in range(1, 6):
            model = sheep_wolves(n, n, mode).model
            assert model.content_hash() == reference_hash(model), (n, mode)

    def test_readme_example_and_recipe(self):
        document = {
            "agents": ["a", "b"],
            "states": [{"id": "s", "props": ["p"]}, {"id": "t", "props": []}],
            "actions": {"s": {"a": ["go", "stay"], "b": ["w"]},
                        "t": {"a": ["w"], "b": ["w"]}},
            "transitions": {"s": [{"profile": {"a": "go", "b": "w"}, "to": "t"},
                                  {"profile": {"a": "stay", "b": "w"}, "to": "s"}],
                            "t": [{"profile": {"a": "w", "b": "w"}, "to": "t"}]},
        }
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
        recipe = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert from_json_dict(document).content_hash() == recipe == "291e82d354b80ea2"

    @pytest.mark.parametrize("seed", [6101, 6102])
    def test_random_models_splits_and_unions(self, seed):
        rng = make_rng(seed)
        for draw in range(100):
            model = random_model(rng, max_actions=3)
            split, _ = model.scos()
            other = random_model(rng, min_agents=len(model.agents),
                                 max_agents=len(model.agents))
            union, _, _ = disjoint_union(model, other)
            for each in (model, split, union):
                assert each.content_hash() == reference_hash(each), (seed, draw)

    def test_awkward_names(self):
        for shift in range(len(_AWKWARD)):
            names = _AWKWARD[shift:] + _AWKWARD[:shift]
            model = named_model(names[:2], names[2:7], names[7:9], names[9:])
            assert model.validate() == []
            assert model.content_hash() == reference_hash(model), shift
        assert canonical_json(model).isascii()

    @settings(max_examples=150)
    @given(
        st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True),
        st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True),
        st.lists(st.text(max_size=3), min_size=1, max_size=2, unique=True),
        st.lists(st.text(max_size=3), max_size=3, unique=True),
    )
    def test_drawn_names(self, agents, states, actions, props):
        model = named_model(agents, states, actions, props)
        assert model.content_hash() == reference_hash(model)

    def test_states_without_props(self):
        bare = named_model(["a", "b"], ["s", "t", "u"], ["x", "y"], [])
        assert all(not bare.props_at(state) for state in bare.states)
        some = named_model(["a"], ["s", "t", "u"], ["x"], ["p", "q", "r"])
        assert not some.props_at("t")
        empty_prop = ConcurrentGameModel(
            ["a"], ["s"], {"s": {"a": ["x"]}}, {("s", ("x",)): "s"}, {"p": []}
        )
        for model in (bare, some, empty_prop, tiny_loop()):
            assert model.content_hash() == reference_hash(model)

    def test_a_missing_transition_raises_what_out_raises(self):
        model = ConcurrentGameModel(
            agents=["a"],
            states=["s"],
            actions={"s": {"a": ["x", "y"]}},
            outcome={("s", ("x",)): "s"},
            valuation={},
        )
        with pytest.raises(InvalidModelError, match=r"^no outcome at s for profile \(a=y\)$"):
            model.content_hash()

    def test_the_first_missing_transition_in_model_order_is_named(self):
        # Ids sort as "a" < "z", but the document lists "z" first.
        model = ConcurrentGameModel(
            agents=["a"],
            states=["z", "a"],
            actions={"z": {"a": ["x", "y"]}, "a": {"a": ["x", "y"]}},
            outcome={("z", ("x",)): "a", ("a", ("x",)): "z"},
            valuation={},
        )
        with pytest.raises(InvalidModelError) as reference:
            model.to_json_dict()
        with pytest.raises(InvalidModelError) as streamed:
            model.content_hash()
        assert str(streamed.value) == str(reference.value)
        assert str(streamed.value) == "no outcome at z for profile (a=y)"
