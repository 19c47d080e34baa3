"""Model machinery: validation, out-sets, copy-splitting, serialization."""

import pytest

from tlcga.corpus import example_a, example_b
from tlcga.models import (
    ConcurrentGameModel,
    InvalidModelError,
    disjoint_union,
    format_profile,
    from_json_dict,
    load_model,
    save_model,
)


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

    def test_immutable(self):
        model = tiny_loop()
        with pytest.raises(AttributeError):
            model.states = ()


class TestOutSets:
    def test_single_agent_restriction(self):
        model = example_b().model
        assert model.out_set("s", ["1"], {"1": "a1"}) == {"s1", "s2"}

    def test_full_profile_is_deterministic(self):
        model = example_b().model
        joint = {"1": "a1", "2": "a2", "3": "a3"}
        assert model.out_set("s", ["1", "2", "3"], joint) == {"s1"}

    def test_empty_coalition_yields_all_successors(self):
        model = example_b().model
        assert model.out_set("s", [], {}) == {"s1", "s2"}
        assert model.successors("s") == {"s1", "s2"}

    def test_monotone_in_the_coalition(self):
        model = example_b().model
        joint = {"1": "a1", "2": "b2", "3": "b3"}
        for coalition in ([], ["1"], ["1", "2"], ["1", "2", "3"]):
            smaller = model.out_set("s", coalition, joint)
            assert model.out_set("s", ["1", "2", "3"], joint) <= smaller

    def test_unavailable_action_is_rejected(self):
        model = example_b().model
        with pytest.raises(InvalidModelError):
            model.out_set("s", ["1"], {"1": "zz"})


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
        assert split.successors("s#0") == {"s#0"}


class TestSerialization:
    def test_round_trip_preserves_content(self):
        model = example_b().model
        again = from_json_dict(model.to_json_dict())
        assert again.canonical_json() == model.canonical_json()
        assert again.content_hash() == model.content_hash()

    def test_save_and_load(self, tmp_path):
        model = example_a().model
        path = str(tmp_path / "model.json")
        save_model(model, path)
        assert load_model(path).canonical_json() == model.canonical_json()

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
