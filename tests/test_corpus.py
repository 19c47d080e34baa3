"""Built-in example models: structure, registry, and file output."""

import time

import pytest

from tlcga.corpus import (
    CROSSED,
    EATEN,
    build_case,
    build_password_model,
    build_river_crossing,
    case_names,
    default_cases,
    example_b,
    sheep_wolves,
    write_case,
)
from tlcga import models
from tlcga.models import ResourceLimitError, load_model
from tlcga.parser import parse_state_formula


class TestRegistry:
    def test_names(self):
        assert case_names() == [
            "exampleA",
            "exampleB",
            "exampleB-gamma-prime",
            "sheep-wolves(n,m,mode)",
            "password",
        ]

    def test_every_default_case_is_well_formed(self):
        for case in default_cases():
            assert case.model.validate() == [], case.name
            assert case.model.has_state(case.start), case.name
            for name, text in case.formulas.items():
                parse_state_formula(text)
            for check in case.checks:
                assert check.formula in case.formulas, case.name
                assert case.model.has_state(check.state), case.name
            for query in case.oracle_queries:
                assert query.formula in case.formulas, case.name
                assert query.outcome in ("witness", "none (exact)"), case.name

    def test_build_case_by_name(self):
        assert build_case("exampleA").name == "exampleA"
        case = build_case("sheep-wolves", n_sheep=1, n_wolves=1, mode="simultaneous")
        assert case.name == "sheep-wolves(1,1,simultaneous)"

    def test_unknown_name_is_rejected(self):
        with pytest.raises(KeyError):
            build_case("exampleZ")

    def test_stray_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            build_case("password", n_sheep=1)


class TestPassword:
    def test_start_has_no_access_bits(self):
        model = build_password_model()
        assert model.props_at("s00") == frozenset()
        assert model.props_at("s11") == {"H_A", "H_B"}

    def test_sending_is_permanent(self):
        model = build_password_model()
        assert model.out("s00", ("send", "withhold")) == "s01"
        assert model.out("s01", ("withhold", "withhold")) == "s01"
        assert model.out("s01", ("withhold", "send")) == "s11"
        assert model.out("s11", ("withhold", "withhold")) == "s11"

    def test_simultaneous_exchange(self):
        model = build_password_model()
        assert model.out("s00", ("send", "send")) == "s11"


class TestRiverCrossing:
    def test_lone_sheep_rows_across(self):
        model, start = build_river_crossing(1, 0)
        assert start == "s1w0L"
        assert model.out(start, ("board",)) == "crossed"
        assert model.out(start, ("stay",)) == start
        assert model.out("crossed", ("stay",)) == "crossed"
        assert model.props_at("crossed") == {"c"}
        assert model.props_at("eaten") == {"e"}

    def test_pair_crossing_together(self):
        model, start = build_river_crossing(1, 1)
        assert model.out(start, ("board", "board")) == "crossed"
        assert model.out(start, ("board", "stay")) == "s0w1R"
        assert model.out(start, ("stay", "board")) == "s1w0R"
        assert model.out(start, ("stay", "stay")) == start

    def test_far_side_animals_cannot_board(self):
        model, _ = build_river_crossing(1, 1)
        # With the boat on the right bank, the wolf left behind cannot
        # board no matter what its action says.
        assert model.out("s1w0R", ("board", "board")) == "s1w1L"
        assert model.out("s1w0R", ("stay", "board")) == "s1w1L"
        assert model.out("s1w0R", ("stay", "stay")) == "s1w0R"

    def test_outnumbered_start_is_already_fatal(self):
        _, start = build_river_crossing(1, 2)
        assert start == "eaten"

    def test_outnumbering_arrival_is_fatal(self):
        model, start = build_river_crossing(2, 2)
        mapping = {"s1": "board", "s2": "stay", "w1": "board", "w2": "stay"}
        profile = tuple(mapping[a] for a in model.agents)
        assert model.out(start, profile) == "s1w1R"
        # The lone wolf rows back: the left bank would hold one sheep
        # against two wolves.
        mapping = {"s1": "stay", "s2": "stay", "w1": "stay", "w2": "board"}
        profile = tuple(mapping[a] for a in model.agents)
        assert model.out("s1w1R", profile) == "eaten"

    def test_boat_load_outnumbering_is_fatal(self):
        model, start = build_river_crossing(2, 2)
        mapping = {"s1": "board", "s2": "stay", "w1": "board", "w2": "board"}
        profile = tuple(mapping[a] for a in model.agents)
        # Three boarders exceed the boat, so nothing moves.
        assert model.out(start, profile) == start
        mapping = {"s1": "stay", "s2": "stay", "w1": "board", "w2": "board"}
        profile = tuple(mapping[a] for a in model.agents)
        # Two wolves crossing leave 2 sheep vs 0 wolves behind and land
        # facing no sheep: safe.
        assert model.out(start, profile) == "s2w0R"

    def test_split_rounds_insert_half_states(self):
        model, start = build_river_crossing(1, 1, mode="wolves_then_sheep")
        committed = model.out(start, ("stay", "board"))
        assert committed == "s1w1Lp1"
        held_back = model.out(start, ("board", "stay"))
        assert held_back == "s1w1Lp0"
        # At the half state only the sheep's answer matters.
        assert model.out(committed, ("board", "stay")) == "crossed"
        assert model.out(committed, ("board", "board")) == "crossed"
        assert model.out(committed, ("stay", "stay")) == "s1w0R"
        # No boarders at all: the round restarts.
        assert model.out(held_back, ("stay", "stay")) == start

    def test_models_validate(self):
        for n, m, mode in ((1, 0, "simultaneous"), (2, 2, "simultaneous"), (1, 1, "wolves_then_sheep")):
            model, _ = build_river_crossing(n, m, mode)
            assert model.validate() == []

    def test_budget_stops_a_build_partway(self, monkeypatch):
        # (3,3,simultaneous) has 16 states: 2 sinks and 14 of 64
        # transitions each, 898 in all; one fewer stops the last state.
        monkeypatch.setattr(models, "MAX_TRANSITIONS", 897)
        with pytest.raises(ResourceLimitError, match="more than 897 transitions"):
            build_river_crossing(3, 3)
        monkeypatch.setattr(models, "MAX_TRANSITIONS", 898)
        model, _ = build_river_crossing(3, 3)
        assert sum(len(model.row(state)) for state in model.states) == 898

    @pytest.mark.parametrize(
        "mode, size, transitions",
        [("simultaneous", 17, 61442), ("wolves_then_sheep", 82, 327682)],
    )
    def test_six_and_six_fit_the_budget(self, mode, size, transitions):
        model, _ = build_river_crossing(6, 6, mode)
        assert len(model.states) == size
        assert sum(len(model.row(state)) for state in model.states) == transitions

    @pytest.mark.parametrize(
        "n_sheep, n_wolves", [(21, 0), (1, 25), (30, 0), (10**9, 0)]
    )
    def test_one_state_over_the_budget_raises_at_once(self, n_sheep, n_wolves):
        # (1, 25) starts eaten, and (10**9, 0) would need a 2^(10^9) count.
        with pytest.raises(
            ResourceLimitError,
            match="river crossing would have more than 2000000 transitions",
        ):
            build_river_crossing(n_sheep, n_wolves)

    @pytest.mark.parametrize("mode", ["simultaneous", "wolves_then_sheep"])
    @pytest.mark.parametrize("animals", range(2, 7))
    def test_every_safe_start_reaches_two_non_sink_states(self, animals, mode):
        # The claim behind refusing a build when two non-sink states
        # would pass the budget.
        for n_sheep in range(animals + 1):
            model, start = build_river_crossing(n_sheep, animals - n_sheep, mode)
            if start == EATEN:
                continue
            non_sinks = [s for s in model.states if s not in (EATEN, CROSSED)]
            assert start in non_sinks and len(non_sinks) >= 2, (n_sheep, mode)

    @pytest.mark.parametrize("mode", ["simultaneous", "wolves_then_sheep"])
    @pytest.mark.parametrize("n_sheep, n_wolves", [(20, 0), (10, 10), (0, 20)])
    def test_two_states_over_the_budget_raise_at_once(self, n_sheep, n_wolves, mode):
        began = time.process_time()
        with pytest.raises(
            ResourceLimitError,
            match="river crossing would have more than 2000000 transitions",
        ):
            build_river_crossing(n_sheep, n_wolves, mode)
        assert time.process_time() - began < 0.5

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            build_river_crossing(1, 1, mode="sheep_first")

    def test_no_animals_rejected(self):
        with pytest.raises(ValueError):
            build_river_crossing(0, 0)

    @pytest.mark.parametrize(
        "n_sheep, n_wolves, mode, start, size, digest",
        [
            (1, 1, "simultaneous", "s1w1L", 5, "1d5468266206ae27"),
            (2, 2, "simultaneous", "s2w2L", 11, "21404d7805c9581b"),
            (3, 3, "simultaneous", "s3w3L", 16, "553a79f72f54ea15"),
            (4, 4, "simultaneous", "s4w4L", 13, "dc314f27f08a678f"),
            (5, 5, "simultaneous", "s5w5L", 15, "e47e1361a8209703"),
            (6, 6, "simultaneous", "s6w6L", 17, "c5d250b930b23d5f"),
            (1, 1, "wolves_then_sheep", "s1w1L", 10, "0ad507d578e0ffeb"),
            (2, 2, "wolves_then_sheep", "s2w2L", 31, "b8ee20e354407583"),
            (3, 3, "wolves_then_sheep", "s3w3L", 56, "cdc21b65c86ed896"),
            (4, 4, "wolves_then_sheep", "s4w4L", 50, "28757d245d2e67fe"),
            (5, 5, "wolves_then_sheep", "s5w5L", 65, "92c84f12ba74a289"),
            (2, 1, "simultaneous", "s2w1L", 9, "5f793d15efd893f3"),
            (1, 2, "wolves_then_sheep", "eaten", 2, "f6a66b6135c883d4"),
            (3, 0, "wolves_then_sheep", "s3w0L", 10, "d6d57442571f1a02"),
            # Agents sort s1, s10, s2, ...: boarders follow agent
            # positions, not animal numbers.
            (10, 0, "simultaneous", "s10w0L", 20, "d8c6e7876ee8697a"),
        ],
    )
    def test_pinned_models(self, n_sheep, n_wolves, mode, start, size, digest):
        # content_hash lists states in model order, so it pins that too.
        model, got = build_river_crossing(n_sheep, n_wolves, mode)
        assert (got, len(model.states), model.content_hash()) == (start, size, digest)

    def test_formula_mentions_every_animal(self):
        case = sheep_wolves(2, 1)
        assert case.formulas["crossing"] == (
            "<< {s1,s2,w1} -> (true U c); {s1,s2} -> G !e >>"
        )
        case = sheep_wolves(1, 0)
        assert case.formulas["crossing"] == "<< {s1} -> (true U c) >>"


class TestExampleStructure:
    def test_example_b_profile_fan_in(self):
        model = example_b().model
        to_s2 = [
            profile
            for profile in model.profiles("s")
            if model.out("s", profile) == "s2"
        ]
        assert len(to_s2) == 3

    def test_write_case_round_trips(self, tmp_path):
        case = example_b()
        written = write_case(case, str(tmp_path / "out"))
        assert any(path.endswith("model.json") for path in written)
        model_path = [p for p in written if p.endswith("model.json")][0]
        assert load_model(model_path).to_json_dict() == case.model.to_json_dict()
        formula_files = [p for p in written if p.endswith(".tlcga")]
        assert len(formula_files) == len(case.formulas)
        for path in formula_files:
            with open(path, "r", encoding="utf-8") as handle:
                parse_state_formula(handle.read())
