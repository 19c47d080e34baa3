"""Command-line interface: subcommands, exit codes, report determinism."""

import argparse
import contextlib
import copy
import functools
import io
import json
import operator
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tlcga.cli import build_parser, main
from tlcga.corpus import build_case, default_cases, write_case
from tlcga import bisim as bisim_mod
from tlcga.bisim import greatest_bisimulation
from tlcga.models import (
    ConcurrentGameModel,
    InvalidModelError,
    disjoint_union,
    from_json_dict,
    load_model,
    save_model,
)
from tlcga.parser import parse_state_formula
from tlcga.strategies import POSITIONAL, FiniteStrategyProfile

from test_stability import lasso_unilateral_improvement


SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def case_a_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("caseA")
    write_case(build_case("exampleA"), path)
    return path


@pytest.fixture(scope="module")
def coordination_dir(tmp_path_factory):
    # Two players pick heads or tails once; wa marks a match, wb a
    # mismatch.  Useful for the stability notions.
    path = tmp_path_factory.mktemp("coord")
    states = ["s", "hh", "ht", "th", "tt"]
    actions = {
        state: {agent: ("h", "t") if state == "s" else ("z",)
                for agent in ("a", "b")}
        for state in states
    }
    outcome = {}
    for state in states:
        if state == "s":
            for x in "ht":
                for y in "ht":
                    outcome[("s", (x, y))] = x + y
        else:
            outcome[(state, ("z", "z"))] = state
    valuation = {"wa": ["hh", "tt"], "wb": ["ht", "th"]}
    from tlcga.models import ConcurrentGameModel, save_model

    model = ConcurrentGameModel(("a", "b"), states, actions, outcome, valuation)
    save_model(model, path / "model.json")
    (path / "prof_hh.json").write_text(json.dumps({
        "mode": "positional",
        "tables": {
            agent: [{"memory": state, "action": "h" if state == "s" else "z"}
                    for state in states]
            for agent in ("a", "b")
        },
    }))
    (path / "prof_ht.json").write_text(json.dumps({
        "mode": "positional",
        "tables": {
            agent: [{"memory": state,
                     "action": ("h" if agent == "a" else "t")
                     if state == "s" else "z"}
                    for state in states]
            for agent in ("a", "b")
        },
    }))
    return path


def save_chain(path, length, ends=False):
    """A one-agent chain c0 .. c<length-1> where x and y both step
    forward and p holds everywhere. The last state loops, or with `ends`
    its x leads to a sink g and its y to a sink bad labelled b."""
    chain = ["c%d" % i for i in range(length)]
    states = chain + (["g", "bad"] if ends else [])
    outcome = {}
    for here, there in zip(chain, chain[1:]):
        outcome[(here, ("x",))] = outcome[(here, ("y",))] = there
    last = chain[-1]
    outcome[(last, ("x",))] = "g" if ends else last
    outcome[(last, ("y",))] = "bad" if ends else last
    for sink in states[length:]:
        outcome[(sink, ("x",))] = outcome[(sink, ("y",))] = sink
    model = ConcurrentGameModel(
        ("a",), states, {state: {"a": ("x", "y")} for state in states},
        outcome, {"p": states, "b": ["bad"] if ends else []},
    )
    save_model(model, path)
    return str(path)


# Deeper than Python's default recursion limit of 1,000.
CHAIN = 1200


class TestExitCodes:
    def test_answered_query_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--corpus-case", "exampleA",
                           "--formula-name", "gammaA")
        assert code == 0
        assert "holds: true" in out

    def test_false_answer_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--corpus-case", "exampleA",
                           "--formula", "<< {a} -> X !p >>", "--state", "s")
        assert code == 0
        assert "holds:" in out

    def test_usage_error_exits_one(self, capsys):
        assert run(capsys, "bogus")[0] == 1
        assert run(capsys)[0] == 1
        assert run(capsys, "check", "--corpus-case", "exampleA")[0] == 1

    @pytest.mark.parametrize("flag", ["--samples", "--max-states"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_axiom_counts_below_one_are_usage_errors(self, capsys, flag,
                                                     count):
        code, out, err = run(capsys, "axioms", "--schemes", "triv", flag,
                             count)
        assert (code, out) == (1, "")
        assert "usage error: %s must be at least 1" % flag in err

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_oracle_limit_below_one_is_a_usage_error(self, capsys, limit):
        code, out, err = run(capsys, "oracle", "--corpus-case", "exampleA",
                             "--formula-name", "gammaA", "--mode", "play:3",
                             "--limit", limit)
        assert (code, out) == (1, "")
        assert "usage error: --limit must be at least 1" in err

    def test_invalid_input_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "--model", "/no/such/file.json",
                           "--formula", "p", "--state", "s")
        assert code == 2
        assert "invalid input" in err
        code, _, _ = run(capsys, "check", "--corpus-case", "exampleA",
                         "--formula", "<< {a} ->", "--state", "s")
        assert code == 2

    def test_deep_formula_is_invalid_input(self, capsys):
        # Long chains are read in a loop but nest the tree as deeply.
        for formula, position in [
            ("!" * 5000 + "p", 64),
            ("&".join(["p"] * 5000), 0),
            ("|".join(["p"] * 5000), 0),
            ("->".join(["p"] * 5000), 0),
            ("<< {a} -> " + " && ".join(["X p"] * 3000) + " >>", 10),
        ]:
            code, out, err = run(capsys, "check", "--corpus-case", "exampleA",
                                 "--formula", formula, "--state", "s")
            assert code == 2
            assert out == ""
            assert ("syntax error at position %d: formula nested deeper"
                    % position) in err

    @staticmethod
    def _one_state_model(path, props, actions):
        # A string where a list belongs used to be split into letters:
        # actions "go" read as the two actions g and o, props "pq" as p, q.
        document = {
            "agents": ["a"],
            "states": [{"id": "s", "props": props}],
            "actions": {"s": {"a": actions}},
            "transitions": {"s": [{"profile": {"a": act}, "to": "s"}
                                  for act in "go"]},
        }
        path.write_text(json.dumps(document))
        return str(path)

    def test_string_actions_are_invalid_input(self, capsys, tmp_path):
        model = self._one_state_model(tmp_path / "m.json", ["p"], "go")
        code, out, err = run(capsys, "check", "--model", model,
                             "--formula", "p", "--state", "s")
        assert code == 2
        assert out == ""
        assert "actions of agent a at state s must be a JSON list" in err

    def test_string_props_are_invalid_input(self, capsys, tmp_path):
        model = self._one_state_model(tmp_path / "m.json", "pq", ["g", "o"])
        code, out, err = run(capsys, "check", "--model", model,
                             "--formula", "p", "--state", "s")
        assert code == 2
        assert out == ""
        assert "props of state s must be a JSON list" in err

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"states": ["s"]}, "each entry of states must be a JSON object"),
            (
                {"transitions": {"s": {"profile": {"a": "go"}, "to": "s"}}},
                "transitions of state s must be a JSON list",
            ),
            ({"actions": [{"s": {"a": ["go"]}}]}, "actions must be a JSON object"),
            # Names must be JSON strings; each of these used to end in a
            # TypeError traceback, except the integer action, which loaded.
            ({"agents": ["a", 1]}, "each entry of agents must be a JSON string"),
            ({"agents": [["a"]]}, "each entry of agents must be a JSON string"),
            (
                {"states": [{"id": "s", "props": [1, "p"]}]},
                "each entry of props of state s must be a JSON string",
            ),
            (
                {"states": [{"id": "s", "props": [["p"]]}]},
                "each entry of props of state s must be a JSON string",
            ),
            (
                {"actions": {"s": {"a": [["g"], "o"]}}},
                "each entry of actions of agent a at state s must be a JSON string",
            ),
            (
                {"actions": {"s": {"a": [1, "o"]}},
                 "transitions": {"s": [{"profile": {"a": 1}, "to": "s"},
                                       {"profile": {"a": "o"}, "to": "s"}]}},
                "each entry of actions of agent a at state s must be a JSON string",
            ),
            (
                {"transitions": {"s": [{"profile": {"a": ["g"]}, "to": "s"},
                                       {"profile": {"a": "o"}, "to": "s"}]}},
                "each action in the profile of each transition of state s"
                " must be a JSON string",
            ),
            (
                {"transitions": {"s": [{"profile": {"a": "g"}, "to": ["s"]},
                                       {"profile": {"a": "o"}, "to": "s"}]}},
                "target of each transition of state s must be a JSON string",
            ),
        ],
        ids=["state-as-string", "transitions-as-object", "actions-as-list",
             "agent-as-integer", "agent-as-list", "prop-as-integer",
             "prop-as-list", "action-as-list", "action-as-integer",
             "profile-action-as-list", "target-as-list"],
    )
    def test_wrong_json_shapes_are_invalid_input(
        self, capsys, tmp_path, changes, message
    ):
        path = tmp_path / "m.json"
        self._one_state_model(path, ["p"], ["g", "o"])
        document = json.loads(path.read_text())
        document.update(changes)
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "check", "--model", str(path),
                             "--formula", "p", "--state", "s")
        assert code == 2
        assert out == ""
        assert "invalid input: %s" % message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--corpus-case", "exampleA", "--formula-name", "nope"),
             "unknown formula name nope"),
            (("--corpus-case", "nope", "--formula", "p"),
             "unknown corpus case nope"),
        ],
        ids=["formula-name", "corpus-case"],
    )
    def test_unknown_names_are_named(self, capsys, argv, message):
        code, out, err = run(capsys, "check", *argv)
        assert (code, out) == (2, "")
        assert err == "invalid input: %s\n" % message

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--formula", "<<{zz} -> X p>>"),
            ("check", "--formula", "p & !<<{a} -> X (q | <<{b,zz} -> (p U q)>>)>>"),
            ("oracle", "--mode", "positional", "--formula", "<<{zz} -> X p>>"),
            ("stability", "--notion", "coeq",
             "--goals", "<<{a} -> X p; {zz} -> G q>>"),
        ],
        ids=["check", "check-nested", "oracle", "stability"],
    )
    def test_an_agent_the_model_lacks_is_named(self, capsys, argv):
        # The oracle used to answer `outcome: none (exact)` with exit 0,
        # and the checker to fail on the index's KeyError.
        code, out, err = run(capsys, *argv, "--corpus-case", "exampleA")
        assert (code, out) == (2, "")
        assert err == (
            "invalid input: formula names agent zz, which the model does not"
            " declare\n"
        )

    def test_every_name_option_comes_with_a_corpus_case(self):
        # A --formula-name or --goals-name names a formula of the corpus
        # case, so a subcommand without --corpus-case could never use it.
        subcommands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        for name, parser in subcommands.items():
            flags = {flag for action in parser._actions
                     for flag in action.option_strings}
            if any(flag.endswith("-name") for flag in flags):
                assert "--corpus-case" in flags, name

    def test_bounded_oracle_exits_three(self, capsys):
        code, out, _ = run(capsys, "oracle", "--corpus-case", "exampleA",
                           "--formula-name", "gammaA", "--mode", "play:3",
                           "--limit", "3")
        assert code == 3
        assert "none (bounded)" in out

    def test_recursion_limit_is_a_resource_limit(self):
        # Nothing in the program bounds the depth of the formulas that
        # bisimulation builds, so the handler is tried on a parsed one
        # under a lowered recursion limit.
        script = (
            "import sys\n"
            "from tlcga import cli\n"
            "sys.setrecursionlimit(100)\n"
            "sys.exit(cli.main(['check', '--corpus-case', 'exampleA',"
            " '--formula', '!' * 60 + 'p']))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr.startswith("resource limit:")
        assert "Traceback" not in done.stderr


class TestReports:
    def test_text_report_fields(self, capsys):
        _, out, err = run(capsys, "check", "--corpus-case", "exampleB",
                          "--formula-name", "gammaB")
        assert "command: tlcga check --corpus-case exampleB" in out
        assert "model: a4b847210e972374" in out
        assert "formula: << {1,2} -> G p; {1,3} -> G q >>" in out
        assert "iterations: 6" in out
        assert "seed: 1729" in out
        assert "time:" in err and "time:" not in out

    def test_json_report_shape(self, capsys):
        _, out, _ = run(capsys, "check", "--corpus-case", "exampleB",
                        "--formula-name", "gammaB", "--json")
        data = json.loads(out)
        assert data["model_hash"] == "a4b847210e972374"
        assert data["result"]["holds"] is True
        assert data["counters"]["iterations"] == 6
        assert data["seed"] == 1729

    def test_reports_are_byte_identical(self, capsys):
        args = ("axioms", "--samples", "5", "--seed", "42",
                "--schemes", "triv,safe")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first[1] == second[1]

    def test_jobs_flag_does_not_change_output(self, capsys):
        base = run(capsys, "check", "--corpus-case", "exampleA",
                   "--formula-name", "gammaA")
        jobs = run(capsys, "check", "--corpus-case", "exampleA",
                   "--formula-name", "gammaA", "--jobs", "4")
        assert base[1].replace("--formula-name gammaA",
                               "") == jobs[1].replace(
            "--formula-name gammaA --jobs 4", "")


class TestHashSeed:
    """Reports do not depend on the string hash seed.

    The index keys dicts by sets of state names, and set order follows
    `PYTHONHASHSEED`; no report may show that order.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--corpus-case", "sheep-wolves", "--params",
             "n_sheep=3,n_wolves=3,mode=wolves_then_sheep",
             "--formula-name", "crossing"),
            ("bisim", "--corpus-case", "sheep-wolves", "--params",
             "n_sheep=1,n_wolves=1,mode=simultaneous"),
            ("oracle", "--corpus-case", "password", "--formula-name",
             "protective", "--mode", "positional"),
            ("axioms", "--samples", "30"),
        ],
        ids=["check", "bisim", "oracle", "axioms"],
    )
    def test_stdout_is_the_same_under_two_hash_seeds(self, argv):
        outputs = []
        for seed in ("0", "1"):
            done = subprocess.run(
                [sys.executable, "-m", "tlcga.cli", *argv],
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("command: tlcga %s " % argv[0])


class TestModelCommands:
    def test_check_from_model_file(self, capsys, case_a_dir):
        code, out, _ = run(capsys, "check",
                           "--model", str(case_a_dir / "model.json"),
                           "--formula-file", str(case_a_dir / "gammaA.tlcga"),
                           "--state", "s")
        assert code == 0
        assert "holds: true" in out

    def test_oracle_modes_differ(self, capsys):
        _, out, _ = run(capsys, "oracle", "--corpus-case", "exampleA",
                        "--formula-name", "gammaA", "--mode", "positional")
        assert "outcome: none (exact)" in out
        _, out, _ = run(capsys, "oracle", "--corpus-case", "exampleA",
                        "--formula-name", "gammaA", "--mode", "play:3")
        assert "outcome: witness" in out

    def test_oracle_search_deeper_than_the_recursion_limit(
            self, capsys, tmp_path):
        code, out, _ = run(capsys, "oracle",
                           "--model", save_chain(tmp_path / "m.json", CHAIN),
                           "--state", "c0", "--formula", "<< {a} -> G p >>",
                           "--mode", "positional")
        assert code == 0
        assert "outcome: witness" in out
        assert "explored: %d" % (CHAIN + 1) in out.splitlines()

    def test_validate_confirms_an_oracle_witness(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        code, _, _ = run(capsys, "oracle", "--corpus-case", "exampleA",
                         "--formula-name", "gammaA", "--mode", "play:3",
                         "--save-witness", str(path))
        assert code == 0
        code, out, _ = run(capsys, "validate", "--corpus-case", "exampleA",
                           "--formula-name", "gammaA",
                           "--witness", str(path))
        assert code == 0
        assert "verified: true" in out

    def test_witness_round_trips_names_with_spaces_and_brackets(
        self, capsys, tmp_path
    ):
        # A state `x y` and actions `[go,1]`/`stay put` break the rendered
        # memory text, so saved memories are JSON lists.
        go, stay = "[go,1]", "stay put"
        model = ConcurrentGameModel(
            ["a"], ["x y", "z"],
            {"x y": {"a": [go, stay]}, "z": {"a": [stay]}},
            {("x y", (go,)): "z", ("x y", (stay,)): "x y", ("z", (stay,)): "z"},
            {"p": ["z"]},
        )
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        witness = tmp_path / "w.json"
        query = ["--model", str(model_path), "--state", "x y",
                 "--formula", "<< {a} -> (true U p) >>"]
        code, out, _ = run(capsys, "oracle", *query, "--mode", "play:2",
                           "--save-witness", str(witness))
        assert code == 0
        assert "outcome: witness" in out
        memories = [entry["memory"]
                    for entry in json.loads(witness.read_text())["tables"]["a"]]
        assert ["x y", [go], "z"] in memories
        code, out, _ = run(capsys, "validate", *query, "--witness", str(witness))
        assert code == 0
        assert "verified: true" in out

    def test_scos_reports_copies(self, capsys):
        _, out, _ = run(capsys, "scos", "--corpus-case", "exampleB")
        assert "injective before: false" in out
        assert "injective after: true" in out
        assert "states after: 7" in out
        assert "s2: 3" in out

    def test_oversized_scos_exits_three(self, capsys):
        code, out, err = run(capsys, "scos", "--corpus-case", "sheep-wolves",
                             "--params", "n_sheep=5,n_wolves=5")
        assert code == 3
        assert out == ""
        assert "resource limit: scos split would have" in err
        assert "Traceback" not in err

    def test_scos_can_save_the_split_model(self, capsys, tmp_path):
        target = tmp_path / "split.json"
        run(capsys, "scos", "--corpus-case", "exampleB", "--out", str(target))
        model = load_model(target)
        assert model.is_injective()
        assert len(model.states) == 7

    def test_bisim_within_a_model(self, capsys):
        _, out, _ = run(capsys, "bisim", "--corpus-case", "exampleB",
                        "--state", "s2", "--other-state", "s31")
        assert "bisimilar: false" in out
        assert "distinguished by:" in out

    def test_bisim_across_models(self, capsys, tmp_path):
        split = tmp_path / "split.json"
        run(capsys, "scos", "--corpus-case", "exampleB", "--out", str(split))
        code, out, _ = run(capsys, "bisim", "--corpus-case", "exampleB",
                           "--other", str(split),
                           "--state", "s", "--other-state", "s#0")
        assert code == 0
        assert "bisimilar: true" in out

    def test_bisim_atom_split_on_a_large_model(self, capsys, monkeypatch):
        # The pair differs in its atoms, so no action block is read.
        def refuse(index, state):
            raise AssertionError("action blocks read for %s" % state)

        monkeypatch.setattr(bisim_mod, "_block_rows", refuse)
        code, out, _ = run(capsys, "bisim", "--corpus-case", "sheep-wolves",
                           "--params", "n_sheep=5,n_wolves=5",
                           "--state", "eaten", "--other-state", "s5w5L")
        assert code == 0
        assert "distinguished by: !c & e" in out.splitlines()

    def test_bisim_pair_listing(self, capsys):
        _, out, _ = run(capsys, "bisim", "--corpus-case", "exampleB")
        assert "pairs:" in out

    @pytest.mark.parametrize(
        "case", default_cases(), ids=lambda case: case.name
    )
    def test_bisim_verdicts_match_the_greatest_bisimulation(
        self, capsys, tmp_path, case
    ):
        # Every pair of the model's states and `ghost`, within the model,
        # and each state against its own copies, the start state's copies
        # and `ghost` in the model's scos split.
        model = case.model
        split, copies = model.scos()
        save_model(model, tmp_path / "model.json")
        save_model(split, tmp_path / "split.json")
        within = greatest_bisimulation(model)
        union, left_map, right_map = disjoint_union(model, split)
        in_union = greatest_bisimulation(union)
        across = {
            (a, b) for a in model.states for b in split.states
            if (left_map[a], right_map[b]) in in_union
        }
        other = ("--other", str(tmp_path / "split.json"))
        names = list(model.states) + ["ghost"]
        queries = []
        for i, first in enumerate(names):
            for second in names[i:]:
                queries.append(((), first, second, within))
            others = [*copies.get(first, ()), *copies[case.start], "ghost"]
            for second in dict.fromkeys(others):
                queries.append((other, first, second, across))
        for other, first, second, relation in queries:
            code, out, err = run(
                capsys, "bisim", "--model", str(tmp_path / "model.json"), *other,
                "--state", first, "--other-state", second,
            )
            label = (other, first, second)
            if "ghost" in (first, second):
                assert (code, out) == (2, ""), label
                assert err.startswith("invalid input: unknown state ghost"), label
                continue
            related = (first, second) in relation
            assert code == 0, label
            assert ("bisimilar: %s" % str(related).lower()) in out.splitlines(), label
            assert ("distinguished by:" in out) == (not related), label


class TestFormulaCommands:
    def test_translate_produces_a_fixpoint_formula(self, capsys):
        _, out, _ = run(capsys, "translate",
                        "--formula", "<< {a} -> G p >>")
        assert "mu-calculus: nu _z0 . p & << {a} -> X _z0 >>" in out

    def test_nf_flattens_boolean_structure(self, capsys):
        code, out, _ = run(capsys, "nf", "--formula", "!(p & !q)")
        assert code == 0
        assert "normal form:" in out

    def test_unfold_round_trips_through_the_parser(self, capsys):
        _, out, _ = run(capsys, "unfold",
                        "--formula", "<< {a} -> (p U q); {b} -> G r >>")
        line = next(l for l in out.splitlines() if l.startswith("unfolding:"))
        parse_state_formula(line.split(": ", 1)[1])

    def test_ind_requires_a_target(self, capsys):
        assert run(capsys, "ind", "--formula", "<< {a} -> G p >>")[0] == 1
        code, out, _ = run(capsys, "ind", "--formula", "<< {a} -> G p >>",
                           "--target", "q")
        assert code == 0
        assert "induction formula:" in out

    def test_oplus_matches_the_worked_example(self, capsys):
        _, out, _ = run(capsys, "oplus", "--formula",
                        "<< {a,b} -> (p U q); {c} -> G r; {b,c} -> X s >>")
        line = next(l for l in out.splitlines()
                    if l.startswith("nexttime extension:"))
        assert line.split(": ", 1)[1] == (
            "<< {a,b} -> X << {a,b} -> (p U q) >>; "
            "{a,b,c} -> X s & << {a,b} -> (p U q); {c} -> G r >>; "
            "{b,c} -> X s & << {c} -> G r >>; "
            "{c} -> X << {c} -> G r >> >>"
        )
        assert "entries: 4" in out


class TestOneStep:
    MIXED = ["<< {a} -> X p >>", "<< {b} -> X q >>", "!<< {b} -> X !r >>"]

    @staticmethod
    def _run(capsys, tmp_path, sequent, constraint):
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps(sequent))
        con = tmp_path / "con.json"
        con.write_text(json.dumps(constraint))
        return run(capsys, "onestep-sat", "--sequent", str(seq),
                   "--constraint", str(con))

    def _report(self, capsys, tmp_path, formulas, family):
        """The report lines after the command echo."""
        code, out, _ = self._run(capsys, tmp_path, {"formulas": formulas},
                                 {"family": family})
        assert code == 0
        return out.splitlines()[1:]

    def test_satisfiable_sequent_yields_a_validated_witness(self, capsys,
                                                            tmp_path):
        assert self._report(capsys, tmp_path, self.MIXED,
                            [["p", "q"], ["q", "r"]]) == [
            "agents: a,b",
            "variables: p,q,r",
            "constraint: {p,q}; {q,r}",
            "satisfiable: true",
            "witness actions: 24",
            "witness validated: true",
            "positives: 2",
            "negatives: 1",
            "seed: 1729",
        ]

    def test_unsatisfiable_sequent_yields_a_certificate(self, capsys,
                                                        tmp_path):
        assert self._report(capsys, tmp_path, self.MIXED,
                            [["p", "q"], ["p", "r"]]) == [
            "agents: a,b",
            "variables: p,q,r",
            "constraint: {p,q}; {p,r}",
            "satisfiable: false",
            "certificate: cannot block << {b} -> X !r >> under {a,b} backs"
            " << {b} -> X q >> (blocking {b} needs {q,r})",
            "positives: 2",
            "negatives: 1",
            "seed: 1729",
        ]

    def test_certificate_lists_needs_in_claim_order(self, capsys, tmp_path):
        # The grand coalition {a,b} sits between {a} and {b}.
        negative = "!<< {a} -> X !p; {a,b} -> X !q; {b} -> X !p >>"
        report = self._report(capsys, tmp_path, [negative], [["q"], []])
        assert (
            "certificate: cannot block %s under the empty redistribution"
            " (blocking {a} needs {p}; every member needs {q};"
            " blocking {b} needs {p})" % negative[1:]
        ) in report

    def test_witness_blocks_the_first_blockable_coalition(self, capsys,
                                                          tmp_path):
        # Both {a} and {b} can be blocked; blocking {b} would need a
        # second override planner.
        report = self._report(
            capsys, tmp_path,
            ["<< {a} -> X p >>", "!<< {a} -> X !p; {b} -> X !q >>"],
            [["p"], ["q"]])
        assert "witness actions: 8" in report
        assert "witness validated: true" in report

    @pytest.mark.parametrize(
        "sequent, constraint, message",
        [
            ({"formulas": MIXED}, {"family": 5},
             "family of the constraint must be a JSON list"),
            ([1, 2], {"family": [["p"]]},
             "the sequent document must be a JSON object"),
            ({"formulas": MIXED}, {"family": [["p"]], "variables": 7},
             "variables of the constraint must be a JSON list"),
            ({"formulas": MIXED, "agents": "ab"}, {"family": [["p"]]},
             "agents of the sequent must be a JSON list"),
            ({"formulas": MIXED}, {"family": ["pq"]},
             "member 0 of the constraint family must be a JSON list"),
            ({"formulas": MIXED, "agents": ["a", "b", "a"]}, {"family": [["p"]]},
             "repeated names in the sequent's agents: a"),
            ({"formulas": MIXED, "variables": ["p", "q", "r", "q"]},
             {"family": [["p"]]},
             "repeated names in the sequent's variables: q"),
            ({"formulas": MIXED},
             {"family": [["p"]], "variables": ["p", "q", "r", "r"]},
             "repeated names in the constraint's variables: r"),
            ({"formulas": []}, {"family": [[]]},
             "a one-step sequent needs at least one agent"),
        ],
        ids=["family-as-integer", "sequent-as-list", "variables-as-integer",
             "agents-as-string", "member-as-string", "repeated-agent",
             "repeated-sequent-variable", "repeated-constraint-variable",
             "no-agents"],
    )
    def test_wrong_json_shapes_are_invalid_input(
        self, capsys, tmp_path, sequent, constraint, message
    ):
        code, out, err = self._run(capsys, tmp_path, sequent, constraint)
        assert code == 2
        assert out == ""
        assert "invalid input: %s" % message in err
        assert "Traceback" not in err

    def test_an_over_budget_witness_is_a_resource_limit(self, capsys,
                                                        tmp_path):
        # The witness has 45 actions per agent: 45^5 profiles.
        sequent = {"formulas": ["<< {a} -> X p >>", "<< {b} -> X q >>",
                                "!<< {c,d} -> X !r >>"],
                   "agents": ["a", "b", "c", "d", "e"]}
        family = {"family": [["p", "q", "r"], ["p", "r"], ["q", "r"]]}
        code, out, err = self._run(capsys, tmp_path, sequent, family)
        assert code == 3
        assert out == ""
        assert ("resource limit: one-step witness would have more than"
                " 2000000 profiles") in err
        assert "Traceback" not in err


class TestStability:
    def test_nash_on_a_stable_profile(self, capsys, coordination_dir):
        code, out, _ = run(
            capsys, "stability", "--notion", "nash",
            "--model", str(coordination_dir / "model.json"),
            "--state", "s",
            "--goals", "<< {a} -> X wa; {b} -> X wa >>",
            "--profile", str(coordination_dir / "prof_hh.json"))
        assert code == 0
        assert "stable: true" in out
        assert "improving agent: (none)" in out

    def test_nash_on_an_unstable_profile(self, capsys, coordination_dir):
        _, out, _ = run(
            capsys, "stability", "--notion", "nash",
            "--model", str(coordination_dir / "model.json"),
            "--state", "s",
            "--goals", "<< {a} -> X wa; {b} -> X wa >>",
            "--profile", str(coordination_dir / "prof_ht.json"))
        assert "stable: false" in out
        assert "improving agent: a" in out

    @pytest.mark.parametrize("wolf_goal", ["G !c", "G e"])
    def test_nash_with_an_invariant_goal_agrees_with_the_lasso_reference(
            self, capsys, tmp_path, wolf_goal):
        # Everyone boards everywhere, so both animals cross at once and
        # the wolf's invariant goal loses; staying ashore keeps c false,
        # while e is out of reach with one wolf against one sheep.
        case = build_case("sheep-wolves", n_sheep=1, n_wolves=1)
        model = case.model
        profile = FiniteStrategyProfile(POSITIONAL, {
            agent: {(state,): model.actions_of(state, agent)[0]
                    for state in model.states}
            for agent in model.agents
        })
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile.to_json_dict()))
        goals = "<< {s1} -> (true U c); {w1} -> %s >>" % wolf_goal
        expected = lasso_unilateral_improvement(
            model, case.start, profile,
            parse_state_formula(goals).assignment)
        code, out, _ = run(
            capsys, "stability", "--notion", "nash",
            "--corpus-case", "sheep-wolves",
            "--params", "n_sheep=1,n_wolves=1",
            "--goals", goals, "--profile", str(path))
        assert code == 0
        assert "losing coalitions: {w1}" in out
        assert "improving agent: %s" % (expected or "(none)") in out.splitlines()
        assert expected == ("w1" if wolf_goal == "G !c" else None)

    def test_nash_deviation_deeper_than_the_recursion_limit(
            self, capsys, tmp_path):
        model = save_chain(tmp_path / "m.json", CHAIN, ends=True)
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({
            "mode": "positional",
            "tables": {"a": [{"memory": [state], "action": "y"}
                             for state in load_model(model).states]},
        }))
        code, out, _ = run(
            capsys, "stability", "--notion", "nash", "--model", model,
            "--state", "c0", "--goals", "<< {a} -> G !b >>",
            "--profile", str(profile))
        assert code == 0
        assert "improving agent: a" in out.splitlines()

    def test_core_membership(self, capsys, coordination_dir):
        # A lone loser cannot force a match, so the mismatched profile
        # stays in the core under opposed goals.
        _, out, _ = run(
            capsys, "stability", "--notion", "core",
            "--model", str(coordination_dir / "model.json"),
            "--state", "s",
            "--goals", "<< {a} -> X wa; {b} -> X wb >>",
            "--profile", str(coordination_dir / "prof_ht.json"))
        assert "in core: true" in out

    def test_core_membership_fails_under_a_joint_deviation(
            self, capsys, coordination_dir):
        # Both agents want a mismatch but the profile matches; together
        # they can force one, so the profile is outside the core.
        _, out, _ = run(
            capsys, "stability", "--notion", "core",
            "--model", str(coordination_dir / "model.json"),
            "--state", "s",
            "--goals", "<< {a} -> X wb; {b} -> X wb >>",
            "--profile", str(coordination_dir / "prof_hh.json"))
        assert "losing coalitions: {a}; {b}" in out
        assert "in core: false" in out

    def test_coequilibrium_does_not_need_a_profile(self, capsys,
                                                   coordination_dir):
        code, out, _ = run(
            capsys, "stability", "--notion", "coeq",
            "--model", str(coordination_dir / "model.json"),
            "--state", "s",
            "--goals", "<< {a} -> X wa; {b} -> X wa >>")
        assert code == 0
        assert "co-equilibrium exists:" in out

    def test_profile_required_for_partition_notions(self, capsys,
                                                    coordination_dir):
        code, _, _ = run(
            capsys, "stability", "--notion", "strong",
            "--model", str(coordination_dir / "model.json"),
            "--state", "s",
            "--goals", "<< {a} -> X wa; {b} -> X wa >>")
        assert code == 1


class TestProfileInput:
    """`validate --witness` and `stability --profile` on bad input."""

    GOALS = "<< {a} -> X wa; {b} -> X wa >>"

    def _run(self, capsys, directory, command, profile, state):
        model = str(directory / "model.json")
        if command == "validate":
            argv = ["validate", "--formula", self.GOALS, "--witness", profile]
        else:
            argv = ["stability", "--notion", command, "--goals", self.GOALS,
                    "--profile", profile]
        return run(capsys, *argv, "--model", model, "--state", state)

    @pytest.mark.parametrize("command", ["validate", "nash"])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("memory", 5, "memory of agent a must be a JSON list"),
            ("memory", ["s", [5]],
             "each entry of profile in memory of agent a must be a JSON string"),
            ("tables", [], "tables of the profile must be a JSON object"),
            ("mode", 5, "mode of the profile must be a JSON string"),
        ],
        ids=["memory-as-integer", "memory-action-as-integer", "tables-as-list",
             "mode-as-integer"],
    )
    def test_malformed_profile_is_invalid_input(
        self, capsys, tmp_path, coordination_dir, command, field, value,
        message,
    ):
        document = json.loads((coordination_dir / "prof_hh.json").read_text())
        if field == "memory":
            document["tables"]["a"][0]["memory"] = value
        else:
            document[field] = value
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(document))
        code, out, err = self._run(capsys, coordination_dir, command,
                                   str(path), "s")
        assert code == 2
        assert out == ""
        assert "invalid input: %s" % message in err

    @pytest.mark.parametrize(
        "command", ["validate", "nash", "strong", "coalitional", "core"]
    )
    def test_unknown_state_is_named(self, capsys, coordination_dir, command):
        code, out, err = self._run(capsys, coordination_dir, command,
                                   str(coordination_dir / "prof_hh.json"),
                                   "ghost")
        assert code == 2
        assert out == ""
        assert "invalid input: unknown state ghost" in err


class TestDocuments:
    """Every JSON document is read one way; one that is not JSON is named."""

    GOALS = "<< {a} -> X wa; {b} -> X wa >>"

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{\n,}", "is not valid JSON: Expecting property name"),
            (b"\xff", "is not valid JSON: 'utf-8' codec can't decode"),
            (b"[" * 100000 + b"]" * 100000, "is nested too deeply to read"),
        ],
        ids=["syntax", "encoding", "depth"],
    )
    @pytest.mark.parametrize(
        "flag",
        ["--model", "--other", "--witness", "--profile", "--sequent",
         "--constraint"],
    )
    def test_document_that_is_not_json_is_named(self, capsys, tmp_path,
                                                 coordination_dir, flag,
                                                 content, message):
        sequent = tmp_path / "sequent.json"
        sequent.write_text(json.dumps({"formulas": TestOneStep.MIXED}))
        constraint = tmp_path / "constraint.json"
        constraint.write_text(json.dumps({"family": [["p"]]}))
        paths = {
            "--model": str(coordination_dir / "model.json"),
            "--other": str(coordination_dir / "model.json"),
            "--witness": str(coordination_dir / "prof_hh.json"),
            "--profile": str(coordination_dir / "prof_hh.json"),
            "--sequent": str(sequent),
            "--constraint": str(constraint),
        }
        broken = tmp_path / "broken.json"
        broken.write_bytes(content)
        paths[flag] = str(broken)
        on_model = ("--model", paths["--model"], "--state", "s")
        argv = {
            "--model": ("check", *on_model, "--formula", "wa"),
            "--other": ("bisim", *on_model, "--other", paths["--other"],
                        "--other-state", "s"),
            "--witness": ("validate", *on_model, "--formula", self.GOALS,
                          "--witness", paths["--witness"]),
            "--profile": ("stability", *on_model, "--notion", "nash",
                          "--goals", self.GOALS, "--profile", paths["--profile"]),
            "--sequent": ("onestep-sat", "--sequent", paths["--sequent"],
                          "--constraint", paths["--constraint"]),
        }
        argv["--constraint"] = argv["--sequent"]
        code, out, err = run(capsys, *argv[flag])
        assert (code, out) == (2, "")
        assert err.startswith("invalid input: %s %s" % (broken, message))

    def test_a_repeated_key_in_a_model_is_named(self, capsys, tmp_path):
        # Read as a plain JSON object, the second list of s would replace
        # the first, and X !p would fail at s.
        path = tmp_path / "dup.json"
        path.write_text(
            '{"agents": ["a"],'
            ' "states": [{"id": "s", "props": ["p"]}, {"id": "t", "props": []}],'
            ' "actions": {"s": {"a": ["go"]}, "t": {"a": ["go"]}},'
            ' "transitions": {"s": [{"profile": {"a": "go"}, "to": "t"}],'
            ' "t": [{"profile": {"a": "go"}, "to": "t"}],'
            ' "s": [{"profile": {"a": "go"}, "to": "s"}]}}'
        )
        code, out, err = run(capsys, "check", "--model", str(path), "--state",
                             "s", "--formula", "<<{a} -> X !p>>")
        assert (code, out) == (2, "")
        assert err == "invalid input: %s repeats the key s in one object\n" % path

    def test_a_repeated_key_in_a_witness_is_named(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        code, _, _ = run(capsys, "oracle", "--corpus-case", "exampleA",
                         "--formula-name", "gammaA", "--mode", "play:3",
                         "--save-witness", str(path))
        assert code == 0
        saved = path.read_text()
        assert saved.startswith("{")
        path.write_text('{"mode": "positional", ' + saved[1:])
        code, out, err = run(capsys, "validate", "--corpus-case", "exampleA",
                             "--formula-name", "gammaA", "--witness", str(path))
        assert (code, out) == (2, "")
        assert err == "invalid input: %s repeats the key mode in one object\n" % path


class TestCorpus:
    def test_list_names_every_case(self, capsys):
        code, out, _ = run(capsys, "corpus", "--list")
        assert code == 0
        for name in ("exampleA", "exampleB", "exampleB-gamma-prime",
                     "sheep-wolves", "password"):
            assert name in out

    def test_build_writes_a_loadable_case(self, capsys, tmp_path):
        code, out, _ = run(capsys, "corpus", "--build", "exampleA",
                           "--out", str(tmp_path))
        assert code == 0
        model = load_model(tmp_path / "model.json")
        assert model.validate() == []
        assert (tmp_path / "case.json").exists()

    @pytest.mark.parametrize(
        "params",
        ["n_sheep=2,n_wolves=2,mode=simultaneous",
         "n_sheep= 2,n_wolves=2 , mode = simultaneous"],
        ids=["plain", "spaced"],
    )
    def test_build_with_params(self, capsys, tmp_path, params):
        code, _, _ = run(capsys, "corpus", "--build", "sheep-wolves",
                         "--out", str(tmp_path), "--params", params)
        assert code == 0
        assert load_model(tmp_path / "model.json").has_state("s2w2L")

    @pytest.mark.parametrize(
        "params, message",
        [
            ("bogus=3", "sheep-wolves has no parameter 'bogus'"),
            ("n_sheep=1,n_wolves=1,limit=5", "sheep-wolves has no parameter 'limit'"),
            (
                "n_sheep=-1,n_wolves=1",
                "parameter n_sheep must be a non-negative integer, got '-1'",
            ),
            (
                "n_sheep=1,n_wolves=x",
                "parameter n_wolves must be a non-negative integer, got 'x'",
            ),
            ("n_sheep=2", "sheep-wolves needs parameter n_wolves"),
            ("n_wolves=1,mode=simultaneous", "sheep-wolves needs parameter n_sheep"),
            ("n_sheep=1,n_sheep=2,n_wolves=1", "parameter n_sheep given twice"),
            ("n_sheep=1,n_wolves=1,n_wolves=1", "parameter n_wolves given twice"),
            (
                "n_sheep=\u00b2,n_wolves=1",
                "parameter n_sheep must be a non-negative integer, got '\u00b2'",
            ),
        ],
    )
    def test_bad_params_are_invalid_input(self, capsys, params, message):
        code, out, err = run(capsys, "check", "--corpus-case", "sheep-wolves",
                             "--params", params, "--formula-name", "crossing")
        assert code == 2
        assert out == ""
        assert "invalid input: %s" % message in err

    @pytest.mark.parametrize(
        "params",
        ["n_sheep=30,n_wolves=0", "n_sheep=1000000000,n_wolves=0",
         "n_sheep=1,n_wolves=25"],
    )
    def test_over_budget_crossing_exits_three(self, capsys, params):
        code, out, err = run(capsys, "check", "--corpus-case", "sheep-wolves",
                             "--params", params, "--formula-name", "crossing")
        assert (code, out) == (3, "")
        assert err == ("resource limit: river crossing would have more than"
                       " 2000000 transitions\n")

    def test_unknown_case_is_invalid_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "corpus", "--build", "nonsense",
                             "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "invalid input: unknown corpus case nonsense\n"


_VALID_DOCUMENTS = [case.model.to_json_dict() for case in default_cases()]
_JSON_VALUES = [None, True, 0, 1.5, "x", [], {}]


def _paths(node, path=()):
    """The path of every value below the root of a JSON document."""
    if path:
        yield path
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _paths(node[key], path + (key,))


@st.composite
def _malformed_documents(draw):
    """A valid corpus document with one mutation applied."""
    document = copy.deepcopy(draw(st.sampled_from(_VALID_DOCUMENTS)))
    kind = draw(st.sampled_from(
        ["delete", "retype", "drop", "duplicate", "retarget"]))
    if kind in ("delete", "retype"):
        *parents, key = draw(st.sampled_from(list(_paths(document))))
        container = functools.reduce(operator.getitem, parents, document)
        if kind == "delete":
            del container[key]
        else:
            old = type(container[key])
            container[key] = draw(st.sampled_from(
                [value for value in _JSON_VALUES if type(value) is not old]))
        return document
    transitions = document["transitions"]
    state, index = draw(st.sampled_from(
        [(state, i) for state, items in transitions.items()
         for i in range(len(items))]))
    items = transitions[state]
    if kind == "drop":
        del items[index]
    elif kind == "duplicate":
        items.append(copy.deepcopy(items[index]))
    else:
        ids = [entry["id"] for entry in document["states"]]
        items[index]["to"] = draw(st.sampled_from(ids + ["ghost"]))
    return document


@settings(max_examples=200)
@given(_malformed_documents())
def test_malformed_model_documents_exit_two_without_traceback(document):
    try:
        model = from_json_dict(document)
    except InvalidModelError:
        model = None
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "model.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "--model", path, "--formula", "<< {} -> G true >>",
                         "--state", model.states[0] if model else "s"])
    assert "Traceback" not in err.getvalue()
    if model is None:
        assert (code, out.getvalue()) == (2, "")
        assert "invalid input: " in err.getvalue()
    else:
        assert code == 0
