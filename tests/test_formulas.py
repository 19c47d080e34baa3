"""Syntax layer: parser, printer, and goal-assignment algebra."""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from tlcga import (
    And,
    Coalition,
    EMPTY_ASSIGNMENT,
    Falsity,
    FormulaSyntaxError,
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
    Prop,
    Strategic,
    TRIVIAL_GOAL,
    TRUE,
    Truth,
    Until,
    Var,
    classify,
    desugar,
    format_state,
    make_path_and,
    parse_state_formula,
    split_long_term_and_next,
    strategic,
)
from tlcga.parser import MAX_NESTING

P = Prop("p")
Q = Prop("q")
R = Prop("r")
S = Prop("s")


def ga(*entries):
    return GoalAssignment(entries)


def _depth(node) -> int:
    """Tree depth as the parser bounds it; the goal operators X, U and G
    add no level of their own."""
    if isinstance(node, Strategic):
        return 1 + max(_depth(goal) for _, goal in node.assignment)
    children = [getattr(node, field.name) for field in fields(node)]
    below = max(
        (_depth(child) for child in children if not isinstance(child, str)),
        default=0,
    )
    return below + (not isinstance(node, (Next, Until, Globally)))


class TestParsing:
    def test_two_entry_assignment(self):
        phi = parse_state_formula("<< {a,b} -> (p U q); {a} -> (true U !(p|q)) >>")
        assert isinstance(phi, Strategic)
        expected = ga(
            (Coalition("ab"), Until(P, Q)),
            (Coalition("a"), Until(TRUE, Not(Or(P, Q)))),
        )
        assert phi.assignment == expected

    def test_empty_assignment_is_truth(self):
        assert parse_state_formula("<< >>") == Truth()
        assert parse_state_formula("<<>>") == Truth()

    def test_mu_formula(self):
        phi = parse_state_formula("mu z . (q | << {a} -> X z >>)", dialect="mu")
        assert phi == Mu("z", Or(Q, Strategic(ga((Coalition("a"), Next(Var("z")))))))

    def test_variable_needs_binder_to_be_a_variable(self):
        phi = parse_state_formula("z & mu z . z", dialect="mu")
        assert phi == And(Prop("z"), Mu("z", Var("z")))

    def test_precedence(self):
        phi = parse_state_formula("!p & q | r -> s -> p")
        assert phi == Implies(
            Or(And(Not(P), Q), R),
            Implies(S, P),
        )

    def test_and_or_left_associative(self):
        assert parse_state_formula("p & q & r") == And(And(P, Q), R)
        assert parse_state_formula("p | q | r") == Or(Or(P, Q), R)

    def test_binder_body_extends_right(self):
        phi = parse_state_formula("p | mu z . z | q", dialect="mu")
        assert phi == Or(P, Mu("z", Or(Var("z"), Q)))

    def test_goal_conjunction(self):
        phi = parse_state_formula("<< {a} -> X p && G q && (r U s) >>")
        goal = phi.assignment.goal(Coalition("a"))
        assert goal == PathAnd(PathAnd(Next(P), Globally(Q)), Until(R, S))

    def test_goal_conjunction_rejected_in_base_dialect(self):
        with pytest.raises(FormulaSyntaxError):
            parse_state_formula("<< {a} -> X p && G q >>", dialect="tlcga")

    def test_binder_rejected_outside_mu_dialect(self):
        with pytest.raises(FormulaSyntaxError):
            parse_state_formula("mu z . z", dialect="tlcga_plus")

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as excinfo:
            parse_state_formula("p & & q")
        assert excinfo.value.position == 4

    def test_trailing_input_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_state_formula("p q")

    def test_duplicate_coalition_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_state_formula("<< {a} -> X p; {a} -> X q >>")

    def test_negative_fixpoint_variable_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_state_formula("mu z . !z", dialect="mu")
        with pytest.raises(FormulaSyntaxError):
            parse_state_formula("mu z . z -> p", dialect="mu")

    @pytest.mark.parametrize(
        "nest",
        [
            lambda n: "!" * n + "p",
            lambda n: "(" * n + "p" + ")" * n,
            lambda n: "<< {a} -> X " * n + "p" + " >>" * n,
            # Chains are read in a loop, but each connective is a tree level.
            lambda n: "&".join(["p"] * (n + 1)),
            lambda n: "|".join(["p"] * (n + 1)),
            lambda n: "->".join(["p"] * (n + 1)),
            lambda n: "<< {a} -> " + " && ".join(["X p"] * n) + " >>",
            lambda n: "!" * (n - 3) + "p" + " & p" * 3,
        ],
        ids=["negation", "brackets", "strategic", "and-chain", "or-chain",
             "implies-chain", "goal-chain", "chain-of-deep-operand"],
    )
    def test_nesting_is_bounded(self, nest):
        deepest = parse_state_formula(nest(MAX_NESTING - 1))
        assert _depth(deepest) <= MAX_NESTING
        for depth in (MAX_NESTING, 5000):
            with pytest.raises(FormulaSyntaxError, match="nested deeper"):
                parse_state_formula(nest(depth))

    def test_empty_coalition_accepted(self):
        phi = parse_state_formula("<< {} -> X p >>")
        assert phi.assignment.support() == (Coalition(),)

    def test_numeric_agent_names(self):
        phi = parse_state_formula("<< {1,2} -> G p >>")
        assert phi.assignment.support() == (Coalition(("1", "2")),)

    def test_trivial_goal_entry_collapses(self):
        assert parse_state_formula("<< {a} -> X true >>") == Truth()


class TestPrinting:
    def test_round_trip_of_sample(self):
        text = "<< {a} -> (true U !(p | q)); {a,b} -> (p U q) >>"
        assert format_state(parse_state_formula(text)) == text

    def test_minimal_parentheses(self):
        cases = [
            "p & q | r",
            "(p | q) & r",
            "!(p & q)",
            "!!p",
            "p -> q -> r",
            "(p -> q) -> r",
            "p & (q & r)",
            "<< {} -> X p >>",
            "<< {a} -> X p & q >>",
            "<< {a} -> X p && G q >>",
            "<< {a} -> (mu z . p U q) >>",
        ]
        for text in cases:
            assert format_state(parse_state_formula(text, dialect="mu")) == text

    def test_binder_parenthesized_unless_in_tail_position(self):
        phi = Or(Mu("z", Var("z")), P)
        assert format_state(phi) == "(mu z . z) | p"
        assert parse_state_formula(format_state(phi), dialect="mu") == phi
        tail = Or(P, Mu("z", Var("z")))
        assert format_state(tail) == "p | mu z . z"
        assert parse_state_formula(format_state(tail), dialect="mu") == tail

    def test_entries_print_in_canonical_order(self):
        phi = parse_state_formula("<< {b} -> X q; {a} -> X p >>")
        assert format_state(phi) == "<< {a} -> X p; {b} -> X q >>"


class TestGoalAssignment:
    def test_update_creates_entry(self):
        updated = EMPTY_ASSIGNMENT.update(Coalition("a"), Next(P))
        assert updated == ga((Coalition("a"), Next(P)))

    def test_update_with_trivial_goal_drops_entry(self):
        start = ga((Coalition("a"), Next(P)))
        assert start.update(Coalition("a"), TRIVIAL_GOAL) == EMPTY_ASSIGNMENT
        assert start.drop(Coalition("a")) == EMPTY_ASSIGNMENT

    def test_update_replaces_goal(self):
        start = ga((Coalition("a"), Next(P)), (Coalition("b"), Next(Q)))
        updated = start.update(Coalition("b"), Globally(R))
        assert updated == ga((Coalition("a"), Next(P)), (Coalition("b"), Globally(R)))

    def test_restrict(self):
        assignment = ga(
            (Coalition("ab"), Until(P, Q)),
            (Coalition("c"), Globally(R)),
            (Coalition("bc"), Next(S)),
        )
        restricted = assignment.restrict(Coalition("bc"))
        assert restricted == ga(
            (Coalition("c"), Globally(R)),
            (Coalition("bc"), Next(S)),
        )
        assert assignment.restrict(Coalition("abc")) == assignment
        assert assignment.restrict(Coalition()) == EMPTY_ASSIGNMENT

    def test_restrict_keeps_empty_coalition_entry(self):
        assignment = ga((Coalition(), Next(P)))
        assert assignment.restrict(Coalition()) == assignment

    def test_support_is_sorted(self):
        assignment = ga(
            (Coalition("b"), Next(P)),
            (Coalition("ab"), Next(Q)),
        )
        assert assignment.support() == (Coalition("ab"), Coalition("b"))

    def test_goal_defaults_to_trivial(self):
        assert EMPTY_ASSIGNMENT.goal(Coalition("a")) == TRIVIAL_GOAL

    def test_drop_conjunct(self):
        assignment = ga((Coalition("a"), PathAnd(Next(P), Globally(Q))))
        assert assignment.drop_conjunct(Coalition("a"), Next(P)) == ga(
            (Coalition("a"), Globally(Q))
        )
        assert assignment.drop_conjunct(Coalition("a"), Globally(Q)) == ga(
            (Coalition("a"), Next(P))
        )

    def test_grand_union(self):
        assignment = ga(
            (Coalition("ab"), Next(P)),
            (Coalition("bc"), Next(Q)),
        )
        assert assignment.grand_union() == Coalition("abc")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            ga((Coalition("a"), Next(P)), (Coalition("a"), Next(Q)))

    def test_right_nested_goal_conjunction_is_normalized(self):
        assignment = ga((Coalition("a"), PathAnd(Next(P), PathAnd(Next(Q), Next(R)))))
        assert assignment.goal(Coalition("a")) == PathAnd(
            PathAnd(Next(P), Next(Q)), Next(R)
        )


class TestClassify:
    def test_until_flavour(self):
        assignment = ga(
            (Coalition("ab"), Until(P, Q)),
            (Coalition("c"), Globally(R)),
        )
        assert classify(assignment) == GoalAssignmentKind.LONG_TERM_UNTIL

    def test_globally_flavour(self):
        assignment = ga(
            (Coalition("c"), Globally(R)),
            (Coalition("d"), Globally(P)),
        )
        assert classify(assignment) == GoalAssignmentKind.LONG_TERM_GLOBALLY

    def test_mixed(self):
        assignment = ga(
            (Coalition("ab"), Until(P, Q)),
            (Coalition("bc"), Next(S)),
        )
        assert classify(assignment) == GoalAssignmentKind.MIXED

    def test_trivial_is_nexttime(self):
        assert classify(EMPTY_ASSIGNMENT) == GoalAssignmentKind.NEXTTIME

    def test_nexttime(self):
        assert classify(ga((Coalition("a"), Next(P)))) == GoalAssignmentKind.NEXTTIME

    def test_conjuncts_count_individually(self):
        assignment = ga((Coalition("c"), PathAnd(Globally(R), Next(S))))
        assert classify(assignment) == GoalAssignmentKind.MIXED


class TestSplit:
    def test_disjoint_goals(self):
        assignment = ga(
            (Coalition("ab"), Until(P, Q)),
            (Coalition("bc"), Next(S)),
        )
        long_part, next_part = split_long_term_and_next(assignment)
        assert long_part == ga((Coalition("ab"), Until(P, Q)))
        assert next_part == ga((Coalition("bc"), Next(S)))

    def test_conjoined_goal_splits(self):
        assignment = ga((Coalition("c"), PathAnd(Globally(R), Next(S))))
        long_part, next_part = split_long_term_and_next(assignment)
        assert long_part == ga((Coalition("c"), Globally(R)))
        assert next_part == ga((Coalition("c"), Next(S)))

    def test_nexttime_assignment(self):
        assignment = ga((Coalition("a"), Next(P)))
        long_part, next_part = split_long_term_and_next(assignment)
        assert long_part == EMPTY_ASSIGNMENT
        assert next_part == assignment


class TestDesugar:
    def test_implies_and_false(self):
        phi = Implies(P, Falsity())
        assert desugar(phi) == Or(Not(P), Not(TRUE))

    def test_recurses_into_goals(self):
        phi = Strategic(ga((Coalition("a"), Next(Implies(P, Q)))))
        assert desugar(phi) == Strategic(ga((Coalition("a"), Next(Or(Not(P), Q)))))


def test_strategic_factory_collapses_trivial():
    assert strategic(EMPTY_ASSIGNMENT) == TRUE
    assert strategic(ga((Coalition("a"), Next(P)))) == Strategic(
        ga((Coalition("a"), Next(P)))
    )


_PROPS = ("p", "q", "r")
_AGENTS = ("a", "b", "c")
_VARS = ("v0", "v1")


def _state_strategy(depth: int, positive_vars: tuple[str, ...]):
    leaves = [st.just(Truth()), st.just(Falsity())]
    leaves.append(st.sampled_from(_PROPS).map(Prop))
    if positive_vars:
        leaves.append(st.sampled_from(positive_vars).map(Var))
    leaf = st.one_of(leaves)
    if depth == 0:
        return leaf
    sub = _state_strategy(depth - 1, positive_vars)
    # Negation and implication antecedents flip polarity, so bound
    # variables may not occur below them.
    negated = _state_strategy(depth - 1, ())
    branches = [
        leaf,
        negated.map(Not),
        st.tuples(sub, sub).map(lambda pair: And(*pair)),
        st.tuples(sub, sub).map(lambda pair: Or(*pair)),
        st.tuples(negated, sub).map(lambda pair: Implies(*pair)),
        _goal_assignment_strategy(depth - 1, positive_vars).map(Strategic),
    ]
    fresh = next(name for name in _VARS if name not in positive_vars) if len(
        positive_vars
    ) < len(_VARS) else None
    if fresh is not None:
        body = _state_strategy(depth - 1, positive_vars + (fresh,))
        branches.append(body.map(lambda inner: Mu(fresh, inner)))
        branches.append(body.map(lambda inner: Nu(fresh, inner)))
    return st.one_of(branches)


def _goal_strategy(depth: int, positive_vars: tuple[str, ...]):
    sub = _state_strategy(depth, positive_vars)
    atom = st.one_of(
        sub.map(Next),
        st.tuples(sub, sub).map(lambda pair: Until(*pair)),
        sub.map(Globally),
    )
    return st.lists(atom, min_size=1, max_size=3).map(make_path_and)


def _goal_assignment_strategy(depth: int, positive_vars: tuple[str, ...]):
    coalitions = st.sets(st.sampled_from(_AGENTS), max_size=3).map(Coalition)
    entry = st.tuples(coalitions, _goal_strategy(depth, positive_vars))
    return (
        st.lists(entry, min_size=1, max_size=3, unique_by=lambda kv: kv[0])
        .map(GoalAssignment)
        .filter(lambda assignment: not assignment.is_trivial)
    )


@settings(max_examples=300, deadline=None)
@given(_state_strategy(3, ()))
def test_print_parse_round_trip(phi):
    text = format_state(phi)
    assert parse_state_formula(text, dialect="mu") == phi
    assert format_state(parse_state_formula(text, dialect="mu")) == text
