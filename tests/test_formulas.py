"""Syntax layer: parser, printer, and goal-assignment algebra."""

from __future__ import annotations

import copy
import pickle
import re

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
    to_mu,
)
from tlcga.corpus import default_cases
from tlcga.parser import MAX_NESTING, _tokenize

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
    children = [getattr(node, name) for name in node.__match_args__]
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


# -- node caches: hash, free variables, equality, immutability ---------------


def _reference_free_vars(phi) -> frozenset:
    """Free fixpoint variables by a walk from scratch (the nodes store theirs)."""
    if isinstance(phi, Var):
        return frozenset((phi.name,))
    if isinstance(phi, (Truth, Falsity, Prop)):
        return frozenset()
    if isinstance(phi, (Not, Next, Globally)):
        return _reference_free_vars(phi.body)
    if isinstance(phi, (And, Or, Implies, Until, PathAnd)):
        return _reference_free_vars(phi.left) | _reference_free_vars(phi.right)
    if isinstance(phi, Strategic):
        return _reference_free_vars(phi.assignment)
    if isinstance(phi, GoalAssignment):
        names = frozenset()
        for _, goal in phi:
            names |= _reference_free_vars(goal)
        return names
    if isinstance(phi, (Mu, Nu)):
        return _reference_free_vars(phi.body) - {phi.var}
    raise TypeError("not a formula: %r" % (phi,))


def _subterms(phi) -> list:
    """Every distinct node below `phi`, goal assignments included."""
    seen, stack, found = set(), [phi], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        found.append(node)
        if isinstance(node, GoalAssignment):
            stack.extend(goal for _, goal in node)
        else:
            stack.extend(
                child
                for child in (getattr(node, name) for name in node.__match_args__)
                if not isinstance(child, str)
            )
    return found


# Classes with the same fields: a node and its twin hash alike, as the
# hash covers the fields only, so only the equality check tells them apart.
_TWINS = {
    Truth: Falsity, Falsity: Truth, Prop: Var, Var: Prop,
    And: Or, Or: Implies, Implies: And, Mu: Nu, Nu: Mu,
    Not: Next, Next: Globally, Globally: Not, Until: PathAnd, PathAnd: Until,
}


def _check_node_caches(phi) -> None:
    for node in _subterms(phi):
        if isinstance(node, GoalAssignment):
            assert hash(node) == hash(node.entries)
        else:
            values = tuple(getattr(node, name) for name in node.__match_args__)
            assert hash(node) == hash(values)
            assert node == type(node)(*values) and node == node
            twin = _TWINS.get(type(node))
            if twin is not None:
                other = twin(*values)
                assert hash(other) == hash(node)
                assert node != other and other != node
            assert not hasattr(node, "__dict__")
        assert node.free_vars == _reference_free_vars(node)


def _corpus_formulas() -> list:
    return [
        parse_state_formula(text)
        for case in default_cases()
        for text in case.formulas.values()
    ]


def test_node_caches_on_corpus_formulas_and_their_translations():
    for phi in _corpus_formulas():
        _check_node_caches(phi)
        _check_node_caches(to_mu(phi))


# When the assignment filter gives up on a draw, Hypothesis notes the
# strategy's repr, which for these recursive strategies passes its 30 kB
# warning size.
_LARGE_REPR = pytest.mark.filterwarnings("ignore:Generating overly large repr")


@_LARGE_REPR
@settings(max_examples=200, deadline=None)
@given(_state_strategy(3, ()))
def test_node_caches_on_generated_formulas(phi):
    _check_node_caches(phi)
    _check_node_caches(desugar(phi))
    _check_node_caches(to_mu(phi))


def test_equal_hash_unequal_fields_compare_unequal():
    # Var("a") and Prop("a") have the same hash as children of And.
    left, right = And(Var("a"), P), And(Prop("a"), P)
    assert hash(left) == hash(right) and left != right
    assert Mu("z", left) != Mu("z", right)
    assert ga((Coalition("a"), Next(left))) != ga((Coalition("a"), Next(right)))


def test_free_variable_sets_are_shared():
    z = Var("z")
    closed = Mu("y", And(P, Var("y")))
    assert And(z, P).free_vars is z.free_vars
    assert And(P, z).free_vars is z.free_vars
    assert Mu("y", z).free_vars is z.free_vars
    assert Or(closed, Q).free_vars is P.free_vars
    assert Strategic(ga((Coalition("a"), Next(z)))).free_vars is z.free_vars


@pytest.mark.parametrize(
    "node",
    [TRUE, P, Var("z"), Not(P), And(P, Q), Mu("z", Var("z")), Next(P),
     Until(P, Q), Strategic(ga((Coalition("a"), Next(P)))), ga()],
    ids=repr,
)
def test_nodes_are_immutable(node):
    fields = getattr(node, "__match_args__", ("entries",))
    for name in ("_hash", "free_vars", "extra") + fields:
        with pytest.raises(AttributeError):
            setattr(node, name, P)


def test_copies_and_pickles_are_equal():
    for phi in _corpus_formulas():
        mu = to_mu(phi)
        for copied in (copy.deepcopy(mu), pickle.loads(pickle.dumps(mu))):
            assert copied == mu and hash(copied) == hash(mu)
            assert copied.free_vars == mu.free_vars


# -- the scanner against the regex-per-token reference -----------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<op><<|>>|->|&&|[{}();,.!&|])|(?P<word>[A-Za-z0-9_]+)"
)
_REFERENCE_RESERVED = frozenset(("true", "false", "mu", "nu", "X", "G", "U"))


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """One anchored regex match per token, as (kind, text, position)."""
    tokens = []
    index = 0
    while index < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, index)
        if match is None:
            raise FormulaSyntaxError("unexpected character %r" % text[index], index)
        if match.lastgroup == "op":
            tokens.append((match.group(), match.group(), index))
        elif match.lastgroup == "word":
            word = match.group()
            kind = word if word in _REFERENCE_RESERVED else "ident"
            tokens.append((kind, word, index))
        index = match.end()
    tokens.append(("end", "end of input", len(text)))
    return tokens


def _scan_outcome(scan, text: str):
    try:
        return [tuple(token) for token in scan(text)]
    except FormulaSyntaxError as error:
        return str(error), error.position


_MUTANTS = " \t\n$#@%^*+=?/\\'\"`~[]<>-.,;:!&|(){}_09azXGUé\u00a0\u2028"


@st.composite
def _mutated_text(draw):
    text = format_state(draw(_state_strategy(2, ())))
    index = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(_MUTANTS))
    how = draw(st.sampled_from(("replace", "insert", "delete")))
    if how == "insert" or index == len(text):
        return text[:index] + char + text[index:]
    if how == "replace":
        return text[:index] + char + text[index + 1:]
    return text[:index] + text[index + 1:]


@_LARGE_REPR
@settings(max_examples=300, deadline=None)
@given(st.one_of(_state_strategy(3, ()).map(format_state), _mutated_text()))
def test_scanner_agrees_with_reference(text):
    assert _scan_outcome(_tokenize, text) == _scan_outcome(_reference_tokenize, text)


@pytest.mark.parametrize(
    "text", ["", "   ", "p $", "p  $q", "$", "p & q\u00e9", "<<{a}->Xp>>\t", "a\u00a0b"]
)
def test_scanner_edge_cases(text):
    assert _scan_outcome(_tokenize, text) == _scan_outcome(_reference_tokenize, text)
