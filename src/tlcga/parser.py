"""Concrete-syntax parser for state formulas.

Grammar (ASCII):

    state  := 'true' | 'false' | IDENT | '!' state | state '&' state
            | state '|' state | state '->' state | '(' state ')'
            | '<<' gbody '>>' | 'mu' VAR '.' state | 'nu' VAR '.' state
    gbody  := /*empty*/ | assign (';' assign)*
    assign := coal '->' path
    coal   := '{' (IDENT (',' IDENT)*)? '}'
    path   := 'X' state | '(' state 'U' state ')' | 'G' state
            | path '&&' path

Precedence: '!' > '&' > '|' > '->' (right-assoc). Binders ('mu'/'nu')
bind weakest: their body extends as far right as the enclosing bracket
allows. '&&' conjoins goals and is accepted outside the base dialect
only. Identifiers may not be the reserved words true, false, mu, nu,
X, G, U; fixpoint variables are told apart from propositions purely by
an enclosing binder.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from .formulas import (
    Coalition,
    Falsity,
    GoalAssignment,
    Globally,
    Implies,
    Mu,
    Next,
    Not,
    Nu,
    Or,
    And,
    PathAnd,
    PathFormula,
    Prop,
    StateFormula,
    TRUE,
    Truth,
    Until,
    Var,
    polarity_violations,
    strategic,
)

DIALECTS = ("tlcga", "tlcga_plus", "mu")

_RESERVED = frozenset(("true", "false", "mu", "nu", "X", "G", "U"))

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<op><<|>>|->|&&|[{}();,.!&|])|(?P<word>[A-Za-z0-9_]+)"
)


class FormulaSyntaxError(ValueError):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__("syntax error at position %d: %s" % (position, message))
        self.position = position


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


_END = "end of input"

# How a chain of operands folds into a tree; `->` folds them reversed.
_CONNECTIVES = {"|": Or, "&": And, "&&": PathAnd,
                "->": lambda right, left: Implies(left, right)}

# Deepest nesting of operands accepted: printing, translating and
# evaluating recurse per level and must stay within the recursion limit.
MAX_NESTING = 64


def _tokenize(text: str) -> list[_Token]:
    """Split `text` into tokens in one regex pass, ending with an end token.

    Matches are contiguous up to the first character no token starts
    with; that character is the error.
    """
    tokens: list[_Token] = []
    index = 0
    for match in _TOKEN_RE.finditer(text):
        start = match.start()
        if start != index:
            break
        index = match.end()
        group = match.lastgroup
        if group == "op":
            op = match.group()
            tokens.append(_Token(op, op, start))
        elif group == "word":
            word = match.group()
            tokens.append(_Token(word if word in _RESERVED else "ident", word, start))
    if index != len(text):
        raise FormulaSyntaxError("unexpected character %r" % text[index], index)
    tokens.append(_Token("end", _END, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dialect: str) -> None:
        if dialect not in DIALECTS:
            raise ValueError(
                "unknown dialect %r, expected one of %s" % (dialect, ", ".join(DIALECTS))
            )
        self.tokens = _tokenize(text)
        self.index = 0
        self.dialect = dialect
        self.bound: list[str] = []
        self.binders = 0  # binders met; without one there is no variable
        self.nesting = 0  # depth of the operand being parsed
        self.deepest = 0  # deepest level reached: parse_chain's operand heights

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise FormulaSyntaxError(
                "expected %r but found %r" % (kind, token.text), token.position
            )
        return self.advance()

    def parse_state(self) -> StateFormula:
        return self.parse_chain(self.parse_or, "->")

    def parse_or(self) -> StateFormula:
        return self.parse_chain(self.parse_and, "|")

    def parse_and(self) -> StateFormula:
        return self.parse_chain(self.parse_unary, "&")

    def parse_chain(self, operand, op: str):
        """Parse `operand (op operand)*`; `->` nests to the right, the rest left.

        Each connective is a tree level; the chain's height is held to MAX_NESTING.
        """
        start, outer = self.peek().position, self.deepest
        self.deepest = self.nesting
        operands, height = [operand()], 0
        if self.peek().kind != op:  # a lone operand, the common case, kept cheap
            self.deepest = max(outer, self.deepest)
            return operands[0]
        while True:
            reach = self.deepest - self.nesting
            more = self.peek().kind == op
            if op == "->":  # operand i sits i + 1 levels down, the last one i
                height = max(height, reach + len(operands) - (not more))
            else:  # each new operand pushes the ones before it down a level
                height = max(height, reach) + (len(operands) > 1)
            if not more:
                break
            token = self.advance()
            if op == "&&" and self.dialect == "tlcga":
                raise FormulaSyntaxError(
                    "goal conjunction needs the extended dialect", token.position
                )
            self.deepest = self.nesting
            operands.append(operand())
        if self.nesting + height > MAX_NESTING:
            raise FormulaSyntaxError(
                "formula nested deeper than %d levels" % MAX_NESTING, start
            )
        self.deepest = max(outer, self.nesting + height)
        if op == "->":
            operands.reverse()
        return functools.reduce(_CONNECTIVES[op], operands)

    def parse_unary(self) -> StateFormula:
        token = self.peek()
        self.nesting += 1  # every nested operand passes through here
        self.deepest = max(self.deepest, self.nesting)
        if self.nesting > MAX_NESTING:
            raise FormulaSyntaxError(
                "formula nested deeper than %d levels" % MAX_NESTING, token.position
            )
        if token.kind == "!":
            self.advance()
            result = Not(self.parse_unary())
        elif token.kind in ("mu", "nu"):
            result = self.parse_binder()
        else:
            result = self.parse_primary()
        self.nesting -= 1
        return result

    def parse_binder(self) -> StateFormula:
        token = self.advance()
        if self.dialect != "mu":
            raise FormulaSyntaxError(
                "fixpoint binders need the mu dialect", token.position
            )
        name = self.expect("ident").text
        self.expect(".")
        self.binders += 1
        self.bound.append(name)
        body = self.parse_state()
        self.bound.pop()
        return Mu(name, body) if token.kind == "mu" else Nu(name, body)

    def parse_primary(self) -> StateFormula:
        token = self.peek()
        if token.kind == "true":
            self.advance()
            return Truth()
        if token.kind == "false":
            self.advance()
            return Falsity()
        if token.kind == "ident":
            self.advance()
            if token.text in self.bound:
                return Var(token.text)
            return Prop(token.text)
        if token.kind == "(":
            self.advance()
            inner = self.parse_state()
            self.expect(")")
            return inner
        if token.kind == "<<":
            return self.parse_strategic()
        raise FormulaSyntaxError(
            "expected a formula but found %r" % token.text, token.position
        )

    def parse_strategic(self) -> StateFormula:
        opening = self.expect("<<")
        if self.peek().kind == ">>":
            self.advance()
            return TRUE
        entries: list[tuple[Coalition, PathFormula]] = []
        seen: set[Coalition] = set()
        while True:
            coalition = self.parse_coalition()
            if coalition in seen:
                raise FormulaSyntaxError(
                    "coalition %s assigned twice" % (coalition,), opening.position
                )
            seen.add(coalition)
            self.expect("->")
            entries.append((coalition, self.parse_path()))
            if self.peek().kind != ";":
                break
            self.advance()
        self.expect(">>")
        return strategic(GoalAssignment(entries))

    def parse_coalition(self) -> Coalition:
        self.expect("{")
        members: list[str] = []
        if self.peek().kind != "}":
            while True:
                members.append(self.expect("ident").text)
                if self.peek().kind != ",":
                    break
                self.advance()
        self.expect("}")
        return Coalition(members)

    def parse_path(self) -> PathFormula:
        return self.parse_chain(self.parse_path_atom, "&&")

    def parse_path_atom(self) -> PathFormula:
        token = self.peek()
        if token.kind == "X":
            self.advance()
            return Next(self.parse_state())
        if token.kind == "G":
            self.advance()
            return Globally(self.parse_state())
        if token.kind == "(":
            self.advance()
            left = self.parse_state()
            self.expect("U")
            right = self.parse_state()
            self.expect(")")
            return Until(left, right)
        raise FormulaSyntaxError(
            "expected a goal but found %r" % token.text, token.position
        )


def parse_state_formula(text: str, dialect: str = "tlcga_plus") -> StateFormula:
    """Parse a state formula, checking the requested dialect.

    The base dialect rejects goal conjunction; fixpoint binders are only
    accepted in the mu dialect, where bound variables must also occur
    positively.
    """
    parser = _Parser(text, dialect)
    phi = parser.parse_state()
    end = parser.peek()
    if end.kind != "end":
        raise FormulaSyntaxError("trailing input %r" % end.text, end.position)
    problems = polarity_violations(phi) if parser.binders else ()
    if problems:
        raise FormulaSyntaxError(problems[0], 0)
    return phi


def parse_path_formula(text: str, dialect: str = "tlcga_plus") -> PathFormula:
    """Parse a bare goal. Public API (`tlcga.parse_path_formula`)."""
    parser = _Parser(text, dialect)
    goal = parser.parse_path()
    end = parser.peek()
    if end.kind != "end":
        raise FormulaSyntaxError("trailing input %r" % end.text, end.position)
    return goal
