"""Recursive-descent parser for the scene polynomial grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | var | factor '^' nat | '(' expr ')'

Rationals are written a or a/b with integer a, b.  A leading '-' on the
first term is accepted as a convenience.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rings import LocPoly, Ring


class ParseError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*^()])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, ring: Ring):
        self.tokens = tokens
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, t):
        got = self.take()
        if got != t:
            raise ParseError(f"expected {t!r}, got {got!r}")

    def expr(self) -> LocPoly:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        out = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    def term(self) -> LocPoly:
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = out * self.factor()
        return out

    def factor(self) -> LocPoly:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        if t == "(":
            self.take()
            out = self.expr()
            self.expect(")")
        elif re.fullmatch(r"\d+/\d+|\d+", t):
            self.take()
            out = self.ring.const(Fraction(t))
        elif re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", t):
            self.take()
            out = self.ring.var(t)
        else:
            raise ParseError(f"unexpected token {t!r}")
        while self.peek() == "^":
            self.take()
            n = self.take()
            if not (n and n.isdigit()):
                raise ParseError("exponent must be a natural number")
            out = out ** int(n)
        return out


def parse_poly(text: str, ring: Ring) -> LocPoly:
    p = _Parser(_tokenize(text), ring)
    out = p.expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.tokens[p.i:]!r}")
    return out


def parse_image(spec, ring: Ring) -> LocPoly:
    """Variable image: either an expression string or {num, den} with den a
    unit of the Laurent ring, a single term in its inverted variables
    (inverses are not expressible in the grammar)."""
    if isinstance(spec, str):
        return parse_poly(spec, ring)
    num = parse_poly(spec["num"], ring)
    den = parse_poly(spec["den"], ring)
    return num * den.inverse()
