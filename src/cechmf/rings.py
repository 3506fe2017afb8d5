"""Exact Laurent polynomials over Q.

A chart ring is Q[x_1, ..., x_n] with some of its variables inverted, so
every element is a finite sum of Laurent monomials c * x^e whose exponent
e_i may be negative only when x_i is inverted.  An element stores exactly
these terms, {exponent tuple: nonzero coefficient}; that dict is its normal
form, and two elements are equal iff their dicts are.

A coefficient is exact: an `int` when it is integral, else a
`fractions.Fraction` whose denominator is not 1 (`_fr` is the one
normalizer).  Nearly every coefficient the engine meets is a sign, a
binomial or a transition unit, and int arithmetic is much cheaper than
Fraction arithmetic.  Equality, hashing and printing do not see the
difference: Fraction(2) == 2, hash(Fraction(2)) == hash(2) and
str(Fraction(2)) == "2".  Anything else, a float in particular, raises
TypeError.

Everything is immutable by convention: no method mutates its receiver, and
all operations return fresh objects.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator


class MalformedElement(ValueError):
    """An element does not satisfy the invariants of its ring."""


def _fr(x):
    """The normal form of an exact coefficient: an int when x is integral,
    else a Fraction with denominator != 1."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"coefficient {x!r} is not an int or a Fraction")


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two term dicts, with cancelled terms dropped."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            if e in out:
                out[e] += ca * cb
            else:
                out[e] = ca * cb
    return {e: c if type(c) is int else _fr(c) for e, c in out.items() if c}


class Ring:
    """Q[variables] with the variables at the indices `inverted` inverted."""

    __slots__ = ("variables", "inverted", "_one", "_zero")

    def __init__(self, variables: Iterable[str], inverted: Iterable[str] = ()):
        self.variables = tuple(variables)
        assert len(set(self.variables)) == len(self.variables)
        self.inverted = frozenset(self.var_index(v) for v in inverted)
        self._one = None
        self._zero = None

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Ring)
            and self.variables == other.variables
            and self.inverted == other.inverted
        )

    def __hash__(self):
        return hash((self.variables, self.inverted))

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise MalformedElement(f"unknown variable {name!r}") from None

    def check_exponent(self, exp: tuple) -> None:
        """A negative exponent is allowed only at an inverted variable."""
        if len(exp) != self.nvars:
            raise MalformedElement(f"exponent {exp} has the wrong arity for {self!r}")
        for i, e in enumerate(exp):
            if e < 0 and i not in self.inverted:
                raise MalformedElement(
                    f"variable {self.variables[i]!r} is not inverted in this ring"
                )

    # -- element constructors ---------------------------------------------

    def zero(self) -> "LocPoly":
        if self._zero is None:
            self._zero = LocPoly._new(self, {})
        return self._zero

    def one(self) -> "LocPoly":
        if self._one is None:
            self._one = self.const(1)
        return self._one

    def const(self, c) -> "LocPoly":
        return self.monomial((0,) * self.nvars, c)

    def var(self, name: str) -> "LocPoly":
        exp = [0] * self.nvars
        exp[self.var_index(name)] = 1
        return self.monomial(exp)

    def monomial(self, exps, c=1) -> "LocPoly":
        """Laurent monomial c * prod(v^e); negative exponents need v inverted."""
        exp = tuple(exps)
        self.check_exponent(exp)
        c = _fr(c)
        return LocPoly._new(self, {exp: c} if c else {})

    def __repr__(self):
        inv = ",".join(self.variables[i] for i in sorted(self.inverted))
        return f"Q[{','.join(self.variables)}]" + (f"_({inv})" if inv else "")


class LocPoly:
    """Element of a Laurent ring: {exponent tuple: nonzero coefficient},
    each coefficient an int when integral, else a Fraction (see `_fr`)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict | None = None):
        clean = {}
        for exp, c in (terms or {}).items():
            c = _fr(c)
            if c:
                exp = tuple(exp)
                ring.check_exponent(exp)
                clean[exp] = c
        self.ring = ring
        self.terms = clean

    @staticmethod
    def _new(ring: Ring, terms: dict) -> "LocPoly":
        """Wrap a term dict that already is in normal form."""
        out = object.__new__(LocPoly)
        out.ring = ring
        out.terms = terms
        return out

    @property
    def num(self) -> "LocPoly":
        # Only for perfbench/tracing.py:112, which counts the terms of a
        # coefficient as `c.num.terms`.
        return self

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == self.ring.one().terms

    def __eq__(self, other):
        if not isinstance(other, LocPoly) or self.ring != other.ring:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LocPoly") -> "LocPoly":
        assert self.ring == other.ring, "elements of different rings"
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.pop(exp, 0) + c
            if s:
                terms[exp] = s if type(s) is int else _fr(s)
        return LocPoly._new(self.ring, terms)

    def __neg__(self) -> "LocPoly":
        return LocPoly._new(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LocPoly") -> "LocPoly":
        return self + (-other)

    def __mul__(self, other: "LocPoly") -> "LocPoly":
        assert self.ring == other.ring, "elements of different rings"
        return LocPoly._new(self.ring, _mul_terms(self.terms, other.terms))

    def scale(self, c) -> "LocPoly":
        c = _fr(c)
        if not c:
            return self.ring.zero()
        return LocPoly._new(self.ring, {e: _fr(c * v) for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "LocPoly":
        if n < 0:
            return self.inverse() ** (-n)
        terms = self.ring.one().terms
        for _ in range(n):
            terms = _mul_terms(terms, self.terms)
        return LocPoly._new(self.ring, terms)

    def is_unit(self) -> bool:
        """A single term whose nonzero exponents sit at inverted variables."""
        if len(self.terms) != 1:
            return False
        (exp,) = self.terms
        return all(e == 0 or i in self.ring.inverted for i, e in enumerate(exp))

    def inverse(self) -> "LocPoly":
        """Inverse of a unit (`is_unit`)."""
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        if not self.is_unit():
            raise MalformedElement(f"not a unit: {self!r}")
        (exp, c), = self.terms.items()
        return self.ring.monomial(tuple(-e for e in exp), Fraction(1, c))

    # -- calculus -------------------------------------------------------------

    def diff(self, var) -> "LocPoly":
        """Exact partial derivative, term by term."""
        i = var if isinstance(var, int) else self.ring.var_index(var)
        terms = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k:
                terms[exp[:i] + (k - 1,) + exp[i + 1:]] = _fr(c * k)
        return LocPoly._new(self.ring, terms)

    def monomials(self) -> Iterator[tuple]:
        """Yield (coefficient, integer exponent tuple); the coefficient is
        an int when integral, else a Fraction."""
        for exp, c in self.terms.items():
            yield c, exp

    def __repr__(self):
        """Shown as num/x^den with the least den, as reports print it."""
        if not self.terms:
            return "0"
        den = tuple(max(0, -min(e[i] for e in self.terms)) for i in range(self.ring.nvars))
        order = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        num = " + ".join(
            f"{self.terms[e]}*x^{tuple(k + d for k, d in zip(e, den))}" for e in order
        )
        return f"({num})/(1*x^{den})" if any(den) else num


class RingMap:
    """Ring homomorphism determined by variable images; an inverted source
    variable must map to a unit.

    A map keeps what it has computed once: the images of source monomials,
    and the pullbacks of the differentials dx_K that `forms.map_form`
    computes and stores here (so they live and die with the map)."""

    __slots__ = ("src", "dst", "images", "_mono_images", "dx_pullbacks")

    def __init__(self, src: Ring, dst: Ring, images: list):
        assert len(images) == src.nvars
        for im in images:
            assert im.ring == dst
        self.src = src
        self.dst = dst
        self.images = tuple(images)
        self._mono_images: dict = {}  # source exponent -> its image
        self.dx_pullbacks: dict = {}  # index set K -> pullback of dx_K (a forms.Form)

    @staticmethod
    def identity(ring: Ring) -> "RingMap":
        return RingMap(ring, ring, [ring.var(v) for v in ring.variables])

    def _mono_image(self, exp: tuple) -> LocPoly:
        """Image of x^exp: the product of the images' powers."""
        out = self._mono_images.get(exp)
        if out is None:
            out = self.dst.one()
            for im, k in zip(self.images, exp):
                if k:
                    out = out * im ** k
            self._mono_images[exp] = out
        return out

    def __call__(self, e: LocPoly) -> LocPoly:
        assert e.ring == self.src, "element not in source ring"
        out = self.dst.zero()
        for exp, c in e.terms.items():
            out = out + self._mono_image(exp).scale(c)
        return out

    def compose(self, inner: "RingMap") -> "RingMap":
        """self o inner."""
        assert inner.dst == self.src
        return RingMap(inner.src, self.dst, [self(im) for im in inner.images])

    def __eq__(self, other):
        return (
            isinstance(other, RingMap)
            and self.src == other.src
            and self.dst == other.dst
            and self.images == other.images
        )


def quotient_restrict(e: LocPoly, kill: int) -> LocPoly:
    """Image of e in the quotient by the variable with index `kill`: the
    terms free of that variable.  The variable must not be inverted."""
    if kill in e.ring.inverted:
        raise MalformedElement("cannot quotient by an inverted variable")
    return LocPoly._new(e.ring, {exp: c for exp, c in e.terms.items() if not exp[kill]})
