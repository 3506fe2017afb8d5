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


def _normal_terms(terms: dict) -> dict:
    """terms without its zero values, each value in normal form (`_fr`):
    the one pass that turns a flat accumulator into a value's dict."""
    return {k: c if type(c) is int else _fr(c) for k, c in terms.items() if c}


# the sum of two exponent tuples of length 0, 1, 2 and 3, written out
_EXP_ADDERS = (
    lambda a, b: (),
    lambda a, b: (a[0] + b[0],),
    lambda a, b: (a[0] + b[0], a[1] + b[1]),
    lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
)


def _add_any(a, b):
    return tuple(map(add, a, b))


def exp_adder(n: int):
    """The sum of two exponent tuples of length n, as a function of the
    two: written out for the arities of chart rings, which beats
    tuple(map(add, a, b)) about fourfold on 2-tuples.  Each ring keeps
    the kernel of its arity (`Ring.add_exp`), and every sum of two
    exponent vectors in the package goes through it."""
    return _EXP_ADDERS[n] if n < len(_EXP_ADDERS) else _add_any


def _mul_terms(a: dict, b: dict, add_exp) -> dict:
    """Product of two term dicts, with cancelled terms dropped; add_exp
    sums their exponents (`exp_adder`)."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = add_exp(ea, eb)
            if e in out:
                out[e] += ca * cb
            else:
                out[e] = ca * cb
    return _normal_terms(out)


class Ring:
    """Q[variables] with the variables at the indices `inverted` inverted;
    add_exp sums two exponent tuples of the ring (`exp_adder`)."""

    __slots__ = ("variables", "inverted", "add_exp", "_one", "_zero")

    def __init__(self, variables: Iterable[str], inverted: Iterable[str] = ()):
        self.variables = tuple(variables)
        assert len(set(self.variables)) == len(self.variables)
        self.inverted = frozenset(self.var_index(v) for v in inverted)
        self.add_exp = exp_adder(len(self.variables))
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
        return LocPoly._new(self.ring, _mul_terms(self.terms, other.terms, self.ring.add_exp))

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
            terms = _mul_terms(terms, self.terms, self.ring.add_exp)
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

    A map keeps what it has computed once, so it lives and dies with the
    map: `_mono_images`, the image of each source monomial x^e met so far
    ({e: LocPoly}), and `form_images`, the pullback of each basis form
    x^e dx_K met so far by `forms._basis_image`, as a list of target basis
    forms ({(K, e): [((K', e'), c')]}).  The entry of e = 0 is the
    pullback of dx_K itself.

    `_mono_image` is the one read of the monomial table: `__call__`,
    `forms` (basis-form images), `homology` (window columns) and `trace`
    (the slots of h^q) all go through it.  It checks an exponent against
    the source ring when it first meets it, so an entry is always a
    monomial that the ring allows, and a read after that checks nothing.
    An entry is shared: a caller must not change its terms."""

    __slots__ = ("src", "dst", "images", "_mono_images", "form_images")

    def __init__(self, src: Ring, dst: Ring, images: list):
        assert len(images) == src.nvars
        for im in images:
            assert im.ring == dst
        self.src = src
        self.dst = dst
        self.images = tuple(images)
        self._mono_images: dict = {}  # source exponent -> its image
        self.form_images: dict = {}  # (K, e) -> pullback of x^e dx_K, see forms._basis_image

    @staticmethod
    def identity(ring: Ring) -> "RingMap":
        return RingMap(ring, ring, [ring.var(v) for v in ring.variables])

    def _mono_image(self, exp: tuple) -> LocPoly:
        """Image of x^exp: the product of the images' powers, kept after a
        miss has checked exp against the source ring."""
        out = self._mono_images.get(exp)
        if out is None:
            self.src.check_exponent(exp)
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
