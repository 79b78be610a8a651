"""Exact coefficient arithmetic.

Everything downstream computes over the Laurent polynomial ring

    R = Q(zeta_d)[u^{+-1}, v^{+-1}, g^{+-1}]

where zeta_d is a primitive d-th root of unity.  This module provides the
three layers of that ring:

* rationals: a Python `int` wherever the value is integral, a stdlib
  `fractions.Fraction` (aliased `Rat`) only where a division leaves a
  non-integer.  Constructors and scaling normalise integral `Fraction`s to
  `int` (a sum of `Fraction`s may stay an integral `Fraction`, which
  compares, hashes and prints as that `int`);
* `Cyclo`: elements of the cyclotomic field Q(zeta_d) on the power basis
  1, zeta, ..., zeta^{phi(d)-1}, reduced modulo the minimal polynomial Phi_d
  (*not* modulo x^d - 1, so equality of field elements is equality of
  coordinates).  The reduction is one long division by the monic Phi_d,
  so no table of x^m mod Phi_d is kept; Phi_d itself is a Moebius product
  of sparse binomials x^e - 1.  A product with a rational needs no
  reduction, and one with a power of zeta is an integer map on the
  coordinates (`LPoly.rotate`).  The coordinates are stored as integer
  numerators over one shared denominator, so the 1/d of the idempotents
  costs a gcd per operation instead of a `Fraction` per coordinate; they
  read back as the rationals above;
* `LPoly`: sparse Laurent polynomials in the three variables u, v, g keyed
  by integer exponent triples.  The coefficient kind follows from the
  order d alone: at d = 1, where Q(zeta_1) = Q, a coefficient is the
  rational itself; at d > 1 it is a `Cyclo` of order d.  `coeff` makes a
  coefficient of either kind and `_coords` reads its coordinates; no other
  code looks at the kind.  The door `LPoly(order, terms)` converts each
  int, Fraction or Cyclo coefficient through `coeff` (an int at order 2
  becomes its Cyclo) and rejects any other input, bools included.

Everything the Hecke algebra and the sublink terms compute lives over
Z[u^{+-1}, v^{+-1}, g^{+-1}]: only the 1/d of the idempotents e_i and the
1/|S| of the weighted traces ever divide, so the order-1 path runs on
plain integer arithmetic.

Its two imports from the package, `_check_order` and `comp_of` (the letter
of `root_power`), come from `permcomp`, which imports none: no cycle.

`LPoly` is built on `Sparse`, the finite linear combination over a basis
that the algebra elements share as well, each one flat dict of LPolys:
`HeckeElem` keyed by w, `YElem` by (framings, w) and `BlockMatrix` by
(mu, row, col, p), whose `HeckeElem` cells are built only on demand.  Sums
and products accumulate into plain dicts through `add_to` / `add_all` and
wrap the result once; `LPoly.sum` is that loop for a sum of polynomials.

The variable names match the algebraic setup they feed: u and v are the
Hecke-relation parameters (T_i^2 = u^2 + v T_i) and g is the extra framing
parameter used by the link invariants.

>>> cyclotomic_polynomial(4)
(1, 0, 1)
>>> Cyclo.zeta(4) * Cyclo.zeta(4) == Cyclo.from_rat(4, -1)
True
>>> LPoly.const(1, Fraction(6, 3)).terms, LPoly.const(3, 2).terms
({(0, 0, 0): 2}, {(0, 0, 0): Cyclo(3, (2, 0))})
"""

from __future__ import annotations

import cmath
import itertools
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .permcomp import _check_order, comp_of

__all__ = [
    "Coeff",
    "Rat",
    "Cyclo",
    "Sparse",
    "LPoly",
    "add_all",
    "add_to",
    "nonzero",
    "coeff",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_power",
]

Rat = Fraction

ExpKey = tuple[int, int, int]  # exponents of (u, v, g)


def _rat(x) -> int | Fraction:
    """x as a stored rational: an int where it is integral, else a Fraction.

    The one rational policy of every scalar entry point: an int that is not
    a bool, or a Fraction; anything else raises one ValueError.

    >>> _rat(Fraction(4, 2)), _rat(Fraction(1, 2)), _rat(-3)
    (2, Fraction(1, 2), -3)
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        raise ValueError(f"coefficient {x!r} is not an int, Fraction or Cyclo")
    return x.numerator if x.denominator == 1 else x


# --------------------------------------------------------------------------
# cyclotomic polynomials
# --------------------------------------------------------------------------

def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d, ascending degree, monic.

    Computed as the Moebius product Phi_d = prod_{e | d} (x^e - 1)^{mu(d/e)}.
    Only the squarefree t = d/e count, one per set of prime factors of d.
    For d > 1 there are as many factors with mu = 1 as with mu = -1, so the
    product is the same with every x^e - 1 written as 1 - x^e.  Each factor
    is sparse: multiplying or dividing by it is one pass over the power
    series mod x^{phi(d)+1}, which holds all of Phi_d.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    _check_order(d)
    return _cyclotomic(d)


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:  # of a valid order, memoized
    if d == 1:
        return (-1, 1)
    primes = []
    rest, p = d, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    size = d
    for p in primes:
        size = size // p * (p - 1)
    size += 1
    series = [1] + [0] * (size - 1)
    for chosen in itertools.product((False, True), repeat=len(primes)):
        t = prod(p for p, c in zip(primes, chosen) if c)
        e = d // t
        if sum(chosen) % 2 == 0:  # mu(t) = 1: times 1 - x^e
            for k in range(size - 1, e - 1, -1):
                series[k] -= series[k - e]
        else:  # mu(t) = -1: divided by 1 - x^e
            for k in range(e, size):
                series[k] += series[k - e]
    return tuple(series)


def _poly_rem(num: list[int], mono: tuple[int, ...]) -> list[int]:
    """Remainder of an integer polynomial (ascending coefficients) by the
    monic `mono`, with exactly deg(mono) coefficients."""
    top = len(mono) - 1
    rem = list(num) + [0] * (top - len(num))
    for k in range(len(rem) - top - 1, -1, -1):
        q = rem[k + top]
        if q:
            for j in range(top):
                rem[k + j] -= q * mono[j]
    return rem[:top]


def euler_phi(d: int) -> int:
    """Euler's totient, read off as deg Phi_d.

    >>> [euler_phi(d) for d in range(1, 9)]
    [1, 1, 2, 2, 4, 2, 6, 4]
    """
    return len(cyclotomic_polynomial(d)) - 1


# --------------------------------------------------------------------------
# cyclotomic field elements
# --------------------------------------------------------------------------

class Cyclo(namedtuple("Cyclo", "order num den")):
    """An element of Q(zeta_d) on the power basis 1, zeta, ..., zeta^{phi(d)-1}.

    Stored as integer numerators `num` over one positive shared denominator
    `den`, in lowest terms, so that arithmetic runs on ints and equality is
    equality of (num, den).  `coeffs` reads the coordinates as rationals: an
    int where a coordinate is integral, a Fraction otherwise.  Arithmetic
    never mixes orders.

    An immutable named tuple of ``(order, num, den)``, like
    `permcomp.Composition`: it compares, orders and hashes as the plain
    tuple of its fields, and copies and pickles through its constructor.

    >>> a = Cyclo.zeta(3)
    >>> a * a + a + Cyclo.from_rat(3, 1)   # 1 + zeta + zeta^2 = 0
    Cyclo(3, (0, 0))
    >>> c = Cyclo(3, (Fraction(4, 2), Fraction(1, 2)))
    >>> c, c.num, c.den
    (Cyclo(3, (2, Fraction(1, 2))), (4, 1), 2)
    """

    __slots__ = ()

    def __new__(cls, order: int, coeffs: Iterable[Rat | int]):
        phi = euler_phi(order)
        coeffs = [_rat(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}, got {len(coeffs)}")
        # over the lcm of reduced denominators the numerators share no factor
        den = lcm(*[c.denominator for c in coeffs])
        num = tuple([c.numerator * (den // c.denominator) for c in coeffs])
        return super().__new__(cls, order, num, den)

    def __getnewargs__(self) -> tuple:
        return (self.order, self.coeffs)

    @property
    def coeffs(self) -> tuple:
        """The phi(d) coordinates: ints where integral, else Fractions."""
        den = self.den
        if den == 1:
            return self.num
        return tuple([_rat(Fraction(n, den)) for n in self.num])

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rat(cls, order: int, r: Rat | int) -> "Cyclo":
        r = _rat(r)
        return _cyclo(order, [r.numerator] + [0] * (euler_phi(order) - 1), r.denominator)

    @classmethod
    def zero(cls, order: int) -> "Cyclo":
        return _cyclo(order, [0] * euler_phi(order), 1)

    @classmethod
    def one(cls, order: int) -> "Cyclo":
        _check_order(order)
        return _zeta_pow(order, 0)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "Cyclo":
        """zeta_d^power, reduced.

        >>> Cyclo.zeta(2)
        Cyclo(2, (-1,))
        >>> Cyclo.zeta(5, 7) == Cyclo.zeta(5, 2)
        True
        """
        _check_order(order)
        if type(power) is not int:
            raise ValueError(f"exponent {power!r} is not an integer")
        return _zeta_pow(order, power % order)

    # -- predicates and parts ----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def rational_part(self) -> Rat | int:
        """The value as a rational; error if the element is irrational."""
        if any(self.num[1:]):
            raise ValueError(f"not a rational element: {self!r}")
        return self.coeffs[0]

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "Cyclo") -> None:
        if self.order != other.order:
            raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")

    def __add__(self, other: "Cyclo") -> "Cyclo":
        self._check(other)
        p, q = self.den, other.den
        if p == q:
            return _cyclo(self.order, [a + b for a, b in zip(self.num, other.num)], p)
        return _cyclo(self.order, [a * q + b * p for a, b in zip(self.num, other.num)], p * q)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-other)

    def __neg__(self) -> "Cyclo":
        return _cyclo(self.order, [-a for a in self.num], self.den)

    def __mul__(self, other: Cyclo | Rat | int) -> "Cyclo":
        if not isinstance(other, Cyclo):
            q = _rat(other)
            return _cyclo(self.order, [a * q.numerator for a in self.num], self.den * q.denominator)
        self._check(other)
        a, b = self.num, other.num
        # times a rational: the power basis is kept, so nothing to reduce
        if not any(b[1:]):
            return _cyclo(self.order, [x * b[0] for x in a], self.den * other.den)
        if not any(a[1:]):
            return _cyclo(self.order, [a[0] * y for y in b], self.den * other.den)
        conv = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return _reduce(self.order, conv, self.den * other.den)

    __rmul__ = __mul__

    # -- misc ----------------------------------------------------------------

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Cyclo({self.order}, {self.coeffs})"


def _cyclo(order: int, num: list[int], den: int) -> Cyclo:
    """The Cyclo with numerators `num` over den > 0, put in lowest terms;
    skips the checks of the public constructor."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return tuple.__new__(Cyclo, (order, tuple(num), den))


@lru_cache(maxsize=None)
def _zeta_pow(order: int, s: int) -> Cyclo:
    return _reduce(order, [0] * s + [1], 1)


def _reduce(order: int, num: list[int], den: int) -> Cyclo:
    """The element (sum_m num[m] zeta^m) / den, reduced mod Phi_order onto
    the power basis."""
    return _cyclo(order, _poly_rem(num, _cyclotomic(order)), den)


@lru_cache(maxsize=256)
def _zeta_map(order: int, s: int) -> tuple[tuple[int, ...], ...]:
    """The integer matrix, as rows, of multiplication by zeta^s (0 <= s <
    order) on the power-basis numerators: column j holds the coordinates of
    zeta^(s + j).  zeta^s is a unit of Z[zeta], so the matrix is invertible
    over Z: it keeps the gcd of the numerators, hence lowest terms, and
    sends only zero to zero.

    >>> _zeta_map(3, 1)   # zeta * (a + b zeta) = -b + (a - b) zeta
    ((0, -1), (1, -1))
    """
    cols = [_zeta_pow(order, (s + j) % order).num for j in range(euler_phi(order))]
    return tuple(zip(*cols))


def root_power(d: int, a: int, s: int) -> Cyclo:
    """xi_a^s where xi_a = zeta_d^{a-1} is the a-th of the d roots of unity.

    The letter a, checked by `comp_of`, runs through 1..d, so xi_1 = 1.

    >>> root_power(2, 2, 1)
    Cyclo(2, (-1,))
    >>> root_power(6, 3, 3) == Cyclo.one(6)
    True
    """
    comp_of((a,), d)
    if type(s) is not int:
        raise ValueError(f"exponent {s!r} is not an integer")
    return _zeta_pow(d, ((a - 1) * s) % d)


# --------------------------------------------------------------------------
# polynomial coefficients
# --------------------------------------------------------------------------

Coeff = int | Fraction | Cyclo  # a coefficient of an LPoly


def coeff(order: int, x) -> Coeff:
    """x as a coefficient of an order-`order` polynomial.

    The kind follows from the order alone.  At order 1, where
    Q(zeta_1) = Q, a coefficient is the rational itself: an int wherever it
    is integral, else a Fraction.  At order d > 1 it is a `Cyclo` of
    order d.  x is a rational (an int or a Fraction, see `_rat`) or a
    `Cyclo`: of order `order`, or rational (`as_order` reinterprets those)
    of any order.  Every LPoly constructor and reader goes through this
    function or `_coords`, so no caller branches on the order.

    >>> coeff(1, Fraction(4, 2)), coeff(1, Cyclo.one(1)), coeff(1, Fraction(2, 4))
    (2, 1, Fraction(1, 2))
    >>> coeff(3, 2), coeff(3, Cyclo.zeta(3))
    (Cyclo(3, (2, 0)), Cyclo(3, (0, 1)))
    """
    if isinstance(x, Cyclo):
        if x.order == order:
            return x if order > 1 else x.coeffs[0]
        x = x.rational_part()
    return _rat(x) if order == 1 else Cyclo.from_rat(order, x)


def _coords(c: Coeff) -> tuple:
    """The phi(d) power-basis coordinates of a coefficient (see `coeff`)."""
    return c.coeffs if isinstance(c, Cyclo) else (c,)


# --------------------------------------------------------------------------
# the sparse-combination core
# --------------------------------------------------------------------------

def add_to(out: dict, key, c) -> None:
    """out[key] += c in place; a missing key counts as zero."""
    acc = out.get(key)
    out[key] = c if acc is None else acc + c


def add_all(out: dict, terms: Mapping, c=None) -> None:
    """out += terms in place, each value multiplied on the right by c when
    c is given.  Sums that cancel stay in `out` as zeros; `nonzero` drops
    them once at the end."""
    if c is None:
        for k, x in terms.items():
            acc = out.get(k)
            out[k] = x if acc is None else acc + x
    else:
        for k, x in terms.items():
            x = x * c
            acc = out.get(k)
            out[k] = x if acc is None else acc + x


def nonzero(terms: Mapping) -> dict:
    """The terms whose coefficient is nonzero."""
    return {k: c for k, c in terms.items() if c}


class Sparse:
    """A finite linear combination over a basis: `terms` maps basis keys to
    nonzero coefficients (a coefficient is false exactly when it is zero).

    A subclass has a constructor `(*parent, terms)`, where `_parent()` is
    the tuple of data (orders, strand counts) both operands of a sum must
    share, and a builder `_make(*parent, terms)` that `_new` calls.  The
    base supplies the vector-space operations and equality; instances are
    immutable by convention (no method mutates `terms` once built) and
    unhashable unless a subclass defines `__hash__`.

    Checked at the door, trusted inside, for every value type: `LPoly`,
    `Cyclo`, `HeckeElem`, `YElem`, `BlockMatrix`, `Composition`, `TraceSpec`
    and `FramedBraidWord` each have one public constructor, which checks
    every order, key, part, support, token and coefficient, and one builder
    (`_make`; `_cyclo` for `Cyclo`) that checks and filters nothing, for all
    the package's own builds.  A product or shift of nonzero coefficients
    is nonzero, so only a sum that may cancel passes through `nonzero`.  A
    function that takes other caller data checks it once, at entry, before
    any cache: an lru_cache finds the entry of an equal key, and True == 1.
    Public classmethods, embeddings and transforms (`one`, `extend`,
    `from_E_basis`) are doors too, and call the same owner of each check.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = nonzero(terms) if terms else {}

    def _parent(self) -> tuple:
        raise NotImplementedError

    def _new(self, terms: dict):
        """The combination at this parent with `terms`, taken as they are."""
        return self._make(*self._parent(), terms)

    @classmethod
    def zero(cls, *parent):
        return cls(*parent)

    def _check(self, other: "Sparse") -> None:
        if type(other) is not type(self):
            raise ValueError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other._parent() != self._parent():
            raise ValueError(
                f"mixed {type(self).__name__} parents {self._parent()} and {other._parent()}"
            )

    def __add__(self, other):
        """The sum; only the keys where two coefficients meet are zero-tested."""
        self._check(other)
        out = dict(self.terms)
        for k, x in other.terms.items():
            acc = out.get(k)
            if acc is None:
                out[k] = x
            else:
                acc = acc + x
                if acc:
                    out[k] = acc
                else:
                    del out[k]
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        """Every coefficient multiplied by c (on the right)."""
        return self._new(nonzero({k: x * c for k, x in self.terms.items()}))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self._parent() == other._parent()
            and self.terms == other.terms
        )

    __hash__ = None


# --------------------------------------------------------------------------
# sparse Laurent polynomials in u, v, g
# --------------------------------------------------------------------------

Scalar = Cyclo | Rat | int


class LPoly(Sparse):
    """Sparse Laurent polynomial in u, v, g over Q(zeta_d).

    A `Sparse` combination {(e_u, e_v, e_g): coefficient} whose parent is
    the cyclotomic order d.  The coefficients are of the order's kind (see
    `coeff`): plain rationals at d = 1, where the 2-variable invariant and
    the sublink terms are computed, and `Cyclo`s of order d otherwise.
    Unlike the algebra elements built on it, an LPoly is hashable: equal
    polynomials hash equal.

    >>> p = LPoly.var(1, "u") + LPoly.var(1, "v", -1)
    >>> print((p * p).text())
    1 * u^2 + 2 * u^1 * v^-1 + 1 * v^-2
    >>> (p * p).terms[(1, -1, 0)]
    2
    """

    __slots__ = ("order",)

    def __init__(self, order: int, terms: Mapping[ExpKey, Coeff] | None = None):
        _check_order(order)
        clean = {}
        for k, c in (terms or {}).items():
            if not (type(k) is tuple and len(k) == 3 and all([type(e) is int for e in k])):
                raise ValueError(f"key {k!r} is not a triple of integer exponents")
            if c := coeff(order, c):
                clean[k] = c
        self.order, self.terms = order, clean

    @classmethod
    def _make(cls, order: int, terms: dict) -> "LPoly":
        out = object.__new__(cls)
        out.order, out.terms = order, terms
        return out

    # the checks of `Sparse`, with the parent read directly
    def _check(self, other: "LPoly") -> None:
        if type(other) is not LPoly:
            raise ValueError(f"cannot combine LPoly with {type(other).__name__}")
        if other.order != self.order:
            raise ValueError(f"mixed LPoly parents ({self.order},) and ({other.order},)")

    def __eq__(self, other: object) -> bool:
        return type(other) is LPoly and self.order == other.order and self.terms == other.terms

    def _new(self, terms: dict) -> "LPoly":
        return LPoly._make(self.order, terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "LPoly":
        _check_order(order)
        return cls._make(order, {})

    @classmethod
    def one(cls, order: int) -> "LPoly":
        return cls.const(order, 1)

    @classmethod
    def const(cls, order: int, c: Scalar) -> "LPoly":
        return cls.monomial(order, c)

    @classmethod
    def var(cls, order: int, name: str, exp: int = 1) -> "LPoly":
        if name not in ("u", "v", "g"):
            raise ValueError(f"variable {name!r} is not u, v or g")
        return cls.monomial(order, 1, *[exp if x == name else 0 for x in "uvg"])

    @classmethod
    def monomial(cls, order: int, c: Scalar, eu: int = 0, ev: int = 0, eg: int = 0) -> "LPoly":
        _check_order(order)
        if not type(eu) is type(ev) is type(eg) is int:
            raise ValueError(f"exponents {(eu, ev, eg)!r} are not all integers")
        return cls._make(order, nonzero({(eu, ev, eg): coeff(order, c)}))

    @classmethod
    def sum(cls, order: int, polys: Iterable["LPoly"]) -> "LPoly":
        """The sum of `polys`, all of this order, added in one dict and wrapped once."""
        _check_order(order)
        total: dict = {}
        for p in polys:
            if type(p) is not LPoly or p.order != order:
                what = f"an order-{p.order} LPoly" if type(p) is LPoly else repr(p)
                raise ValueError(f"cannot add {what} into order {order}")
            add_all(total, p.terms)
        return cls._make(order, nonzero(total))

    # -- structure ----------------------------------------------------------

    def coefficient(self, eu: int, ev: int, eg: int) -> Coeff:
        c = self.terms.get((eu, ev, eg))
        return coeff(self.order, 0) if c is None else c

    def constant_value(self) -> Coeff:
        """The coefficient of u^0 v^0 g^0; error if other terms are present."""
        if self.terms and set(self.terms) != {(0, 0, 0)}:
            raise ValueError(f"not a constant: {self.text()}")
        return self.coefficient(0, 0, 0)

    # -- ring operations ----------------------------------------------------

    # defined on the class itself so that instrumentation can wrap it
    __add__ = Sparse.__add__

    def __mul__(self, other: "LPoly") -> "LPoly":
        """The product; times a one-term polynomial it is one pass, with no sum."""
        self._check(other)
        if len(self.terms) == 1:  # the coefficients commute
            self, other = other, self
        if len(other.terms) == 1:
            ((a2, b2, c2), y), = other.terms.items()
            return LPoly._make(self.order, {
                (a1 + a2, b1 + b2, c1 + c2): x * y for (a1, b1, c1), x in self.terms.items()
            })
        out: dict[ExpKey, Cyclo] = {}
        for (a1, b1, c1), x in self.terms.items():
            for (a2, b2, c2), y in other.terms.items():
                add_to(out, (a1 + a2, b1 + b2, c1 + c2), x * y)
        return LPoly._make(self.order, nonzero(out))

    def scale(self, c: Scalar) -> "LPoly":
        """Every coefficient multiplied by the scalar c: a rational, or an
        element of this order's field (a `Cyclo` passes through `coeff`)."""
        c = coeff(self.order, c) if isinstance(c, Cyclo) else _rat(c)
        terms = {k: x * c for k, x in self.terms.items()} if c else {}
        if self.order == 1 and type(c) is Fraction:
            terms = {k: _rat(x) for k, x in terms.items()}
        return LPoly._make(self.order, terms)

    def shift(self, eu: int = 0, ev: int = 0, eg: int = 0) -> "LPoly":
        """Multiply by the monomial u^eu v^ev g^eg (the zero shift is the polynomial itself)."""
        if not (eu or ev or eg):
            return self
        return LPoly._make(self.order, {
            (a + eu, b + ev, c + eg): x for (a, b, c), x in self.terms.items()
        })

    def rotate(self, s: int) -> "LPoly":
        """Multiply by zeta_d^s (0 <= s < d) through the integer map
        `_zeta_map` on each coefficient's numerators: no product or gcd runs.

        >>> LPoly.monomial(3, Cyclo.zeta(3), 1).rotate(2) == LPoly.var(3, "u")
        True
        """
        if not s:
            return self
        rows, terms = _zeta_map(self.order, s), {}
        for k, x in self.terms.items():
            num = tuple([sum([r * a for r, a in zip(row, x.num)]) for row in rows])
            terms[k] = tuple.__new__(Cyclo, (x.order, num, x.den))
        return LPoly._make(self.order, terms)

    def __pow__(self, k: int) -> "LPoly":
        if type(k) is not int:
            raise ValueError(f"exponent {k!r} is not an integer")
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        out = LPoly.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- conversions ---------------------------------------------------------

    def as_order(self, order: int) -> "LPoly":
        """Reinterpret in Q(zeta_order); requires all coefficients rational."""
        _check_order(order)
        if order == self.order:
            return self
        return LPoly._make(order, {k: coeff(order, c) for k, c in self.terms.items()})

    def eval_complex(self, u0: complex, v0: complex, g0: complex) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        for (a, b, c), x in self.terms.items():
            value = sum(float(r) * z**k for k, r in enumerate(_coords(x)))
            total += value * u0**a * v0**b * g0**c
        return total

    # -- hashing and text -----------------------------------------------------

    def __hash__(self) -> int:
        return hash((self.order, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"<LPoly d={self.order}: {self.text()}>"

    def text(self) -> str:
        """Canonical text form; see `format_lpoly`."""
        return format_lpoly(self)

    def machine_lines(self) -> list[str]:
        """One line per term: `e_u e_v e_g` then the phi(d) rational coefficients."""
        lines = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            lines.append(" ".join([*map(str, key), *map(str, _coords(c))]))
        return lines


def _check_coeff(c, order: int) -> None:
    """The door's test of a coefficient of an algebra element."""
    if type(c) is not LPoly or c.order != order:
        raise ValueError(f"coefficient {c!r} is not an LPoly of order {order}")


# --------------------------------------------------------------------------
# canonical text format
# --------------------------------------------------------------------------
#
# Terms are printed in descending lexicographic order of (e_u, e_v, e_g), each
# as `C * u^A * v^B * g^C` with zero-exponent factors omitted and exponents
# always written out (`u^1`, `u^-2`).  Rational coefficients are always
# printed, with their sign folded into the ` + ` / ` - ` separators;
# irrational coefficients are parenthesized sums `(r0 + r1*z + ...)` in the
# root of unity z = zeta_d.  The zero polynomial prints as `0`.

def format_cyclo(c: Coeff) -> str:
    parts: list[tuple[str, str]] = []
    for k, r in enumerate(_coords(c)):
        if not r:
            continue
        sign = "-" if r < 0 else "+"
        mag = abs(r)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = f"{mag}*z"
        else:
            body = f"{mag}*z^{k}"
        parts.append((sign, body))
    return _signed_join(parts)


def format_lpoly(p: LPoly) -> str:
    rendered: list[tuple[str, str]] = []
    for key in sorted(p.terms, reverse=True):
        c = p.terms[key]
        mono = " * ".join(f"{s}^{e}" for s, e in zip("uvg", key) if e != 0)
        r, *irrational = _coords(c)
        if not any(irrational):
            sign = "-" if r < 0 else "+"
            shown = str(abs(r))
        else:
            sign = "+"
            shown = "(" + format_cyclo(c) + ")"
        rendered.append((sign, shown + (" * " + mono if mono else "")))
    return _signed_join(rendered)


def _signed_join(parts: list[tuple[str, str]]) -> str:
    """Join (sign, body) pairs as `-a + b - c`; no parts print as `0`.

    >>> _signed_join([("-", "1"), ("+", "2*z"), ("-", "u^1")]), _signed_join([])
    ('-1 + 2*z - u^1', '0')
    """
    if not parts:
        return "0"
    (first_sign, out), *rest = parts
    if first_sign == "-":
        out = "-" + out
    return out + "".join(f" {sign} {body}" for sign, body in rest)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
