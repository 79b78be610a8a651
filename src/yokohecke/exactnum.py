"""Exact coefficient arithmetic.

Everything downstream computes over the Laurent polynomial ring

    R = Q(zeta_d)[u^{+-1}, v^{+-1}, g^{+-1}]

where zeta_d is a primitive d-th root of unity.  This module provides the
three layers of that ring:

* rationals: stdlib `fractions.Fraction` (aliased `Rat`);
* `Cyclo`: elements of the cyclotomic field Q(zeta_d), stored as coefficient
  vectors on the power basis 1, zeta, ..., zeta^{phi(d)-1} and reduced modulo
  the minimal polynomial Phi_d (*not* modulo x^d - 1, so equality of field
  elements is equality of coefficient tuples);
* `LPoly`: sparse Laurent polynomials in the three variables u, v, g with
  `Cyclo` coefficients, keyed by integer exponent triples.

`LPoly` is built on `Sparse`, the finite linear combination over a basis
that `HeckeElem`, `YElem` and `BlockMatrix` share as well; sums and products
accumulate into plain dicts through `add_to` / `add_all` and wrap the result
once.

The variable names match the algebraic setup they feed: u and v are the
Hecke-relation parameters (T_i^2 = u^2 + v T_i) and g is the extra framing
parameter used by the link invariants.

>>> cyclotomic_polynomial(4)
(1, 0, 1)
>>> Cyclo.zeta(4) * Cyclo.zeta(4) == Cyclo.from_rat(4, -1)
True
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

__all__ = [
    "Rat",
    "Cyclo",
    "Sparse",
    "LPoly",
    "add_all",
    "add_to",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_power",
]

Rat = Fraction

ExpKey = tuple[int, int, int]  # exponents of (u, v, g)


# --------------------------------------------------------------------------
# cyclotomic polynomials
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d, ascending degree, monic.

    Computed by exact division: Phi_d = (x^d - 1) / prod_{e | d, e < d} Phi_e.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if d < 1:
        raise ValueError(f"order must be >= 1, got {d}")
    num = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            num = _exact_div(num, list(cyclotomic_polynomial(e)))
    return tuple(num)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly (ascending coeffs)."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:  # pragma: no cover - division is always exact here
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        quot[k] = q
        for j, dj in enumerate(den):
            num[k + j] -= q * dj
    if any(num):  # pragma: no cover
        raise ArithmeticError("non-exact polynomial division")
    return quot


def euler_phi(d: int) -> int:
    """Euler's totient, read off as deg Phi_d.

    >>> [euler_phi(d) for d in range(1, 9)]
    [1, 1, 2, 2, 4, 2, 6, 4]
    """
    return len(cyclotomic_polynomial(d)) - 1


@lru_cache(maxsize=None)
def _power_rows(d: int) -> tuple[tuple[int, ...], ...]:
    """Row m = coefficients of x^m mod Phi_d on the power basis, for m < d.

    Covers every exponent produced either by zeta^s (s < d) or by products of
    two reduced elements (degree <= 2 phi(d) - 2 <= 2(d-1) - 2 < d for d >= 2;
    d = 1 has phi = 1 and only row 0 is ever used).
    """
    phi = euler_phi(d)
    top = max(d, 2 * phi - 1)
    rows: list[list[int]] = []
    for m in range(top):
        if m < phi:
            row = [0] * phi
            row[m] = 1
        else:
            # x^m = x * x^{m-1}, then fold the leading term with
            # x^phi = -(Phi_d - x^phi).
            prev = rows[m - 1]
            row = [0] + prev[:-1]
            lead = prev[-1]
            if lead:
                mono = cyclotomic_polynomial(d)
                for k in range(phi):
                    row[k] -= lead * mono[k]
        rows.append(row)
    return tuple(tuple(r) for r in rows)


# --------------------------------------------------------------------------
# cyclotomic field elements
# --------------------------------------------------------------------------

class Cyclo:
    """An element of Q(zeta_d) on the power basis 1, zeta, ..., zeta^{phi(d)-1}.

    Instances are immutable; arithmetic never mixes orders.

    >>> a = Cyclo.zeta(3)
    >>> a * a + a + Cyclo.from_rat(3, 1)   # 1 + zeta + zeta^2 = 0
    Cyclo(3, (Fraction(0, 1), Fraction(0, 1)))
    """

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, order: int, coeffs: Iterable[Union[Rat, int]]):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError(
                f"need {euler_phi(order)} coefficients for order {order}, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs
        self._hash = hash((order, coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rat(cls, order: int, r: Union[Rat, int]) -> "Cyclo":
        phi = euler_phi(order)
        return cls(order, (Fraction(r),) + (Fraction(0),) * (phi - 1))

    @classmethod
    def zero(cls, order: int) -> "Cyclo":
        return _cyclo_zero(order)

    @classmethod
    def one(cls, order: int) -> "Cyclo":
        return _cyclo_one(order)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "Cyclo":
        """zeta_d^power, reduced.

        >>> Cyclo.zeta(2)
        Cyclo(2, (Fraction(-1, 1),))
        >>> Cyclo.zeta(5, 7) == Cyclo.zeta(5, 2)
        True
        """
        return _zeta_pow(order, power % order)

    # -- predicates and parts ----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_part(self) -> Rat:
        """The value as a rational; error if the element is irrational."""
        if not self.is_rational():
            raise ValueError(f"not a rational element: {self!r}")
        return self.coeffs[0]

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "Cyclo") -> None:
        if self.order != other.order:
            raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")

    def __add__(self, other: "Cyclo") -> "Cyclo":
        self._check(other)
        return Cyclo(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        self._check(other)
        return Cyclo(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: Union["Cyclo", Rat, int]) -> "Cyclo":
        if not isinstance(other, Cyclo):
            q = Fraction(other)
            return Cyclo(self.order, tuple(a * q for a in self.coeffs))
        self._check(other)
        conv = [Fraction(0)] * (2 * len(self.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        return _reduce(self.order, conv)

    __rmul__ = __mul__

    # -- misc ----------------------------------------------------------------

    def eval_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(float(c) * z**k for k, c in enumerate(self.coeffs))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cyclo)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Cyclo({self.order}, {self.coeffs})"

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        return "(" + format_cyclo(self) + ")"


@lru_cache(maxsize=None)
def _cyclo_zero(order: int) -> Cyclo:
    return Cyclo.from_rat(order, 0)


@lru_cache(maxsize=None)
def _cyclo_one(order: int) -> Cyclo:
    return Cyclo.from_rat(order, 1)


@lru_cache(maxsize=None)
def _zeta_pow(order: int, s: int) -> Cyclo:
    return Cyclo(order, _power_rows(order)[s])


def _reduce(order: int, coeffs: list[Fraction]) -> Cyclo:
    """The element sum_m coeffs[m] zeta^m, reduced mod Phi_order onto the
    power basis; `coeffs` may run up to degree 2 phi(order) - 2."""
    rows = _power_rows(order)
    out = [Fraction(0)] * euler_phi(order)
    for m, c in enumerate(coeffs):
        if c:
            for k, r in enumerate(rows[m]):
                if r:
                    out[k] += c * r
    return Cyclo(order, out)


def root_power(d: int, a: int, s: int) -> Cyclo:
    """xi_a^s where xi_a = zeta_d^{a-1} is the a-th of the d roots of unity.

    The letters a run through 1..d, so xi_1 = 1 always.

    >>> root_power(2, 2, 1)
    Cyclo(2, (Fraction(-1, 1),))
    >>> root_power(6, 3, 3) == Cyclo.one(6)
    True
    """
    if not 1 <= a <= d:
        raise ValueError(f"letter {a} out of range 1..{d}")
    return _zeta_pow(d, ((a - 1) * s) % d)


# --------------------------------------------------------------------------
# the sparse-combination core
# --------------------------------------------------------------------------

def add_to(out: dict, key, c) -> None:
    """out[key] += c in place; a missing key counts as zero."""
    acc = out.get(key)
    out[key] = c if acc is None else acc + c


def add_all(out: dict, terms: Mapping, c=None) -> None:
    """out += terms in place, each value multiplied on the right by c when
    c is given.  Sums that cancel stay in `out` as zeros; wrapping the dict
    in a `Sparse` prunes them once at the end."""
    if c is None:
        for k, x in terms.items():
            acc = out.get(k)
            out[k] = x if acc is None else acc + x
    else:
        for k, x in terms.items():
            x = x * c
            acc = out.get(k)
            out[k] = x if acc is None else acc + x


class Sparse:
    """A finite linear combination over a basis: `terms` maps basis keys to
    nonzero coefficients (a coefficient is false exactly when it is zero).

    A subclass has a constructor `(*parent, terms)`, where `_parent()` is
    the tuple of data (orders, strand counts) both operands of a sum must
    share.  The base supplies the vector-space operations and equality;
    instances are immutable by convention (construction prunes zeros and no
    method mutates `terms` afterwards) and unhashable unless a subclass
    defines `__hash__`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    def _parent(self) -> tuple:
        raise NotImplementedError

    def _new(self, terms: Mapping):
        """A combination with the same parent and the given terms."""
        return type(self)(*self._parent(), terms)

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
        self._check(other)
        out = dict(self.terms)
        add_all(out, other.terms)
        return self._new(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        add_all(out, (-other).terms)
        return self._new(out)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        """Every coefficient multiplied by c (on the right)."""
        return self._new({k: x * c for k, x in self.terms.items()})

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

Scalar = Union[Cyclo, Rat, int]


class LPoly(Sparse):
    """Sparse Laurent polynomial in u, v, g over Q(zeta_d).

    A `Sparse` combination {(e_u, e_v, e_g): Cyclo} whose parent is the
    cyclotomic order d.  Unlike the algebra elements built on it, an LPoly
    is hashable: equal polynomials hash equal.

    >>> p = LPoly.var(1, "u") + LPoly.var(1, "v", -1)
    >>> print((p * p).text())
    1 * u^2 + 2 * u^1 * v^-1 + 1 * v^-2
    """

    __slots__ = ("order",)

    def __init__(self, order: int, terms: Mapping[ExpKey, Cyclo] | None = None):
        self.order = order
        Sparse.__init__(self, terms)

    def _parent(self) -> tuple:
        return (self.order,)

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "LPoly":
        return cls.const(order, 1)

    @classmethod
    def const(cls, order: int, c: Scalar) -> "LPoly":
        c = c if isinstance(c, Cyclo) else Cyclo.from_rat(order, c)
        return cls(order, {(0, 0, 0): c})

    @classmethod
    def var(cls, order: int, name: str, exp: int = 1) -> "LPoly":
        key = {"u": (exp, 0, 0), "v": (0, exp, 0), "g": (0, 0, exp)}[name]
        return cls(order, {key: Cyclo.one(order)})

    @classmethod
    def monomial(cls, order: int, c: Scalar, eu: int = 0, ev: int = 0, eg: int = 0) -> "LPoly":
        c = c if isinstance(c, Cyclo) else Cyclo.from_rat(order, c)
        return cls(order, {(eu, ev, eg): c})

    # -- structure ----------------------------------------------------------

    def coefficient(self, eu: int, ev: int, eg: int) -> Cyclo:
        return self.terms.get((eu, ev, eg), Cyclo.zero(self.order))

    def constant_value(self) -> Cyclo:
        """The coefficient of u^0 v^0 g^0; error if other terms are present."""
        if self.terms and set(self.terms) != {(0, 0, 0)}:
            raise ValueError(f"not a constant: {self.text()}")
        return self.coefficient(0, 0, 0)

    # -- ring operations ----------------------------------------------------

    # defined on the class itself so that instrumentation can wrap it
    __add__ = Sparse.__add__

    def __mul__(self, other: "LPoly") -> "LPoly":
        self._check(other)
        out: dict[ExpKey, Cyclo] = {}
        for (a1, b1, c1), x in self.terms.items():
            for (a2, b2, c2), y in other.terms.items():
                add_to(out, (a1 + a2, b1 + b2, c1 + c2), x * y)
        return LPoly(self.order, out)

    def shift(self, eu: int = 0, ev: int = 0, eg: int = 0) -> "LPoly":
        """Multiply by the monomial u^eu v^ev g^eg."""
        return LPoly(
            self.order,
            {(a + eu, b + ev, c + eg): x for (a, b, c), x in self.terms.items()},
        )

    def __pow__(self, k: int) -> "LPoly":
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
        if order == self.order:
            return self
        out = {}
        for k, c in self.terms.items():
            out[k] = Cyclo.from_rat(order, c.rational_part())
        return LPoly(order, out)

    def eval_complex(self, u0: complex, v0: complex, g0: complex) -> complex:
        total = 0j
        for (a, b, c), x in self.terms.items():
            total += x.eval_complex() * u0**a * v0**b * g0**c
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
            lines.append(" ".join([*map(str, key), *map(str, c.coeffs)]))
        return lines


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

def format_cyclo(c: Cyclo) -> str:
    parts: list[tuple[str, str]] = []
    for k, r in enumerate(c.coeffs):
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
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def format_lpoly(p: LPoly) -> str:
    if not p.terms:
        return "0"
    rendered: list[tuple[str, str]] = []
    for key in sorted(p.terms, reverse=True):
        c = p.terms[key]
        mono = " * ".join(f"{s}^{e}" for s, e in zip("uvg", key) if e != 0)
        if c.is_rational():
            r = c.rational_part()
            sign = "-" if r < 0 else "+"
            coeff = str(abs(r))
        else:
            sign = "+"
            coeff = "(" + format_cyclo(c) + ")"
        rendered.append((sign, coeff + (" * " + mono if mono else "")))
    first_sign, first_body = rendered[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in rendered[1:]:
        out += f" {sign} {body}"
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
