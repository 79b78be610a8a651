"""The Yokonuma-Hecke algebra Y_{d,n} in exact arithmetic.

Y_{d,n} is generated by g_1, ..., g_{n-1} (braiding) and t_1, ..., t_n
(framing) subject to

    braid relations among the g_i,       t_i t_j = t_j t_i,    t_j^d = 1,
    g_i t_j = t_{s_i(j)} g_i,            g_i^2 = u^2 + v e_i g_i,

where e_i = (1/d) sum_s t_i^s t_{i+1}^{-s} is an idempotent.  Writing
gt_i = u^{-1} g_i (so gt_i^{-1} = gt_i - u^{-1} v e_i), the algebra is free
with basis { t^k gt_w } over k in (Z/d)^n and w in S_n, where t^k means
t_1^{k_1} ... t_n^{k_n} and gt_w comes from any reduced word of w.

Elements are stored on that basis as {(k, w): LPoly} with k a tuple of
exponents in 0..d-1 and w a one-line permutation tuple.  All generator
multiplications below are single passes over the term dict using the
commutation rule g_w t_j = t_{w(j)} g_w.

The second basis used everywhere is the idempotent basis {E_chi gt_w}: for a
character chi (tuple of letters, position j carrying the root of unity
xi_{chi_j}) the primitive idempotent is

    E_chi = prod_j ( (1/d) sum_s xi_{chi_j}^s t_j^{-s} ),

and conversion in either direction factorizes strand by strand
(`to_E_basis` / `from_E_basis`): n passes per permutation instead of a sum
of d^{2n} terms.  Every factor is a d-th root of unity,
xi_a^e = zeta^{(a-1)e}, so a pass carries the power of zeta each
coefficient still owes as an int exponent, and moving a key on only adds
exponents.  A coefficient is multiplied where a second term meets its key
(by zeta to the difference of their exponents) and once at the end (by
zeta^s, with the (1/d)^n of `from_E_basis`), each product once per
coefficient and factor: a single term t^k gt_w costs at most d - 1
multiplications for its d^n idempotent-basis coefficients.

A trace reads only the keys (chi, w) with w(chi) = chi, those that land on
the diagonal of the matrix decomposition.  `fixed_E_coeffs` produces just
those, over a chosen set of letters, by running the same strand transform
over the cycles of w instead of its strands.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache

from .exactnum import LPoly, Sparse, _check_coeff, _ratio, add_all, add_to, nonzero
from .permcomp import (
    Character,
    Composition,
    Perm,
    act,
    comp_of,
    cycles,
    identity,
    orbit,
    reduced_word,
)
from .permcomp import (
    _check_character,
    _check_crossing,
    _check_framing,
    _check_generator,
    _check_order,
    _check_strands,
    _is_perm,
)

__all__ = [
    "YElem",
    "y_mul",
    "idempotent_E",
    "idempotent_Emu",
    "to_E_basis",
    "fixed_E_coeffs",
    "from_E_basis",
    "e_basis_mul_basis",
]

YKey = tuple[tuple[int, ...], Perm]


class YElem(Sparse):
    """An element of Y_{d,n} on the basis t^k gt_w, with framings k in 0..d-1."""

    __slots__ = ("d", "n")

    def __init__(self, d: int, n: int, terms: Mapping[YKey, LPoly] | None = None):
        _check_order(d)
        _check_strands(n)
        self.d, self.n = d, n
        for (k, w), c in (terms or {}).items():
            if not (type(k) is tuple and len(k) == n and _is_perm(w, n)
                    and all([type(e) is int and 0 <= e < d for e in k])):
                raise ValueError(f"key {(k, w)} does not fit Y_{{{d},{n}}}")
            _check_coeff(c, d)
        Sparse.__init__(self, terms)

    def _parent(self) -> tuple:
        return (self.d, self.n)

    @classmethod
    def _make(cls, d: int, n: int, terms: dict) -> "YElem":
        out = object.__new__(cls)
        out.d, out.n, out.terms = d, n, terms
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, d: int, n: int) -> "YElem":
        _check_strands(n)  # and `LPoly.one` the order
        return cls._make(d, n, {((0,) * n, identity(n)): LPoly.one(d)})

    @classmethod
    def t_elem(cls, d: int, n: int, j: int, power: int = 1) -> "YElem":
        """The framing generator t_j^power."""
        return cls.one(d, n).mul_t(j, power)

    @classmethod
    def g_elem(cls, d: int, n: int, i: int) -> "YElem":
        """The braiding generator g_i."""
        return cls.one(d, n).mul_g(i)

    @classmethod
    def e_elem(cls, d: int, n: int, i: int) -> "YElem":
        """The idempotent e_i."""
        return cls.one(d, n).mul_e(i)

    def __repr__(self) -> str:
        if not self.terms:
            return f"<YElem d={self.d} n={self.n}: 0>"
        bits = " ++ ".join(
            f"[{self.terms[key].text()}] t{key[0]} gt{key[1]}" for key in sorted(self.terms)
        )
        return f"<YElem d={self.d} n={self.n}: {bits}>"

    def coefficient(self, k: tuple[int, ...], w: Perm) -> LPoly:
        return self.terms.get((k, w), LPoly.zero(self.d))

    # -- right generator multiplications --------------------------------------

    def mul_t(self, j: int, power: int = 1) -> "YElem":
        """Right multiply by t_j^power: t^k gt_w t_j = t^{k + power.delta_{w(j)}} gt_w."""
        _check_framing(self.n, j, power)
        return self.mul_t_vector(tuple(power if m == j else 0 for m in range(1, self.n + 1)))

    def mul_t_vector(self, kv: tuple[int, ...]) -> "YElem":
        """Right multiply by t^kv = t_1^{kv_1} ... t_n^{kv_n} in one pass."""
        if len(kv) != self.n or not all([type(m) is int for m in kv]):
            raise ValueError(f"framing powers {kv!r} do not fit {self.n} strands")
        out: dict[YKey, LPoly] = {}
        for (k, w), c in self.terms.items():
            k2 = list(k)
            for j, m in enumerate(kv):
                if m:
                    pos = w[j] - 1
                    k2[pos] = (k2[pos] + m) % self.d
            out[tuple(k2), w] = c
        return YElem._make(self.d, self.n, out)

    def _spread_e(self, out: dict, k: tuple[int, ...], w: Perm, i: int, c: LPoly) -> None:
        """Add c t^{k'} gt_w into `out` for each of the d framings k' in
        t^k gt_w (d e_i): e_i moves left past gt_w onto the positions w(i),
        w(i+1), so k' = k + s (delta_{w(i)} - delta_{w(i+1)}) for s in 0..d-1."""
        d = self.d
        p, q = w[i - 1] - 1, w[i] - 1
        for s in range(d):
            k2 = list(k)
            k2[p] = (k2[p] + s) % d
            k2[q] = (k2[q] - s) % d
            add_to(out, (tuple(k2), w), c)

    def mul_e(self, i: int) -> "YElem":
        """Right multiply by e_i = (1/d) sum_s t_i^s t_{i+1}^{-s}."""
        _check_generator(self.n, i)
        frac = _ratio(self.d, 1, self.d)
        out: dict[YKey, LPoly] = {}
        for (k, w), c in self.terms.items():
            self._spread_e(out, k, w, i, c.scale(frac))
        return YElem._make(self.d, self.n, nonzero(out))

    def mul_gtilde(self, i: int, sign: int = 1) -> "YElem":
        """Right multiply by gt_i^sign, sign = 1 or -1, where gt_i = u^{-1} g_i
        and gt_i^{-1} = gt_i - u^{-1} v e_i:

            t^k gt_w gt_i^sign = t^k gt_{w s_i}        if len(w s_i) = len(w) + sign,
                               = t^k gt_{w s_i} + sign u^{-1} v t^k gt_w e_i   otherwise.
        """
        _check_crossing(self.n, i, sign)
        frac = _ratio(self.d, sign, self.d)
        out: dict[YKey, LPoly] = {}
        for (k, w), c in self.terms.items():
            ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
            add_to(out, (k, ws), c)
            if (w[i - 1] < w[i]) != (sign == 1):
                self._spread_e(out, k, w, i, c.shift(-1, 1).scale(frac))
        return YElem._make(self.d, self.n, nonzero(out))

    def mul_g(self, i: int, sign: int = 1) -> "YElem":
        """Right multiply by g_i^sign = u^sign gt_i^sign (sign = 1 or -1)."""
        return self.mul_gtilde(i, sign).shift(sign)

    def shift(self, eu: int = 0, ev: int = 0, eg: int = 0) -> "YElem":
        """Every coefficient multiplied by the monomial u^eu v^ev g^eg."""
        return self._new({key: c.shift(eu, ev, eg) for key, c in self.terms.items()})

    # -- embeddings ------------------------------------------------------------

    def extend(self, m: int) -> "YElem":
        """The image under Y_{d,n} -> Y_{d,m} (new strands unframed, untouched)."""
        _check_strands(m)
        if m < self.n:
            raise ValueError("cannot extend to a smaller strand count")
        padk = (0,) * (m - self.n)
        padw = tuple(range(self.n + 1, m + 1))
        return YElem._make(self.d, m, {(k + padk, w + padw): c for (k, w), c in self.terms.items()})


def y_mul(x: YElem, y: YElem) -> YElem:
    """Product x * y, expanding y's basis terms as t^k gt_{i_1} ... gt_{i_r}."""
    x._check(y)
    out: dict[YKey, LPoly] = {}
    for (k, w), c in y.terms.items():
        z = x.mul_t_vector(k) if any(k) else x
        for i in reduced_word(w):
            z = z.mul_gtilde(i)
        add_all(out, z.terms, c)
    return YElem._make(x.d, x.n, nonzero(out))


# --------------------------------------------------------------------------
# the idempotent basis
# --------------------------------------------------------------------------

def _strandwise(items, table: dict[int, tuple[tuple[int, int], ...]], d: int, scalar=1) -> dict:
    """Apply one linear map to every axis of a (key, w)-indexed combination,
    then multiply by the rational `scalar` (an int, or an order-d `Cyclo`
    from `exactnum._ratio`).

    `items` yields ((key, w), c) with key a tuple of axis labels, as many
    for one w as there are axes; items sharing a key add up.  `table[e]`
    lists the (label, t) pairs axis label e maps to, with the factor
    zeta_d^t.  Every factor is a d-th root of unity, so a pass keeps, with
    the coefficient at each partial key, the exponent s of the power of
    zeta_d it still owes: moving a key on adds t to s as plain ints and
    multiplies nothing.  Only where a second term meets a partial key is it
    rotated by zeta_d^(its s - the first s) and added, so each partial key
    holds one entry.  At the end each coefficient is rotated by zeta_d^s
    and scaled by `scalar`.  A rotation is `LPoly.rotate`, an integer map;
    only a sum can make a zero.  Both steps go through a memo keyed by the
    coefficient's identity, which holds the coefficient so that no id is
    reused while the memo lives; a factor equal to 1 costs nothing.
    Returns {(key, w): c} with zero coefficients dropped.
    """
    # times(c, i): c * zeta_d^i for i < d, c * scalar * zeta_d^(i - d) for i >= d
    memo: dict[tuple[int, int], tuple[LPoly, LPoly]] = {}
    final = 0 if scalar == 1 else d

    def times(c: LPoly, i: int) -> LPoly:
        hit = memo.get((id(c), i))
        if hit is None:
            r = c.rotate(i % d)
            hit = memo[id(c), i] = (c, r if i < d else r.scale(scalar))
        return hit[1]

    by_w: dict[Perm, dict[tuple[int, ...], LPoly]] = {}
    for (key, w), c in items:
        add_to(by_w.setdefault(w, {}), key, c)
    out: dict[tuple[tuple[int, ...], Perm], LPoly] = {}
    for w, start in by_w.items():
        cur = {key: (c, 0) for key, c in start.items() if c}
        for axis in range(len(next(iter(start)))):
            nxt: dict[tuple[int, ...], tuple[LPoly, int]] = {}
            met = False  # only a sum can be zero
            for key, (c, s) in cur.items():
                head, tail = key[:axis], key[axis + 1 :]
                for e, t in table[key[axis]]:
                    k2, s2 = head + (e,) + tail, (s + t) % d
                    acc = nxt.get(k2)
                    if acc is None:
                        nxt[k2] = (c, s2)
                    else:
                        a, sa = acc
                        nxt[k2] = (a + (c if s2 == sa else times(c, (s2 - sa) % d)), sa)
                        met = True
            cur = {key: cs for key, cs in nxt.items() if cs[0].terms} if met else nxt
        for key, (c, s) in cur.items():
            out[key, w] = times(c, final + s) if final or s else c
    return out


@lru_cache(maxsize=64)
def _to_E_table(d: int, letters: tuple[int, ...]) -> dict[int, tuple[tuple[int, int], ...]]:
    """Framing exponent e -> ((a, t) for a in letters), xi_a^e = zeta_d^t.
    Shared by every caller, so never mutated."""
    return {e: tuple((a, (a - 1) * e % d) for a in letters) for e in range(d)}


def to_E_basis(x: YElem) -> dict[tuple[Character, Perm], LPoly]:
    """Coefficients of x on the basis {E_chi gt_w}.

    Since t^k = sum_chi (prod_j xi_{chi_j}^{k_j}) E_chi, the coefficient on
    (chi, w) is sum_k c_{k,w} prod_j xi_{chi_j}^{k_j}; the sum factorizes and
    is evaluated one strand at a time.
    """
    d = x.d
    return _strandwise(x.terms.items(), _to_E_table(d, tuple(range(1, d + 1))), d)


def fixed_E_coeffs(x: YElem, letters=None) -> dict[tuple[Character, Perm], LPoly]:
    """The coefficients of `to_E_basis(x)` on the keys (chi, w) with
    w(chi) = chi and every letter of chi in `letters` (default: all d;
    each checked by `comp_of`), computed without the others.

    w fixes chi exactly when chi is constant on every cycle C of w, say
    chi_j = a_C for j in C.  Then

        prod_j xi_{chi_j}^{k_j} = prod_C xi_{a_C}^{K_C},
        K_C = sum_{j in C} k_j  mod d,

    since xi_a is a d-th root of unity.  So the coefficient on (chi, w) is
    sum_K c_{K,w} prod_C xi_{a_C}^{K_C}, where c_{K,w} sums the c_{k,w}
    with the same cycle sums K: the strand transform of `to_E_basis`, run
    over the c(w) cycles of w with only the given letters.  Per w it makes
    |letters|^{c(w)} coefficients where `to_E_basis` makes d^n.

    >>> x = YElem(2, 2, {((1, 0), (2, 1)): LPoly.one(2)})  # t_1 gt_1
    >>> len(to_E_basis(x))
    4
    >>> {key: c.text() for key, c in fixed_E_coeffs(x).items()}
    {((1, 1), (2, 1)): '1', ((2, 2), (2, 1)): '-1'}
    >>> list(fixed_E_coeffs(x, letters={2}))
    [((2, 2), (2, 1))]
    """
    d = x.d
    letters = range(1, d + 1) if letters is None else comp_of(letters, d).letters()
    cycs: dict[Perm, list[tuple[int, ...]]] = {}
    collapsed = []
    for (k, w), c in x.terms.items():
        cyc = cycs.get(w)
        if cyc is None:
            cyc = cycs[w] = cycles(w)
        collapsed.append(((tuple([sum([k[j - 1] for j in C]) % d for C in cyc]), w), c))
    out: dict[tuple[Character, Perm], LPoly] = {}
    for (a, w), c in _strandwise(collapsed, _to_E_table(d, tuple(sorted(letters))), d).items():
        chi = [0] * x.n
        for C, letter in zip(cycs[w], a):
            for j in C:
                chi[j - 1] = letter
        out[(tuple(chi), w)] = c
    return out


def _check_e_coeffs(d: int, n: int, coeffs: Mapping[tuple[Character, Perm], LPoly]) -> None:
    """The door of idempotent-basis coefficients {(chi, w): LPoly} at level (d, n)."""
    _check_order(d)
    _check_strands(n)
    for (chi, w), c in coeffs.items():
        mu = _check_character(chi, d)
        if not _is_perm(w, len(chi)):
            raise ValueError(f"permutation {w} is not in S_{len(chi)}")
        if len(chi) != n:
            raise ValueError(f"block {mu} does not fit level ({d},{n})")
        _check_coeff(c, d)


def from_E_basis(d: int, n: int, coeffs: Mapping[tuple[Character, Perm], LPoly]) -> YElem:
    """Rebuild a YElem from idempotent-basis coefficients (inverse transform:
    the coefficient of t^k in E_chi is (1/d)^n prod_j xi_{chi_j}^{-k_j});
    `_check_e_coeffs` checks them first."""
    _check_e_coeffs(d, n, coeffs)
    table = {a: tuple((e, -(a - 1) * e % d) for e in range(d)) for a in range(1, d + 1)}
    return YElem._make(d, n, _strandwise(coeffs.items(), table, d, _ratio(d, 1, d**n)))


def idempotent_E(d: int, chi: Character) -> YElem:
    """The primitive idempotent E_chi of the framing subalgebra."""
    n = len(chi)
    return from_E_basis(d, n, {(chi, identity(n)): LPoly.one(d)})


def idempotent_Emu(mu: Composition) -> YElem:
    """The central idempotent E_mu = sum of E_chi over the orbit of mu."""
    n = mu.n
    one = LPoly.one(mu.d)
    return from_E_basis(
        mu.d, n, {(chi, identity(n)): one for chi in orbit(mu)}
    )


def e_basis_mul_basis(
    d: int, chi: Character, w: Perm, chi2: Character, w2: Perm
) -> dict[tuple[Character, Perm], LPoly]:
    """Closed-form product of two idempotent-basis elements:

        (E_chi gt_w)(E_chi2 gt_w2) = 0 unless chi = w(chi2), and otherwise
        equals E_chi gt_w gt_w2 expanded with the scalar absorption
        E_chi gt_x e_i = [chi(t_{x(i)}) = chi(t_{x(i+1)})] E_chi gt_x.

    Used as a fast independent route for homomorphism checks; `y_mul` is the
    generic path.
    """
    if act(w, chi2) != chi:
        return {}
    state: dict[Perm, LPoly] = {w: LPoly.one(d)}
    for i in reduced_word(w2):
        nxt: dict[Perm, LPoly] = {}
        for x, c in state.items():
            add_to(nxt, x[: i - 1] + (x[i], x[i - 1]) + x[i + 1 :], c)
            if x[i - 1] > x[i] and chi[x[i - 1] - 1] == chi[x[i] - 1]:
                add_to(nxt, x, c.shift(-1, 1))
        state = {x: c for x, c in nxt.items() if c}
    return {(chi, x): c for x, c in state.items()}
