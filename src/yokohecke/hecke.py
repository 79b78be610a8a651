"""Type-A Iwahori-Hecke algebras and their Markov trace.

H_n is the algebra with basis {T_w : w in S_n} and relations

    T_i T_j = T_j T_i            for |i - j| >= 2,
    T_i T_{i+1} T_i = T_{i+1} T_i T_{i+1},
    T_i^2 = u^2 + v T_i,

over the Laurent ring in (u, v, g); T_w is defined through any reduced word
of w (well defined by Matsumoto's theorem).  The normalized basis is
Tt_w = u^{-len(w)} T_w; we store everything on the T basis and renormalize
only where a formula needs it.

`markov_tau` implements the unique Markov trace on the tower {H_n}: the
linear forms tau_n with

    tau_n(1) = (v^{-1}(1 - u^2))^{n-1},
    tau_n(xy) = tau_n(yx),
    tau_{n+1}(x T_n) = tau_n(x)  and  tau_{n+1}(x) = v^{-1}(1-u^2) tau_n(x)

for x, y in H_n.  It reduces one level at a time.  Let p be the position
of n in the one-line form of w and a in S_{n-1} the word w with n deleted.
Then w = a s_{n-1} s_{n-2} ... s_p with lengths adding, so

    T_w = T_a T_{n-1} T_{n-2} ... T_p,

and the trace property followed by the Markov property gives

    tau_n(T_w) = tau_{n-1}(T_a T_{n-2} ... T_p)      for p < n,
    tau_n(T_w) = v^{-1}(1-u^2) tau_{n-1}(T_a)       for p = n.

`tau_parabolic` extends it multiplicatively over the blocks of a Young
subgroup.

`tau_word` is tau_n of the image of a braid word, T_{i_1}^{+-1} ... T_{i_k}^{+-1},
at order 1: the 2-variable invariant that `links.homflypt` returns.  It runs
the same reduction on packed Python ints instead of `HeckeElem`s and
`LPoly`s, so the value equals `markov_tau` of the product, but no
`HeckeElem` is built on the way.  An int packs only the powers of U = u^2
that descents bring; a term counts the free loops it passes in its key,
and their factor (v^{-1}(1 - U))^loops is applied once, at the end.
`HeckeElem` and `markov_tau` stay as the reference it is tested against,
and as the trace of `tau_parabolic`, which the oracle runs at every
order d.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache
from math import comb

from .exactnum import LPoly, Sparse, _check_coeff, _check_order, add_all, add_to, nonzero
from .permcomp import Composition, Perm, block_split, identity, reduced_word
from .permcomp import _check_crossing, _check_strands, _is_perm

__all__ = [
    "HeckeElem",
    "h_mul",
    "loop_factor",
    "markov_tau",
    "tau_parabolic",
    "tau_word",
]


def loop_factor(order: int) -> LPoly:
    """v^{-1}(1 - u^2): the trace of 1 in H_2, i.e. the value of one free loop."""
    return LPoly.monomial(order, 1, 0, -1, 0) - LPoly.monomial(order, 1, 2, -1, 0)


class HeckeElem(Sparse):
    """An element of H_n on the T basis: {one-line permutation: LPoly}.

    `order` is the cyclotomic order of the coefficient ring (plain rational
    coefficients live at order 1); it is carried along so Hecke elements can
    appear as matrix entries next to Y_{d,n} computations.
    """

    __slots__ = ("n", "order")

    def __init__(self, n: int, order: int, terms: Mapping[Perm, LPoly] | None = None):
        _check_strands(n)
        _check_order(order)
        self.n, self.order = n, order
        for w, c in (terms or {}).items():
            if not _is_perm(w, n):
                raise ValueError(f"permutation {w} is not in S_{n}")
            _check_coeff(c, order)
        Sparse.__init__(self, terms)

    def _parent(self) -> tuple:
        return (self.n, self.order)

    @classmethod
    def _make(cls, n: int, order: int, terms: dict) -> "HeckeElem":
        out = object.__new__(cls)
        out.n, out.order, out.terms = n, order, terms
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, n: int, order: int = 1) -> "HeckeElem":
        return cls._make(n, order, {identity(n): LPoly.one(order)})

    @classmethod
    def gen(cls, n: int, i: int, order: int = 1) -> "HeckeElem":
        """The generator T_i."""
        return cls.one(n, order).mul_gen(i)

    @classmethod
    def basis(cls, n: int, w: Perm, order: int = 1) -> "HeckeElem":
        return cls(n, order, {w: LPoly.one(order)})

    # -- linear structure ----------------------------------------------------

    # defined on the class itself so that instrumentation can wrap it
    __add__ = Sparse.__add__

    def __repr__(self) -> str:
        if not self.terms:
            return f"<HeckeElem n={self.n}: 0>"
        bits = " ++ ".join(
            f"[{self.terms[w].text()}] T{w}" for w in sorted(self.terms)
        )
        return f"<HeckeElem n={self.n}: {bits}>"

    def coefficient(self, w: Perm) -> LPoly:
        return self.terms.get(w, LPoly.zero(self.order))

    # -- multiplication -------------------------------------------------------

    def mul_gen(self, i: int, sign: int = 1) -> "HeckeElem":
        """Right multiplication by T_i^sign, sign = 1 or -1, in one pass:

            T_w T_i^sign = T_{w s_i}     if len(w s_i) = len(w) + sign,
                         = u^{2 sign} T_{w s_i} + sign u^{sign-1} v T_w   otherwise.

        The second rule is T_i^2 = u^2 + v T_i for sign = 1 and
        T_i^{-1} = u^{-2} T_i - u^{-2} v for sign = -1.

        >>> HeckeElem.gen(2, 1).mul_gen(1, -1) == HeckeElem.one(2)
        True
        """
        _check_crossing(self.n, i, sign)
        out: dict[Perm, LPoly] = {}
        for w, c in self.terms.items():
            ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
            if (w[i - 1] < w[i]) == (sign == 1):
                add_to(out, ws, c)
            else:
                add_to(out, ws, c.shift(2 * sign))
                cv = c.shift(sign - 1, 1)
                add_to(out, w, cv if sign == 1 else -cv)
        return HeckeElem._make(self.n, self.order, nonzero(out))

    # -- embeddings ------------------------------------------------------------

    def extend(self, m: int) -> "HeckeElem":
        """The image under H_n -> H_m (new strands untouched)."""
        pad = tuple(range(self.n + 1, m + 1))
        return HeckeElem(m, self.order, {w + pad: c for w, c in self.terms.items()})


def h_mul(x: HeckeElem, y: HeckeElem) -> HeckeElem:
    """Product in H_n, expanding y through reduced words of its basis terms."""
    x._check(y)
    out: dict[Perm, LPoly] = {}
    for w, c in y.terms.items():
        z = x
        for i in reduced_word(w):
            z = z.mul_gen(i)
        add_all(out, z.terms, c)
    return HeckeElem._make(x.n, x.order, nonzero(out))


# --------------------------------------------------------------------------
# the Markov trace
# --------------------------------------------------------------------------

def markov_tau(x: HeckeElem) -> LPoly:
    """The Markov trace tau_n, normalized by tau_n(T_{w}) = 1 for the longest
    cycle words; concretely tau_1(1) = 1 and the two reduction rules above.

    Each level n -> n-1 groups the terms by the position p of n: the terms
    {a: c} with w = a s_{n-1} ... s_p form one element of H_{n-1}.  The
    p = n group (w fixes n) is scaled by the loop factor; every other group
    is right-multiplied by T_{n-2}, ..., T_p, since
    tau_n(T_w) = tau_{n-1}(T_a T_{n-2} ... T_p).
    """
    loop = loop_factor(x.order)
    n, terms = x.n, x.terms
    while n > 1:
        groups: dict[int, dict[Perm, LPoly]] = {}
        for w, c in terms.items():
            p = w.index(n) + 1
            groups.setdefault(p, {})[w[: p - 1] + w[p:]] = c
        nxt: dict[Perm, LPoly] = {}
        for p, group in groups.items():
            if p == n:
                add_all(nxt, group, loop)
                continue
            z = HeckeElem._make(n - 1, x.order, nonzero(group))
            for i in range(n - 2, p - 1, -1):
                z = z.mul_gen(i)
            add_all(nxt, z.terms)
        n, terms = n - 1, nxt
    return terms.get(identity(n), LPoly.zero(x.order))


# --------------------------------------------------------------------------
# the packed-integer kernel: tau_n of the image of a braid word
# --------------------------------------------------------------------------

def _mul_packed(terms: dict, i: int, shift: int, minus_v: bool) -> dict:
    """Right multiplication of packed terms by T_i, or by T_i - v if
    `minus_v`.  A key is the one-line form of w followed by its loop count
    (see `tau_word`); `shift` is the slot width B, and c << B is U c.

        ascent:   T_w T_i = T_{ws},        T_w (T_i - v) = T_{ws} - v T_w,
        descent:  T_w T_i = U T_{ws} + v T_w,    T_w (T_i - v) = U T_{ws}.

    v T_w keeps c as it is: the grading puts v on the coefficient.
    """
    out: dict = {}
    get = out.get
    for w, c in terms.items():
        if not c:
            continue
        ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
        if w[i - 1] < w[i]:
            out[ws] = get(ws, 0) + c
            if minus_v:
                out[w] = get(w, 0) - c
        else:
            out[ws] = get(ws, 0) + (c << shift)
            if not minus_v:
                out[w] = get(w, 0) + c
    return out


def tau_word(n: int, crossings: Sequence[tuple[int, int]]) -> LPoly:
    """tau_n of the image T_{i_1}^{s_1} ... T_{i_k}^{s_k} in H_n of the word
    of `crossings` ((i, s) pairs, s = 1 or -1), at order 1.

    Equal to `markov_tau` of the product, computed on Python ints instead
    of `LPoly`s.  With T_i^{-1} = u^{-2}(T_i - v) the factor u^{-2m}, m the
    number of negative crossings, comes out in front, and what is left is
    homogeneous of degree k = len(crossings) when deg T_w = len(w) and
    deg u = deg v = 1.  So the coefficient of T_w is
    sum_a c_a U^a v^{k - len(w) - 2a} with U = u^2, stored as the one int
    sum_a c_a 2^{Ba} (a Kronecker substitution); the ring operations
    become adds and shifts (`_mul_packed`).

    The trace runs the reduction of `markov_tau` on these ints.  A term is
    keyed by (w, loops), loops counting the free loops it has passed: a
    level at which w fixes the top strand only adds one to the count, so
    the int holds only the U powers of descents.  The loop factors are
    applied at the end, (1 - U)^loops at once (each v^{-1} is in the v
    exponent already, which every level lowers by one): digit c_a of a
    term with `loops` loops adds (-1)^i C(loops, i) c_a to the coefficient
    of U^{a+i} v^{k - (n - 1) - 2a}, for i = 0..loops.

    A word step or a descent at most doubles the l1 norm of all
    coefficients; an ascent or a loop keeps it.  A level with p < top
    starts a group at len(a) + (top - 1 - p) = len(w) - 1 (len(a) plus the
    generators left); an ascent keeps that sum, either branch of a descent
    lowers it by 1 at least, and the level ends on the next key's length.
    So a term w after the word meets at most len(w) <= min(k, n(n-1)/2)
    descents, |c_a| <= 2^{k + min(k, n(n-1)/2)} < 2^{B-1} with
    B = k + min(k, n(n-1)/2) + 2, and balanced digits decode the ints exactly.

    >>> print(tau_word(2, [(1, 1)] * 3).text())
    -1 * u^4 + 2 * u^2 + 1 * v^2
    >>> tau_word(3, []) == markov_tau(HeckeElem.one(3))
    True
    """
    _check_strands(n)
    for i, sign in crossings:
        _check_crossing(n, i, sign)
    k = len(crossings)
    width = k + min(k, n * (n - 1) // 2) + 2
    terms: dict = {identity(n) + (0,): 1}
    for i, sign in crossings:
        terms = _mul_packed(terms, i, width, sign == -1)
    top = n
    while top > 1:
        groups: dict[int, dict] = {}
        nxt: dict = {}
        get = nxt.get
        for w, c in terms.items():
            if c:
                p = w.index(top) + 1
                if p == top:  # a free loop: count it, apply it at the end
                    nxt[w[: p - 1] + (w[p] + 1,)] = c
                else:
                    groups.setdefault(p, {})[w[: p - 1] + w[p:]] = c
        for p, group in groups.items():
            for i in range(top - 2, p - 1, -1):
                group = _mul_packed(group, i, width, False)
            for a, c in group.items():
                nxt[a] = get(a, 0) + c
        top, terms = top - 1, nxt

    m = sum(1 for _, sign in crossings if sign == -1)
    full, half = 1 << width, 1 << (width - 1)
    out: dict = {}
    for (_, loops), c in terms.items():  # the keys are (1, loops) now
        binomial = [(-1) ** i * comb(loops, i) for i in range(loops + 1)]
        a = 0
        while c:
            digit = c & (full - 1)
            if digit >= half:  # balanced: c_a in [-2^{B-1}, 2^{B-1})
                digit -= full
            for i, b in enumerate(binomial):  # times (1 - U)^loops
                key = (2 * (a + i) - 2 * m, k - (n - 1) - 2 * a, 0)
                out[key] = out.get(key, 0) + b * digit
            c = (c - digit) >> width
            a += 1
    return LPoly._make(1, nonzero(out))


@lru_cache(maxsize=4096)
def _block_tau(wa: Perm, order: int) -> LPoly:
    """tau(T_wa) for one renumbered block permutation, memoized."""
    return markov_tau(HeckeElem._make(len(wa), order, {wa: LPoly.one(order)}))


@lru_cache(maxsize=4096)
def _block_product(w: Perm, mu: Composition, order: int) -> LPoly:
    """The product over the letter blocks of mu of tau(T_wa), wa the
    renumbered block permutations of w, memoized; `block_split` rejects
    a w outside the Young subgroup of mu, and the cache keeps no error."""
    out = LPoly.one(order)
    for wa in block_split(w, mu):
        if wa:
            out = out * _block_tau(wa, order)
    return out


def tau_parabolic(mu: Composition, x: HeckeElem) -> LPoly:
    """The block-product trace on H^mu: on a basis term, the product over
    letter blocks of markov_tau applied to the renumbered block permutation.

    Each term is multiplied once, by the product of its block traces.  The
    block traces tau(T_wa) are memoized per (wa, order) in `_block_tau`, and
    their product per (w, mu, order) in `_block_product`, both fixed-size
    caches: they depend on nothing else, and the cached LPolys are only
    read (a product builds a new one).  The same few permutations recur
    across every term, block and call of one `rho`.

    Raises ValueError if x is not in H^mu: a size other than |mu|, or a
    basis permutation outside the Young subgroup of mu.
    """
    if x.n != mu.n:
        raise ValueError(f"element lives in S_{x.n}, mu has size {mu.n}")
    total: dict = {}
    for w, c in x.terms.items():
        add_all(total, (c * _block_product(w, mu, x.order)).terms)
    return LPoly._make(x.order, nonzero(total))
