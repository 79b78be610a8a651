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

for x, y in H_n.  `tau_parabolic` extends it multiplicatively over the
blocks of a Young subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .exactnum import LPoly, Sparse, add_all, add_to
from .permcomp import (
    Composition,
    Perm,
    block_split,
    identity,
    in_young,
    inverse,
    length,
    reduced_word,
)

__all__ = [
    "HeckeElem",
    "ParabolicElem",
    "t_from_word",
    "t_inverse_gen",
    "h_mul",
    "loop_factor",
    "markov_tau",
    "tau_parabolic",
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
        self.n = n
        self.order = order
        if terms:
            for w in terms:
                if len(w) != n:
                    raise ValueError(f"permutation {w} is not in S_{n}")
        Sparse.__init__(self, terms)

    def _parent(self) -> tuple:
        return (self.n, self.order)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int, order: int = 1) -> "HeckeElem":
        return cls(n, order)

    @classmethod
    def one(cls, n: int, order: int = 1) -> "HeckeElem":
        return cls(n, order, {identity(n): LPoly.one(order)})

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

    def mul_gen(self, i: int) -> "HeckeElem":
        """Right multiplication by T_i:
        T_w T_i = T_{w s_i} if the length goes up, else u^2 T_{w s_i} + v T_w.
        """
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range 1..{self.n - 1}")
        usq = LPoly.var(self.order, "u", 2)
        vv = LPoly.var(self.order, "v")
        out: dict[Perm, LPoly] = {}
        for w, c in self.terms.items():
            ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
            if w[i - 1] < w[i]:
                add_to(out, ws, c)
            else:
                add_to(out, ws, c * usq)
                add_to(out, w, c * vv)
        return HeckeElem(self.n, self.order, out)

    def mul_gen_inv(self, i: int) -> "HeckeElem":
        """Right multiplication by T_i^{-1} = u^{-2} T_i - u^{-2} v."""
        out: dict[Perm, LPoly] = {}
        add_all(out, self.mul_gen(i).terms, LPoly.monomial(self.order, 1, -2, 0, 0))
        add_all(out, self.terms, LPoly.monomial(self.order, -1, -2, 1, 0))
        return HeckeElem(self.n, self.order, out)

    def __mul__(self, other: "HeckeElem") -> "HeckeElem":
        return h_mul(self, other)

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
    return HeckeElem(x.n, x.order, out)


def t_from_word(n: int, word: Iterable[int], order: int = 1) -> HeckeElem:
    """The product T_{i_1} ... T_{i_r} for a (not necessarily reduced) word."""
    z = HeckeElem.one(n, order)
    for i in word:
        z = z.mul_gen(i)
    return z


def t_inverse_gen(n: int, i: int, order: int = 1) -> HeckeElem:
    """T_i^{-1} as an element: u^{-2} T_i - u^{-2} v."""
    return HeckeElem.one(n, order).mul_gen_inv(i)


# --------------------------------------------------------------------------
# the Markov trace
# --------------------------------------------------------------------------

def markov_tau(x: HeckeElem) -> LPoly:
    """The Markov trace tau_n, normalized by tau_n(T_{w}) = 1 for the longest
    cycle words; concretely tau_1(1) = 1 and the two reduction rules above.

    Basis terms reduce level by level: if w fixes n, pull out one loop factor
    and recurse on the restriction; otherwise write w = a s_{n-1} y with
    a, y in S_{n-1} and lengths adding (a = w with the value n deleted from
    its one-line form, y the cycle routing position w^{-1}(n) to n-1), so
    that tau_n(T_w) = tau_n(T_a T_{n-1} T_y) = tau_{n-1}(T_a T_y).
    """
    loop = loop_factor(x.order)
    cur = x
    while cur.n > 1:
        n = cur.n
        nxt: dict[Perm, LPoly] = {}
        for w, c in cur.terms.items():
            if w[n - 1] == n:
                add_to(nxt, w[: n - 1], c * loop)
                continue
            j = inverse(w)[n - 1]  # position mapped to n
            a = tuple(val for val in w if val != n)  # in S_{n-1}
            y = tuple(range(1, j)) + (n - 1,) + tuple(range(j, n - 1))
            assert length(a) + 1 + length(y) == length(w), (w, a, y)
            ha = HeckeElem(n - 1, x.order, {a: c})
            hy = HeckeElem.basis(n - 1, y, x.order)
            add_all(nxt, h_mul(ha, hy).terms)
        cur = HeckeElem(n - 1, x.order, nxt)
    return cur.coefficient(identity(cur.n))


@dataclass(frozen=True)
class ParabolicElem:
    """An element of the parabolic subalgebra H^mu inside H_n: all basis
    permutations must preserve the letter blocks of mu."""

    mu: Composition
    elem: HeckeElem

    def __post_init__(self):
        if self.elem.n != self.mu.n:
            raise ValueError(f"element lives in S_{self.elem.n}, mu has size {self.mu.n}")
        for w in self.elem.terms:
            if not in_young(w, self.mu):
                raise ValueError(f"{w} is outside the Young subgroup of {self.mu}")


def tau_parabolic(x: ParabolicElem) -> LPoly:
    """The block-product trace on H^mu: on a basis term, the product over
    letter blocks of markov_tau applied to the renumbered block permutation.
    """
    total: dict = {}
    for w, c in x.elem.terms.items():
        val = c
        for wa in block_split(w, x.mu):
            if len(wa) == 0:
                continue
            val = val * markov_tau(HeckeElem.basis(len(wa), wa, x.elem.order))
        add_all(total, val.terms)
    return LPoly(x.elem.order, total)
