"""The matrix-algebra decomposition of Y_{d,n}.

Y_{d,n} is isomorphic to the direct sum over compositions mu of n with d
parts of the m_mu x m_mu matrix algebras over the parabolic Hecke algebra
H^mu (the span of T_w for w preserving the letter blocks of mu), where m_mu
is the orbit size of mu.  The rows and columns of block mu are the
characters chi with comp(chi) = mu, and pi_chi is the minimal-length
permutation taking the block-sorted chi_one(mu) to chi.

The two directions are

    psi:  E_chi gt_w            |->  Tt_p M_{chi, w^{-1} chi}
          with p = pi_chi^{-1} w pi_{w^{-1} chi} (then p preserves blocks);
    phi:  Tt_p M_{chi, chi'}    |->  E_chi gt_{pi_chi p pi_chi'^{-1}},

inverse to each other; on the T basis the normalization is
Tt_p = u^{-len(p)} T_p, so psi scales by u^{-len(p)} and phi by u^{+len(p)}.

`iota` is the embedding of the level-n matrix side into level n+1 induced by
adding an unframed strand: the block mu spreads over the blocks mu^[a]
(one extra strand of letter a) for a = 1..d; rows and columns re-address by
extending each character with the letter a at position n+1, and entries
conjugate by the cycle moving position n+1 down to the end of the letter-a
block, which is exactly the order-preserving relabeling of the mu-blocks
inside mu^[a] (it preserves lengths).
"""

from __future__ import annotations

from functools import lru_cache

from .exactnum import LPoly, Sparse, add_all, add_to
from .hecke import HeckeElem, h_mul
from .permcomp import (
    Character,
    Composition,
    Perm,
    act,
    all_compositions,
    comp_of,
    compose,
    extend,
    in_young,
    inverse,
    length,
    min_coset_rep,
    orbit,
    orbit_index,
)
from .yokonuma import YElem, fixed_E_coeffs, from_E_basis, to_E_basis

__all__ = [
    "BlockMatrix",
    "block_traces",
    "iota",
    "phi",
    "phi_to_e_coeffs",
    "psi",
    "psi_from_e_coeffs",
]


Matrix = tuple[tuple[HeckeElem, ...], ...]
# A cell of block mu: (mu, row character, column character), both of composition mu.
Cell = tuple[Composition, Character, Character]


class BlockMatrix(Sparse):
    """One m_mu x m_mu matrix of H^mu elements per composition mu.

    Stored sparsely as a `Sparse` combination keyed by (mu, row, col), row
    and col being characters of composition mu, over the nonzero cells only;
    `blocks` groups those cells by composition ({mu: {(row, col): entry}},
    nonzero blocks only) and `block(mu)` gives the dense view in `orbit(mu)`
    order.  Entries are
    HeckeElem of size n whose basis permutations preserve the mu-blocks;
    `phi` checks that on input from outside, and `tau_parabolic` on traces.
    """

    __slots__ = ("d", "n", "blocks")

    def __init__(self, d: int, n: int, terms: dict[Cell, HeckeElem] | None = None):
        self.d = d
        self.n = n
        Sparse.__init__(self, terms)
        blocks: dict[Composition, dict[tuple[Character, Character], HeckeElem]] = {}
        for (mu, row, col), entry in self.terms.items():
            blocks.setdefault(mu, {})[row, col] = entry
        for mu, cells in blocks.items():
            if mu.d != d or mu.n != n:
                raise ValueError(f"block {mu} does not fit level ({d},{n})")
            chars = orbit_index(mu)
            if any(row not in chars or col not in chars for row, col in cells):
                raise ValueError(f"block {mu} has a row or column that is not a character of {mu}")
        self.blocks = blocks

    def _parent(self) -> tuple:
        return (self.d, self.n)

    # -- construction helpers --------------------------------------------------

    @classmethod
    def identity_matrix(cls, d: int, n: int) -> "BlockMatrix":
        one = HeckeElem.one(n, d)
        levels = all_compositions(d, n)
        return cls(d, n, {(mu, chi, chi): one for mu in levels for chi in orbit(mu)})

    def block(self, mu: Composition) -> Matrix:
        cells = self.blocks.get(mu, {})
        z = HeckeElem.zero(self.n, self.d)
        chars = orbit(mu)
        return tuple(tuple(cells.get((row, col), z) for col in chars) for row in chars)

    # -- algebra ----------------------------------------------------------------

    def __mul__(self, other: "BlockMatrix") -> "BlockMatrix":
        """Blockwise matrix product (absent blocks multiply to absent)."""
        self._check(other)
        cells: dict[Cell, dict[Perm, LPoly]] = {}
        for mu, a in self.blocks.items():
            b = other.blocks.get(mu)
            if b is None:
                continue
            rows: dict[Character, list[tuple[Character, HeckeElem]]] = {}
            for (k, j), y in b.items():
                rows.setdefault(k, []).append((j, y))
            for (i, k), x in a.items():
                for j, y in rows.get(k, ()):
                    add_all(cells.setdefault((mu, i, j), {}), h_mul(x, y).terms)
        return _from_cells(self.d, self.n, cells)


def _from_cells(d: int, n: int, cells: dict[Cell, dict[Perm, LPoly]]) -> BlockMatrix:
    """The block matrix whose cell (mu, row, col) is the Hecke element with
    the T-basis coefficients cells[(mu, row, col)]."""
    return BlockMatrix(d, n, {key: HeckeElem(n, d, terms) for key, terms in cells.items()})


def psi(x: YElem) -> BlockMatrix:
    """Decompose x into one matrix per composition.

    Each idempotent-basis coefficient c on (chi, w) contributes
    c * u^{-len(p)} T_p at the cell (chi, w^{-1} chi) of the block comp(chi),
    where p = pi_chi^{-1} w pi_{w^{-1} chi}.
    """
    return psi_from_e_coeffs(x.d, x.n, to_E_basis(x))


@lru_cache(maxsize=4096)
def _psi_cell(d: int, chi: Character, w: Perm) -> tuple[Cell, Perm, int]:
    """Where psi puts E_chi gt_w: the cell (comp(chi), chi, col) with
    col = w^{-1} chi, the block permutation p = pi_chi^{-1} w pi_col and the
    u-exponent -len(p)."""
    col = act(inverse(w), chi)
    p = compose(compose(inverse(min_coset_rep(chi, d)), w), min_coset_rep(col, d))
    return (comp_of(chi, d), chi, col), p, -length(p)


def psi_from_e_coeffs(
    d: int, n: int, eb: dict[tuple[Character, Perm], LPoly]
) -> BlockMatrix:
    """psi applied to an element given directly by idempotent-basis
    coefficients, skipping the change of basis from t-exponents.

    The index map (d, chi, w) -> (cell, p, -len(p)) is pure permutation
    combinatorics, so `_psi_cell` memoizes it in a fixed-size cache; 4096
    entries hold every basis key of the largest `verify` level
    (3^4 * 4! = 1944), and the cache cannot grow with d^n n!.
    """
    cells: dict[Cell, dict[Perm, LPoly]] = {}
    for (chi, w), c in eb.items():
        cell, p, eu = _psi_cell(d, chi, w)
        add_to(cells.setdefault(cell, {}), p, c.shift(eu=eu))
    return _from_cells(d, n, cells)


def block_traces(x: YElem, supports=None) -> dict[Composition, HeckeElem]:
    """The nonzero traces Tr psi(x)_mu, keyed by composition mu, over the
    blocks whose support mu.base() is in `supports` (0/1 compositions;
    None: every block).  Like a `Sparse`, an absent block has trace zero,
    and the keys come in no promised order.

    Only diagonal cells enter a trace, and E_chi gt_w lands on one exactly
    when w fixes chi; `fixed_E_coeffs` computes only those coefficients,
    and only for characters over the letters of `supports`.  No other cell
    is built, and no block outside `supports` is traced.
    """
    letters = None
    if supports is not None:
        supports = set(supports)
        letters = {a for mu0 in supports for a, part in enumerate(mu0.parts, 1) if part}
    wanted: dict[Composition, bool] = {}  # decided once per block
    diag: dict[Composition, dict[Perm, LPoly]] = {}
    for (chi, w), c in fixed_E_coeffs(x, letters).items():
        (mu, _, _), p, eu = _psi_cell(x.d, chi, w)
        if mu not in wanted:
            wanted[mu] = supports is None or mu.base() in supports
        if wanted[mu]:
            add_to(diag.setdefault(mu, {}), p, c.shift(eu=eu))
    traces = {mu: HeckeElem(x.n, x.d, cell) for mu, cell in diag.items()}
    return {mu: tr for mu, tr in traces.items() if tr}


def phi(M: BlockMatrix) -> YElem:
    """Inverse of psi: the cell (mu, row, col) sends u^{-len(p)} T_p to the
    single idempotent-basis element E_row gt_{pi_row p pi_col^{-1}}."""
    return from_E_basis(M.d, M.n, phi_to_e_coeffs(M))


def phi_to_e_coeffs(M: BlockMatrix) -> dict[tuple[Character, Perm], LPoly]:
    """The idempotent-basis coefficients of phi(M), without the final
    change of basis back to t-exponents.  Raises ValueError if an entry of
    block mu leaves the Young subgroup of mu."""
    eb: dict[tuple[Character, Perm], LPoly] = {}
    for (mu, row, col), entry in M.terms.items():
        pi_row = min_coset_rep(row, mu.d)
        pi_col_inv = inverse(min_coset_rep(col, mu.d))
        for p, c in entry.terms.items():
            if not in_young(p, mu):
                raise ValueError(f"{p} is outside the Young subgroup of {mu}")
            w = compose(compose(pi_row, p), pi_col_inv)
            add_to(eb, (row, w), c.shift(eu=length(p)))
    return eb


def iota(M: BlockMatrix) -> BlockMatrix:
    """The level-(n+1) image of a level-n matrix tuple: what psi of the
    unframed-strand extension looks like, computed purely on the matrix side.

    Block mu feeds each block mu^[a]; the cell (mu, row, col) moves to
    (mu^[a], row + (a,), col + (a,)), the letter a appended to both
    characters, and entries conjugate by the relabeling cycle of the
    letter-a block (length-preserving, so T-coefficients carry over).
    """
    d, n = M.d, M.n
    cells: dict[Cell, dict[Perm, LPoly]] = {}
    for mu, block in M.blocks.items():
        for a in range(1, d + 1):
            mua = mu.bump(a)
            # relabeling cycle: position n+1 moves down to the end of the
            # letter-a block; positions p..n shift up by one.
            p = sum(mu.parts[:a]) + 1
            cyc = tuple(range(1, p)) + tuple(range(p + 1, n + 2)) + (p,)
            cyc_inv = inverse(cyc)
            for (row, col), entry in block.items():
                cell = cells.setdefault((mua, row + (a,), col + (a,)), {})
                for w, c in entry.terms.items():
                    add_to(cell, compose(compose(cyc, extend(w, n + 1)), cyc_inv), c)
    return _from_cells(d, n + 1, cells)
