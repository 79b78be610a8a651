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
A `BlockMatrix` is flat: (mu, row, col, p) -> the LPoly coefficient of T_p
in cell (mu, row, col).  psi, phi and iota map distinct keys to distinct
keys, so each is one pass over the keys; `blocks` and `block(mu)` build
`HeckeElem` cells on demand.

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

from .exactnum import LPoly, Sparse, _check_coeff, _check_order, add_to, nonzero
from .hecke import HeckeElem, h_mul
from .permcomp import (
    Character,
    Composition,
    Perm,
    _check_strands,
    _check_support,
    _is_perm,
    _min_coset_rep,
    act,
    all_compositions,
    compose,
    extend,
    identity,
    in_young,
    inverse,
    length,
    orbit,
    orbit_index,
)
from .yokonuma import YElem, _check_e_coeffs, fixed_E_coeffs, from_E_basis, to_E_basis

__all__ = [
    "BlockMatrix",
    "block_traces",
    "iota",
    "phi",
    "phi_to_e_coeffs",
    "psi",
    "psi_from_e_coeffs",
]


# A basis key (mu, row, col, p): T_p in the cell (row, col) of block mu.
Key = tuple[Composition, Character, Character, Perm]


def _check_block(mu, d: int, n: int) -> None:
    """The one check of a block: a `Composition` of n with d parts."""
    if type(mu) is not Composition or mu.d != d or mu.n != n:
        raise ValueError(f"block {mu} does not fit level ({d},{n})")


class BlockMatrix(Sparse):
    """One m_mu x m_mu matrix of H^mu elements per composition mu.

    Stored flat, like `YElem`: a `Sparse` combination {(mu, row, col, p):
    coefficient of T_p in cell (mu, row, col)}, with row and col characters
    of composition mu and p in S_n.  `blocks` ({mu: {(row,
    col): entry}}, nonzero blocks only) and `block(mu)` (the dense view in
    `orbit(mu)` order) build the HeckeElem entries on demand.  That p
    preserves the mu-blocks is checked by `phi` on input from outside, and
    by `tau_parabolic` on traces.
    """

    __slots__ = ("d", "n")

    def __init__(self, d: int, n: int, terms: dict[Key, LPoly] | None = None):
        _check_order(d)
        _check_strands(n)
        self.d, self.n = d, n
        for (mu, row, col, p), c in (terms or {}).items():
            _check_block(mu, d, n)
            chars = orbit_index(mu)
            if not (row in chars and col in chars and all([type(a) is int for a in row + col])):
                raise ValueError(f"block {mu} has a row or column that is not a character of {mu}")
            if not _is_perm(p, n):
                raise ValueError(f"permutation {p} is not in S_{n}")
            _check_coeff(c, d)
        Sparse.__init__(self, terms)

    def _parent(self) -> tuple:
        return (self.d, self.n)

    @classmethod
    def _make(cls, d: int, n: int, terms: dict) -> "BlockMatrix":
        out = object.__new__(cls)
        out.d, out.n, out.terms = d, n, terms
        return out

    # -- construction helpers --------------------------------------------------

    @classmethod
    def identity_matrix(cls, d: int, n: int) -> "BlockMatrix":
        one, e, levels = LPoly.one(d), identity(n), all_compositions(d, n)
        return cls._make(d, n, {(mu, chi, chi, e): one for mu in levels for chi in orbit(mu)})

    @property
    def blocks(self) -> dict[Composition, dict[tuple[Character, Character], HeckeElem]]:
        cells: dict[Composition, dict[tuple[Character, Character], dict[Perm, LPoly]]] = {}
        for (mu, row, col, p), c in self.terms.items():
            cells.setdefault(mu, {}).setdefault((row, col), {})[p] = c
        return {mu: {rc: HeckeElem._make(self.n, self.d, t) for rc, t in block.items()}
                for mu, block in cells.items()}

    def block(self, mu: Composition) -> tuple[tuple[HeckeElem, ...], ...]:
        _check_block(mu, self.d, self.n)
        cells, z, chars = self.blocks.get(mu, {}), HeckeElem._make(self.n, self.d, {}), orbit(mu)
        return tuple(tuple(cells.get((row, col), z) for col in chars) for row in chars)

    # -- algebra ----------------------------------------------------------------

    def __mul__(self, other: "BlockMatrix") -> "BlockMatrix":
        """Blockwise matrix product (absent blocks multiply to absent)."""
        self._check(other)
        other_blocks, terms = other.blocks, {}
        for mu, a in self.blocks.items():
            rows: dict[Character, list[tuple[Character, HeckeElem]]] = {}
            for (k, j), y in other_blocks.get(mu, {}).items():
                rows.setdefault(k, []).append((j, y))
            for (i, k), x in a.items():
                for j, y in rows.get(k, ()):
                    for p, c in h_mul(x, y).terms.items():
                        add_to(terms, (mu, i, j, p), c)
        return BlockMatrix._make(self.d, self.n, nonzero(terms))


def psi(x: YElem) -> BlockMatrix:
    """Decompose x into one matrix per composition.

    Each idempotent-basis coefficient c on (chi, w) contributes
    c * u^{-len(p)} T_p at the cell (chi, w^{-1} chi) of the block comp(chi),
    where p = pi_chi^{-1} w pi_{w^{-1} chi}.
    """
    return _psi_from_e_coeffs(x.d, x.n, to_E_basis(x))


@lru_cache(maxsize=4096)
def _psi_cell(d: int, chi: Character, w: Perm) -> tuple[Key, int]:
    """Where psi puts E_chi gt_w: the key (comp(chi), chi, col, p) with
    col = w^{-1} chi and the block permutation p = pi_chi^{-1} w pi_col,
    and the u-exponent -len(p)."""
    mu = Composition._make((tuple([chi.count(a) for a in range(1, d + 1)]),))
    col = act(inverse(w), chi)
    p = compose(compose(inverse(_min_coset_rep(chi)), w), _min_coset_rep(col))
    return (mu, chi, col, p), -length(p)


def psi_from_e_coeffs(d: int, n: int, eb: dict[tuple[Character, Perm], LPoly]) -> BlockMatrix:
    """psi of idempotent-basis coefficients, checked first (`yokonuma._check_e_coeffs`),
    skipping the change of basis from t-exponents.

    One pass: each key (chi, w) goes to its own flat key (mu, chi, col, p),
    its coefficient times u^{-len(p)}.  `_psi_cell` memoizes that key map in
    a fixed-size cache, whose 4096 entries hold every key of the largest
    `verify` level (3^4 * 4! = 1944).  The change of basis gives many keys
    one coefficient object, so each is shifted once per exponent, through
    a memo keyed by its identity that holds it.
    """
    _check_e_coeffs(d, n, eb)
    return _psi_from_e_coeffs(d, n, eb)


def _psi_from_e_coeffs(d: int, n: int, eb: dict[tuple[Character, Perm], LPoly]) -> BlockMatrix:
    """`psi_from_e_coeffs` of valid coefficients."""
    shifted: dict[tuple[int, int], tuple[LPoly, LPoly]] = {}
    terms: dict[Key, LPoly] = {}
    for (chi, w), c in eb.items():
        if not c.terms:
            continue
        key, eu = _psi_cell(d, chi, w)
        if eu:
            hit = shifted.get((id(c), eu))
            if hit is None:
                hit = shifted[id(c), eu] = (c, c.shift(eu=eu))
            c = hit[1]
        terms[key] = c
    return BlockMatrix._make(d, n, terms)


def block_traces(x: YElem, supports=None) -> dict[Composition, HeckeElem]:
    """The nonzero traces Tr psi(x)_mu, keyed by composition mu, over the
    blocks whose support mu.base() is in `supports` (0/1 compositions,
    checked at entry; None: every block).  Like a `Sparse`, an absent block
    has trace zero, and the keys come in no promised order.

    Only diagonal cells enter a trace, and E_chi gt_w lands on one exactly
    when w fixes chi; `fixed_E_coeffs` computes only those coefficients,
    and only over the `letters()` of `supports`.  No other cell is built,
    and no block outside `supports` is traced.
    """
    letters = None
    if supports is not None:
        supports = tuple(supports)
        for mu0 in supports:
            _check_support(mu0, None)
            if mu0.d < x.d:  # a longer one fails on its first letter past d, by name
                _check_support(mu0, x.d)
        letters = set().union(*(mu0.letters() for mu0 in supports))
    wanted: dict[Composition, bool] = {}  # decided once per block
    diag: dict[Composition, dict[Perm, LPoly]] = {}
    for (chi, w), c in fixed_E_coeffs(x, letters).items():
        (mu, _, _, p), eu = _psi_cell(x.d, chi, w)
        if mu not in wanted:
            wanted[mu] = supports is None or mu.base() in supports
        if wanted[mu]:
            add_to(diag.setdefault(mu, {}), p, c.shift(eu=eu))
    return {mu: HeckeElem._make(x.n, x.d, t) for mu, cell in diag.items() if (t := nonzero(cell))}


def phi(M: BlockMatrix) -> YElem:
    """Inverse of psi: the cell (mu, row, col) sends u^{-len(p)} T_p to the
    single idempotent-basis element E_row gt_{pi_row p pi_col^{-1}}."""
    return from_E_basis(M.d, M.n, phi_to_e_coeffs(M))


def phi_to_e_coeffs(M: BlockMatrix) -> dict[tuple[Character, Perm], LPoly]:
    """The idempotent-basis coefficients of phi(M), without the final
    change of basis back to t-exponents.  Raises ValueError if an entry of
    block mu leaves the Young subgroup of mu."""
    eb: dict[tuple[Character, Perm], LPoly] = {}
    for (mu, row, col, p), c in M.terms.items():
        if not in_young(p, mu):
            raise ValueError(f"{p} is not in the Young subgroup of {mu}")
        w = compose(compose(_min_coset_rep(row), p), inverse(_min_coset_rep(col)))
        eb[row, w] = c.shift(eu=length(p))
    return eb


@lru_cache(maxsize=1024)
def _iota_moves(mu: Composition, w: Perm) -> tuple[tuple[int, Composition, Perm], ...]:
    """Where iota sends the entries T_w of block mu: (a, mu^[a], cyc w cyc^{-1})
    for each letter a, cyc the relabeling cycle that moves position n+1 down
    to the end of the letter-a block (positions p..n shift up by one)."""
    n = mu.n
    moves = []
    for a in range(1, mu.d + 1):
        p = sum(mu.parts[:a]) + 1
        cyc = tuple(range(1, p)) + tuple(range(p + 1, n + 2)) + (p,)
        moves.append((a, mu.bump(a), compose(compose(cyc, extend(w, n + 1)), inverse(cyc))))
    return tuple(moves)


def iota(M: BlockMatrix) -> BlockMatrix:
    """The level-(n+1) image of a level-n matrix tuple: what psi of the
    unframed-strand extension looks like, computed purely on the matrix side.

    Block mu feeds each block mu^[a]: the key (mu, row, col, w) moves to
    (mu^[a], row + (a,), col + (a,), cyc w cyc^{-1}), cyc the relabeling
    cycle of the letter-a block (length-preserving, so T-coefficients carry
    over).  `_iota_moves` memoizes the moves of (mu, w) in a fixed-size
    cache, whose 1024 entries hold every (mu, w) of level (3, 4) (15
    compositions times 4! = 360), above the largest level `verify` embeds
    from (3, 3).
    """
    terms: dict[Key, LPoly] = {}
    for (mu, row, col, w), c in M.terms.items():
        for a, mua, conj in _iota_moves(mu, w):
            terms[mua, row + (a,), col + (a,), conj] = c
    return BlockMatrix._make(M.d, M.n + 1, terms)
