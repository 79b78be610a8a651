"""Tabulated generator images for the block decomposition at d=2, n=4.

Golden data: the matrices assigned by psi to g_1, g_2, g_3, t_1, ..., t_4
and e_1, e_2, e_3 of Y_{2,4}, worked out independently by hand.  Each of
the five blocks (4,0), (0,4), (3,1), (1,3), (2,2) is recorded with an
explicit character ordering and sparse 1-based entries; the check places
each entry at the cell (mu, row character, column character) that psi
addresses and compares the resulting block matrix with psi.

Entry codes: ``"u"`` is the scalar u, ``("T", i)`` the parabolic
generator T_i of H_4 (block-internal generators are realised at their
strand positions: block (1,3) uses T_2, T_3, block (2,2) uses T_1, T_3),
and integers are rational scalars (the two square roots of unity for the
t_j images, 0/1 for the e_i images, given as full diagonals).
"""

from __future__ import annotations

from .exactnum import LPoly
from .hecke import HeckeElem
from .isomap import BlockMatrix, psi
from .permcomp import Character, Composition
from .yokonuma import YElem

__all__ = ["golden_checks"]

_D, _N = 2, 4

_MUS = ((4, 0), (0, 4), (3, 1), (1, 3), (2, 2))

# Character ordering in which the golden matrices are written down.
_CHARS: dict[tuple[int, int], tuple[Character, ...]] = {
    (4, 0): ((1, 1, 1, 1),),
    (0, 4): ((2, 2, 2, 2),),
    (3, 1): ((1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1)),
    (1, 3): ((1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 1, 2), (2, 2, 2, 1)),
    (2, 2): (
        (1, 1, 2, 2),
        (1, 2, 1, 2),
        (2, 1, 1, 2),
        (1, 2, 2, 1),
        (2, 1, 2, 1),
        (2, 2, 1, 1),
    ),
}

# Sparse entries (row, col, code), rows/cols 1-based in the order above.
_G_IMAGES = {
    1: {
        (4, 0): [(1, 1, ("T", 1))],
        (0, 4): [(1, 1, ("T", 1))],
        (3, 1): [(1, 1, ("T", 1)), (2, 2, ("T", 1)), (3, 4, "u"), (4, 3, "u")],
        (1, 3): [(1, 2, "u"), (2, 1, "u"), (3, 3, ("T", 2)), (4, 4, ("T", 2))],
        (2, 2): [
            (1, 1, ("T", 1)),
            (2, 3, "u"),
            (3, 2, "u"),
            (4, 5, "u"),
            (5, 4, "u"),
            (6, 6, ("T", 3)),
        ],
    },
    2: {
        (4, 0): [(1, 1, ("T", 2))],
        (0, 4): [(1, 1, ("T", 2))],
        (3, 1): [(1, 1, ("T", 2)), (2, 3, "u"), (3, 2, "u"), (4, 4, ("T", 1))],
        (1, 3): [(1, 1, ("T", 2)), (2, 3, "u"), (3, 2, "u"), (4, 4, ("T", 3))],
        (2, 2): [
            (1, 2, "u"),
            (2, 1, "u"),
            (3, 3, ("T", 1)),
            (4, 4, ("T", 3)),
            (5, 6, "u"),
            (6, 5, "u"),
        ],
    },
    3: {
        (4, 0): [(1, 1, ("T", 3))],
        (0, 4): [(1, 1, ("T", 3))],
        (3, 1): [(1, 2, "u"), (2, 1, "u"), (3, 3, ("T", 2)), (4, 4, ("T", 2))],
        (1, 3): [(1, 1, ("T", 3)), (2, 2, ("T", 3)), (3, 4, "u"), (4, 3, "u")],
        (2, 2): [
            (1, 1, ("T", 3)),
            (2, 4, "u"),
            (4, 2, "u"),
            (3, 5, "u"),
            (5, 3, "u"),
            (6, 6, ("T", 1)),
        ],
    },
}

# Diagonal scalar images of t_1..t_4 (square roots of unity) per block.
_T_DIAGS = {
    1: {
        (4, 0): (1,),
        (0, 4): (-1,),
        (3, 1): (1, 1, 1, -1),
        (1, 3): (1, -1, -1, -1),
        (2, 2): (1, 1, -1, 1, -1, -1),
    },
    2: {
        (4, 0): (1,),
        (0, 4): (-1,),
        (3, 1): (1, 1, -1, 1),
        (1, 3): (-1, 1, -1, -1),
        (2, 2): (1, -1, 1, -1, 1, -1),
    },
    3: {
        (4, 0): (1,),
        (0, 4): (-1,),
        (3, 1): (1, -1, 1, 1),
        (1, 3): (-1, -1, 1, -1),
        (2, 2): (-1, 1, 1, -1, -1, 1),
    },
    4: {
        (4, 0): (1,),
        (0, 4): (-1,),
        (3, 1): (-1, 1, 1, 1),
        (1, 3): (-1, -1, -1, 1),
        (2, 2): (-1, -1, -1, 1, 1, 1),
    },
}

# Diagonal 0/1 images of e_1..e_3 per block.
_E_DIAGS = {
    1: {
        (4, 0): (1,),
        (0, 4): (1,),
        (3, 1): (1, 1, 0, 0),
        (1, 3): (0, 0, 1, 1),
        (2, 2): (1, 0, 0, 0, 0, 1),
    },
    2: {
        (4, 0): (1,),
        (0, 4): (1,),
        (3, 1): (1, 0, 0, 1),
        (1, 3): (1, 0, 0, 1),
        (2, 2): (0, 0, 1, 1, 0, 0),
    },
    3: {
        (4, 0): (1,),
        (0, 4): (1,),
        (3, 1): (0, 0, 1, 1),
        (1, 3): (1, 1, 0, 0),
        (2, 2): (1, 0, 0, 0, 0, 1),
    },
}


def _decode(code) -> HeckeElem:
    if code == "u":
        return HeckeElem.one(_N, _D).scale(LPoly.var(_D, "u"))
    if isinstance(code, tuple) and code[0] == "T":
        return HeckeElem.gen(_N, code[1], _D)
    return HeckeElem.one(_N, _D).scale(LPoly.const(_D, code))


def _expected(per_block) -> BlockMatrix:
    """The block matrix of the sparse entries, keyed by their tabulated
    row and column characters."""
    terms = {}
    for mu_parts, entries in per_block.items():
        mu, chars = Composition(mu_parts), _CHARS[mu_parts]
        for r, c, code in entries:
            for p, coeff in _decode(code).terms.items():
                terms[mu, chars[r - 1], chars[c - 1], p] = coeff
    return BlockMatrix(_D, _N, terms)


def _diag(diags) -> BlockMatrix:
    """`_expected` of the diagonal matrices with the given entries."""
    return _expected(
        {mu_parts: [(k, k, v) for k, v in enumerate(values, 1) if v != 0]
         for mu_parts, values in diags.items()}
    )


def _compare(name: str, x: YElem, expected: BlockMatrix) -> tuple[str, bool, str]:
    actual = psi(x)
    if actual == expected:
        return (name, True, "")
    zero = HeckeElem.zero(_N, _D)
    blocks = (actual.blocks, expected.blocks)
    cells = sorted({key[:3] for key in actual.terms.keys() | expected.terms.keys()},
                   key=lambda cell: (_MUS.index(cell[0].parts), cell[1], cell[2]))
    for mu, row, col in cells:
        got, exp = (b.get(mu, {}).get((row, col), zero) for b in blocks)
        if got != exp:
            return (name, False, f"block {mu} row {row} col {col}: {got!r} != {exp!r}")


def golden_checks() -> list[tuple[str, bool, str]]:
    """Compare psi images of all Y_{2,4} generators with the tabulated
    matrices; returns (check id, passed, detail) triples."""
    results = []
    for i, per_block in sorted(_G_IMAGES.items()):
        x = YElem.g_elem(_D, _N, i)
        results.append(_compare(f"iso-golden-g{i}", x, _expected(per_block)))
    for j, diags in sorted(_T_DIAGS.items()):
        x = YElem.t_elem(_D, _N, j)
        results.append(_compare(f"iso-golden-t{j}", x, _diag(diags)))
    for i, diags in sorted(_E_DIAGS.items()):
        x = YElem.e_elem(_D, _N, i)
        results.append(_compare(f"iso-golden-e{i}", x, _diag(diags)))
    return results
