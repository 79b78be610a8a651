"""The block-matrix decomposition map and its inverse."""

import itertools
import random

import pytest

from yokohecke import _golden
from yokohecke._golden import golden_checks
from yokohecke.exactnum import LPoly
from yokohecke.hecke import HeckeElem
from yokohecke import isomap
from yokohecke.isomap import BlockMatrix, block_traces, iota, phi, psi, psi_from_e_coeffs
from yokohecke.permcomp import Composition, all_comp0, all_compositions, chi_one, comp_of, orbit
from yokohecke.yokonuma import YElem, from_E_basis, idempotent_Emu, to_E_basis, y_mul

from test_yokonuma import all_characters, random_yelem


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def test_psi_of_one_is_identity():
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            assert psi(YElem.one(d, n)) == BlockMatrix.identity_matrix(d, n)


def test_block_shapes():
    d, n = 2, 3
    M = psi(YElem.one(d, n))
    for mu in all_compositions(d, n):
        mat = M.block(mu)
        assert len(mat) == mu.multiplicity()
        assert all(len(row) == mu.multiplicity() for row in mat)


def test_block_traces_are_the_diagonal_sums_of_psi():
    # the random elements reach every block; the central idempotent of one
    # composition times a random element reaches only that block
    rng = random.Random(41)
    missing = 0
    for d in (2, 3):
        for n in (2, 3):
            xs = [random_yelem(rng, d, n, terms=4) for _ in range(4)]
            mu1 = rng.choice(all_compositions(d, n))
            xs.append(y_mul(idempotent_Emu(mu1), random_yelem(rng, d, n, terms=4)))
            for x in xs:
                M = psi(x)
                traces = block_traces(x)
                for mu in all_compositions(d, n):
                    diag = HeckeElem.zero(n, d)
                    if mu in M.blocks:
                        for k, row in enumerate(M.block(mu)):
                            diag = diag + row[k]
                    else:
                        missing += 1
                    assert traces.get(mu, HeckeElem.zero(n, d)) == diag, (d, n, mu)
    assert missing


def test_block_traces_build_only_the_given_supports():
    rng = random.Random(43)
    for d, n in ((2, 2), (3, 3)):
        x = random_yelem(rng, d, n, terms=4)
        full = block_traces(x)
        for size in (0, 1, 2):
            for supports in itertools.combinations(all_comp0(d), size):
                out = block_traces(x, supports)
                assert list(out) == [mu for mu in full if mu.base() in supports]
                assert all(out[mu] == full[mu] for mu in out), supports
    # at n = 0, which only the internal builders make, the one block is the
    # empty composition, over no letters
    x = YElem._make(2, 0, {((), ()): LPoly.one(2)})
    assert block_traces(x) == {Composition((0, 0)): HeckeElem._make(0, 2, {(): LPoly.one(2)})}


def test_phi_psi_round_trip_full_basis():
    for d, n in ((2, 2), (3, 2), (2, 3)):
        for chi in all_characters(d, n):
            for w in all_perms(n):
                x = from_E_basis(d, n, {(chi, w): LPoly.one(d)})
                assert phi(psi(x)) == x, (d, n, chi, w)


def test_phi_psi_round_trip_random_elements():
    rng = random.Random(3)
    for d in (2, 3):
        for _ in range(10):
            x = random_yelem(rng, d, 3)
            assert phi(psi(x)) == x


def cell_terms(M):
    """A plain copy of every key's coefficient terms."""
    return {key: dict(c.terms) for key, c in M.terms.items()}


def flat(mu, row, col, entry):
    """The flat terms of a block matrix whose one cell holds `entry`."""
    return {(mu, row, col, p): c for p, c in entry.terms.items()}


def test_psi_cell_cache_cold_and_warm_agree():
    rng = random.Random(61)
    for d, n in ((1, 3), (2, 3), (3, 2), (3, 3)):
        for _ in range(4):
            x = random_yelem(rng, d, n)
            eb = to_E_basis(x)
            isomap._psi_cell.cache_clear()
            cold = psi_from_e_coeffs(d, n, eb)
            kept = cell_terms(cold)
            hits = isomap._psi_cell.cache_info().hits
            warm = psi_from_e_coeffs(d, n, eb)
            assert isomap._psi_cell.cache_info().hits == hits + len(eb)
            assert warm == cold, (d, n)
            assert cell_terms(cold) == kept
            assert phi(cold) == x


def test_phi_rejects_entries_outside_the_young_subgroup():
    mu = Composition((2, 2))
    one = chi_one(mu)
    inside = BlockMatrix(2, 4, flat(mu, one, one, HeckeElem.gen(4, 1, 2)))
    phi(inside)
    # T_2 swaps strands 2 and 3 across the boundary of the (2, 2) blocks
    with pytest.raises(ValueError, match="Young subgroup"):
        phi(BlockMatrix(2, 4, flat(mu, one, one, HeckeElem.gen(4, 2, 2))))
    # an entry from H_3 is not in S_4 at all: the constructor rejects its key
    with pytest.raises(ValueError, match="not in S_4"):
        phi(BlockMatrix(2, 4, flat(mu, one, one, HeckeElem.gen(3, 1, 2))))


def test_psi_cells_are_addressed_by_characters_of_their_block():
    rng = random.Random(19)
    for d in (1, 2, 3):
        for n in (2, 3):
            for _ in range(4):
                M = psi(random_yelem(rng, d, n, terms=4))
                assert M.terms, (d, n)
                for mu, row, col, _ in M.terms:
                    assert comp_of(row, d) == comp_of(col, d) == mu, (d, n, mu, row, col)


def test_iota_keys_are_characters_of_their_block():
    rng = random.Random(29)
    d = 3
    for n in (2, 3):
        for _ in range(4):
            M = iota(psi(random_yelem(rng, d, n, terms=4)))
            assert M.terms and M.n == n + 1, n
            for mu, row, col, _ in M.terms:
                assert comp_of(row, d) == comp_of(col, d) == mu, (n, mu, row, col)


def test_block_reads_its_cells_in_orbit_order():
    rng = random.Random(23)
    d, n = 2, 3
    M = psi(random_yelem(rng, d, n, terms=6))
    for mu in all_compositions(d, n):
        chars = orbit(mu)
        for k, row in enumerate(M.block(mu)):
            for j, entry in enumerate(row):
                cell = (mu, chars[k], chars[j])
                terms = {key[3]: c for key, c in M.terms.items() if key[:3] == cell}
                assert entry == HeckeElem(n, d, terms), (mu, k, j)


def test_block_matrix_rejects_a_character_of_another_composition():
    mu = Composition((2, 1))
    one, entry = chi_one(mu), HeckeElem.one(3, 2)
    BlockMatrix(2, 3, flat(mu, one, (1, 2, 1), entry))
    # (1, 2, 2) has composition (1, 2); (1, 1, 3) has a letter beyond d = 2
    for cell in ((mu, one, (1, 2, 2)), (mu, (1, 2, 2), one), (mu, one, (1, 1, 3))):
        with pytest.raises(ValueError, match="not a character of"):
            BlockMatrix(2, 3, flat(*cell, entry))


def test_block_matrix_rejects_a_permutation_outside_s_n():
    mu = Composition((2, 1))
    one, c = chi_one(mu), LPoly.one(2)
    BlockMatrix(2, 3, {(mu, one, one, (2, 1, 3)): c})
    for p in ((1, 2), (2, 1), (1, 2, 3, 4), ()):
        with pytest.raises(ValueError, match="not in S_3"):
            BlockMatrix(2, 3, {(mu, one, one, p): c})


@pytest.mark.parametrize(
    "key,message",
    [
        # a permutation of another length than its character
        (((1, 2, 1), (2, 1)), r"permutation \(2, 1\) is not in S_3"),
        (((1, 2, 1), (1, 2, 3, 4)), r"permutation \(1, 2, 3, 4\) is not in S_3"),
        # a character of another level, and a letter beyond d
        (((1, 2), (2, 1)), r"block \(1,1\) does not fit level \(2,3\)"),
        (((1, 3, 1), (1, 2, 3)), "letter 3 out of range 1..2"),
    ],
    ids=["short-perm", "long-perm", "level", "letter"],
)
def test_psi_from_e_coeffs_rejects_keys_outside_the_level(key, message):
    for _ in range(2):  # the cell cache keeps no error
        with pytest.raises(ValueError, match=message):
            psi_from_e_coeffs(2, 3, {key: LPoly.one(2)})


def checked(M):
    """M through the checking constructor, which prunes zeros and checks every key."""
    return BlockMatrix(M.d, M.n, M.terms)


def test_unchecked_results_pass_the_checking_constructor():
    # psi, psi_from_e_coeffs and iota skip the constructor's key checks and
    # zero filter; their results must be exactly what it accepts unchanged
    rng = random.Random(67)
    for d in (1, 2, 3):
        for n in (2, 3):
            chars, perms = all_characters(d, n), all_perms(n)
            for _ in range(4):
                x = random_yelem(rng, d, n)
                eb = dict(to_E_basis(x))
                eb.setdefault((rng.choice(chars), rng.choice(perms)), LPoly.zero(d))  # skipped
                for M in (psi(x), psi_from_e_coeffs(d, n, eb), iota(psi(x))):
                    assert checked(M) == M, (d, n)
                    assert all(c for c in M.terms.values())
                assert psi_from_e_coeffs(d, n, eb) == psi(x)


def test_psi_is_linear():
    rng = random.Random(5)
    d, n = 2, 3
    for _ in range(8):
        x, y = random_yelem(rng, d, n), random_yelem(rng, d, n)
        assert psi(x + y) == psi(x) + psi(y)
        assert psi(x - y) == psi(x) - psi(y)


def test_psi_is_multiplicative_random_basis_pairs():
    rng = random.Random(7)
    for d, n in ((2, 2), (2, 3), (3, 2)):
        chars = all_characters(d, n)
        perms = all_perms(n)
        for _ in range(40):
            x = from_E_basis(d, n, {(rng.choice(chars), rng.choice(perms)): LPoly.one(d)})
            y = from_E_basis(d, n, {(rng.choice(chars), rng.choice(perms)): LPoly.one(d)})
            assert psi(y_mul(x, y)) == psi(x) * psi(y)


def test_psi_is_multiplicative_random_elements():
    rng = random.Random(11)
    for d in (2, 3):
        for _ in range(8):
            x, y = random_yelem(rng, d, 3), random_yelem(rng, d, 3)
            assert psi(y_mul(x, y)) == psi(x) * psi(y)


def test_iota_commutes_with_extension():
    rng = random.Random(13)
    for d, n in ((2, 2), (2, 3)):
        for _ in range(10):
            x = random_yelem(rng, d, n)
            assert iota(psi(x)) == psi(x.extend(n + 1)), (d, n)


def test_iota_preserves_products():
    rng = random.Random(17)
    d, n = 2, 2
    for _ in range(8):
        x, y = random_yelem(rng, d, n), random_yelem(rng, d, n)
        assert iota(psi(x) * psi(y)) == iota(psi(x)) * iota(psi(y))


def test_golden_generator_matrices():
    results = golden_checks()
    assert len(results) == 10
    for check_id, ok, detail in results:
        assert ok, (check_id, detail)


@pytest.mark.parametrize(
    "table,index,block,entries,failing,detail",
    [
        # g_1 on block (3,1): cell (3,4) holds u, not T_1
        ("_G_IMAGES", 1, (3, 1), ((1, 1, ("T", 1)), (2, 2, ("T", 1)), (3, 4, ("T", 1)), (4, 3, "u")),
         "iso-golden-g1", "block (3,1) row (1, 2, 1, 1) col (2, 1, 1, 1): "),
        # t_2 on block (2,2): the third diagonal entry is 1, not -1
        ("_T_DIAGS", 2, (2, 2), (1, -1, -1, -1, 1, -1),
         "iso-golden-t2", "block (2,2) row (2, 1, 1, 2) col (2, 1, 1, 2): "),
    ],
    ids=["g1", "t2"],
)
def test_golden_checks_catch_a_corrupted_entry(
    monkeypatch, table, index, block, entries, failing, detail
):
    monkeypatch.setitem(getattr(_golden, table)[index], block, entries)
    results = golden_checks()
    assert [check_id for check_id, ok, _ in results if not ok] == [failing]
    assert dict((check_id, text) for check_id, _, text in results)[failing].startswith(detail)
