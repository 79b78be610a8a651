"""Checked at the door, trusted inside.

The public constructors of `Composition`, `HeckeElem`, `YElem` and
`BlockMatrix` check every part, letter, permutation, framing and
coefficient; the package builds its own values through the internal
builders, and the functions that take caller data check it before any
cache.
"""

import contextlib
import io
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yokohecke import cli, isomap, permcomp, verify
from yokohecke.exactnum import Cyclo, LPoly, nonzero
from yokohecke.hecke import HeckeElem
from yokohecke.isomap import BlockMatrix, psi_from_e_coeffs
from yokohecke.permcomp import Composition, comp_of, min_coset_rep, orbit
from yokohecke.yokonuma import YElem, from_E_basis, to_E_basis

ONE = LPoly.one(2)


def _warm_min_coset_rep():
    min_coset_rep((1, 2), 2)
    return min_coset_rep((True, 2), 2)


def _warm_psi_from_e_coeffs():
    psi_from_e_coeffs(2, 2, {((1, 2), (1, 2)): ONE})
    return psi_from_e_coeffs(2, 2, {((True, 2), (1, 2)): ONE})


REPRODUCERS = [
    ("framing-5", lambda: YElem(2, 2, {((5, 0), (1, 2)): ONE}),
     "key ((5, 0), (1, 2)) does not fit Y_{2,2}"),
    ("framing-negative", lambda: to_E_basis(YElem(2, 2, {((-1, 0), (1, 2)): ONE})),
     "key ((-1, 0), (1, 2)) does not fit Y_{2,2}"),
    ("hecke-perm-3-4", lambda: HeckeElem(2, 1, {(3, 4): LPoly.one(1)}),
     "permutation (3, 4) is not in S_2"),
    ("yelem-perm-1-1", lambda: YElem(2, 2, {((0, 0), (1, 1)): ONE}),
     "key ((0, 0), (1, 1)) does not fit Y_{2,2}"),
    ("block-perm-1-1",
     lambda: BlockMatrix(2, 2, {(Composition((1, 1)), (1, 2), (1, 2), (1, 1)): ONE}),
     "permutation (1, 1) is not in S_2"),
    ("coefficient-order", lambda: YElem(2, 2, {((0, 0), (1, 2)): LPoly.one(3)}),
     "coefficient <LPoly d=3: 1> is not an LPoly of order 2"),
    ("coefficient-int", lambda: YElem(2, 2, {((0, 0), (1, 2)): 1}),
     "coefficient 1 is not an LPoly of order 2"),
    ("part-float", lambda: Composition((1.5, 0)),
     "parts must be a tuple of integers, got (1.5, 0)"),
    ("parts-list", lambda: Composition([1, 2]),
     "parts must be a tuple of integers, got [1, 2]"),
    ("mul_t_vector-float", lambda: YElem.one(2, 2).mul_t_vector((0.5, 0)),
     "framing powers (0.5, 0) do not fit 2 strands"),
    ("min_coset_rep-warm", _warm_min_coset_rep, "letter True out of range 1..2"),
    ("psi_from_e_coeffs-warm", _warm_psi_from_e_coeffs, "letter True out of range 1..2"),
]


@pytest.mark.parametrize("call, text", [pytest.param(c, t, id=i) for i, c, t in REPRODUCERS])
def test_reproducers_raise_one_value_error(call, text):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == text


def test_letter_checks_run_before_the_caches():
    # cold: nothing cached; warm: the equal int key is cached
    for clear in (True, False):
        if clear:
            permcomp._min_coset_rep.cache_clear()
            isomap._psi_cell.cache_clear()
        for call in (_warm_min_coset_rep, _warm_psi_from_e_coeffs):
            with pytest.raises(ValueError, match=r"^letter True out of range 1\.\.2$"):
                call()
        assert permcomp._min_coset_rep.cache_info().currsize > 0
        assert isomap._psi_cell.cache_info().currsize > 0


# ---------------------------------------------------------------------------
# the door, fed malformed and valid input
# ---------------------------------------------------------------------------

BAD_SCALARS = [True, False, 1.0, 1.5, "1", None]
COEFFS = {d: [LPoly.one(d), LPoly.zero(d), LPoly.var(d, "u", -2), LPoly.const(d, 3)]
          for d in (1, 2, 3)}
BAD_COEFFS = [0, 1, Fraction(1, 2), None, "1", Cyclo.one(3), LPoly.one(4)]

orders = st.integers(1, 3)
sizes = st.integers(1, 4)


@st.composite
def permutations(draw, n):
    return tuple(draw(st.permutations(range(1, n + 1))))


@st.composite
def bad_permutations(draw, n):
    """A tuple that is not a permutation of 1..n, or no tuple at all."""
    w = list(draw(permutations(n)))
    how = draw(st.sampled_from(["entry", "length", "shape"]))
    if how == "shape":
        return draw(st.sampled_from([None, 12, "12", frozenset(w)]))
    if how == "length":
        return tuple(w[:-1]) if draw(st.booleans()) else tuple(w + [n + 1])
    j = draw(st.integers(0, n - 1))
    others = [x for i, x in enumerate(w) if i != j]
    w[j] = draw(st.sampled_from(BAD_SCALARS + [0, -1, n + 1] + others))
    return tuple(w)


@st.composite
def bad_tuples(draw, good, bad_entries, resize=True):
    """`good` with one entry replaced, its length changed (if `resize`),
    or no tuple."""
    how = draw(st.sampled_from(["entry", "length", "shape"] if resize else ["entry", "shape"]))
    if how == "shape":
        return draw(st.sampled_from([None, 3, "0", frozenset(good)]))
    if how == "length":
        return good[:-1] if draw(st.booleans()) else good + good[:1]
    j = draw(st.integers(0, len(good) - 1))
    return good[:j] + (draw(st.sampled_from(bad_entries)),) + good[j + 1:]


def _fits_valid(x, parent, terms):
    """A valid input keeps exactly its nonzero terms, equals what the
    internal builder makes of them, and passes the door again unchanged."""
    assert x.terms == nonzero(terms)
    assert x == type(x)._make(*parent, nonzero(terms))
    assert type(x)(*parent, x.terms) == x


SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@SETTINGS
@given(st.data())
def test_composition_door(data):
    parts = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    mu = Composition(parts)
    assert mu == Composition._make((parts,)) and mu.parts == parts
    bad = data.draw(st.one_of(
        bad_tuples(parts, BAD_SCALARS + [-1], resize=False), st.just(list(parts))
    ))
    with pytest.raises(ValueError):
        Composition(bad)


@SETTINGS
@given(st.data())
def test_hecke_door(data):
    n, order = data.draw(sizes), data.draw(orders)
    terms = {data.draw(permutations(n)): data.draw(st.sampled_from(COEFFS[order]))}
    _fits_valid(HeckeElem(n, order, terms), (n, order), terms)
    if data.draw(st.booleans()):
        terms[data.draw(bad_permutations(n))] = COEFFS[order][0]
    else:
        terms[data.draw(permutations(n))] = data.draw(st.sampled_from(BAD_COEFFS))
    with pytest.raises(ValueError):
        HeckeElem(n, order, terms)


@SETTINGS
@given(st.data())
def test_yelem_door(data):
    d, n = data.draw(orders), data.draw(sizes)
    k = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    w = data.draw(permutations(n))
    terms = {(k, w): data.draw(st.sampled_from(COEFFS[d]))}
    _fits_valid(YElem(d, n, terms), (d, n), terms)
    how = data.draw(st.sampled_from(["range", "framing", "permutation", "coefficient"]))
    if how == "range":
        j, e = data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from([-1, d, d + 5]))
        terms = {(k[:j] + (e,) + k[j + 1:], w): COEFFS[d][0]}
    elif how == "framing":
        terms = {(data.draw(bad_tuples(k, BAD_SCALARS)), w): COEFFS[d][0]}
    elif how == "permutation":
        terms = {(k, data.draw(bad_permutations(n))): COEFFS[d][0]}
    else:
        terms = {(k, w): data.draw(st.sampled_from(BAD_COEFFS))}
    with pytest.raises(ValueError):
        YElem(d, n, terms)


@SETTINGS
@given(st.data())
def test_block_matrix_door(data):
    d, n = data.draw(st.integers(2, 3)), data.draw(sizes)
    row = tuple(data.draw(st.lists(st.integers(1, d), min_size=n, max_size=n)))
    mu = comp_of(row, d)
    col = data.draw(st.sampled_from(orbit(mu)))
    p = data.draw(permutations(n))
    terms = {(mu, row, col, p): data.draw(st.sampled_from(COEFFS[d]))}
    _fits_valid(BlockMatrix(d, n, terms), (d, n), terms)
    how = data.draw(st.sampled_from(["letter", "block", "permutation", "coefficient"]))
    if how == "letter":
        terms = {(mu, data.draw(bad_tuples(row, BAD_SCALARS + [0, d + 1])), col, p): COEFFS[d][0]}
    elif how == "block":
        terms = {(data.draw(st.sampled_from([mu.parts, mu.bump(1)])), row, col, p): COEFFS[d][0]}
    elif how == "permutation":
        terms = {(mu, row, col, data.draw(bad_permutations(n))): COEFFS[d][0]}
    else:
        terms = {(mu, row, col, p): data.draw(st.sampled_from(BAD_COEFFS))}
    with pytest.raises(ValueError):
        BlockMatrix(d, n, terms)


@SETTINGS
@given(st.data())
def test_e_coefficient_entry_points(data):
    d, n = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3))
    chi = tuple(data.draw(st.lists(st.integers(1, d), min_size=n, max_size=n)))
    w = data.draw(permutations(n))
    how = data.draw(st.sampled_from(["letter", "permutation", "coefficient"]))
    if how == "letter":
        coeffs = {(data.draw(bad_tuples(chi, BAD_SCALARS + [0, d + 1])), w): LPoly.one(d)}
    elif how == "permutation":
        coeffs = {(chi, data.draw(bad_permutations(n))): LPoly.one(d)}
    else:
        coeffs = {(chi, w): data.draw(st.sampled_from(BAD_COEFFS))}
    for entry in (psi_from_e_coeffs, from_E_basis):
        with pytest.raises(ValueError):
            entry(d, n, coeffs)
    with pytest.raises(ValueError):
        min_coset_rep(data.draw(bad_tuples(chi, BAD_SCALARS + [0, d + 1], resize=False)), d)


# ---------------------------------------------------------------------------
# the public constructors run only at entry points
# ---------------------------------------------------------------------------

WORD = "1 1 -2 3 3 -4 1 1 -2 3 3 -4"


@pytest.mark.parametrize("run", [
    pytest.param(lambda: verify.run_suite("iso", 3, 3), id="iso-3-3"),
    pytest.param(lambda: verify.run_suite("markov", 2, 3), id="markov-2-3"),
    pytest.param(lambda: cli.main(["invariant", "--d", "3", "--n", "5", "--all-basic",
                                   "--word", WORD]), id="invariant-all-basic"),
])
def test_public_constructors_run_only_at_entry_points(run, monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (HeckeElem, YElem, BlockMatrix):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, vars(cls)["__init__"]))
    monkeypatch.setattr(Composition, "__new__",
                        staticmethod(counting("Composition", vars(Composition)["__new__"])))
    with contextlib.redirect_stdout(io.StringIO()):
        run()
    assert counts == Counter()
