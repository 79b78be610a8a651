"""Checked at the door, trusted inside.

The public constructors of `Composition`, `HeckeElem`, `YElem`,
`BlockMatrix`, `LPoly`, `Cyclo`, `TraceSpec` and `FramedBraidWord` check
every order, part, letter, permutation, framing, exponent, support and
coefficient; the package builds its own values through the internal
builders, and the functions that take caller data check it before any
cache.  The public classmethods, embeddings and transforms are doors too,
and every door asks the same owners: `type(x) is int` for an integer,
`permcomp._check_order` for an order, `_check_strands` for a strand count
and `exactnum._rat` for a rational.
"""

import contextlib
import io
import sys
from collections import Counter
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yokohecke import cli, exactnum, isomap, links, permcomp, verify
from yokohecke.exactnum import (
    Cyclo, LPoly, coeff, cyclotomic_polynomial, euler_phi, nonzero, root_power,
)
from yokohecke.hecke import HeckeElem
from yokohecke.isomap import BlockMatrix, block_traces, psi_from_e_coeffs
from yokohecke.links import FramedBraidWord, jl_numeric, parse_word
from yokohecke.permcomp import Composition, all_comp0, comp_of, min_coset_rep, orbit
from yokohecke.traces import TraceSpec, basic_spec, esystem_c, semisimple_at
from yokohecke.yokonuma import YElem, from_E_basis, idempotent_E, idempotent_Emu, to_E_basis

ONE = LPoly.one(2)


class N(IntEnum):
    """An int subclass, which no door takes for an int."""

    ONE = 1
    TWO = 2


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
    # a row whose third entry is not a text names the value the call returns
    ("lpoly-int-coefficient", lambda: LPoly(2, {(0, 0, 0): 1}) == ONE, True),
    ("lpoly-short-key", lambda: LPoly(2, {(0, 0): Cyclo.one(2)}),
     "key (0, 0) is not a triple of integer exponents"),
    ("lpoly-float-coefficient", lambda: LPoly(1, {(0, 0, 0): 1.5}),
     "coefficient 1.5 is not an int, Fraction or Cyclo"),
    ("lpoly-bool-exponent", lambda: LPoly(2, {(True, 0, 0): Cyclo.one(2)}),
     "key (True, 0, 0) is not a triple of integer exponents"),
    ("monomial-float-exponent", lambda: LPoly.monomial(2, 1, 1.5),
     "exponents (1.5, 0, 0) are not all integers"),
    ("var-w", lambda: LPoly.var(2, "w"), "variable 'w' is not u, v or g"),
    ("lpoly-one-float-order", lambda: LPoly.one(2.0), "order must be an integer, got 2.0"),
    ("lpoly-one-bool-order", lambda: LPoly.one(True), "order must be an integer, got True"),
    ("lpoly-sum-int", lambda: LPoly.sum(2, [1]), "cannot add 1 into order 2"),
    ("cyclo-float-order", lambda: Cyclo(3.0, (1, 0)), "order must be an integer, got 3.0"),
    ("trace-spec-tuple-support", lambda: TraceSpec(2, {(1, 0): ONE}),
     "(1, 0) is not a nonzero 0/1 composition"),
    ("trace-spec-int-weight", lambda: TraceSpec(2, {Composition((1, 0)): 1}),
     "alpha coefficients must live at cyclotomic order d"),
    ("block_traces-tuple-support", lambda: block_traces(YElem.one(2, 2), [(1, 0)]),
     "(1, 0) is not a nonzero 0/1 composition"),
    ("block-tuple", lambda: BlockMatrix.identity_matrix(2, 2).block((1, 1)),
     "block (1, 1) does not fit level (2,2)"),
    ("word-token-list", lambda: FramedBraidWord(2, [("sigma", 1, 1)]),
     "tokens must be a tuple, got [('sigma', 1, 1)]"),
    # each algebra door checks its own order and strand count, also with no
    # terms, and before a coefficient test that 1 == True would pass
    ("yelem-bool-order", lambda: YElem(True, 1, {}), "order must be an integer, got True"),
    ("yelem-bool-order-terms", lambda: YElem(True, 1, {((0,), (1,)): LPoly.one(1)}),
     "order must be an integer, got True"),
    ("yelem-zero-strands", lambda: YElem(2, 0, {}), "strand count must be at least 1"),
    ("hecke-float-strands", lambda: HeckeElem(1.5, 1, {}), "strand count must be an integer, got 1.5"),
    ("hecke-bool-order", lambda: HeckeElem(2, True, {(1, 2): LPoly.one(1)}),
     "order must be an integer, got True"),
    ("block-matrix-bool-order", lambda: BlockMatrix(True, 1, {}), "order must be an integer, got True"),
    ("block-matrix-float-strands", lambda: BlockMatrix(2, 2.0, {}),
     "strand count must be an integer, got 2.0"),
    ("cyclo-zeta-float-exponent", lambda: Cyclo.zeta(4, 1.5), "exponent 1.5 is not an integer"),
    ("lpoly-float-power", lambda: LPoly.one(1) ** 1.5, "exponent 1.5 is not an integer"),
    ("comp_of-float-order", lambda: comp_of((1,), 1.5), "order must be an integer, got 1.5"),
    ("block_traces-short-support", lambda: block_traces(YElem.one(2, 2), [Composition((1,))]),
     "support (1) has 1 parts, expected 2"),
    # one integer test: `type(x) is int`, so no IntEnum and no bool
    ("hecke-intenum-strands", lambda: HeckeElem(N.TWO, 1, {}),
     "strand count must be an integer, got <N.TWO: 2>"),
    ("word-intenum-strands", lambda: FramedBraidWord(N.TWO, (("sigma", 1, 1),)),
     "strand count must be an integer, got <N.TWO: 2>"),
    ("root_power-bool-exponent", lambda: root_power(3, 2, True), "exponent True is not an integer"),
    ("jl_numeric-bool-branch",
     lambda: jl_numeric(parse_word("1", 2, 2), 2, {1}, 0.3, 0.2, branch=True),
     "branch must be +1 or -1"),
    ("root_power-float-exponent", lambda: root_power(3, 2, 1.5), "exponent 1.5 is not an integer"),
    ("esystem_c-float-exponent", lambda: esystem_c(3, [1, 2], 1.5),
     "exponent 1.5 is not an integer"),
    # one order check
    ("parse_word-bool-order", lambda: parse_word("t1^1", 1, True),
     "order must be an integer, got True"),
    ("parse_word-float-order", lambda: parse_word("t1^1", 1, 1.5),
     "order must be an integer, got 1.5"),
    # one rational policy: an int that is not a bool, or a Fraction
    ("const-float", lambda: LPoly.const(1, 1.5),
     "coefficient 1.5 is not an int, Fraction or Cyclo"),
    ("scale-float", lambda: LPoly.one(1).scale(0.5),
     "coefficient 0.5 is not an int, Fraction or Cyclo"),
    ("cyclo-float", lambda: Cyclo(3, (1.5, 0)), "coefficient 1.5 is not an int, Fraction or Cyclo"),
    ("from_rat-str", lambda: Cyclo.from_rat(3, "1/3"),
     "coefficient '1/3' is not an int, Fraction or Cyclo"),
    ("monomial-float", lambda: LPoly.monomial(1, 0.1, 1),
     "coefficient 0.1 is not an int, Fraction or Cyclo"),
    ("const-bool", lambda: LPoly.const(2, True),
     "coefficient True is not an int, Fraction or Cyclo"),
    ("cyclo-bool", lambda: Cyclo(3, (True, 0)),
     "coefficient True is not an int, Fraction or Cyclo"),
    ("cyclo-times-float", lambda: Cyclo.one(3) * 1.5,
     "coefficient 1.5 is not an int, Fraction or Cyclo"),
    # no side door: classmethods, embeddings and transforms check d and n
    ("yelem-one-zero-strands", lambda: YElem.one(2, 0), "strand count must be at least 1"),
    ("hecke-one-zero-strands", lambda: HeckeElem.one(0), "strand count must be at least 1"),
    ("identity_matrix-zero-strands", lambda: BlockMatrix.identity_matrix(2, 0),
     "strand count must be at least 1"),
    ("from_E_basis-zero-strands", lambda: from_E_basis(2, 0, {}),
     "strand count must be at least 1"),
    ("idempotent_E-empty", lambda: idempotent_E(2, ()), "strand count must be at least 1"),
    ("idempotent_Emu-empty", lambda: idempotent_Emu(Composition((0, 0))),
     "strand count must be at least 1"),
    ("from_E_basis-bool-order", lambda: from_E_basis(True, 2, {}),
     "order must be an integer, got True"),
    ("yelem-extend-bool", lambda: YElem.one(2, 1).extend(True),
     "strand count must be an integer, got True"),
    ("yelem-one-float-strands", lambda: YElem.one(2, 1.5),
     "strand count must be an integer, got 1.5"),
    ("yelem-extend-float", lambda: YElem.one(2, 1).extend(2.5),
     "strand count must be an integer, got 2.5"),
    ("run_suite-float-order", lambda: verify.run_suite("iso", 2.0, 2),
     "suite iso supports 1 <= d <= 3, got 2.0"),
    ("run_suite-float-strands", lambda: verify.run_suite("schur", 2, 2.0),
     "suite schur supports 1 <= n <= 3, got 2.0"),
    ("semisimple_at-float", lambda: semisimple_at(1.5, 2),
     "strand count must be an integer, got 1.5"),
    ("hecke-extend-smaller", lambda: HeckeElem.one(3).extend(2),
     "cannot extend to a smaller strand count"),
    # `Composition.bump` checks its letter with `comp_of`
    ("bump-zero", lambda: Composition((1, 0)).bump(0), "letter 0 out of range 1..2"),
    ("bump-three", lambda: Composition((1, 0)).bump(3), "letter 3 out of range 1..2"),
    ("bump-bool", lambda: Composition((1, 0)).bump(True), "letter True out of range 1..2"),
]


@pytest.mark.parametrize("call, text", [pytest.param(c, t, id=i) for i, c, t in REPRODUCERS])
def test_reproducers_raise_one_value_error(call, text):
    if not isinstance(text, str):
        assert call() == text
        return
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


ORDER_CALLS = [
    ("Cyclo.one", lambda d: Cyclo.one(d)),
    ("Cyclo.zeta", lambda d: Cyclo.zeta(d, 1)),
    ("Cyclo.from_rat", lambda d: Cyclo.from_rat(d, 2)),
    ("root_power", lambda d: root_power(d, 1, 1)),
    ("cyclotomic_polynomial", lambda d: cyclotomic_polynomial(d)),
]


@pytest.mark.parametrize("call", [pytest.param(c, id=i) for i, c in ORDER_CALLS])
def test_order_checks_run_before_the_caches(call):
    # cold: nothing cached; warm: the equal int order 1 is cached
    exactnum._zeta_pow.cache_clear()
    exactnum._cyclotomic.cache_clear()
    for _ in ("cold", "warm"):
        with pytest.raises(ValueError, match=r"^order must be an integer, got True$"):
            call(True)
        call(1)
    assert exactnum._cyclotomic.cache_info().currsize > 0


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


BAD_ORDERS = BAD_SCALARS + [0, -1]
exponents = st.integers(-3, 3)


@st.composite
def lpoly_coefficients(draw, order):
    """A valid coefficient for the door: an int, a Fraction, a Cyclo of the
    order or a rational Cyclo of another order, zero included."""
    how = draw(st.sampled_from(["int", "fraction", "cyclo", "rational-cyclo"]))
    if how == "int":
        return draw(st.integers(-2, 2))
    if how == "fraction":
        return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    if how == "cyclo":
        phi = euler_phi(order)
        return Cyclo(order, draw(st.lists(st.integers(-2, 2), min_size=phi, max_size=phi)))
    return Cyclo.from_rat(5, Fraction(draw(st.integers(-2, 2)), 2))


@SETTINGS
@given(st.data())
def test_lpoly_door(data):
    order = data.draw(orders)
    terms = data.draw(st.dictionaries(st.tuples(exponents, exponents, exponents),
                                      lpoly_coefficients(order), max_size=4))
    x = LPoly(order, terms)
    _fits_valid(x, (order,), {k: coeff(order, c) for k, c in terms.items()})
    good = (0, 1, -1)
    how = data.draw(st.sampled_from(["order", "key", "exponent", "coefficient"]))
    if how == "order":
        bad = data.draw(st.sampled_from(BAD_ORDERS))
        calls = [lambda: LPoly(bad, terms), lambda: LPoly.zero(bad), lambda: LPoly.one(bad),
                 lambda: LPoly.var(bad, "u"), lambda: LPoly.sum(bad, []), lambda: x.as_order(bad),
                 lambda: Cyclo(bad, (1,)), lambda: Cyclo.zero(bad), lambda: Cyclo.one(bad),
                 lambda: Cyclo.zeta(bad), lambda: Cyclo.from_rat(bad, 1)]
    elif how == "key":
        key = data.draw(bad_tuples(good, BAD_SCALARS))
        calls = [lambda: LPoly(order, {**terms, key: 1})]
    elif how == "exponent":
        key = data.draw(bad_tuples(good, BAD_SCALARS, resize=False).filter(
            lambda k: type(k) is tuple))
        exp = next(e for e in key if type(e) is not int)
        name = data.draw(st.sampled_from(["w", "U", 1, None]))
        calls = [lambda: LPoly.monomial(order, 1, *key), lambda: LPoly.var(order, "v", exp),
                 lambda: LPoly.var(order, name)]
    else:
        bad = data.draw(st.sampled_from(
            [True, False, 1.5, "1", None, LPoly.one(order + 1), Cyclo.zeta(5)]))
        calls = [lambda: LPoly(order, {**terms, good: bad}), lambda: LPoly.sum(order, [x, bad])]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@SETTINGS
@given(st.data())
def test_trace_spec_door(data):
    d = data.draw(orders)
    supports = data.draw(st.lists(st.sampled_from(all_comp0(d)), unique=True, max_size=3))
    alphas = {mu0: data.draw(st.sampled_from(COEFFS[d])) for mu0 in supports}
    spec = TraceSpec(d, alphas)
    assert spec.alphas == nonzero(alphas) and spec == TraceSpec._make((d, nonzero(alphas)))
    assert TraceSpec(d, spec.alphas) == spec
    mu0 = data.draw(st.sampled_from(all_comp0(d)))
    how = data.draw(st.sampled_from(["order", "support", "weight", "mapping"]))
    if how == "order":
        calls = [lambda: TraceSpec(data.draw(st.sampled_from(BAD_ORDERS)), {})]
    elif how == "support":
        bad = data.draw(st.sampled_from([
            mu0.parts, str(mu0), 1, None, Composition((0,) * d), mu0.bump(1),
            Composition(mu0.parts + (1,)),
        ]))
        calls = [lambda: TraceSpec(d, {**alphas, bad: LPoly.one(d)})]
        if type(bad) is not Composition or bad.d == d:
            calls.append(lambda: basic_spec(bad))
    elif how == "weight":
        bad = data.draw(st.sampled_from([1, None, Cyclo.one(d), LPoly.one(d + 1)]))
        calls = [lambda: TraceSpec(d, {**alphas, mu0: bad})]
    else:
        bad = data.draw(st.sampled_from([list(alphas.items()), None, "alphas", 1]))
        calls = [lambda: TraceSpec(d, bad)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


# every public entry that takes an order d (first list) or a strand count n
SIDE_DOORS = {
    "d": [
        lambda d: YElem.one(d, 2), lambda d: YElem.t_elem(d, 2, 1),
        lambda d: YElem.g_elem(d, 2, 1), lambda d: YElem.e_elem(d, 2, 1),
        lambda d: HeckeElem.one(2, d), lambda d: BlockMatrix.identity_matrix(d, 2),
        lambda d: from_E_basis(d, 2, {}), lambda d: idempotent_E(d, (1, 1)),
        lambda d: psi_from_e_coeffs(d, 2, {}), lambda d: verify.run_suite("iso", d, 2),
        lambda d: parse_word("1", 2, d), lambda d: root_power(d, 1, 1),
    ],
    "n": [
        lambda n: YElem.one(2, n), lambda n: YElem.t_elem(2, n, 1),
        lambda n: YElem.g_elem(2, n, 1), lambda n: YElem.e_elem(2, n, 1),
        lambda n: HeckeElem.one(n), lambda n: BlockMatrix.identity_matrix(2, n),
        lambda n: YElem.one(2, 1).extend(n), lambda n: HeckeElem.one(1).extend(n),
        lambda n: from_E_basis(2, n, {}), lambda n: psi_from_e_coeffs(2, n, {}),
        lambda n: verify.run_suite("schur", 2, n),
    ],
}
bad_parents = st.one_of(
    st.booleans(), st.floats(), st.sampled_from(list(N)), st.integers(max_value=0)
)


@SETTINGS
@given(bad_parents, st.sampled_from(["d", "n"]))
def test_side_doors_check_their_parents(bad, which):
    for door in SIDE_DOORS[which]:
        with pytest.raises(ValueError):
            door(bad)
    if type(bad) is int:  # n <= 1: the trivial algebra, semisimple
        assert semisimple_at(bad, 2) is True
    else:
        with pytest.raises(ValueError, match="^strand count must be an integer"):
            semisimple_at(bad, 2)


SCALAR_ENTRIES = [
    lambda x: coeff(1, x), lambda x: coeff(3, x), lambda x: Cyclo(3, (x, 0)),
    lambda x: Cyclo.from_rat(3, x), lambda x: Cyclo.zeta(3) * x, lambda x: LPoly.const(1, x),
    lambda x: LPoly.monomial(2, x, 1), lambda x: LPoly.one(1).scale(x),
    lambda x: LPoly.one(3).scale(x),
]


@SETTINGS
@given(st.one_of(st.booleans(), st.floats(), st.text(max_size=3),
                 st.decimals(places=2), st.sampled_from(list(N))))
def test_scalar_entry_points_take_only_ints_and_fractions(bad):
    for entry in SCALAR_ENTRIES:
        with pytest.raises(ValueError) as info:
            entry(bad)
        assert str(info.value) == f"coefficient {bad!r} is not an int, Fraction or Cyclo"


# ---------------------------------------------------------------------------
# the public constructors run only at entry points
# ---------------------------------------------------------------------------

WORD = "1 1 -2 3 3 -4 1 1 -2 3 3 -4"


def _cli(*args):
    return lambda: cli.main([*args, "--n", "5", "--word", WORD])


# every word comes from parse_word, whose second build skips the door, and
# only `--mu0` names a support from outside: the expected door counts
@pytest.mark.parametrize("run, doors", [
    pytest.param(lambda: verify.run_suite("iso", 3, 3), {}, id="iso-3-3"),
    pytest.param(lambda: verify.run_suite("markov", 2, 3), {}, id="markov-2-3"),
    pytest.param(lambda: verify.run_suite("jl", 4, 4), {"FramedBraidWord": 1}, id="jl-4-4"),
    pytest.param(_cli("invariant", "--d", "3", "--all-basic"), {"FramedBraidWord": 1},
                 id="invariant-all-basic"),
    pytest.param(_cli("invariant", "--d", "3", "--mu0", "1,0,1"),
                 {"FramedBraidWord": 1, "Composition": 1, "TraceSpec": 1}, id="invariant-mu0"),
    pytest.param(_cli("jl", "--d", "3", "--S", "1,2,3"), {"FramedBraidWord": 1}, id="jl-cli"),
])
def test_public_constructors_run_only_at_entry_points(run, doors, monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (HeckeElem, YElem, BlockMatrix, LPoly):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, vars(cls)["__init__"]))
    for cls in (Composition, TraceSpec, FramedBraidWord):
        monkeypatch.setattr(cls, "__new__",
                            staticmethod(counting(cls.__name__, vars(cls)["__new__"])))
    for module in (cli, verify):
        monkeypatch.setattr(module, "parse_word", counting("parse_word", links.parse_word))
    with contextlib.redirect_stdout(io.StringIO()):
        run()
    assert counts.pop("parse_word", 0) == doors.get("FramedBraidWord", 0)
    assert counts == Counter(doors)


WORD4 = "1 1 -2 3 t1^1 -2 3 3 t4^2"


# the letter door `comp_of` runs once per checked input, never per colouring
# or support: 27 and 12 calls before each production loop built its
# compositions from checked letters
@pytest.mark.parametrize("argv, calls", [
    pytest.param(["invariant", "--d", "3", "--n", "4", "--all-basic", "--word", WORD4], 0,
                 id="invariant-all-basic"),
    pytest.param(["jl", "--d", "3", "--S", "1,2", "--n", "4", "--word", WORD4], 1, id="jl"),
])
def test_letter_door_runs_only_at_entry(argv, calls):
    code, count = permcomp.comp_of.__code__, 0

    def profile(frame, event, arg):  # counts calls through every import of comp_of
        nonlocal count
        count += event == "call" and frame.f_code is code

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        sys.setprofile(None)
    assert count == calls
