"""The contract of the sparse-combination core, checked on every class
built on it."""

import pytest

from yokohecke.exactnum import LPoly
from yokohecke.hecke import HeckeElem
from yokohecke.isomap import BlockMatrix, psi
from yokohecke.yokonuma import YElem


def _lpoly():
    x = LPoly.var(2, "u") + LPoly.const(2, 3)
    return x, LPoly.zero(2), [LPoly.var(3, "u"), LPoly.zero(3)]


def _hecke():
    x = HeckeElem.gen(3, 1, 2) + HeckeElem.one(3, 2)
    others = [HeckeElem.gen(2, 1, 2), HeckeElem.gen(3, 1, 3), HeckeElem.zero(3, 3)]
    return x, HeckeElem.zero(3, 2), others


def _yelem():
    x = YElem.g_elem(2, 3, 1) + YElem.t_elem(2, 3, 2)
    others = [YElem.g_elem(3, 3, 1), YElem.g_elem(2, 2, 1), YElem.zero(2, 2)]
    return x, YElem.zero(2, 3), others


def _block():
    x = psi(YElem.g_elem(2, 2, 1))
    others = [
        BlockMatrix.identity_matrix(2, 3),
        BlockMatrix.identity_matrix(3, 2),
        BlockMatrix.zero(2, 3),
    ]
    return x, BlockMatrix.zero(2, 2), others


FACTORIES = [_lpoly, _hecke, _yelem, _block]
IDS = ["LPoly", "HeckeElem", "YElem", "BlockMatrix"]


@pytest.mark.parametrize("make", FACTORIES, ids=IDS)
def test_mixed_parents_are_rejected(make):
    x, zero, others = make()
    for mine in (x, zero):
        for other in others:
            with pytest.raises(ValueError):
                mine + other
            with pytest.raises(ValueError):
                mine - other
            assert mine != other
            assert not mine == other


@pytest.mark.parametrize("make", FACTORIES, ids=IDS)
def test_cancellation_stores_no_terms(make):
    x, zero, _ = make()
    assert x and not x.is_zero()
    assert (x - x).terms == {}
    assert x + (-x) == zero
    assert not (x + (-x))
    assert x + zero == x
    assert x - zero == x


@pytest.mark.parametrize("make", FACTORIES[1:], ids=IDS[1:])
def test_algebra_elements_are_unhashable(make):
    x, _, _ = make()
    with pytest.raises(TypeError):
        hash(x)


def test_equal_lpolys_hash_equal():
    u = LPoly.var(2, "u")
    one = LPoly.one(2)
    a = (u + one) * (u - one)
    b = u * u - one
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
