"""Type-A Hecke algebra arithmetic and the Markov trace."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yokohecke import hecke
from yokohecke.exactnum import LPoly
from yokohecke.hecke import (
    HeckeElem,
    h_mul,
    loop_factor,
    markov_tau,
    tau_parabolic,
    tau_word,
)
from yokohecke.permcomp import Composition, all_compositions, block_split, length


GOLDEN = Path(__file__).resolve().parent / "golden" / "markov_tau_basis.txt"


def u2():
    return LPoly.var(1, "u", 2)


def v1():
    return LPoly.var(1, "v")


def t_from_word(n, word):
    """The product T_{i_1} ... T_{i_r} for a (not necessarily reduced) word."""
    z = HeckeElem.one(n)
    for i in word:
        z = z.mul_gen(i)
    return z


def t_inverse(n, i):
    """T_i^{-1} from its definition u^{-2} T_i - u^{-2} v."""
    return HeckeElem.gen(n, i).scale(LPoly.var(1, "u", -2)) - HeckeElem.one(n).scale(
        LPoly.monomial(1, 1, -2, 1, 0)
    )


def random_elem(rng, n, terms=3, max_len=4):
    """A random sparse element: sum of random generator words with small
    integer coefficients."""
    out = HeckeElem.zero(n, 1)
    for _ in range(terms):
        word = [rng.randrange(1, n) for _ in range(rng.randrange(0, max_len + 1))]
        x = t_from_word(n, word)
        out = out + x.scale(LPoly.const(1, rng.randrange(-3, 4)))
    return out


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------


def test_quadratic_relation():
    for n in (2, 3, 4):
        for i in range(1, n):
            ti = HeckeElem.gen(n, i)
            lhs = h_mul(ti, ti)
            rhs = HeckeElem.one(n).scale(u2()) + ti.scale(v1())
            assert lhs == rhs


def test_braid_relations():
    for n in (3, 4):
        for i in range(1, n - 1):
            a = t_from_word(n, (i, i + 1, i))
            b = t_from_word(n, (i + 1, i, i + 1))
            assert a == b
    t1, t3 = HeckeElem.gen(4, 1), HeckeElem.gen(4, 3)
    assert h_mul(t1, t3) == h_mul(t3, t1)


def test_generator_inverse():
    for n in (2, 3, 4):
        for i in range(1, n):
            prod = h_mul(HeckeElem.gen(n, i), t_inverse(n, i))
            assert prod == HeckeElem.one(n)
            prod = h_mul(t_inverse(n, i), HeckeElem.gen(n, i))
            assert prod == HeckeElem.one(n)


def test_word_products_respect_matsumoto():
    # T_w is well defined: all reduced words of w give the same product
    n = 4
    for w in itertools.permutations(range(1, n + 1)):
        w = tuple(w)
        k = length(w)
        if k > 4:
            continue
        products = set()
        for word in itertools.product(range(1, n), repeat=k):
            if t_from_word(n, word).terms.keys() == {w}:
                elem = t_from_word(n, word)
                products.add(tuple(sorted((p, c.text()) for p, c in elem.terms.items())))
        assert len(products) == 1, w


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_h_mul_associative(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    n = data.draw(st.integers(min_value=2, max_value=4))
    x, y, z = (random_elem(rng, n) for _ in range(3))
    assert h_mul(h_mul(x, y), z) == h_mul(x, h_mul(y, z))


def test_mul_gen_matches_h_mul():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(10):
            x = random_elem(rng, n)
            i = rng.randrange(1, n)
            assert x.mul_gen(i) == h_mul(x, HeckeElem.gen(n, i))
            assert x.mul_gen(i, -1) == h_mul(x, t_inverse(n, i))


def test_mul_gen_rejects_other_signs():
    x = HeckeElem.gen(3, 1)
    for sign in (0, 2):
        with pytest.raises(ValueError, match="sign"):
            x.mul_gen(1, sign)


def test_extend_is_algebra_map():
    rng = random.Random(11)
    for _ in range(10):
        x, y = random_elem(rng, 3), random_elem(rng, 3)
        assert h_mul(x, y).extend(5) == h_mul(x.extend(5), y.extend(5))


# ---------------------------------------------------------------------------
# the Markov trace
# ---------------------------------------------------------------------------


def test_tau_identity_powers_of_loop():
    loop = loop_factor(1)
    for n in range(1, 7):
        assert markov_tau(HeckeElem.one(n)) == loop ** (n - 1)


def test_tau_normalization_on_cycles():
    # tau_n(T_{s_1 s_2 ... s_{n-1}}) = 1: each step strips one crossing
    for n in range(2, 6):
        x = t_from_word(n, range(1, n))
        assert markov_tau(x) == LPoly.one(1)


def test_tau_trefoil_hand_expansion():
    # T_1^3 = u^2 v + (u^2 + v^2) T_1, expanded with the quadratic relation
    # twice by hand; tau_2 sends 1 -> v^{-1}(1-u^2) and T_1 -> 1
    expanded = HeckeElem.one(2).scale(u2() * v1()) + HeckeElem.gen(2, 1).scale(
        u2() + v1() * v1()
    )
    cubed = t_from_word(2, (1, 1, 1))
    assert cubed == expanded
    expected = u2() * v1() * loop_factor(1) + (u2() + v1() * v1())
    assert markov_tau(cubed) == expected
    assert expected.text() == "-1 * u^4 + 2 * u^2 + 1 * v^2"


def test_tau_is_a_trace():
    rng = random.Random(23)
    for n in (2, 3, 4):
        for _ in range(15):
            x, y = random_elem(rng, n), random_elem(rng, n)
            assert markov_tau(h_mul(x, y)) == markov_tau(h_mul(y, x))


def test_tau_markov_property_both_signs():
    # tau_{n+1}(x T_n) = tau_{n+1}(x T_n^{-1}) = tau_n(x)
    rng = random.Random(31)
    for n in (2, 3):
        for _ in range(15):
            x = random_elem(rng, n)
            up = x.extend(n + 1)
            assert markov_tau(up.mul_gen(n)) == markov_tau(x)
            assert markov_tau(up.mul_gen(n, -1)) == markov_tau(x)


def test_tau_extension_adds_loop():
    rng = random.Random(37)
    loop = loop_factor(1)
    for _ in range(10):
        x = random_elem(rng, 3)
        assert markov_tau(x.extend(4)) == loop * markov_tau(x)


def test_tau_on_basis_matches_golden():
    # one line "w | tau(T_w)" per w in S_1 ... S_5
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) == 1 + 2 + 6 + 24 + 120
    for line in lines:
        word, text = line.split(" | ")
        w = tuple(int(a) for a in word.split())
        assert markov_tau(HeckeElem.basis(len(w), w)).text() == text, w
        # over Q(zeta_3) the trace is the lift of the rational one
        tau3 = markov_tau(HeckeElem.basis(len(w), w, 3))
        assert tau3 == markov_tau(HeckeElem.basis(len(w), w)).as_order(3), w


def test_tau_key_product_identity():
    # tau_3(T_1^2 T_2^{-1} T_1^3 T_2 T_1) factors as tau_2(T_1^3)^2
    word = t_from_word(3, (1, 1))
    word = h_mul(word, t_inverse(3, 2))
    word = h_mul(word, t_from_word(3, (1, 1, 1, 2, 1)))
    lhs = markov_tau(word)
    rhs = markov_tau(t_from_word(2, (1, 1, 1)))
    assert lhs == rhs * rhs


def test_tau_word_rejects_bad_letters():
    with pytest.raises(ValueError, match="generator index 3 out of range 1..2"):
        tau_word(3, [(3, 1)])
    with pytest.raises(ValueError, match="sign must be 1 or -1, got 2"):
        tau_word(3, [(1, 2)])
    # the strand count and the indices are checked as FramedBraidWord does
    with pytest.raises(ValueError, match="^strand count must be at least 1$"):
        tau_word(0, [])
    with pytest.raises(ValueError, match="^generator index must be an integer, got True$"):
        tau_word(2, [(True, 1)])
    with pytest.raises(ValueError, match="^strand count must be an integer, got 2.0$"):
        tau_word(2.0, [])
    with pytest.raises(ValueError, match="^sign must be 1 or -1, got True$"):
        tau_word(2, [(1, True)])


# ---------------------------------------------------------------------------
# the parabolic trace
# ---------------------------------------------------------------------------


def test_tau_parabolic_full_block_is_tau():
    rng = random.Random(41)
    mu = Composition((4,))
    for _ in range(8):
        x = random_elem(rng, 4)
        assert tau_parabolic(mu, x) == markov_tau(x)


def test_tau_parabolic_rejects_outside_young():
    x = HeckeElem.gen(4, 2)  # crosses the (2,2) block boundary
    # the block-product cache keeps no error: a repeated (w, mu) fails again
    for _ in range(2):
        with pytest.raises(ValueError, match="Young subgroup"):
            tau_parabolic(Composition((2, 2)), x)
    assert tau_parabolic(Composition((3, 1)), x) == markov_tau(HeckeElem.gen(3, 2))
    with pytest.raises(ValueError, match="Young subgroup"):
        tau_parabolic(Composition((2, 2)), x)
    # an element of H_3 against a composition of 4, nonzero or zero
    for y in (HeckeElem.gen(3, 1), HeckeElem.zero(3, 1)):
        with pytest.raises(ValueError, match="size"):
            tau_parabolic(Composition((2, 2)), y)


def block_word_elem(n, words, offsets):
    """Multiply generator words living in disjoint blocks into H_n."""
    out = HeckeElem.one(n)
    for word, off in zip(words, offsets):
        for i in word:
            out = out.mul_gen(i + off)
    return out


def test_tau_parabolic_product_formula():
    # on a product of block elements the trace is the product of the
    # blockwise Markov traces (each block renumbered from 1)
    rng = random.Random(43)
    for mu in all_compositions(3, 4):
        offsets = []
        acc = 0
        for p in mu.parts:
            offsets.append(acc)
            acc += p
        for _ in range(12):
            words = [
                [rng.randrange(1, p) for _ in range(rng.randrange(0, 4))] if p > 1 else []
                for p in mu.parts
            ]
            x = block_word_elem(4, words, offsets)
            lhs = tau_parabolic(mu, x)
            rhs = LPoly.one(1)
            for word, p in zip(words, mu.parts):
                if p == 0:
                    continue
                rhs = rhs * markov_tau(t_from_word(p, word))
            assert lhs == rhs, (mu, words)


def uncached_tau_parabolic(mu, x):
    """The block-product trace, computing markov_tau afresh for every block
    of every term."""
    total = LPoly.zero(x.order)
    for w, c in x.terms.items():
        val = c
        for wa in block_split(w, mu):
            if wa:
                val = val * markov_tau(HeckeElem.basis(len(wa), wa, x.order))
        total = total + val
    return total


def test_tau_parabolic_cached_equals_uncached():
    rng = random.Random(59)
    for order in (1, 3):
        hecke._block_tau.cache_clear()
        for mu in all_compositions(3, 4):
            offsets = [sum(mu.parts[:a]) for a in range(3)]
            x = HeckeElem.zero(4, order)
            for _ in range(3):
                term = HeckeElem.one(4, order)
                for p, off in zip(mu.parts, offsets):
                    for _ in range(rng.randrange(0, 4) if p > 1 else 0):
                        term = term.mul_gen(rng.randrange(1, p) + off, rng.choice((1, -1)))
                x = x + term.scale(LPoly.monomial(order, rng.randrange(1, 4), rng.randrange(-1, 2)))
            first = tau_parabolic(mu, x)
            kept = dict(first.terms)
            again = tau_parabolic(mu, x)
            assert first == uncached_tau_parabolic(mu, x), (order, mu)
            assert again == first
            assert first.terms == kept
        assert hecke._block_tau.cache_info().hits > 0
    # the cached block traces were not mutated by the products built on them
    for n in range(1, 5):
        for w in itertools.permutations(range(1, n + 1)):
            assert hecke._block_tau(w, 3) == markov_tau(HeckeElem.basis(n, w, 3))
