"""Permutations in one-line notation, compositions, characters, cosets."""

import itertools
import re
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yokohecke.exactnum import LPoly, root_power
from yokohecke.hecke import HeckeElem, tau_word
from yokohecke.isomap import psi_from_e_coeffs
from yokohecke.links import jl_invariant, parse_word
from yokohecke.permcomp import (
    Composition,
    act,
    all_comp0,
    all_compositions,
    block_split,
    chi_one,
    comp_of,
    compose,
    cycles,
    extend,
    identity,
    in_young,
    inverse,
    length,
    min_coset_rep,
    orbit,
    reduced_word,
    s_perm,
)
from yokohecke.traces import esystem_c, jl_spec
from yokohecke.yokonuma import YElem, fixed_E_coeffs, idempotent_E


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def apply_perm(w, i):
    """The image w(i) of a one-line permutation."""
    return w[i - 1]


def from_word(n, word):
    """Multiply out a word in the s_i, left to right."""
    w = identity(n)
    for i in word:
        w = compose(w, s_perm(n, i))
    return w


def inversions(w):
    n = len(w)
    return sum(
        1
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if apply_perm(w, i) > apply_perm(w, j)
    )


# ---------------------------------------------------------------------------
# the group operations
# ---------------------------------------------------------------------------


def test_compose_convention():
    # (v . w)(i) = v(w(i)); s_2 s_1 sends 1 -> 2 -> 3
    s1, s2 = s_perm(3, 1), s_perm(3, 2)
    assert compose(s2, s1) == (3, 1, 2)
    assert compose(s1, s2) == (2, 3, 1)


def test_inverse_and_identity():
    for n in range(1, 6):
        e = identity(n)
        for w in all_perms(n):
            assert compose(w, inverse(w)) == e
            assert compose(inverse(w), w) == e


def test_length_is_inversion_count():
    for n in range(1, 6):
        for w in all_perms(n):
            assert length(w) == inversions(w)


def test_reduced_word_round_trip_and_length():
    for n in range(1, 6):
        for w in all_perms(n):
            word = reduced_word(w)
            assert from_word(n, word) == w
            assert len(word) == length(w)


def test_reduced_word_is_lex_smallest():
    # among all reduced words, ours must be the lexicographically smallest;
    # brute-force all minimal-length generator words for n <= 4
    for n in range(1, 5):
        for w in all_perms(n):
            k = length(w)
            if k > 5:
                continue
            best = None
            for word in itertools.product(range(1, n), repeat=k):
                if from_word(n, word) == w:
                    if best is None or word < best:
                        best = word
            assert reduced_word(w) == (best or ())


def test_extend_restrict():
    w = (3, 1, 2)
    assert extend(w, 5) == (3, 1, 2, 4, 5)


def test_cycles():
    assert cycles((2, 4, 3, 1)) == [(1, 2, 4), (3,)]
    assert cycles(identity(3)) == [(1,), (2,), (3,)]


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=50, deadline=None)
def test_compose_associative(n, data):
    perms = all_perms(n)
    u = data.draw(st.sampled_from(perms))
    v = data.draw(st.sampled_from(perms))
    w = data.draw(st.sampled_from(perms))
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


def test_all_compositions_count():
    # weak compositions of n into d parts: C(n+d-1, d-1)
    for d in range(1, 5):
        for n in range(0, 6):
            assert len(all_compositions(d, n)) == comb(n + d - 1, d - 1)


def test_all_compositions_ascend_without_a_sort():
    for d in range(1, 6):
        for n in range(0, 7):
            parts = [mu.parts for mu in all_compositions(d, n)]
            assert all(a < b for a, b in zip(parts, parts[1:])), (d, n)


def test_all_comp0():
    for d in range(1, 5):
        comps = all_comp0(d)
        assert len(comps) == 2**d - 1
        assert all(set(mu.parts) <= {0, 1} and mu.n > 0 for mu in comps)
        assert comps == sorted(comps, key=lambda mu: mu.parts)


def test_composition_base_and_multiplicity():
    mu = Composition((3, 0, 1))
    assert mu.base() == Composition((1, 0, 1))
    assert mu.letters() == frozenset({1, 3})
    # multiplicity: n! / prod(parts!)
    assert mu.multiplicity() == factorial(4) // (factorial(3) * factorial(1))
    assert Composition((2, 2)).multiplicity() == 6
    with pytest.raises(ValueError, match=r"negative part in \(1, -1\)"):
        Composition((1, -1))


# ---------------------------------------------------------------------------
# characters and the place action
# ---------------------------------------------------------------------------


def test_act_is_left_action():
    d, n = 3, 4
    chars = [tuple(c) for c in itertools.product(range(1, d + 1), repeat=n)]
    for v in all_perms(n):
        for w in all_perms(n)[:8]:
            for chi in chars[:10]:
                assert act(compose(v, w), chi) == act(v, act(w, chi))


def test_act_example():
    # w moves position j to w(j); the letter follows its place
    w = (2, 3, 1)
    out = act(w, (1, 2, 2))
    assert out == (2, 1, 2)
    for j in (1, 2, 3):
        assert out[apply_perm(w, j) - 1] == (1, 2, 2)[j - 1]


def test_comp_of_and_orbit():
    mu = Composition((2, 1))
    orb = orbit(mu)
    assert len(orb) == mu.multiplicity()
    assert orb[0] == chi_one(mu)
    assert list(orb) == sorted(orb)  # orbit order is lexicographic order
    assert all(comp_of(chi, 3 if False else 2) for chi in orb)  # sanity: nonempty
    for chi in orb:
        assert comp_of(chi, 2) == mu


def test_orbit_matches_the_brute_force_enumeration():
    # the successor steps against every ordering of chi_one, deduplicated
    for d in range(1, 4):
        for n in range(0, 7):
            for mu in all_compositions(d, n):
                brute = tuple(sorted(set(itertools.permutations(chi_one(mu)))))
                assert orbit(mu) == brute, mu
    assert len(orbit(Composition((6, 6)))) == 924


def test_chi_one_blocks():
    assert chi_one(Composition((2, 0, 1))) == (1, 1, 3)
    assert chi_one(Composition((0, 3))) == (2, 2, 2)


def test_min_coset_rep_properties():
    # pi is the shortest permutation carrying chi_one(mu) to chi
    for mu in all_compositions(2, 4) + all_compositions(3, 3):
        base = chi_one(mu)
        for chi in orbit(mu):
            pi = min_coset_rep(chi, mu.d)
            assert act(pi, base) == chi
            others = [
                w
                for w in all_perms(mu.n)
                if act(w, base) == chi and length(w) < length(pi)
            ]
            assert not others, (chi, pi, others)


# ---------------------------------------------------------------------------
# Young subgroups
# ---------------------------------------------------------------------------


def test_young_members_and_in_young():
    mu = Composition((2, 2))
    for w in all_perms(4):
        assert in_young(w, mu) == all(apply_perm(w, i) <= 2 for i in (1, 2))
    assert sum(in_young(w, mu) for w in all_perms(4)) == 4  # 2! * 2!
    # a permutation of another size is never in the Young subgroup
    assert not in_young((1, 2), Composition((1, 1, 1)))
    assert not in_young((1, 2, 3), Composition((1, 1)))


def test_block_split_renumbers():
    mu = Composition((2, 2))
    w = (2, 1, 4, 3)
    assert block_split(w, mu) == [(2, 1), (2, 1)]
    assert block_split(identity(4), mu) == [(1, 2), (1, 2)]
    mu2 = Composition((0, 3, 1))
    w2 = (3, 1, 2, 4)
    assert block_split(w2, mu2) == [(), (3, 1, 2), (1,)]
    mu3 = Composition((2, 0, 0, 2))
    assert block_split((2, 1, 3, 4), mu3) == [(2, 1), (), (), (1, 2)]


# ---------------------------------------------------------------------------
# one owner per generator-step check: every step raises the same ValueError
# ---------------------------------------------------------------------------

def _step_cases():
    """Each generator step on 2 strands with a bool index, a float index, an
    out-of-range index and a float sign or power, and the text it must raise."""
    gens = {
        "s_perm": lambda i, sign: s_perm(2, i),
        "HeckeElem.gen": lambda i, sign: HeckeElem.gen(2, i),
        "YElem.mul_e": lambda i, sign: YElem.one(2, 2).mul_e(i),
    }
    signed = {
        "HeckeElem.mul_gen": lambda i, sign: HeckeElem.one(2).mul_gen(i, sign),
        "YElem.mul_g": lambda i, sign: YElem.one(2, 2).mul_g(i, sign),
        "YElem.mul_gtilde": lambda i, sign: YElem.one(2, 2).mul_gtilde(i, sign),
        "tau_word": lambda i, sign: tau_word(2, [(i, sign)]),
    }
    framings = {
        "YElem.mul_t": lambda j, power: YElem.one(2, 2).mul_t(j, power),
        "YElem.t_elem": lambda j, power: YElem.t_elem(2, 2, j, power),
    }
    cases = []
    for name, step in {**gens, **signed}.items():
        cases += [
            (name, step, (True, 1), "generator index must be an integer, got True"),
            (name, step, (1.5, 1), "generator index must be an integer, got 1.5"),
            (name, step, (2, 1), "generator index 2 out of range 1..1"),
        ]
        if name in signed:
            cases.append((name, step, (1, -1.0), "sign must be 1 or -1, got -1.0"))
    for name, step in framings.items():
        cases += [
            (name, step, (True, 1), "framing index True out of range for 2 strands"),
            (name, step, (1.5, 1), "framing index 1.5 out of range for 2 strands"),
            (name, step, (3, 1), "framing index 3 out of range for 2 strands"),
            (name, step, (1, 1.0), "framing power must be an integer, got 1.0"),
        ]
    return [
        pytest.param(step, args, text, id=f"{name}({args[0]},{args[1]})")
        for name, step, args, text in cases
    ]


@pytest.mark.parametrize("step, args, text", _step_cases())
def test_generator_steps_raise_the_owner_texts(step, args, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        step(*args)


# ---------------------------------------------------------------------------
# one owner for the letter check: every entry point raises comp_of's text
# ---------------------------------------------------------------------------

def _letter_cases():
    """Each entry point that takes letters, with a bool, a float, a str or an
    out-of-range int, and the letter and d of the text it must raise."""
    hopf = parse_word("1 1", 2, 2)
    one = LPoly.one(2)

    def after_one_is_cached():
        fixed_E_coeffs(YElem.one(2, 2), {1})
        fixed_E_coeffs(YElem.one(2, 2), {True})

    cases = [
        ("root_power-bool", lambda: root_power(3, True, 1), True, 3),
        ("comp_of-bool", lambda: comp_of((True, 2), 2), True, 2),
        ("jl_spec-bool", lambda: jl_spec(3, {True}), True, 3),
        ("fixed_E_coeffs-float", lambda: fixed_E_coeffs(YElem.one(2, 2), {1.5}), 1.5, 2),
        ("fixed_E_coeffs-bool-cached", after_one_is_cached, True, 2),
        ("idempotent_E-float", lambda: idempotent_E(2, (1.5, 2)), 1.5, 2),
        ("idempotent_E-range", lambda: idempotent_E(2, (3, 2)), 3, 2),
        ("root_power-float", lambda: root_power(3, 2.0, 1), 2.0, 3),
        ("esystem_c-float", lambda: esystem_c(3, [2.0], 1), 2.0, 3),
        ("min_coset_rep-float", lambda: min_coset_rep((1.5, 2), 2), 1.5, 2),
        ("psi_from_e_coeffs-float",
         lambda: psi_from_e_coeffs(2, 2, {((1.5, 2), (1, 2)): one}), 1.5, 2),
        ("jl_invariant-str", lambda: jl_invariant(hopf, 2, {"1"}), "1", 2),
        ("jl_spec-float", lambda: jl_spec(3, {1.5}), 1.5, 3),
        ("jl_invariant-range", lambda: jl_invariant(hopf, 2, {0, 1}), 0, 2),
    ]
    return [pytest.param(call, f"letter {a!r} out of range 1..{d}", id=name)
            for name, call, a, d in cases]


@pytest.mark.parametrize("call, text", _letter_cases())
def test_letters_raise_the_owner_text(call, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call()
