"""End-to-end acceptance checks.

Each test covers one numbered criterion and records exactly one PASS/FAIL
line through the `acceptance` fixture; the lines are printed as a summary
block at the end of the pytest run.
"""

import cmath
import itertools
import random
import time

from yokohecke._golden import golden_checks
from yokohecke.exactnum import LPoly
from yokohecke.hecke import (
    HeckeElem,
    h_mul,
    loop_factor,
    markov_tau,
    tau_parabolic,
)
from yokohecke.links import (
    component_count,
    homflypt,
    invariant_contributions,
    invariant_gamma,
    jl_numeric,
    parse_word,
)
from yokohecke.permcomp import Composition, all_compositions, reduced_word
from yokohecke.traces import (
    all_basic_specs,
    basic_spec,
    esystem_c,
    jl_spec,
    rho,
    symmetrizing_rho,
    symmetrizing_tilde,
)
from yokohecke.verify import suite_iso, suite_markov
from yokohecke.yokonuma import YElem

from test_hecke import t_from_word, t_inverse

PAIR_A = "1 1 -2 -3 -2 1 1 1 -2 3 -2 1"  # closes to L10a46
PAIR_B = "-1 2 2 2 -1 -3 2 2 2 -3"  # closes to L10a110


def expected_pair_polynomial():
    """2 (u g)^-4 (2u^2 - u^4 + v^2)^2, built from the trefoil trace."""
    tref = markov_tau(t_from_word(2, (1, 1, 1))).as_order(2)
    return (tref * tref).shift(eu=-4, eg=-4).scale(2)


def test_criterion_01_pair_invariants_exact(acceptance):
    spec = basic_spec(Composition((1, 1)))
    expected = expected_pair_polynomial()
    t0 = time.perf_counter()
    a = invariant_gamma(parse_word(PAIR_A, 4, 2), spec)
    t_a = time.perf_counter() - t0
    t0 = time.perf_counter()
    b = invariant_gamma(parse_word(PAIR_B, 4, 2), spec)
    t_b = time.perf_counter() - t0
    ok = a == expected and b == expected and t_a < 10 and t_b < 10
    assert acceptance("01 four-strand pair: equal exact invariants", ok), (
        a.text(),
        b.text(),
        t_a,
        t_b,
    )


def test_criterion_02_pair_block_contributions(acceptance):
    spec = basic_spec(Composition((1, 1)))
    ca = invariant_contributions(parse_word(PAIR_A, 4, 2), spec)
    cb = invariant_contributions(parse_word(PAIR_B, 4, 2), spec)

    mid = t_from_word(3, (1, 1))
    mid = h_mul(mid, t_inverse(3, 2))
    mid = h_mul(mid, t_from_word(3, (1, 1, 1, 2, 1)))
    expected_a = markov_tau(mid).as_order(2).shift(eu=-4, eg=-4)
    tref = markov_tau(t_from_word(2, (1, 1, 1))).as_order(2)
    expected_b = (tref * tref).shift(eu=-4, eg=-4).scale(2)

    ok = (
        ca[Composition((3, 1))] == expected_a
        and ca[Composition((1, 3))] == expected_a
        and Composition((2, 2)) not in ca
        and cb[Composition((2, 2))] == expected_b
        and Composition((3, 1)) not in cb
        and Composition((1, 3)) not in cb
    )
    assert acceptance("02 four-strand pair: per-block contributions", ok)


def test_criterion_03_generator_matrix_images(acceptance):
    results = golden_checks()
    ok = len(results) == 10 and all(flag for _, flag, _ in results)
    assert acceptance("03 d=2 n=4 generator matrix images", ok), [
        (cid, detail) for cid, flag, detail in results if not flag
    ]


def test_criterion_04_isomorphism_suite(acceptance):
    t0 = time.perf_counter()
    failures = []
    for d in (2, 3):
        for n in (2, 3, 4):
            for cid, ok, detail in suite_iso(d, n, pairs=500, embed_samples=100):
                if not ok:
                    failures.append((cid, detail))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300
    assert acceptance("04 decomposition map: roundtrip/product/embedding", ok), (
        failures,
        elapsed,
    )


def test_criterion_05_markov_trace_suite(acceptance):
    failures = []
    for d in (1, 2, 3):
        for n in (2, 3):
            for cid, ok, detail in suite_markov(d, n):
                if not ok:
                    failures.append((cid, detail))
    assert acceptance("05 basic traces: centrality and Markov property", not failures), failures


def test_criterion_06_homflypt_consistency(acceptance):
    rng = random.Random(20240806)
    ok = True

    # singleton supports reproduce the 2-variable invariant
    for _ in range(60):
        n = rng.randrange(2, 7)
        length = rng.randrange(0, 11)
        text = " ".join(
            str(rng.choice((1, -1)) * rng.randrange(1, n)) for _ in range(length)
        )
        baseline = homflypt(parse_word(text, n, None))
        for d in (2, 3, 4):
            w = parse_word(text, n, d)
            for pos in range(d):
                mu0 = Composition(tuple(1 if a == pos else 0 for a in range(d)))
                if invariant_gamma(w, basic_spec(mu0)) != baseline.as_order(d):
                    ok = False

    # wider supports vanish on knots
    knots = 0
    while knots < 60:
        n = rng.randrange(2, 7)
        length = rng.randrange(1, 11)
        text = " ".join(
            str(rng.choice((1, -1)) * rng.randrange(1, n)) for _ in range(length)
        )
        if component_count(parse_word(text, n, None)) != 1:
            continue
        knots += 1
        for d, parts in ((2, (1, 1)), (3, (1, 1, 0)), (3, (1, 1, 1)),
                         (4, (0, 1, 0, 1)), (4, (1, 1, 1, 1))):
            w = parse_word(text, n, d)
            if not invariant_gamma(w, basic_spec(Composition(parts))).is_zero():
                ok = False

    # the positive trefoil, expanded by hand
    tref = homflypt(parse_word("1 1 1", 2, None))
    u2 = LPoly.var(1, "u", 2)
    v = LPoly.var(1, "v")
    if tref != u2.scale(2) - u2 * u2 + v * v:
        ok = False

    assert acceptance("06 singleton supports match 2-variable invariant", ok)


def test_criterion_07_symmetrizing_forms(acceptance):
    ok = True
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            perms = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
            for framing in itertools.product(range(d), repeat=n):
                for w in perms:
                    x = YElem.one(d, n)
                    for j, k in enumerate(framing, start=1):
                        x = x.mul_t(j, k)
                    for i in reduced_word(w):
                        x = x.mul_gtilde(i)
                    if symmetrizing_rho(x) != symmetrizing_tilde(x):
                        ok = False
    assert acceptance("07 symmetrizing form equals its matrix form", ok)


def test_criterion_08_tau_formulas(acceptance):
    ok = True
    loop = loop_factor(1)
    for n in range(1, 7):
        if markov_tau(HeckeElem.one(n)) != loop ** (n - 1):
            ok = False

    rng = random.Random(20240808)
    for mu in all_compositions(3, 4):
        offsets = []
        acc = 0
        for p in mu.parts:
            offsets.append(acc)
            acc += p
        for _ in range(10):
            words = [
                [rng.randrange(1, p) for _ in range(rng.randrange(0, 4))]
                if p > 1
                else []
                for p in mu.parts
            ]
            x = HeckeElem.one(4)
            for word, off in zip(words, offsets):
                for i in word:
                    x = x.mul_gen(i + off)
            lhs = tau_parabolic(mu, x)
            rhs = LPoly.one(1)
            for word, p in zip(words, mu.parts):
                if p:
                    rhs = rhs * markov_tau(t_from_word(p, word))
            if lhs != rhs:
                ok = False
    assert acceptance("08 trace of identity and block product formula", ok)


def test_criterion_09_jl_reconstruction(acceptance):
    ok = True
    for d in (1, 2, 3, 4):
        for r in range(1, d + 1):
            for S in itertools.combinations(range(1, d + 1), r):
                spec = jl_spec(d, S)
                for b in range(d):
                    x = YElem.one(d, 1).mul_t(1, b)
                    if rho(spec, x) != LPoly.const(d, esystem_c(d, S, b)):
                        ok = False

    rng = random.Random(20240809)
    unknot = parse_word("", 1, 2)
    checked = 0
    while checked < 20:
        q = cmath.exp(2j * cmath.pi * rng.random()) * (0.6 + 0.8 * rng.random())
        z = cmath.exp(2j * cmath.pi * rng.random()) * (0.6 + 0.8 * rng.random())
        try:
            val = jl_numeric(unknot, 2, [1, 2], q, z, branch=rng.choice((1, -1)))
        except ValueError:
            continue
        checked += 1
        if abs(val - 1) > 1e-9:
            ok = False
    assert acceptance("09 subset power sums and numeric unknot", ok)


def test_criterion_10_markov_move_invariance(acceptance):
    rng = random.Random(20240810)
    ok = True
    # 50 words on 2-3 strands, then 40 on 5-6 strands, then 20 on 7 strands
    # (stabilized to 8), continuing the same stream
    for n_range in [(2, 4)] * 50 + [(5, 7)] * 40 + [(7, 8)] * 20:
        d = rng.randrange(1, 4)
        n = rng.randrange(*n_range)
        parts = []
        for _ in range(rng.randrange(1, 7)):
            if d > 1 and rng.random() < 0.3:
                parts.append(f"t{rng.randrange(1, n + 1)}^{rng.randrange(1, d)}")
            else:
                i = rng.randrange(1, n)
                parts.append(str(i if rng.random() < 0.5 else -i))
        text = " ".join(parts)
        spec = rng.choice(all_basic_specs(d))
        w = parse_word(text, n, d)
        val = invariant_gamma(w, spec)

        i = rng.randrange(1, n)
        conj = parse_word(f"{i} {text} {-i}", n, d)
        if invariant_gamma(conj, spec) != val:
            ok = False
        if invariant_gamma(parse_word(f"{text} {n}", n + 1, d), spec) != val:
            ok = False
        if invariant_gamma(parse_word(f"{text} {-n}", n + 1, d), spec) != val:
            ok = False
    assert acceptance("10 conjugation and stabilization invariance", ok)
