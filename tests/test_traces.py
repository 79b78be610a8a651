"""Markov traces on the framed algebra: basic family, symmetrizing form,
subset-weighted reconstructions."""

import itertools
import random
from fractions import Fraction

import pytest

from yokohecke import traces
from yokohecke.exactnum import Cyclo, LPoly
from yokohecke.hecke import HeckeElem, loop_factor, markov_tau, tau_parabolic
from yokohecke.isomap import block_traces, psi
from yokohecke.permcomp import Composition, all_comp0, all_compositions, identity
from yokohecke.traces import (
    TraceSpec,
    all_basic_specs,
    basic_spec,
    esystem_c,
    format_trace_spec,
    jl_spec,
    rho,
    rho_blocks,
    semisimple_at,
    symmetrizing_rho,
    symmetrizing_tilde,
)
from yokohecke.yokonuma import YElem, idempotent_Emu, y_mul

from test_yokonuma import random_framed_combination, random_yelem


# ---------------------------------------------------------------------------
# the basic family
# ---------------------------------------------------------------------------


def test_all_basic_specs_enumeration():
    for d in (1, 2, 3):
        specs = all_basic_specs(d)
        assert len(specs) == 2**d - 1
        supports = [next(iter(s.alphas)).parts for s in specs]
        assert supports == sorted(supports)


def test_trace_spec_validation():
    with pytest.raises(ValueError):
        TraceSpec(2, {Composition((2, 0)): LPoly.one(2)})  # parts must be 0/1
    with pytest.raises(ValueError):
        TraceSpec(2, {Composition((0, 0)): LPoly.one(2)})  # empty support
    with pytest.raises(ValueError, match=r"support \(1\) has 1 parts, expected 2"):
        TraceSpec(2, {Composition((1,)): LPoly.one(1)})  # wrong d
    with pytest.raises(ValueError, match="cyclotomic order d"):
        TraceSpec(2, {Composition((1, 0)): LPoly.one(3)})  # weight at the wrong order
    # zero weights are pruned
    spec = TraceSpec(
        2,
        {
            Composition((1, 0)): LPoly.zero(2),
            Composition((0, 1)): LPoly.one(2),
        },
    )
    assert set(spec.alphas) == {Composition((0, 1))}
    assert Composition((1, 0)) not in spec.alphas


def test_weigh_multiplies_each_block_by_its_support_weight():
    d = 2
    alpha = LPoly.var(d, "u").scale(Cyclo.zeta(d))
    spec = TraceSpec(d, {Composition((1, 1)): alpha, Composition((1, 0)): LPoly.one(d)})
    value = LPoly.var(d, "v") + LPoly.one(d)
    per_block = {
        Composition((2, 1)): value,
        Composition((1, 2)): LPoly.zero(d),  # a zero value leaves no key
        Composition((3, 0)): value,
    }
    assert spec.weigh(per_block) == {
        Composition((2, 1)): value * alpha,
        Composition((3, 0)): value,
    }
    assert spec.weigh({}) == {}


def test_rho_identity_value():
    # rho(1) = sum over compositions mu with base(mu) = mu0 of
    # multiplicity(mu) * loop^{n - (number of nonzero parts)}
    loop = None
    for d in (1, 2, 3):
        loop = loop_factor(d)
        for n in (1, 2, 3):
            for spec in all_basic_specs(d):
                mu0 = next(iter(spec.alphas))
                expected = LPoly.zero(d)
                for mu in all_compositions(d, n):
                    if mu.base() != mu0:
                        continue
                    nonzero = sum(1 for p in mu.parts if p)
                    expected = expected + (loop ** (n - nonzero)).scale(
                        Fraction(mu.multiplicity())
                    )
                assert rho(spec, YElem.one(d, n)) == expected, (d, n, mu0)


def test_rho_blocks_sum_to_rho():
    rng = random.Random(3)
    for d in (2, 3):
        spec = all_basic_specs(d)[-1]
        for _ in range(5):
            x = random_yelem(rng, d, 3)
            parts = rho_blocks(spec, x)
            total = LPoly.zero(d)
            for val in parts.values():
                total = total + val
            assert total == rho(spec, x)


def test_per_block_maps_keep_only_nonzero_blocks():
    # like a Sparse: a block whose trace or contribution is zero is absent;
    # the central idempotent of one composition keeps only that block
    rng = random.Random(23)
    absent = 0
    for d in (1, 2, 3):
        for n in (2, 3):
            mu1 = rng.choice(all_compositions(d, n))
            xs = [
                random_yelem(rng, d, n),
                random_framed_combination(rng, d, n, terms=3),
                y_mul(idempotent_Emu(mu1), random_yelem(rng, d, n)),
            ]
            for x in xs:
                full = block_traces(x)
                assert all(full.values()), (d, n)
                absent += len(all_compositions(d, n)) - len(full)
                for spec in all_basic_specs(d):
                    assert all(block_traces(x, spec.alphas).values()), (d, n, spec)
                    assert all(rho_blocks(spec, x).values()), (d, n, spec)
    assert absent
    # t_1 - t_2 reaches the block (1,1) of Y(2,2), and its diagonal cancels
    x = YElem.t_elem(2, 2, 1) - YElem.t_elem(2, 2, 2)
    assert block_traces(x) == {}


def test_rho_blocks_traces_only_weighted_blocks(monkeypatch):
    traced = []
    real_tau = traces.tau_parabolic

    def counting(mu, x):
        traced.append(mu)
        return real_tau(mu, x)

    monkeypatch.setattr(traces, "tau_parabolic", counting)
    rng = random.Random(19)
    weighted = skipped = 0
    for spec in all_basic_specs(3):
        mu0 = next(iter(spec.alphas))
        x = random_yelem(rng, 3, 3)
        blocks = all_compositions(3, 3)
        traced.clear()
        out = rho_blocks(spec, x)
        assert traced == list(block_traces(x, spec.alphas))
        assert all(mu.base() == mu0 for mu in traced)
        assert all(mu.base() == mu0 for mu in out)
        weighted += len(traced)
        skipped += len(blocks) - len(traced)
    assert weighted and skipped


def full_transform_traces(x):
    """Tr psi(x)_mu for every block of the whole psi(x), summed from the
    diagonal of each matrix: the change of basis over every character."""
    M = psi(x)
    out = {}
    for mu in all_compositions(x.d, x.n):
        tr = HeckeElem.zero(x.n, x.d)
        if mu in M.blocks:
            for k, row in enumerate(M.block(mu)):
                tr = tr + row[k]
        out[mu] = tr
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_rho_matches_the_full_transform(d):
    rng = random.Random(90 + d)
    for n in (1, 2, 3, 4):
        x = random_framed_combination(rng, d, n)
        full = full_transform_traces(x)
        subset = rng.sample(range(1, d + 1), rng.randrange(1, d + 1))
        for spec in all_basic_specs(d) + [jl_spec(d, subset)]:
            expected = {
                mu: tau_parabolic(mu, tr) * spec.alphas.get(mu.base(), LPoly.zero(d))
                for mu, tr in full.items()
            }
            expected = {mu: val for mu, val in expected.items() if val}
            assert rho_blocks(spec, x) == expected, (n, spec)
            total = LPoly.zero(d)
            for val in expected.values():
                total = total + val
            assert rho(spec, x) == total, (n, spec)
        idn = identity(n)
        sym = LPoly.zero(d)
        for tr in full.values():
            sym = sym + tr.coefficient(idn)
        assert symmetrizing_rho(x) == sym == symmetrizing_tilde(x), n


def test_rho_rejects_an_element_of_another_d():
    spec = basic_spec(Composition((1, 1, 1)))
    for x in (YElem.one(2, 2), YElem.one(4, 2)):
        with pytest.raises(ValueError, match="cannot evaluate"):
            rho(spec, x)


def test_rho_is_linear():
    rng = random.Random(5)
    d = 2
    spec = basic_spec(Composition((1, 1)))
    for _ in range(6):
        x, y = random_yelem(rng, d, 3), random_yelem(rng, d, 3)
        assert rho(spec, x + y) == rho(spec, x) + rho(spec, y)


def test_rho_centrality():
    rng = random.Random(7)
    for d in (1, 2, 3):
        for spec in all_basic_specs(d):
            for _ in range(6):
                x, y = random_yelem(rng, d, 3), random_yelem(rng, d, 3)
                assert rho(spec, y_mul(x, y)) == rho(spec, y_mul(y, x))


def test_rho_markov_stabilization_both_signs():
    # rho(x g_n) = rho(x g_n^{-1}) = rho(x) for x from the lower level
    rng = random.Random(9)
    for d in (1, 2, 3):
        for spec in all_basic_specs(d):
            for n in (2, 3):
                for _ in range(4):
                    x = random_yelem(rng, d, n)
                    up = x.extend(n + 1)
                    assert rho(spec, up.mul_g(n)) == rho(spec, x)
                    assert rho(spec, up.mul_g(n, -1)) == rho(spec, x)


def test_rho_absorbs_e_next_to_stabilizing_generator():
    # rho(x e_n g_n^{+-1}) = rho(x g_n^{+-1}); this is what makes the braid
    # substitution with the gamma factors yield a link invariant
    rng = random.Random(11)
    for d in (2, 3):
        for spec in all_basic_specs(d):
            for n in (2, 3):
                for _ in range(3):
                    x = random_yelem(rng, d, n).extend(n + 1)
                    assert rho(spec, x.mul_e(n).mul_g(n)) == rho(spec, x.mul_g(n))
                    assert rho(spec, x.mul_e(n).mul_g(n, -1)) == rho(
                        spec, x.mul_g(n, -1)
                    )


def test_rho_at_d1_is_markov_tau():
    rng = random.Random(13)
    spec = basic_spec(Composition((1,)))
    for n in (2, 3):
        for _ in range(8):
            words = [
                [rng.randrange(1, n) for _ in range(rng.randrange(0, 5))]
                for _ in range(2)
            ]
            ye = YElem.one(1, n)
            he = HeckeElem.one(n)
            for word in words:
                for i in word:
                    ye = ye.mul_g(i)
                    he = he.mul_gen(i)
            assert rho(spec, ye) == markov_tau(he)


def test_rho_framing_moment_at_level_one():
    # on Y_{d,1} a singleton-support trace evaluates t_1^b at its root of
    # unity; wider supports cannot be reached by a one-letter composition
    # and give 0
    for d in (2, 3, 4):
        for spec in all_basic_specs(d):
            mu0 = next(iter(spec.alphas))
            support = [a for a, p in enumerate(mu0.parts, start=1) if p]
            for b in range(d):
                x = YElem.one(d, 1).mul_t(1, b)
                got = rho(spec, x)
                if len(support) == 1:
                    expected = Cyclo.zeta(d, (support[0] - 1) * b)
                else:
                    expected = Cyclo.zero(d)
                assert got.constant_value() == expected, (d, mu0, b)


# ---------------------------------------------------------------------------
# the symmetrizing form
# ---------------------------------------------------------------------------


def test_symmetrizing_forms_agree_on_full_basis():
    from yokohecke.permcomp import reduced_word

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
                    assert symmetrizing_rho(x) == symmetrizing_tilde(x), (d, n)


def test_symmetrizing_value_on_one():
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            expected = LPoly.const(d, d**n)
            assert symmetrizing_rho(YElem.one(d, n)) == expected
            assert symmetrizing_tilde(YElem.one(d, n)) == expected


# ---------------------------------------------------------------------------
# subset power sums and the weighted trace
# ---------------------------------------------------------------------------


def test_esystem_c_golden_values():
    # full subset: power sums of all d-th roots vanish except b = 0
    for d in (2, 3, 4):
        for b in range(1, d):
            assert esystem_c(d, range(1, d + 1), b) == Cyclo.zero(d)
        assert esystem_c(d, range(1, d + 1), 0) == Cyclo.one(d)
    # singleton {a}: c_b is the b-th power of that root
    assert esystem_c(2, [2], 1) == Cyclo.from_rat(2, -1)
    assert esystem_c(4, [3], 1) == Cyclo.zeta(4, 2)
    # {1,3} inside d=4: roots 1 and -1
    assert esystem_c(4, [1, 3], 1) == Cyclo.zero(4)
    assert esystem_c(4, [1, 3], 2) == Cyclo.one(4)


def test_esystem_c_is_periodic_and_normalized():
    for d in (2, 3, 4):
        subsets = [
            s
            for r in range(1, d + 1)
            for s in itertools.combinations(range(1, d + 1), r)
        ]
        for S in subsets:
            assert esystem_c(d, S, 0) == Cyclo.one(d)
            for b in range(d):
                assert esystem_c(d, S, b) == esystem_c(d, S, b + d)


def test_jl_spec_weights():
    d = 2
    spec = jl_spec(d, [1, 2])
    loop = loop_factor(d)
    half = Fraction(1, 2)
    assert spec.alphas[Composition((1, 0))] == LPoly.one(d).scale(half)
    assert spec.alphas[Composition((0, 1))] == LPoly.one(d).scale(half)
    assert spec.alphas[Composition((1, 1))] == loop.scale(half)
    # supports sticking out of S vanish
    spec13 = jl_spec(3, [2])
    assert spec13.alphas[Composition((0, 1, 0))] == LPoly.one(3)
    assert Composition((1, 1, 0)) not in spec13.alphas


def test_jl_spec_builds_only_subsets_of_S():
    # 2^30 - 1 supports exist at d = 30; only the 3 inside S are built
    spec = jl_spec(30, {1, 2})
    assert len(spec.alphas) == 3
    assert {mu0.parts[:2] for mu0 in spec.alphas} == {(1, 0), (0, 1), (1, 1)}
    assert all(not any(mu0.parts[2:]) for mu0 in spec.alphas)
    # at small d, the same weights as a walk over every support
    for d in (3, 4):
        for S in ([1], [2, 3], [1, 3], list(range(1, d + 1))):
            expected = {}
            for mu0 in all_comp0(d):
                support = {a for a, p in enumerate(mu0.parts, start=1) if p}
                if support <= set(S):
                    loop = loop_factor(d) ** (len(support) - 1)
                    expected[mu0] = loop.scale(Fraction(1, len(S)))
            assert jl_spec(d, S).alphas == expected


def test_jl_moments_match_power_sums():
    # at one strand the weighted trace returns the subset power sums
    for d in (1, 2, 3):
        subsets = [
            s
            for r in range(1, d + 1)
            for s in itertools.combinations(range(1, d + 1), r)
        ]
        for S in subsets:
            spec = jl_spec(d, S)
            for b in range(d):
                x = YElem.one(d, 1).mul_t(1, b)
                assert rho(spec, x).constant_value() == esystem_c(d, S, b)


def test_jl_subset_validation():
    with pytest.raises(ValueError):
        jl_spec(2, [])
    with pytest.raises(ValueError):
        jl_spec(2, [3])
    with pytest.raises(ValueError):
        esystem_c(3, [0], 1)


# ---------------------------------------------------------------------------
# semisimplicity of the specialized Hecke algebra
# ---------------------------------------------------------------------------


def test_semisimple_generic_and_rational():
    assert semisimple_at(5) is True
    assert semisimple_at(4, q=1) is True
    assert semisimple_at(6, q=Fraction(1, 2)) is True
    assert semisimple_at(3, q=2) is True


def test_semisimple_fails_at_roots_of_unity():
    # u = i makes 1 + u^2 = 0, killing level 2
    assert semisimple_at(2, q=Cyclo.zeta(4)) is False
    assert semisimple_at(2, q=1j) is False
    assert semisimple_at(3, q=Cyclo.zeta(3)) is False  # 1 + q^2 + q^4 = 0
    assert semisimple_at(2, q=Cyclo.zeta(3)) is True


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_format_trace_spec_lines():
    spec = jl_spec(2, [1, 2])
    lines = format_trace_spec(spec).splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("mu0 = (0,1) ; alpha = ")
    assert lines[1].startswith("mu0 = (1,0) ; alpha = ")
    half_loop = loop_factor(2).scale(Fraction(1, 2))
    assert lines[2] == f"mu0 = (1,1) ; alpha = {half_loop.text()}"


def test_format_basic_spec_golden():
    spec = basic_spec(Composition((1, 0)))
    assert format_trace_spec(spec) == "mu0 = (1,0) ; alpha = 1"
