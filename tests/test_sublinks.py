"""Three routes to the framed invariants must agree.

* the sublink route (`invariant_gamma`, `invariant_contributions`,
  `basic_invariants`): colourings of the components and the 2-variable
  invariants of the monochromatic sub-braids;
* the Y(d,n) route: `rho` / `rho_blocks` of `delta_gamma`, through psi;
* for unframed words and singleton supports, `homflypt`.

Words are random framed words (mixed signs, about 20 % `tj^k` tokens) for
d in 1..4 and n <= 4, drawn from seeded generators.
"""

import random

import pytest

from yokohecke import isomap
from yokohecke.exactnum import Cyclo, LPoly
from yokohecke.isomap import block_traces
from yokohecke.links import (
    basic_invariants,
    delta_gamma,
    homflypt,
    invariant_contributions,
    invariant_gamma,
    jl_invariant,
    parse_word,
)
from yokohecke.permcomp import Composition, all_comp0
from yokohecke.traces import TraceSpec, all_basic_specs, basic_spec, jl_spec, rho, rho_blocks

# (d, n, words): the oracle's cost grows like d^n * n!, so the largest
# levels get fewer words
LEVELS = [
    (1, 1, 3), (1, 3, 6), (1, 4, 6),
    (2, 1, 3), (2, 2, 8), (2, 3, 8), (2, 4, 6),
    (3, 1, 3), (3, 2, 8), (3, 3, 6), (3, 4, 3),
    (4, 1, 3), (4, 2, 6), (4, 3, 3), (4, 4, 1),
]


def random_word(rng, d, n, framed=True):
    parts = []
    for _ in range(rng.randrange(0, 11)):
        if framed and (n == 1 or rng.random() < 0.2):
            parts.append(f"t{rng.randrange(1, n + 1)}^{rng.randrange(1, d + 2)}")
        elif n > 1:
            i = rng.randrange(1, n)
            parts.append(str(i if rng.random() < 0.5 else -i))
    return " ".join(parts)


def random_subset(rng, d):
    return sorted(rng.sample(range(1, d + 1), rng.randrange(1, d + 1)))


@pytest.fixture
def psi_once(monkeypatch):
    """`rho` and `rho_blocks` decompose their argument on every call; serve
    repeated calls on the same image and supports from one decomposition,
    so each spec still reads only the blocks of its own supports."""
    built = {}

    def cached(x, supports=None):
        key = (id(x), None if supports is None else frozenset(supports))
        if key not in built:
            if any(held is not x for held, _ in built.values()):
                built.clear()
            built[key] = (x, block_traces(x, supports))  # holding x keeps its id unique
        return built[key][1]

    # `rho_blocks` imports `block_traces` from `isomap` when it runs
    monkeypatch.setattr(isomap, "block_traces", cached)


@pytest.mark.parametrize("d,n,count", LEVELS)
def test_sublink_route_matches_the_yokonuma_route(psi_once, d, n, count):
    rng = random.Random(1000 * d + n)
    for _ in range(count):
        text = random_word(rng, d, n)
        w = parse_word(text, n, d)
        x = delta_gamma(w, d)
        specs = all_basic_specs(d) + [jl_spec(d, random_subset(rng, d))]
        for spec in specs:
            assert invariant_gamma(w, spec) == rho(spec, x), (text, spec)
            fast = invariant_contributions(w, spec)
            slow = rho_blocks(spec, x)
            assert fast == slow, (text, spec)
            assert all(fast.values()) and all(slow.values()), text
        basics = basic_invariants(w, d)
        assert list(basics) == [next(iter(s.alphas)) for s in all_basic_specs(d)]
        for spec in all_basic_specs(d):
            mu0 = next(iter(spec.alphas))
            assert basics[mu0] == rho(spec, x), (text, mu0)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_singleton_supports_give_homflypt(d):
    rng = random.Random(2000 + d)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            text = random_word(rng, d, n, framed=False)
            expected = homflypt(parse_word(text, n, None)).as_order(d)
            w = parse_word(text, n, d)
            x = delta_gamma(w, d) if n <= 3 else None
            for a in range(d):
                spec = basic_spec(Composition(tuple(int(b == a) for b in range(d))))
                assert invariant_gamma(w, spec) == expected, (text, a)
                if x is not None:
                    assert rho(spec, x) == expected, (text, a)


def test_supports_wider_than_the_components_vanish():
    # the trefoil is a knot: one component, one colour per colouring
    w = parse_word("1 1 1 t1^1", 2, 3)
    assert invariant_gamma(w, basic_spec(Composition((1, 1, 0)))).is_zero()
    assert invariant_contributions(w, basic_spec(Composition((1, 1, 1)))) == {}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_invariant_contributions_keep_only_nonzero_blocks(d):
    rng = random.Random(3000 + d)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            w = parse_word(random_word(rng, d, n), n, d)
            for spec in all_basic_specs(d) + [jl_spec(d, random_subset(rng, d))]:
                assert all(invariant_contributions(w, spec).values()), (str(w), spec)


def test_contributions_at_large_d_build_only_the_reached_block():
    # one colour per colouring of a knot: only the block (5, 0, ..., 0) is
    # reached, out of the C(34, 29) = 278,256 compositions of 5 into 30 parts
    w = parse_word("1 2 3 4", 5, 30)
    spec = basic_spec(Composition((1,) + (0,) * 29))
    contributions = invariant_contributions(w, spec)
    assert list(contributions) == [Composition((5,) + (0,) * 29)]
    assert contributions[Composition((5,) + (0,) * 29)] == invariant_gamma(w, spec)


def test_jl_invariant_of_a_small_subset_at_large_d():
    # the subsets of S = {1, 2} are the only supports, whatever d is
    w = parse_word("1 1 1", 2, 30)
    expected = homflypt(parse_word("1 1 1", 2, None)).as_order(30)
    assert jl_invariant(w, 30, {1, 2}) == expected  # two halves of one colour


def random_weight(rng, d):
    """A nonzero order-d Laurent polynomial with a few small terms, each a
    small integer times a power of zeta_d."""
    while True:
        weight = LPoly.sum(d, (
            LPoly.monomial(d, rng.choice((-2, -1, 1, 3)), *(rng.randrange(-2, 3) for _ in "uvg"))
            .scale(Cyclo.zeta(d, rng.randrange(d)))
            for _ in range(rng.randrange(1, 4))
        ))
        if weight:
            return weight


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_weighted_supports_sum_their_basic_invariants(d):
    # a general trace: random supports with non-unit weights; each support
    # is weighed once, so the invariant is the weighted sum of the basic ones
    rng = random.Random(4000 + d)
    supports = all_comp0(d)
    for n in (1, 2, 3, 4):
        for _ in range(3 if n <= 3 else 2):
            text = random_word(rng, d, n)
            w = parse_word(text, n, d)
            chosen = rng.sample(supports, rng.randrange(1, len(supports) + 1))
            spec = TraceSpec(d, {mu0: random_weight(rng, d) for mu0 in chosen})
            basics = basic_invariants(w, d)
            expected = LPoly.sum(d, (alpha * basics[mu0] for mu0, alpha in spec.alphas.items()))
            value = invariant_gamma(w, spec)
            assert value == expected, (text, spec)
            if n <= 3:
                assert value == rho(spec, delta_gamma(w, d)), (text, spec)
