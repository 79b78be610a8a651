"""Braid words, closures, and the link invariants."""

import random
from pathlib import Path

import pytest

from yokohecke.exactnum import LPoly
from yokohecke.hecke import markov_tau
from yokohecke.links import (
    FramedBraidWord,
    component_count,
    delta_H,
    delta_gamma,
    homflypt,
    invariant_contributions,
    invariant_gamma,
    jl_invariant,
    jl_numeric,
    parse_word,
    underlying_perm,
)
from yokohecke.permcomp import Composition
from yokohecke.traces import TraceSpec, basic_spec, jl_spec
from yokohecke.yokonuma import YElem, y_mul

GOLDEN = Path(__file__).resolve().parent / "golden"
TREFOIL = "1 1 1"
PAIR_A = "1 1 -2 -3 -2 1 1 1 -2 3 -2 1"  # closes to L10a46
PAIR_B = "-1 2 2 2 -1 -3 2 2 2 -3"  # closes to L10a110


def random_word(rng, n, length, d=None, framed=False):
    parts = []
    for _ in range(length):
        if framed and rng.random() < 0.3:
            parts.append(f"t{rng.randrange(1, n + 1)}^{rng.randrange(1, (d or 3))}")
        else:
            i = rng.randrange(1, n)
            parts.append(str(i if rng.random() < 0.5 else -i))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing and word-level structure
# ---------------------------------------------------------------------------


def test_parse_word_tokens():
    w = parse_word("1 -2 t3^2 1", 4, 3)
    assert w.n == 4
    assert w.tokens == (
        ("sigma", 1, 1),
        ("sigma", 2, -1),
        ("frame", 3, 2),
        ("sigma", 1, 1),
    )
    assert w.is_framed


def test_parse_word_reduces_framings_mod_d():
    w = parse_word("t1^5", 2, 2)
    assert w.tokens == (("frame", 1, 1),)
    # a full twist reduces away entirely
    w0 = parse_word("t1^4 1", 3, 2)
    assert w0.tokens == (("sigma", 1, 1),)
    assert not w0.is_framed
    # without a modulus the exponent is kept as written
    raw = parse_word("t1^5", 2, None)
    assert raw.tokens == (("frame", 1, 5),)


def test_parse_word_errors():
    with pytest.raises(ValueError, match="crossing index 3 out of range for 3 strands"):
        parse_word("3", 3, 2)  # sigma_3 needs 4 strands
    with pytest.raises(ValueError):
        parse_word("0", 3, 2)
    with pytest.raises(ValueError):
        parse_word("t4^1", 3, 2)  # strand 4 absent
    with pytest.raises(ValueError, match="framing index 4 out of range for 3 strands"):
        parse_word("t4^2", 3, 2)  # reduces to t4^0 and is dropped after the check
    with pytest.raises(ValueError):
        parse_word("xyz", 3, 2)
    with pytest.raises(ValueError):
        parse_word("1", 1, 2)  # no crossings on one strand
    with pytest.raises(ValueError, match="strand count must be at least 1"):
        parse_word("", 0, 2)
    with pytest.raises(ValueError, match="order must be >= 1, got 0"):
        parse_word("1", 2, 0)


# The token language of `parse_word`: ASCII digits only, at most one sign,
# and a framing written `tJ^K` with J unsigned.  Words on 13 strands, d = 5.
ACCEPTED_TOKENS = {
    "1": ("sigma", 1, 1),
    "+1": ("sigma", 1, 1),
    "-12": ("sigma", 12, -1),
    "007": ("sigma", 7, 1),
    "t1^2": ("frame", 1, 2),
    "t1^+2": ("frame", 1, 2),
    "t1^-2": ("frame", 1, 3),
    "t01^002": ("frame", 1, 2),
}
MALFORMED_TOKENS = [
    "+", "-", "++1", "+-1", "1_0", "1.0", "\u0661", "\u00b2", "t", "t1", "t^1", "t1^",
    "t+1^1", "T1^1", "t\u0661^1", "t1^\u0662",
]


@pytest.mark.parametrize("raw, token", ACCEPTED_TOKENS.items())
def test_parse_word_accepts_the_pinned_tokens(raw, token):
    assert parse_word(raw, 13, 5).tokens == (token,)


@pytest.mark.parametrize("raw", MALFORMED_TOKENS)
def test_parse_word_rejects_the_pinned_tokens(raw):
    with pytest.raises(ValueError) as info:
        parse_word(raw, 13, 5)
    assert str(info.value) == f"malformed token {raw!r}"


@pytest.mark.parametrize("raw", ["0", "-0", "+000"])
def test_parse_word_rejects_a_zero_crossing(raw):
    with pytest.raises(ValueError) as info:
        parse_word(raw, 13, 5)
    assert str(info.value) == "crossing token 0 is not allowed"


@pytest.mark.parametrize(
    "token",
    [
        ("sigma", 1),
        ("sigma", 1, 2),
        ("frame", 1, "x"),
        ("twist", 1, 1),
        "x",
        ("sigma", "a", 1),
        ("sigma", 1.0, 1),
        ("sigma", True, 1),
        ("sigma", 1, True),
        ("frame", 1, True),
        ("frame", 1.0, 1),
        ("frame", 1, 1.0),
    ],
)
def test_framed_braid_word_rejects_malformed_tokens(token):
    with pytest.raises(ValueError, match="malformed token"):
        FramedBraidWord(3, (token,))


@pytest.mark.parametrize("n", ["3", 2.0, True, None])
def test_framed_braid_word_rejects_a_non_int_strand_count(n):
    with pytest.raises(ValueError, match="strand count must be an integer"):
        FramedBraidWord(n, ())


def test_value_types_keep_repr_equality_hash_and_immutability():
    def make():
        return (
            Composition((1, 0, 1)),
            FramedBraidWord(2, (("sigma", 1, 1),)),
            TraceSpec(2, {Composition((1, 0)): LPoly.one(2)}),
        )

    mu, word, spec = make()
    assert repr(mu) == "Composition(parts=(1, 0, 1))"
    assert repr(word) == "FramedBraidWord(n=2, tokens=(('sigma', 1, 1),))"
    assert repr(spec) == "TraceSpec(d=2, alphas={Composition(parts=(1, 0)): <LPoly d=2: 1>})"
    twins = make()
    for value, twin in zip((mu, word, spec), twins):
        assert value == twin and value is not twin
    assert (hash(mu), hash(word)) == (hash(twins[0]), hash(twins[1]))
    assert mu != Composition((1, 1, 0))
    assert word != FramedBraidWord(3, (("sigma", 1, 1),))
    assert spec != TraceSpec(2, {Composition((0, 1)): LPoly.one(2)})
    for value, field in ((mu, "parts"), (word, "n"), (word, "tokens"), (spec, "alphas")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(TypeError):
        hash(spec)  # its weights are a dict


def test_empty_word_is_identity_braid():
    w = parse_word("", 3, 2)
    assert w.tokens == ()
    assert underlying_perm(w) == (1, 2, 3)
    assert component_count(w) == 3


def test_underlying_perm_and_components():
    tref = parse_word(TREFOIL, 2, None)
    assert underlying_perm(tref) == (2, 1)
    assert component_count(tref) == 1
    pair_a = parse_word(PAIR_A, 4, 2)
    assert underlying_perm(pair_a) == (2, 4, 3, 1)  # the cycle (1,2,4)
    assert component_count(pair_a) == 2
    pair_b = parse_word(PAIR_B, 4, 2)
    assert component_count(pair_b) == 2
    # framings do not move strands
    framed = parse_word("t1^1 t2^1", 2, 2)
    assert underlying_perm(framed) == (1, 2)
    assert component_count(framed) == 2


# ---------------------------------------------------------------------------
# the substitutions
# ---------------------------------------------------------------------------


def test_delta_H_respects_braid_relations():
    a = delta_H(parse_word("1 2 1", 3, None))
    b = delta_H(parse_word("2 1 2", 3, None))
    assert a == b
    c = delta_H(parse_word("1 -1", 3, None))
    assert c == delta_H(parse_word("", 3, None))


def test_delta_H_rejects_framed_words():
    w = parse_word("t1^1 1", 2, None)
    with pytest.raises(ValueError):
        delta_H(w)


def test_delta_gamma_respects_braid_and_framing_relations():
    for d in (2, 3):
        a = delta_gamma(parse_word("1 2 1", 3, d), d)
        b = delta_gamma(parse_word("2 1 2", 3, d), d)
        assert a == b
        # inverse pairs cancel
        assert delta_gamma(parse_word("2 -2", 3, d), d) == YElem.one(d, 3)
        assert delta_gamma(parse_word("-1 1", 3, d), d) == YElem.one(d, 3)
        # distant generators commute, framings commute with everything fixed
        assert delta_gamma(parse_word("1 3", 4, d), d) == delta_gamma(
            parse_word("3 1", 4, d), d
        )
        assert delta_gamma(parse_word("t1^1 2", 3, d), d) == delta_gamma(
            parse_word("2 t1^1", 3, d), d
        )
        # the framing follows its strand through a crossing
        assert delta_gamma(parse_word("1 t1^1", 3, d), d) == delta_gamma(
            parse_word("t2^1 1", 3, d), d
        )


def test_delta_gamma_is_multiplicative_on_concatenation():
    rng = random.Random(3)
    d = 2
    for _ in range(8):
        w1 = random_word(rng, 3, 4, d=d, framed=True)
        w2 = random_word(rng, 3, 4, d=d, framed=True)
        glued = parse_word(f"{w1} {w2}".strip(), 3, d)
        x = y_mul(
            delta_gamma(parse_word(w1, 3, d), d),
            delta_gamma(parse_word(w2, 3, d), d),
        )
        assert delta_gamma(glued, d) == x


# ---------------------------------------------------------------------------
# the 2-variable invariant
# ---------------------------------------------------------------------------


def test_homflypt_small_closures():
    loop = markov_tau(delta_H(parse_word("", 2, None)))
    assert homflypt(parse_word("", 1, None)) == LPoly.one(1)  # unknot
    assert homflypt(parse_word("1", 2, None)) == LPoly.one(1)  # still the unknot
    assert homflypt(parse_word("", 2, None)) == loop  # 2-component unlink
    assert homflypt(parse_word(TREFOIL, 2, None)).text() == (
        "-1 * u^4 + 2 * u^2 + 1 * v^2"
    )


def kernel_and_reference(text, n):
    """homflypt (the packed-integer kernel) and markov_tau o delta_H."""
    w = parse_word(text, n, None)
    return homflypt(w), markov_tau(delta_H(w))


def kernel_words():
    """60 seeded words on 1-6 strands, with the edge cases spelled out, and
    30 wide, sparse ones: 20 on 20-40 strands and 10 on 60-120, each with
    at most 6 crossings, so most of the trace is loop factors."""
    rng = random.Random(17)
    words = [("", 1), ("", 2), ("", 5), ("-1 -1 -1", 2), ("-2 -1 -3 -2 -2 -3 -1", 4),
             ("1 3 -5 3 1", 6), ("2 2 -4 2", 5), ("-3", 4)]
    while len(words) < 60:
        n = rng.randint(2, 6)
        words.append((random_word(rng, n, rng.randrange(0, 15)), n))
    wide = random.Random(18)
    while len(words) < 80:
        n = wide.randint(20, 40)
        words.append((random_word(wide, n, wide.randrange(0, 7)), n))
    wider = random.Random(19)
    while len(words) < 90:
        n = wider.randint(60, 120)
        words.append((random_word(wider, n, wider.randrange(0, 7)), n))
    return words


def test_homflypt_kernel_matches_markov_tau_of_delta_H():
    # n = 1, empty words, all-negative words and words that skip generators
    # lead the list
    for text, n in kernel_words():
        kernel, reference = kernel_and_reference(text, n)
        assert kernel == reference, (text, n)
        assert kernel.text() == reference.text()


@pytest.mark.parametrize(
    "text, golden, widest",
    [
        (" ".join(["1 -2 3 -4 5 -6"] * 6), "homflypt_alternating_7.txt", 12),
        (" ".join(["1 2 3 4 5 6"] * 8), "homflypt_torus_7_8.txt", 28),
    ],
    ids=["alternating-7", "torus-7-8"],
)
def test_homflypt_kernel_matches_markov_tau_on_7_strands(text, golden, widest):
    # the goldens are markov_tau(delta_H(w)).machine_lines(), written once:
    # that route takes about a second per word at 7 strands
    kernel = homflypt(parse_word(text, 7, None))
    assert kernel.machine_lines() == (GOLDEN / golden).read_text().splitlines()
    assert max(abs(c) for c in kernel.terms.values()).bit_length() == widest


def test_homflypt_rejects_framed_words_like_delta_H():
    w = parse_word("t1^1 1", 2, None)
    for route in (homflypt, delta_H):
        with pytest.raises(ValueError, match="^framed word has no classical Hecke image$"):
            route(w)


def test_homflypt_markov_moves():
    rng = random.Random(7)
    for _ in range(10):
        base = random_word(rng, 3, rng.randrange(1, 7))
        w = parse_word(base, 3, None)
        val = homflypt(w)
        # conjugation
        i = rng.randrange(1, 3)
        conj = parse_word(f"{i} {base} {-i}", 3, None)
        assert homflypt(conj) == val
        # positive and negative stabilization
        assert homflypt(parse_word(f"{base} 3", 4, None)) == val
        assert homflypt(parse_word(f"{base} -3", 4, None)) == val


def test_homflypt_distinguishes_mirror_trefoils():
    left = homflypt(parse_word("-1 -1 -1", 2, None))
    right = homflypt(parse_word(TREFOIL, 2, None))
    assert left != right


def test_pair_words_share_homflypt():
    a = homflypt(parse_word(PAIR_A, 4, None))
    b = homflypt(parse_word(PAIR_B, 4, None))
    assert a == b


# ---------------------------------------------------------------------------
# the 3-variable invariant
# ---------------------------------------------------------------------------


def test_invariant_of_unknot_is_one():
    for d in (2, 3):
        for spec in [basic_spec(Composition((1,) + (0,) * (d - 1)))]:
            assert invariant_gamma(parse_word("", 1, d), spec) == LPoly.one(d)
            assert invariant_gamma(parse_word("1", 2, d), spec) == LPoly.one(d)


def test_singleton_support_reduces_to_homflypt():
    rng = random.Random(11)
    for d in (2, 3):
        for pos in range(d):
            mu0 = Composition(tuple(1 if a == pos else 0 for a in range(d)))
            spec = basic_spec(mu0)
            for _ in range(5):
                text = random_word(rng, 3, rng.randrange(0, 7))
                w = parse_word(text, 3, d)
                expected = homflypt(parse_word(text, 3, None)).as_order(d)
                assert invariant_gamma(w, spec) == expected, (d, mu0, text)


def test_wide_support_vanishes_on_knots():
    rng = random.Random(13)
    spec = basic_spec(Composition((1, 1)))
    found = 0
    while found < 8:
        text = random_word(rng, 3, rng.randrange(1, 8))
        w = parse_word(text, 3, 2)
        if component_count(w) != 1:
            continue
        found += 1
        assert invariant_gamma(w, spec).is_zero(), text


def test_invariant_markov_moves_framed():
    rng = random.Random(17)
    d = 2
    for spec in [basic_spec(Composition((1, 1))), jl_spec(2, [1, 2])]:
        for _ in range(6):
            base = random_word(rng, 3, rng.randrange(1, 6), d=d, framed=True)
            w = parse_word(base, 3, d)
            val = invariant_gamma(w, spec)
            i = rng.randrange(1, 3)
            conj = parse_word(f"{i} {base} {-i}", 3, d)
            assert invariant_gamma(conj, spec) == val
            assert invariant_gamma(parse_word(f"{base} 3", 4, d), spec) == val
            assert invariant_gamma(parse_word(f"{base} -3", 4, d), spec) == val


def test_framing_changes_the_value():
    # an unknot with one unit of framing is separated from the plain unknot
    d = 2
    spec = basic_spec(Composition((0, 1)))
    plain = invariant_gamma(parse_word("", 1, d), spec)
    framed = invariant_gamma(parse_word("t1^1", 1, d), spec)
    assert plain != framed


def test_pair_words_invariant_golden():
    # the two 4-strand words close to L10a46 and L10a110: topologically
    # distinct links sharing this invariant for d=2, support (1,1)
    spec = basic_spec(Composition((1, 1)))
    a = invariant_gamma(parse_word(PAIR_A, 4, 2), spec)
    b = invariant_gamma(parse_word(PAIR_B, 4, 2), spec)
    assert a == b
    assert a.text() == (
        "2 * u^4 * g^-4 - 8 * u^2 * g^-4 - 4 * v^2 * g^-4 + 8 * g^-4"
        " + 8 * u^-2 * v^2 * g^-4 + 2 * u^-4 * v^4 * g^-4"
    )


def test_pair_words_block_contributions():
    spec = basic_spec(Composition((1, 1)))
    ca = invariant_contributions(parse_word(PAIR_A, 4, 2), spec)
    cb = invariant_contributions(parse_word(PAIR_B, 4, 2), spec)
    assert Composition((2, 2)) not in ca
    assert not ca[Composition((3, 1))].is_zero()
    assert ca[Composition((3, 1))] == ca[Composition((1, 3))]
    assert Composition((3, 1)) not in cb
    assert Composition((1, 3)) not in cb
    assert not cb[Composition((2, 2))].is_zero()


# ---------------------------------------------------------------------------
# the subset-weighted specialization
# ---------------------------------------------------------------------------


def test_jl_invariant_full_singleton_is_homflypt():
    rng = random.Random(19)
    for _ in range(6):
        text = random_word(rng, 3, rng.randrange(0, 6))
        w = parse_word(text, 3, 1)
        expected = homflypt(parse_word(text, 3, None))
        assert jl_invariant(w, 1, [1]) == expected


def test_order_one_invariants_have_int_coefficients():
    # the 2-variable path lives over Z[u^{+-1}, v]: every stored coefficient
    # is a plain int, not merely equal to one
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randrange(2, 5)
        text = random_word(rng, n, rng.randrange(0, 12))
        word = parse_word(text, n, None)
        values = [
            homflypt(word),
            markov_tau(delta_H(word)),
            jl_invariant(parse_word(text, n, 1), 1, {1}),
        ]
        for poly in values:
            assert poly.order == 1
            assert all(type(c) is int for c in poly.terms.values()), text


def test_jl_invariant_matches_spec_route():
    rng = random.Random(23)
    d = 2
    for _ in range(5):
        text = random_word(rng, 3, rng.randrange(0, 6), d=d, framed=True)
        w = parse_word(text, 3, d)
        assert jl_invariant(w, d, [1, 2]) == invariant_gamma(w, jl_spec(d, [1, 2]))


def test_jl_numeric_unknot_is_one():
    rng = random.Random(29)
    w = parse_word("", 1, 2)
    for _ in range(10):
        q = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        for branch in (1, -1):
            val = jl_numeric(w, 2, [1, 2], q, z, branch=branch)
            assert abs(val - 1) < 1e-9, (q, z, branch)


def test_jl_numeric_branch_sign_is_the_component_parity():
    # the other square root of lambda flips the signs of u and v together;
    # every term u^a v^b of the invariant has a + b = c - 1 mod 2 on a
    # closure of c components, so the value changes by (-1)^(c-1)
    rng = random.Random(37)
    seen = set()
    for _ in range(60):
        d, n = rng.randint(1, 3), rng.randint(2, 4)
        w = parse_word(random_word(rng, n, rng.randint(0, 8), d, framed=d > 1), n, d)
        S = rng.sample(range(1, d + 1), rng.randint(1, d))
        c = component_count(w)
        seen.add(c)
        assert all((a + b - c + 1) % 2 == 0 for a, b, _ in jl_invariant(w, d, S).terms), str(w)
        q = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        z = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        plus = jl_numeric(w, d, S, q, z, branch=1)
        minus = jl_numeric(w, d, S, q, z, branch=-1)
        assert abs(minus - (-1) ** (c - 1) * plus) <= 1e-9 * max(1.0, abs(plus)), (str(w), S)
    assert seen == {1, 2, 3, 4}


def test_jl_numeric_validation():
    w = parse_word("1", 2, 2)
    with pytest.raises(ValueError, match="S must be a nonempty subset"):
        jl_numeric(w, 2, [], 0.5 + 0.1j, 0.3)
    with pytest.raises(ValueError, match="S must be a nonempty subset"):
        jl_invariant(w, 2, [])
    with pytest.raises(ValueError):
        jl_numeric(w, 2, [1], 0, 0.3)
    with pytest.raises(ValueError):
        jl_numeric(w, 2, [1], 0.5, 0)
    with pytest.raises(ValueError):
        jl_numeric(w, 2, [1], 0.5, 0.3, branch=2)


def test_jl_numeric_rejects_a_vanishing_lambda():
    # lam = (z + (1 - q)/|S|) / (q z) is 0 at q = 3, |S| = 2, z = 1
    with pytest.raises(ValueError, match="lambda vanishes"):
        jl_numeric(parse_word("1", 2, 2), 2, [1, 2], 3, 1)


def test_jl_numeric_rejects_non_finite_values():
    w = parse_word("1 1", 2, 2)
    for bad in (float("nan"), float("inf"), -float("inf"), complex(0.3, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            jl_numeric(w, 2, [1, 2], bad, 0.3)
        with pytest.raises(ValueError, match="finite"):
            jl_numeric(w, 2, [1, 2], 0.5, bad)
    # finite inputs whose value overflows to nan on the way
    with pytest.raises(ValueError, match="not finite"):
        jl_numeric(w, 2, [1, 2], 1e-300, 1e-20)
    # finite inputs whose evaluation raises OverflowError
    with pytest.raises(ValueError, match="not finite"):
        jl_numeric(parse_word("1 1 1", 2, 2), 2, [1, 2], 1e300, 0.2)
    # at q = 1, v = 0 and a closure with two components has v^{-1} terms;
    # the unknot has none
    with pytest.raises(ValueError, match="not finite"):
        jl_numeric(parse_word("", 2, 2), 2, [1, 2], 1, 0.5)
    assert jl_numeric(parse_word("1", 2, 2), 2, [1, 2], 1, 0.5) == 1 + 0j
    # nonzero inputs whose product q*z underflows to 0
    with pytest.raises(ValueError, match=r"q=\(1e-300\+0j\), z=\(1e-300\+0j\)"):
        jl_numeric(parse_word("1", 2, 2), 2, [1, 2], 1e-300, 1e-300)


def test_jl_numeric_agrees_with_exact_evaluation_d1():
    # for d = 1 the exact polynomial can be specialized directly
    rng = random.Random(31)
    w = parse_word(TREFOIL, 2, 1)
    exact = jl_invariant(w, 1, [1])
    for _ in range(5):
        q = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        z = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        lam = (z + (1 - q)) / (q * z)
        for branch in (1, -1):
            import cmath

            sq = branch * cmath.sqrt(lam)
            u0 = cmath.sqrt(q) * sq
            v0 = (q - 1) * sq
            want = exact.eval_complex(u0, v0, 1 / cmath.sqrt(q))
            got = jl_numeric(w, 1, [1], q, z, branch=branch)
            assert abs(got - want) < 1e-9
