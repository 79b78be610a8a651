"""A second oracle for `homflypt` that shares no code with `hecke`: the
Jones polynomial through the Temperley-Lieb algebra.

TL_n acts on planar matchings of 2n points (top 0..n-1, bottom n..2n-1).
The Kauffman bracket sends sigma_i^{+-1} to A^{+-1} + A^{-+1} e_i, where
e_i caps bottom points i-1, i and cups them again below; a closed loop is
worth delta = -A^2 - A^{-2}.  The closure of a matching with L loops is
worth delta^{L-1}, and V(t) = (-A^3)^{-writhe} <closure> at A = t^{-1/4}.
Polynomials here are {exponent: int} dicts in A, or in s = t^{1/2} = A^{-2}.

The 2-variable invariant specialises to it as V(t) = P(u = t, v = t^{1/2}(t - 1)),
and Jones gives V of the torus knot T(p, q) in closed form (Ann. Math. 126,
1987): t^{(p-1)(q-1)/2} (1 - t^{p+1} - t^{q+1} + t^{p+q}) / (1 - t^2).
"""

import random

from yokohecke.links import homflypt, parse_word


def _add(acc, poly, shift=0, scale=1):
    """acc += scale * X^shift * poly, in place."""
    for e, c in poly.items():
        total = acc.get(e + shift, 0) + scale * c
        if total:
            acc[e + shift] = total
        else:
            acc.pop(e + shift, None)


def _mul(p, q):
    out = {}
    for e, c in p.items():
        _add(out, q, e, c)
    return out


def _pow(p, k):
    out = {0: 1}
    for _ in range(k):
        out = _mul(out, p)
    return out


DELTA = {2: -1, -2: -1}


def _times_e(pair, n, i):
    """The matching of pair * e_i and whether the product closed a loop."""
    b, c = n + i - 1, n + i
    if pair[b] == c:
        return pair, True
    out = list(pair)
    x, y = pair[b], pair[c]
    out[x], out[y] = y, x
    out[b], out[c] = c, b
    return tuple(out), False


def _closure_loops(pair, n):
    """Loops of the closure, which joins top point k to bottom point n + k."""
    seen, loops = set(), 0
    for start in range(n):
        if start in seen:
            continue
        loops += 1
        p = start
        while p not in seen:
            seen.add(p)
            q = pair[p]
            seen.add(q)
            p = q - n if q >= n else q + n
    return loops


def jones_tl(n, word):
    """V of the closure of a braid word of (i, sign) pairs, in s = t^{1/2}."""
    state = {tuple(range(n, 2 * n)) + tuple(range(n)): {0: 1}}
    for i, sign in word:
        nxt = {}
        for pair, poly in state.items():
            _add(nxt.setdefault(pair, {}), poly, sign)
            capped, loop = _times_e(pair, n, i)
            _add(nxt.setdefault(capped, {}), _mul(poly, DELTA) if loop else poly, -sign)
        state = {pair: poly for pair, poly in nxt.items() if poly}
    bracket = {}
    for pair, poly in state.items():
        _add(bracket, _mul(poly, _pow(DELTA, _closure_loops(pair, n) - 1)))
    writhe = sum(sign for _, sign in word)
    in_a = _mul(bracket, {-3 * writhe: (-1) ** writhe})
    assert all(e % 2 == 0 for e in in_a)
    return {-e // 2: c for e, c in in_a.items()}


def specialised_homflypt(n, word):
    """P(u = s^2, v = s^3 - s) times (s^3 - s)^N, and N: P has powers of
    v down to v^{-N}, which are no Laurent polynomials in s."""
    text = " ".join(str(i * sign) for i, sign in word)
    terms = homflypt(parse_word(text, n, None)).terms
    lift = max([0] + [-b for (_, b, _) in terms])
    numerator = {}
    for (a, b, _), c in terms.items():
        _add(numerator, _pow({3: 1, 1: -1}, b + lift), 2 * a, c)
    return numerator, lift


def assert_agrees_with_homflypt(n, word):
    numerator, lift = specialised_homflypt(n, word)
    assert _mul(jones_tl(n, word), _pow({3: 1, 1: -1}, lift)) == numerator, (n, word)


def torus_times_denominator(p, q):
    """Jones's T(p, q) numerator in s: V(s) (1 - s^4) for a torus knot."""
    shift = (p - 1) * (q - 1)
    return {shift: 1, shift + 2 * p + 2: -1, shift + 2 * q + 2: -1, shift + 2 * p + 2 * q: 1}


def test_tl_jones_agrees_with_homflypt_on_seeded_words():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 6)
        length = rng.randint(0, 14) if n > 1 else 0
        word = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)]
        assert_agrees_with_homflypt(n, word)


def test_tl_jones_on_small_closures():
    assert jones_tl(1, []) == {0: 1}
    assert jones_tl(2, []) == {1: -1, -1: -1}  # -(t^{1/2} + t^{-1/2})
    assert jones_tl(2, [(1, 1)] * 3) == {2: 1, 6: 1, 8: -1}  # t + t^3 - t^4
    figure_eight = [(1, 1), (2, -1), (1, 1), (2, -1)]
    assert jones_tl(3, figure_eight) == {-4: 1, -2: -1, 0: 1, 2: -1, 4: 1}


def test_torus_knots_agree_with_jones_formula():
    for p, q in ((2, 3), (2, 5), (3, 4), (3, 5)):
        word = [(i, 1) for i in range(1, p)] * q
        times = _mul(jones_tl(p, word), {0: 1, 4: -1})
        assert times == torus_times_denominator(p, q), (p, q)


def test_torus_knot_t78_by_tl_and_by_homflypt():
    # (1..6)^8 closes to T(7, 8); its homflypt has a 28-bit coefficient
    word = [(i, 1) for i in range(1, 7)] * 8
    expected = torus_times_denominator(7, 8)
    assert _mul(jones_tl(7, word), {0: 1, 4: -1}) == expected
    numerator, lift = specialised_homflypt(7, word)
    assert _mul(numerator, {0: 1, 4: -1}) == _mul(expected, _pow({3: 1, 1: -1}, lift))
