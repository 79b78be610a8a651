"""Braid words, framed braid words, and link invariants.

A braid word on ``n`` strands is a sequence of tokens: crossings
``sigma_i^{+-1}`` (1 <= i <= n-1) and, for framed links, framing
generators ``t_j^k`` (1 <= j <= n, k taken mod d).  The closure of the
braid is the (framed) link whose invariants are computed here:

* ``homflypt`` is the Markov trace of the image of the word under
  ``sigma_i -> T_i`` in the Iwahori-Hecke algebra: ``markov_tau o
  delta_H`` as an identity.  It is computed by the packed-integer kernel
  ``hecke.tau_word``, which builds no Hecke element; ``delta_H`` and
  ``markov_tau`` are the reference the tests hold it to.
* ``invariant_gamma`` is the Markov trace ``rho`` of a
  :class:`~yokohecke.traces.TraceSpec` applied to the image
  ``delta_gamma`` of the word in the Yokonuma-Hecke algebra, where
  ``sigma_i -> (gamma + (1-gamma) e_i) g_i`` and ``t_j -> t_j``.  The
  result is a Laurent polynomial in ``u``, ``v``, ``gamma``.  It is
  computed from the monochromatic sublinks of the closure (below);
  ``delta_gamma`` followed by ``rho`` is the reference route that
  ``verify`` and the tests compare against.
* ``jl_invariant`` / ``jl_numeric`` specialise the trace parameters to
  the E-system solution attached to a subset ``S`` of ``{1, ..., d}``,
  which recovers the classical normalised 2-variable invariants after
  the substitution ``u = sqrt(q * lam)``, ``v = (q - 1) * sqrt(lam)``,
  ``gamma = 1/sqrt(q)`` with ``lam = (z + (1 - q)/|S|) / (q z)``.

Words are plain text: whitespace-separated tokens where a nonzero
integer ``K`` means ``sigma_{|K|}^{sign K}`` and ``tJ^K`` means
``t_J^K``.  Strand count ``n`` and framing modulus ``d`` are always
explicit inputs, never inferred from the word.

The sublink formula
-------------------

Through the isomorphism ``psi`` of Y(d,n) with the sum over compositions
``mu`` of the matrix algebras Mat_{m_mu}(H^mu), every Markov trace reads

    rho(x) = sum_mu alpha_{base(mu)} * tau^mu( Tr psi(x)_mu ),

with rows and columns of the ``mu``-block indexed by the characters
``chi`` of letter multiplicities ``mu`` (``traces.rho_blocks``).  Write
the image of the word as a product of its token images and expand every
factor on the idempotents ``E_chi``:

* ``t_j^k`` is the scalar ``xi_{chi_j}^k``, since ``E_chi t_j =
  xi_{chi_j} E_chi``;
* if ``chi_i != chi_{i+1}`` then ``E_chi e_i = 0``, so ``sigma_i^{+-1}``
  acts as ``gamma^{+-1} g_i^{+-1} = (u gamma)^{+-1} gt_i`` on ``E_chi``
  (for the inverse, ``g_i^{-1} = u^{-2} g_i - u^{-2} v e_i``).  ``psi``
  sends ``E_chi gt_i`` to the matrix unit from row ``chi`` to column
  ``s_i chi`` with the entry ``Tt_1 = 1``: the minimal coset
  representatives of ``chi`` and ``s_i chi`` differ by exactly ``s_i``;
* if ``chi_i = chi_{i+1} = a`` then ``E_chi e_i = E_chi``, so
  ``sigma_i^{+-1}`` acts as ``g_i^{+-1}``.  ``psi`` sends it to the
  diagonal unit at ``chi`` with the entry ``T_r^{+-1}`` of the letter-``a``
  factor of H^mu, ``r`` being the rank of position ``i`` among the
  positions of letter ``a`` in ``chi``.

So the image of the word is monomial in the character index: row ``chi``
has its one entry in the column of ``chi`` carried along the strands.
The trace only sees diagonal entries, hence only characters carried back
to themselves, i.e. colourings ``c`` of the strands that are constant on
the components of the closure.  The diagonal entry of such a ``c`` is
the product of the factors above in word order, and ``tau^mu`` is the
product over the letter blocks of ``markov_tau``.  Therefore

    rho(delta_gamma(w)) = sum_c alpha_{mu0(c)} * (u gamma)^{e_c}
                          * prod_a P(beta|_a) * prod_{t_j^k} xi_{c(j)}^k,

where ``c`` runs over the colourings of the components, ``mu0(c)`` is
its letter set, ``e_c`` the signed count of crossings between strands of
different colours, ``beta|_a`` the sub-braid of the crossings among the
colour-``a`` strands (renumbered by rank) and ``P = markov_tau o
delta_H`` the 2-variable invariant, computed by ``hecke.tau_word``
straight from the sub-braid's crossings;
``c(j)`` is the colour of the strand at position ``j`` when the framing
token occurs.  The colourings with
``mu_a`` strands of letter ``a`` make up the ``mu``-block contribution of
``invariant_contributions``.  Only colourings onto a support with nonzero
``alpha`` are evaluated: a support with more letters than the closure
has components contributes nothing.  This is the sublink formula of
Poulain d'Andecy and Wagner (arXiv:1606.00237) and of Chlouveraki,
Juyumaya, Karvounis and Lambropoulou (arXiv:1505.06666).
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .exactnum import LPoly, add_all, nonzero
from .hecke import HeckeElem, tau_word
from .permcomp import (
    Composition,
    Perm,
    all_comp0,
    cycles,
)
from .permcomp import _check_framing, _check_order, _check_strands
from .traces import TraceSpec, _subset, jl_spec

__all__ = [
    "FramedBraidWord",
    "basic_invariants",
    "component_count",
    "delta_H",
    "delta_gamma",
    "homflypt",
    "invariant_contributions",
    "invariant_gamma",
    "jl_invariant",
    "jl_numeric",
    "parse_word",
    "underlying_perm",
]

# Tokens are ("sigma", i, sign) with sign in {1, -1}, or ("frame", j, k).
Token = tuple


class FramedBraidWord(namedtuple("FramedBraidWord", "n tokens")):
    """A word in the framed braid group on ``n`` strands.

    ``tokens`` is a tuple of ``("sigma", i, sign)`` and
    ``("frame", j, k)`` entries.  ``n``, indices and exponents must be
    ``int`` (not ``bool``), and index ranges are checked on construction.
    Framing exponents are any ints, stored as given, since a word knows no
    ``d`` (a `YElem` key holds them in 0..d-1); :func:`parse_word` reduces them mod d.

    An immutable named tuple of ``(n, tokens)``, like `permcomp.Composition`.

    >>> FramedBraidWord(2, (("sigma", 1, 1), ("sigma", 1, 1), ("sigma", 1, 1))).n
    2
    """

    __slots__ = ()

    def __new__(cls, n: int, tokens: tuple[Token, ...]):
        _check_strands(n)
        if type(tokens) is not tuple:
            raise ValueError(f"tokens must be a tuple, got {tokens!r}")
        for tok in tokens:
            shaped = isinstance(tok, tuple) and len(tok) == 3 and tok[0] in ("sigma", "frame")
            if not (shaped and type(tok[1]) is int and type(tok[2]) is int):
                raise ValueError(f"malformed token {tok!r}")
            kind, i, k = tok
            if kind == "frame":
                _check_framing(n, i, k)
            elif k not in (1, -1):
                raise ValueError(f"malformed token {tok!r}")
            elif not 1 <= i <= n - 1:
                raise ValueError(f"crossing index {i} out of range for {n} strands")
        return super().__new__(cls, n, tokens)

    @property
    def is_framed(self) -> bool:
        """True if the word contains at least one framing token."""
        return any(tok[0] == "frame" for tok in self.tokens)

    def __str__(self) -> str:
        parts = []
        for tok in self.tokens:
            if tok[0] == "sigma":
                parts.append(str(tok[1] * tok[2]))
            else:
                parts.append(f"t{tok[1]}^{tok[2]}")
        return " ".join(parts)


def _is_int(text: str, signed: bool) -> bool:
    """Is `text` ASCII digits, after one leading + or - when `signed`?"""
    if signed and text[:1] in ("+", "-"):
        text = text[1:]
    return text.isascii() and text.isdigit()


def parse_word(text: str, n: int, d: int | None) -> FramedBraidWord:
    """Split whitespace-separated braid tokens into a word.

    A nonzero integer ``K`` stands for ``sigma_{|K|}^{sign K}`` and
    ``tJ^K`` for the ``J``-th framing generator to the power ``K``
    (reduced mod ``d``; trivial framings are dropped once
    :class:`FramedBraidWord` has checked the strand count and every
    index).  With ``d=None`` framing exponents are kept as written, for
    callers that only want to reject framed words.  Raises ``ValueError``
    on malformed tokens or out-of-range indices.

    >>> str(parse_word("1 1 -2 t3^1", 4, 2))
    '1 1 -2 t3^1'
    >>> parse_word("t1^5", 2, 3).tokens
    (('frame', 1, 2),)
    """
    if d is not None:
        _check_order(d)
    tokens: list[Token] = []
    for raw in text.split():
        j, hat, k = raw[1:].partition("^")
        if raw[0] == "t" and hat and _is_int(j, False) and _is_int(k, True):
            k = int(k)
            tokens.append(("frame", int(j), k if d is None else k % d))
        elif _is_int(raw, True):
            value = int(raw)
            if value == 0:
                raise ValueError("crossing token 0 is not allowed")
            tokens.append(("sigma", abs(value), 1 if value > 0 else -1))
        else:
            raise ValueError(f"malformed token {raw!r}")
    word = FramedBraidWord(n, tuple(tokens))
    if d is None:
        return word
    return FramedBraidWord._make((n, tuple(t for t in tokens if t[0] == "sigma" or t[2])))


def underlying_perm(w: FramedBraidWord) -> Perm:
    """The permutation obtained by forgetting signs and framings.

    >>> from .permcomp import cycles
    >>> beta1 = parse_word("1 1 -2 -3 -2 1 1 1 -2 -3 -2 1", 4, 1)
    >>> [c for c in cycles(underlying_perm(beta1)) if len(c) > 1]
    [(1, 2, 4)]
    """
    p = list(range(1, w.n + 1))
    for kind, i, _ in w.tokens:
        if kind == "sigma":
            p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def component_count(w: FramedBraidWord) -> int:
    """Number of components of the closure (cycles of the permutation).

    >>> component_count(parse_word("1 1 1", 2, 1))
    1
    >>> component_count(parse_word("", 3, 1))
    3
    """
    return len(cycles(underlying_perm(w)))


def _crossings(w: FramedBraidWord) -> list[tuple[int, int]]:
    """The ``(i, sign)`` pairs of an unframed word, in word order.

    Raises ``ValueError`` if the word carries framings.
    """
    if w.is_framed:
        raise ValueError("framed word has no classical Hecke image")
    return [tok[1:] for tok in w.tokens]


def delta_H(w: FramedBraidWord) -> HeckeElem:
    """Image of an unframed braid word in the Iwahori-Hecke algebra.

    Sends ``sigma_i`` to the generator ``T_i`` (and its inverse to
    ``T_i^{-1}``).  Raises ``ValueError`` if the word carries framings.

    >>> delta_H(parse_word("1 -1", 2, 1)) == HeckeElem.one(2)
    True
    """
    x = HeckeElem.one(w.n)
    for i, sign in _crossings(w):
        x = x.mul_gen(i, sign)
    return x


def delta_gamma(w: FramedBraidWord, d: int) -> YElem:
    """Image of a framed braid word in the Yokonuma-Hecke algebra.

    ``sigma_i`` maps to ``(gamma + (1 - gamma) e_i) g_i`` and its inverse
    to ``(gamma^{-1} + (1 - gamma^{-1}) e_i) g_i^{-1}``; the framing
    generator ``t_j`` maps to ``t_j``.  For ``d = 1`` every ``e_i`` is 1
    and the gamma factors cancel.

    >>> from .yokonuma import YElem
    >>> x = delta_gamma(parse_word("1 -1", 3, 2), 2)
    >>> x == YElem.one(2, 3)
    True
    """
    from .yokonuma import YElem

    x = YElem.one(d, w.n)
    for kind, i, k in w.tokens:
        if kind == "frame":
            x = x.mul_t(i, k)
            continue
        # x (gamma^k + (1 - gamma^k) e_i) g_i^k = fused + (plain - fused) gamma^k, e_i g_i = g_i e_i
        plain = x.mul_g(i, k)
        fused = plain.mul_e(i)
        x = fused + (plain - fused).shift(eg=k)
    return x


def homflypt(w: FramedBraidWord) -> LPoly:
    """The 2-variable invariant of the closure of an unframed word.

    Equal to ``markov_tau(delta_H(w))``, the Markov trace of the image of
    the word in the Hecke algebra, and computed by the packed-integer
    kernel ``hecke.tau_word``; ``delta_H`` and ``markov_tau`` are its
    reference.  Raises ``ValueError`` if the word carries framings.

    >>> print(homflypt(parse_word("1", 2, 1)).text())
    1
    >>> print(homflypt(parse_word("1 1 1", 2, 1)).text())
    -1 * u^4 + 2 * u^2 + 1 * v^2
    """
    return tau_word(w.n, _crossings(w))


def _sublink_sums(
    w: FramedBraidWord, d: int, supports
) -> dict[Composition, LPoly]:
    """Sum of the colouring terms of the sublink formula, by composition.

    Runs over the colourings ``c`` of the closure's components whose letter
    set is one of ``supports`` (checked 0/1 compositions) and adds
    ``(u g)^{e_c} * prod_a P(beta|_a) * prod xi_{c(strand)}^k`` to the
    composition ``mu`` of component sizes per letter; see the module
    docstring.  ``P`` is computed once per sub-braid, at order 1, by
    ``tau_word`` on the sub-braid's ``(rank, sign)`` crossings.
    """
    n = w.n
    comps = cycles(underlying_perm(w))
    component = [0] * n
    for index, cyc in enumerate(comps):
        for j in cyc:
            component[j - 1] = index
    framing = [0] * len(comps)  # total framing exponent of each component
    crossings: list[tuple[int, int]] = []  # (position i, sign)
    strand_at = list(range(n))
    for tok in w.tokens:
        if tok[0] == "frame":
            framing[component[strand_at[tok[1] - 1]]] += tok[2]
        else:
            i = tok[1]
            crossings.append((i, tok[2]))
            strand_at[i - 1], strand_at[i] = strand_at[i], strand_at[i - 1]

    wanted = {mu0.letters() for mu0 in supports}
    letters = sorted(set().union(*wanted))
    # colourings with the same composition, framing root, e_c and sub-braids
    # contribute the same term: count them, then evaluate each term once
    seen: dict[tuple, int] = {}
    for colours in itertools.product(letters, repeat=len(comps)):
        support = frozenset(colours)
        if support not in wanted:
            continue
        col = [colours[component[s]] for s in range(n)]
        parts = [0] * d
        for a, cyc in zip(colours, comps):
            parts[a - 1] += len(cyc)
        mu = Composition._make((tuple(parts),))
        sub: dict[int, list] = {a: [] for a in support}
        e = 0
        for i, sign in crossings:
            a, b = col[i - 1], col[i]
            if a != b:
                e += sign
            else:
                sub[a].append((col[: i - 1].count(a) + 1, sign))
            col[i - 1], col[i] = b, a
        root = sum((a - 1) * k for a, k in zip(colours, framing)) % d
        braids = tuple(sorted((mu.parts[a - 1], tuple(pairs)) for a, pairs in sub.items()))
        key = (mu, root, e, braids)
        seen[key] = seen.get(key, 0) + 1

    memo: dict[tuple[int, tuple], LPoly] = {}
    acc: dict[tuple[Composition, int], dict] = {}
    for (mu, root, e, braids), mult in seen.items():
        val = LPoly.const(1, mult)
        for braid in braids:
            p = memo.get(braid)
            if p is None:
                p = memo[braid] = tau_word(*braid)
            val = val * p
        add_all(acc.setdefault((mu, root), {}), val.shift(eu=e, eg=e).terms)

    sums: dict[Composition, dict] = {}
    for (mu, root), terms in acc.items():
        lifted = LPoly._make(1, nonzero(terms)).as_order(d).rotate(root)
        add_all(sums.setdefault(mu, {}), lifted.terms)
    return {mu: LPoly._make(d, nonzero(terms)) for mu, terms in sums.items()}


def _support_sums(w: FramedBraidWord, d: int, supports) -> dict[Composition, LPoly]:
    """The sublink sums of ``supports`` added up per support ``base(mu)``."""
    grouped: dict[Composition, list] = {}
    for mu, val in _sublink_sums(w, d, supports).items():
        grouped.setdefault(mu.base(), []).append(val)
    return {mu0: LPoly.sum(d, vals) for mu0, vals in grouped.items()}


def invariant_gamma(w: FramedBraidWord, spec: TraceSpec) -> LPoly:
    """The 3-variable invariant of the closure of a framed word.

    Equal to ``rho(spec, delta_gamma(w, spec.d))``, computed from the
    monochromatic sublinks (see the module docstring); the result is a
    Laurent polynomial in ``u, v, gamma`` with coefficients in the
    ``spec.d``-th cyclotomic field.  The sublink sums are added up per
    support first, so each support's weight multiplies once.

    >>> from .traces import basic_spec
    >>> hopf = parse_word("1 1", 2, 2)
    >>> print(invariant_gamma(hopf, basic_spec(Composition((1, 1)))).text())
    2 * u^2 * g^2
    """
    weighed = spec.weigh(_support_sums(w, spec.d, spec.alphas))
    return LPoly.sum(spec.d, weighed.values())


def invariant_contributions(
    w: FramedBraidWord, spec: TraceSpec
) -> dict[Composition, LPoly]:
    """Per-block summands of :func:`invariant_gamma`, keyed by composition.

    The values sum to ``invariant_gamma(w, spec)``; the entry of ``mu`` is
    the weighted trace of the ``mu``-block of the image of the word, which
    collects the colourings with ``mu_a`` strands of letter ``a``.  Only
    nonzero summands are kept, as in
    :func:`~yokohecke.traces.rho_blocks`: an absent block contributes zero.
    """
    return spec.weigh(_sublink_sums(w, spec.d, spec.alphas))


def basic_invariants(w: FramedBraidWord, d: int) -> dict[Composition, LPoly]:
    """The invariants of all ``2^d - 1`` basic traces, keyed by support.

    Equal to ``{mu0: invariant_gamma(w, basic_spec(mu0))}`` over
    ``all_comp0(d)`` in that order, from one pass over the colourings.

    >>> vals = basic_invariants(parse_word("1 1", 2, 2), 2)
    >>> [str(mu0) for mu0 in vals]
    ['(0,1)', '(1,0)', '(1,1)']
    >>> print(vals[Composition((1, 1))].text())
    2 * u^2 * g^2
    """
    supports = all_comp0(d)
    sums = _support_sums(w, d, supports)
    return {mu0: sums.get(mu0, LPoly.zero(d)) for mu0 in supports}


def jl_invariant(w: FramedBraidWord, d: int, S) -> LPoly:
    """Invariant attached to the E-system solution for a subset ``S``.

    Equivalent to ``invariant_gamma(w, jl_spec(d, S))``: the trace
    parameters are ``(v^{-1}(1 - u^2))^{|mu0| - 1} / |S|`` on subsets of
    ``S`` and 0 elsewhere.  For ``d = 1``, ``S = {1}`` this is the
    2-variable invariant in ``u, v`` (gamma-free).

    >>> p = jl_invariant(parse_word("1 1 1", 2, 1), 1, {1})
    >>> p.as_order(1) == homflypt(parse_word("1 1 1", 2, 1))
    True
    """
    return invariant_gamma(w, jl_spec(d, S))


def jl_numeric(
    w: FramedBraidWord,
    d: int,
    S,
    q: complex,
    z: complex,
    branch: int = 1,
) -> complex:
    """Numeric value of the normalised 2-variable invariant at ``(q, z)``.

    Evaluates :func:`jl_invariant` in double precision (near ``q = 1``,
    where terms cancel, it can lose every digit) at ``u = sqrt(q) * sqrt(lam)``,
    ``v = (q - 1) * sqrt(lam)``, ``gamma = 1 / sqrt(q)`` where
    ``lam = (z + (1 - q)/|S|) / (q z)``.  ``branch`` (+1 or -1) selects
    the square root of ``lam`` used consistently in both ``u`` and
    ``v``.  Switching it multiplies the value by ``(-1)^(c-1)``, ``c``
    the number of components of the closure, so only a knot's value is
    branch-independent.  Raises
    ``ValueError`` on an empty ``S`` (the check of ``jl_spec``), on
    vanishing denominators (``q * z`` included, when it underflows), on
    non-finite ``q``, ``z`` or ``q * z`` and on a non-finite result
    (an overflow, or a power of ``v = 0`` below zero at ``q = 1``).

    >>> jl_numeric(parse_word("1", 2, 2), 2, {1}, float("nan"), 0.2)
    Traceback (most recent call last):
    ...
    ValueError: q and z must be finite
    """
    import cmath

    if type(branch) is not int or branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    q = complex(q)
    z = complex(z)
    if not (cmath.isfinite(q) and cmath.isfinite(z)):
        raise ValueError("q and z must be finite")
    if q == 0 or z == 0:
        raise ValueError("q and z must be nonzero")
    qz = q * z
    if qz == 0:
        raise ValueError(f"q*z underflows to 0 at q={q}, z={z}")
    if not cmath.isfinite(qz):
        raise ValueError(f"q*z overflows at q={q}, z={z}")
    S = _subset(S, d)  # once, so that an iterator is read once
    poly = jl_invariant(w, d, S)
    e_s = 1.0 / len(S)
    lam = (z + (1 - q) * e_s) / qz
    if lam == 0:
        raise ValueError("lambda vanishes at the given (q, z)")
    sqlam = branch * cmath.sqrt(lam)
    sqq = cmath.sqrt(q)
    try:
        value = poly.eval_complex(sqq * sqlam, (q - 1) * sqlam, 1 / sqq)
        if cmath.isfinite(value):
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValueError(f"the value at q={q}, z={z} is not finite")


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
