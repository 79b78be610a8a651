"""Markov traces on the tower {Y_{d,n}}_n and related linear forms.

A Markov trace is a family of linear forms rho_n : Y_{d,n} -> R with

    (M1)  rho_n(xy) = rho_n(yx),
    (M2)  rho_{n+1}(x g_n) = rho_{n+1}(x g_n^{-1}) = rho_n(x)   for x in Y_{d,n}.

The family of all such traces is a free module of rank 2^d - 1: one basis
trace per nonzero subset of the letters, encoded here by a composition
mu0 with parts in {0,1}.  Every trace decomposes through the matrix-algebra
picture as

    rho(x) = sum_mu alpha_{base(mu)} * tau^mu( Tr( psi(x)_mu ) ),

where Tr is the matrix trace of the mu-block and tau^mu the block-product
Markov trace on H^mu; a `TraceSpec` stores d and the alpha parameters, and
its `weigh` is the one place that applies them to per-block values.

Also here:

* `symmetrizing_rho` / `symmetrizing_tilde`: the two expressions of the
  symmetrizing form on Y_{d,n} (sum over blocks of the coefficient of the
  identity, resp. d^n times the coefficient of the identity basis element
  with all framings trivial); they agree, which is a strong cross-check of
  the decomposition.
* `esystem_c` / `jl_spec`: the trace-parameter solutions c_b of the E-system
  indexed by a nonzero subset S of letters, and the TraceSpec whose link
  invariant reproduces that classical weighted-trace construction.
* `semisimple_at`: whether the specialized Hecke algebra H_n at u^2 = q is
  semisimple (no vanishing q-integer factor).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from numbers import Complex

from .exactnum import Coeff, Cyclo, LPoly, coeff, root_power
from .hecke import loop_factor, tau_parabolic
from .isomap import block_traces
from .permcomp import Composition, _check_order, _check_strands, _check_support, all_comp0
from .permcomp import comp_of, identity
from .yokonuma import YElem

__all__ = [
    "TraceSpec",
    "basic_spec",
    "all_basic_specs",
    "rho",
    "rho_blocks",
    "symmetrizing_rho",
    "symmetrizing_tilde",
    "esystem_c",
    "jl_spec",
    "semisimple_at",
    "format_trace_spec",
]


class TraceSpec(namedtuple("TraceSpec", "d alphas")):
    """Coefficients of a Markov trace on the basic-trace basis.

    `alphas` maps compositions with parts in {0,1} (the supports) to LPoly
    weights of order d; missing keys mean weight zero, zero weights are dropped.

    An immutable named tuple of ``(d, alphas)``, like `permcomp.Composition`,
    but hashing raises TypeError, since `alphas` is a dict.
    """

    __slots__ = ()

    def __new__(cls, d: int, alphas: Mapping[Composition, LPoly]):
        _check_order(d)
        if not isinstance(alphas, Mapping):
            raise ValueError(f"alphas {alphas!r} is not a mapping")
        clean = {}
        for mu0, a in alphas.items():
            _check_support(mu0, d)
            if type(a) is not LPoly or a.order != d:
                raise ValueError("alpha coefficients must live at cyclotomic order d")
            if a:
                clean[mu0] = a
        return super().__new__(cls, d, clean)

    def weigh(self, per_block: Mapping[Composition, LPoly]) -> dict[Composition, LPoly]:
        """The nonzero alpha_{base(mu)} * value of each block mu of `per_block`
        (every support must carry a weight); absent means zero."""
        parts = ((mu, val * self.alphas[mu.base()]) for mu, val in per_block.items())
        return {mu: val for mu, val in parts if val}


def basic_spec(mu0: Composition) -> TraceSpec:
    """The basic Markov trace attached to one support mu0 (alpha = 1)."""
    _check_support(mu0, None)
    return TraceSpec(mu0.d, {mu0: LPoly.one(mu0.d)})


def all_basic_specs(d: int) -> list[TraceSpec]:
    """The 2^d - 1 basic traces, ascending lexicographic support order."""
    return [TraceSpec._make((d, {mu0: LPoly.one(d)})) for mu0 in all_comp0(d)]


def rho_blocks(spec: TraceSpec, x: YElem) -> dict[Composition, LPoly]:
    """The nonzero contributions alpha_{base(mu)} * tau^mu(Tr psi(x)_mu),
    keyed by composition mu; an absent block contributes zero.

    `block_traces` traces only the blocks whose support `spec` weighs, and
    runs the change of basis over the letters of those supports alone."""
    if spec.d != x.d:
        raise ValueError(f"a trace at d={spec.d} cannot evaluate an element of Y_{{{x.d},{x.n}}}")
    traced = block_traces(x, spec.alphas)
    return spec.weigh({mu: tau_parabolic(mu, tr) for mu, tr in traced.items()})


def rho(spec: TraceSpec, x: YElem) -> LPoly:
    """The Markov trace described by `spec`, evaluated at x."""
    return LPoly.sum(spec.d, rho_blocks(spec, x).values())


def symmetrizing_rho(x: YElem) -> LPoly:
    """The symmetrizing form through the matrix decomposition: for each block,
    the coefficient of T_identity (equivalently Tt_identity) summed along the
    diagonal, then summed over blocks.

    A diagonal cell (k, k) holds T_p with p = pi_k^{-1} w pi_k, which is the
    identity exactly when w is, so only the identity terms of x are
    decomposed."""
    idn = identity(x.n)
    at_id = YElem._make(x.d, x.n, {key: c for key, c in x.terms.items() if key[1] == idn})
    return LPoly.sum(x.d, (tr.coefficient(idn) for tr in block_traces(at_id).values()))


def symmetrizing_tilde(x: YElem) -> LPoly:
    """The same form read off directly on Y_{d,n}: d^n times the coefficient
    of the basis element with trivial framings and identity permutation."""
    c = x.coefficient((0,) * x.n, identity(x.n))
    return c.scale(Fraction(x.d) ** x.n)


# --------------------------------------------------------------------------
# E-system solutions and the weighted-trace reconstruction
# --------------------------------------------------------------------------

def _subset(S: Iterable[int], d: int) -> tuple[int, ...]:
    """The distinct letters of S, each checked by `comp_of`, in increasing order."""
    S = comp_of(S, d).letters()
    if not S:
        raise ValueError("S must be a nonempty subset of the letters 1..d")
    return tuple(sorted(S))


def esystem_c(d: int, S: Iterable[int], b: int) -> Coeff:
    """The E-system solution attached to S: c_b = (1/|S|) sum_{a in S} xi_a^b.

    These are the power sums of the subset of d-th roots of unity indexed by
    S, normalized so that c_0 = 1.  The value is a coefficient of an
    order-d polynomial (`exactnum.coeff`), comparable with the constant
    value of a trace: a rational at d = 1.

    >>> esystem_c(1, [1], 5), esystem_c(3, [1, 2], 1)
    (1, Cyclo(3, (Fraction(1, 2), Fraction(1, 2))))
    """
    S = _subset(S, d)
    acc = Cyclo.zero(d)
    for a in S:
        acc = acc + root_power(d, a, b)
    return coeff(d, acc * Fraction(1, len(S)))


def jl_spec(d: int, S: Iterable[int]) -> TraceSpec:
    """The TraceSpec reproducing the weighted-trace link invariants for the
    E-system solution S: supports inside S get weight
    (v^{-1}(1-u^2))^{|mu0|-1} / |S|, others vanish.

    Only the 2^|S| - 1 subsets of S are built, whatever d is, from S checked once.

    >>> len(jl_spec(30, {1, 2}).alphas)
    3
    """
    S = _subset(S, d)
    loop = loop_factor(d)
    alphas: dict[Composition, LPoly] = {}
    for size in range(1, len(S) + 1):
        w = (loop ** (size - 1)).scale(Fraction(1, len(S)))
        for support in itertools.combinations(S, size):
            parts = [0] * d
            for a in support:
                parts[a - 1] = 1
            alphas[Composition._make((tuple(parts),))] = w
    return TraceSpec._make((d, alphas))


def semisimple_at(n: int, q=None) -> bool:
    """Is the specialized type-A Hecke algebra H_n at u = q semisimple?

    The criterion is prod_{m=1..n} (1 + q^2 + ... + q^{2m-2}) != 0.  q=None
    means the generic parameter (always semisimple); exact inputs (int,
    Fraction, Cyclo) are tested exactly; floats/complex within 1e-12.
    """
    if type(n) is not int:  # an int n <= 1 is the trivial algebra, semisimple
        _check_strands(n)
    if q is None or n <= 1:
        return True
    if isinstance(q, Cyclo):
        one, nonzero = Cyclo.one(q.order), lambda t: not t.is_zero()
    elif isinstance(q, (int, Fraction)):
        one, nonzero = Fraction(1), lambda t: t != 0
    elif isinstance(q, Complex):
        q, one, nonzero = complex(q), 1.0 + 0j, lambda t: abs(t) > 1e-12
    else:
        raise TypeError(f"unsupported parameter type {type(q).__name__}")
    qq = q * q
    total = one
    for m in range(2, n + 1):
        acc = power = one
        for _ in range(m - 1):
            power = power * qq
            acc = acc + power
        total = total * acc
    return nonzero(total)


def format_trace_spec(spec: TraceSpec) -> str:
    """Serialize as one line per stored support:
    `mu0 = (b_1,...,b_d) ; alpha = <polynomial>`."""
    return "\n".join(f"mu0 = {mu0} ; alpha = {a.text()}" for mu0, a in sorted(spec.alphas.items()))
