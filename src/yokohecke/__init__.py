"""Exact computational algebra for Yokonuma-Hecke algebras.

The package computes, over exact cyclotomic-rational coefficients:

* the Yokonuma-Hecke algebra Y_{d,n} and the type-A Iwahori-Hecke algebras
  H_n in their standard bases (`yokonuma`, `hecke`);
* the explicit isomorphism between Y_{d,n} and a direct sum of matrix
  algebras over parabolic Hecke algebras, in both directions, together with
  the level-(n+1) embedding of the matrix side (`isomap`);
* the complete (2^d - 1)-parameter family of Markov traces on the tower
  {Y_{d,n}}_n, the two symmetrizing forms, and the trace parameters solving
  the E-system (`traces`);
* three-variable polynomial invariants of classical and framed links from
  braid words, including the HOMFLYPT specialization (`links`).

The `yokohecke` console script exposes the invariant computations and the
self-verification suites; see the README for usage.
"""

from .exactnum import Cyclo, LPoly, Rat, cyclotomic_polynomial, root_power
from .permcomp import Composition, all_comp0, all_compositions
from .hecke import HeckeElem, loop_factor, markov_tau, tau_parabolic
from .yokonuma import YElem, from_E_basis, idempotent_E, idempotent_Emu, to_E_basis
from .isomap import BlockMatrix, iota, phi, psi
from .traces import (
    TraceSpec,
    basic_spec,
    esystem_c,
    jl_spec,
    rho,
    rho_blocks,
    semisimple_at,
    symmetrizing_rho,
    symmetrizing_tilde,
)
from .links import (
    FramedBraidWord,
    basic_invariants,
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
from .traces import all_basic_specs, format_trace_spec
from .verify import run_suite

__version__ = "0.1.0"
