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

from importlib import import_module

# Each exported name and the module that defines it.  `import yokohecke`
# runs no submodule: an exported name is read from its home module on each
# access (PEP 562), so the CLI loads only what its command runs, and the
# package never holds a stale copy of a name its home module rebinds.
_EXPORTS = {
    "exactnum": ("Cyclo", "LPoly", "cyclotomic_polynomial", "root_power"),
    "permcomp": ("Composition", "all_comp0", "all_compositions"),
    "hecke": ("HeckeElem", "loop_factor", "markov_tau", "tau_parabolic"),
    "yokonuma": ("YElem", "from_E_basis", "idempotent_E", "idempotent_Emu", "to_E_basis"),
    "isomap": ("BlockMatrix", "iota", "phi", "psi"),
    "traces": (
        "TraceSpec", "all_basic_specs", "basic_spec", "esystem_c", "format_trace_spec",
        "jl_spec", "rho", "rho_blocks", "semisimple_at", "symmetrizing_rho",
        "symmetrizing_tilde",
    ),
    "links": (
        "FramedBraidWord", "basic_invariants", "component_count", "delta_H", "delta_gamma",
        "homflypt", "invariant_contributions", "invariant_gamma", "jl_invariant",
        "jl_numeric", "parse_word", "underlying_perm",
    ),
    "verify": ("run_suite",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
