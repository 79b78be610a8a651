"""Verification suites: randomized and exhaustive self-checks.

Each suite returns a list of ``(check_id, passed, detail)`` triples;
``detail`` holds a counterexample description when a check fails.  The
suites are deterministic for a fixed seed, and the CLI `verify` command
prints their results as ``PASS <id>`` / ``FAIL <id> : <detail>`` lines.

Suites and what they check:

* ``iso``: the block decomposition psi is a ring isomorphism -- phi
  inverts it on the full idempotent basis, it turns products into matrix
  products, and it intertwines the one-strand extension with the block
  embedding iota.  At d=2, n=4 the tabulated golden matrices are also
  compared.
* ``markov``: every basic trace is central and satisfies the Markov
  stabilization condition.
* ``schur``: the two expressions of the symmetrizing form agree on the
  whole basis.
* ``jl``: the weighted-trace specs reproduce the E-system moments, and
  the numeric 2-variable invariant of the unknot is 1.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable

from .exactnum import LPoly, add_to, nonzero
from .isomap import _psi_from_e_coeffs, iota, phi_to_e_coeffs, psi
from .links import jl_numeric, parse_word
from .permcomp import Character, Perm, act, inverse
from .traces import (
    TraceSpec,
    all_basic_specs,
    esystem_c,
    jl_spec,
    rho,
    symmetrizing_rho,
    symmetrizing_tilde,
)
from .yokonuma import YElem, e_basis_mul_basis, y_mul

__all__ = ["SuiteConfigError", "run_suite", "suite_names"]

_DEFAULT_SEED = 20240801
_MARKOV_ROUNDS = 10  # random elements per Markov condition and trace
_JL_QZ_SAMPLES = 5  # random (q, z) points per numeric unknot check
_JL_QZ_DRAWS = 20  # draws per point before an undefined unknot fails the check

class SuiteConfigError(ValueError):
    """Raised for unknown suites, and for a d or n that is not an int in range."""


Check = tuple[str, bool, str]


def _all_characters(d: int, n: int) -> list[Character]:
    return [tuple(c) for c in itertools.product(range(1, d + 1), repeat=n)]


def _all_perms(n: int) -> list[Perm]:
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def _random_perm(rng: random.Random, n: int) -> Perm:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def _random_key(rng: random.Random, d: int, n: int) -> tuple:
    """A random basis key (framing exponents, permutation) of Y(d,n)."""
    return (tuple(rng.randrange(d) for _ in range(n)), _random_perm(rng, n))


def _random_basis_elem(rng: random.Random, d: int, n: int) -> YElem:
    return YElem._make(d, n, {_random_key(rng, d, n): LPoly.one(d)})


def _random_elem(rng: random.Random, d: int, n: int, terms: int = 3) -> YElem:
    out: dict = {}
    for _ in range(terms):
        c = LPoly.const(d, rng.choice((-2, -1, 1, 2)))
        add_to(out, _random_key(rng, d, n), c)
    return YElem._make(d, n, nonzero(out))


def _check(check_id: str, failures: Iterable[str | None]) -> Check:
    """One check's result: failed at the first truthy message of `failures`, read no further."""
    detail = next(filter(None, failures), "")
    return (check_id, not detail, detail)


def suite_iso(
    d: int,
    n: int,
    pairs: int = 200,
    embed_samples: int = 40,
    seed: int = _DEFAULT_SEED,
) -> list[Check]:
    rng = random.Random(seed)
    chars, perms = _all_characters(d, n), _all_perms(n)
    one = LPoly.one(d)

    def roundtrip_failure(chi: Character, w: Perm) -> str | None:
        coeffs = {(chi, w): one}
        back = phi_to_e_coeffs(_psi_from_e_coeffs(d, n, coeffs))
        return None if back == coeffs else f"round trip failed on E_{chi} gt_{w}"

    def product_failure(k: int) -> str | None:
        chi, w = rng.choice(chars), rng.choice(perms)
        chi2, w2 = rng.choice(chars), rng.choice(perms)
        if k % 2:  # a random chi2 mostly makes the product zero; w^-1 . chi never does
            chi2 = act(inverse(w), chi)
        lhs = _psi_from_e_coeffs(d, n, e_basis_mul_basis(d, chi, w, chi2, w2))
        rhs = (_psi_from_e_coeffs(d, n, {(chi, w): one})
               * _psi_from_e_coeffs(d, n, {(chi2, w2): one}))
        if lhs != rhs:
            return f"psi not multiplicative on E_{chi} gt_{w} * E_{chi2} gt_{w2}"
        return None

    def embed_failure() -> str | None:
        x = _random_elem(rng, d, n)
        return None if psi(x.extend(n + 1)) == iota(psi(x)) else f"embedding square failed on {x!r}"

    results = [
        _check(f"iso-roundtrip-d{d}-n{n}",
               (roundtrip_failure(chi, w) for chi in chars for w in perms)),
        _check(f"iso-product-d{d}-n{n}", (product_failure(k) for k in range(pairs))),
    ]
    if n <= 3:
        results.append(_check(f"iso-embed-d{d}-n{n}",
                              (embed_failure() for _ in range(embed_samples))))
    if (d, n) == (2, 4):
        from ._golden import golden_checks

        results.extend(golden_checks())
    return results


def suite_markov(d: int, n: int, seed: int = _DEFAULT_SEED) -> list[Check]:
    rng = random.Random(seed)

    def central_failure(spec: TraceSpec) -> str | None:
        x, y = _random_basis_elem(rng, d, n), _random_basis_elem(rng, d, n)
        if rho(spec, y_mul(x, y)) != rho(spec, y_mul(y, x)):
            return f"rho(xy) != rho(yx) for {x!r}, {y!r}"
        return None

    def stab_failure(spec: TraceSpec) -> str | None:
        x = _random_basis_elem(rng, d, n)
        value = rho(spec, x)
        up = x.extend(n + 1)
        if rho(spec, up.mul_g(n)) != value or rho(spec, up.mul_g(n, -1)) != value:
            return f"stabilization failed for {x!r}"
        return None

    return [
        _check(f"markov-{name}-mu0={next(iter(spec.alphas))}",
               (failure(spec) for _ in range(_MARKOV_ROUNDS)))
        for spec in all_basic_specs(d)
        for name, failure in (("central", central_failure), ("stab", stab_failure))
    ]


def suite_schur(d: int, n: int, seed: int = _DEFAULT_SEED) -> list[Check]:
    one = LPoly.one(d)

    def forms_failure(k: tuple[int, ...], w: Perm) -> str | None:
        x = YElem._make(d, n, {(k, w): one})
        if symmetrizing_rho(x) != symmetrizing_tilde(x):
            return f"forms differ on t^{k} gt_{w}"
        return None

    expected = LPoly.const(d, d**n)
    unit = YElem.one(d, n)
    ok = symmetrizing_rho(unit) == expected and symmetrizing_tilde(unit) == expected
    kvecs = itertools.product(range(d), repeat=n)
    return [
        _check(f"schur-identity-d{d}-n{n}", [None if ok else f"value on 1 is not {d**n}"]),
        _check(f"schur-basis-d{d}-n{n}",
               (forms_failure(k, w) for k in kvecs for w in _all_perms(n))),
    ]


def _subsets(d: int):
    for r in range(1, d + 1):
        yield from itertools.combinations(range(1, d + 1), r)


def suite_jl(d: int, n: int, seed: int = _DEFAULT_SEED) -> list[Check]:
    import cmath

    rng = random.Random(seed)
    word = parse_word(" ".join(str(i) for i in range(1, n)), n, d)

    def moment_failure(spec: TraceSpec, subset, b: int) -> str | None:
        got = rho(spec, YElem.t_elem(d, 1, 1, b))
        want = LPoly.const(d, esystem_c(d, subset, b))
        return None if got == want else f"moment b={b}: {got.text()} != {want.text()}"

    def unknot_failure(subset) -> str | None:
        """The numeric unknot at one random (q, z), redrawn while it is
        undefined, at most `_JL_QZ_DRAWS` draws in all."""
        for _ in range(_JL_QZ_DRAWS):
            q = cmath.exp(2j * math.pi * rng.random()) * (0.6 + 0.8 * rng.random())
            z = cmath.exp(2j * math.pi * rng.random()) * (0.6 + 0.8 * rng.random())
            try:
                value = jl_numeric(word, d, subset, q, z, rng.choice((1, -1)))
            except ValueError:
                continue
            if abs(value - 1) > 1e-9:
                return f"unknot value {value!r} at q={q!r}, z={z!r}"
            return None
        return f"unknot undefined at {_JL_QZ_DRAWS} random (q, z) draws"

    results: list[Check] = []
    for subset in _subsets(d):
        spec = jl_spec(d, subset)
        label = "S={" + ",".join(str(a) for a in subset) + "}"
        moments = (moment_failure(spec, subset, b) for b in range(d))
        unknots = (unknot_failure(subset) for _ in range(_JL_QZ_SAMPLES))
        results += [_check(f"jl-moments-{label}", moments), _check(f"jl-unknot-{label}", unknots)]
    return results


# (suite, max d, max n) per name; beyond these the runtime is not supported.
_SUITES = {
    "iso": (suite_iso, 3, 4),
    "markov": (suite_markov, 3, 3),
    "schur": (suite_schur, 3, 3),
    "jl": (suite_jl, 4, 4),
}


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


def run_suite(suite: str, d: int, n: int, seed: int = _DEFAULT_SEED) -> list[Check]:
    """Run one named suite after validating its supported (d, n) range."""
    if suite not in _SUITES:
        raise SuiteConfigError(f"unknown suite {suite!r}")
    suite_fn, max_d, max_n = _SUITES[suite]
    for name, value, top in (("d", d, max_d), ("n", n, max_n)):
        if type(value) is not int or not 1 <= value <= top:
            raise SuiteConfigError(f"suite {suite} supports 1 <= {name} <= {top}, got {value!r}")
    return suite_fn(d, n, seed=seed)
