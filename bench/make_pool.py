"""Regenerate ``pool.json``: the braid words the workloads run, with their
reference outputs.

Run from the repository root (takes a few minutes):

    PYTHONPATH=src python3 bench/make_pool.py

The words are drawn from fixed generator seeds, so the file is
reproducible.  The references come from routes other than the ones the
workload items exercise:

* framed and worked-example invariants: the Y(d, n) oracle
  ``traces.rho(spec, links.delta_gamma(w, d))``, with the image built once
  per word and traced once per spec;
* classical 2-variable invariants: the d = 1 Yokonuma route
  ``links.jl_invariant(w, 1, {1})``, which must agree with ``homflypt``;
* oracle suites: the list of check ids each suite reports.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

from items import POOL_PATH, flip_word, relabel_support, relabel_word, support_key

from yokohecke.links import delta_H, delta_gamma, homflypt, jl_invariant, parse_word
from yokohecke.permcomp import Composition
from yokohecke.traces import all_basic_specs, basic_spec, jl_spec, rho
from yokohecke.verify import run_suite

FRAMED_D, FRAMED_N = 3, 4
# Item kind of each framed word, in pool order.  --all-basic goes to the
# second word, whose single-spec cost (about 0.4 s) keeps that item near
# 3 s; on the first word it would take 11 s, over half of a pass.
FRAMED_KINDS = ("mu0", "all-basic", "mu0", "mu0", "jl", "jl", "jl-numeric")
# delta_gamma term counts that put one single-spec item near 0.5-1.2 s
FRAMED_TERMS = (100, 200)

CLASSICAL_RANDOM = 10
# delta_H term counts that put one item near 0.3-1.3 s
CLASSICAL_TERMS = (200, 1000)
CLASSICAL_TORUS = ((6, 7), (7, 4))  # (strands, power of sigma_1 ... sigma_{n-1})

WORKED = {
    "L10a46": "1 1 -2 -3 -2 1 1 1 -2 3 -2 1",
    "L10a110": "-1 2 2 2 -1 -3 2 2 2 -3",
}

ORACLE_SUITES = (
    ("iso", 2, 4), ("iso", 3, 3), ("iso", 3, 4),
    ("markov", 2, 3), ("markov", 3, 3), ("schur", 3, 3),
)


def random_framed_word(rng: random.Random, d: int, n: int) -> str:
    """Length 8-12, mixed signs, about 15 % framing tokens t_j^k."""
    toks = []
    for _ in range(rng.randint(8, 12)):
        if rng.random() < 0.15:
            toks.append(f"t{rng.randint(1, n)}^{rng.randint(1, d - 1)}")
        else:
            toks.append(str(rng.randint(1, n - 1) * rng.choice((1, -1))))
    return " ".join(toks)


def random_classical_word(rng: random.Random) -> tuple[int, str]:
    """6 or 7 strands, length 30-44, four crossings in five positive."""
    n = rng.choice((6, 7))
    toks = []
    for _ in range(rng.randint(30, 44)):
        sign = 1 if rng.random() < 0.8 else -1
        toks.append(str(rng.randint(1, n - 1) * sign))
    return n, " ".join(toks)


def uses_every_generator(word: str, n: int) -> bool:
    used = {abs(int(t)) for t in word.split() if not t.startswith("t")}
    return used == set(range(1, n))


def framed_entry(word: str, kind: str) -> dict:
    d, n = FRAMED_D, FRAMED_N
    x = delta_gamma(parse_word(word, n, d), d)
    basic = {}
    for spec in all_basic_specs(d):
        (mu0,) = spec.alphas
        basic[support_key(mu0.parts)] = rho(spec, x).text()
    jl, jl_machine = {}, {}
    for subset in itertools.combinations(range(1, d + 1), 2):
        poly = rho(jl_spec(d, subset), x)
        jl[support_key(subset)] = poly.text()
        jl_machine[support_key(subset)] = poly.machine_lines()
    return {"kind": kind, "word": word, "terms": len(x.terms), "basic": basic,
            "jl": jl, "jl_machine": jl_machine}


def framed_pool() -> dict:
    rng = random.Random("framed-pool")
    words = []
    while len(words) < len(FRAMED_KINDS):
        word = random_framed_word(rng, FRAMED_D, FRAMED_N)
        if not uses_every_generator(word, FRAMED_N):
            continue
        terms = len(delta_gamma(parse_word(word, FRAMED_N, FRAMED_D), FRAMED_D).terms)
        if not FRAMED_TERMS[0] <= terms <= FRAMED_TERMS[1]:
            continue
        words.append(framed_entry(word, FRAMED_KINDS[len(words)]))
        print(f"framed {len(words)}: {word} ({terms} terms)", file=sys.stderr)
    return {"d": FRAMED_D, "n": FRAMED_N, "words": words}


def classical_reference(word: str, n: int) -> str:
    w = parse_word(word, n, None)
    ref = jl_invariant(w, 1, {1})
    if ref != homflypt(w):
        raise SystemExit(f"d=1 route and homflypt disagree on {word!r}")
    return ref.text()


def classical_pool() -> dict:
    rng = random.Random("classical-pool")
    words = []
    while len(words) < CLASSICAL_RANDOM:
        n, word = random_classical_word(rng)
        if not uses_every_generator(word, n):
            continue
        terms = len(delta_H(parse_word(word, n, None)).terms)
        if not CLASSICAL_TERMS[0] <= terms <= CLASSICAL_TERMS[1]:
            continue
        words.append({"kind": "random", "n": n, "word": word, "terms": terms,
                      "homflypt": classical_reference(word, n)})
        print(f"classical {len(words)}: n={n} ({terms} terms)", file=sys.stderr)
    for n, power in CLASSICAL_TORUS:
        word = " ".join(" ".join(str(i) for i in range(1, n)) for _ in range(power))
        terms = len(delta_H(parse_word(word, n, None)).terms)
        words.append({"kind": "torus", "n": n, "word": word, "terms": terms,
                      "homflypt": classical_reference(word, n)})
        print(f"classical torus n={n}^{power} ({terms} terms)", file=sys.stderr)
    return {"words": words}


def worked_pool() -> dict:
    spec = basic_spec(Composition((1, 1)))
    words = {}
    for name, word in WORKED.items():
        w = parse_word(word, 4, 2)
        words[name] = {
            "word": word,
            "invariant": rho(spec, delta_gamma(w, 2)).text(),
            "homflypt": classical_reference(word, 4),
        }
    return {"d": 2, "n": 4, "mu0": "1,1", "words": words}


def oracle_pool() -> dict:
    suites = []
    for suite, d, n in ORACLE_SUITES:
        results = run_suite(suite, d, n, seed=1)
        if not all(ok for _, ok, _ in results):
            raise SystemExit(f"suite {suite} d={d} n={n} fails at seed 1")
        suites.append({"suite": suite, "d": d, "n": n,
                       "checks": [cid for cid, _, _ in results]})
    return {"suites": suites}


def check_variants(pool: dict) -> None:
    """The flip and relabel variants keep the stored outputs (items.py)."""
    fr = pool["framed"]
    entry = min(fr["words"], key=lambda e: e["terms"])
    flipped = flip_word(entry["word"], fr["n"])
    if framed_entry(flipped, entry["kind"])["basic"] != entry["basic"]:
        raise SystemExit(f"flip variant {flipped!r} changes the stored invariants")
    relabeled = relabel_word(entry["word"], fr["d"])
    got = framed_entry(relabeled, entry["kind"])["basic"]
    for key, value in got.items():
        parts = tuple(int(p) for p in key.split(","))
        if value != entry["basic"][support_key(relabel_support(parts))]:
            raise SystemExit(f"relabel variant {relabeled!r} breaks support {key}")


def main() -> None:
    pool = {
        "framed": framed_pool(),
        "worked": worked_pool(),
        "classical": classical_pool(),
        "oracle": oracle_pool(),
    }
    check_variants(pool)
    tmp = POOL_PATH + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, POOL_PATH)


if __name__ == "__main__":
    main()
