"""Workload items: what one pass of each workload runs, and how its
output is checked.

Every workload draws its items from ``pool.json``, a fixed set of braid
words whose outputs were computed once by an independent route (see
``make_pool.py``).  The bench seed then picks, per word, a variant that
represents the same closed link -- so the stored output still applies --
and costs the same to compute, so a pass takes the same time whatever the
seed:

* ``flip`` conjugates the braid by the half twist: ``sigma_i`` becomes
  ``sigma_{n-i}`` and ``t_j`` becomes ``t_{n+1-j}``.  The closure is the
  same link, so every invariant is unchanged.
* ``relabel`` (framed words, d = 3) doubles every framing exponent.  The
  map ``t_j -> t_j^2`` is an automorphism of Y(3, n) fixing ``g_i`` and
  ``e_i``; it swaps the letters 2 and 3 (``xi_2 <-> xi_3``), so the
  invariant for a support ``mu0`` equals the stored invariant of the base
  word for the support with those two parts swapped.

The seed also picks the trace support of each ``--mu0`` item, the numeric
point of the ``--q/--z`` item, the suite seed of the oracle items, and the
order of the items within the pass.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "pool.json")

WORKLOADS = ("framed", "classical", "oracle")


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- word variants ------------------------------------------------------------

def flip_word(word: str, n: int) -> str:
    """Conjugate by the half twist: sigma_i -> sigma_{n-i}, t_j -> t_{n+1-j}."""
    out = []
    for tok in word.split():
        if tok.startswith("t"):
            j, k = tok[1:].split("^")
            out.append(f"t{n + 1 - int(j)}^{k}")
        else:
            v = int(tok)
            out.append(str((n - abs(v)) * (1 if v > 0 else -1)))
    return " ".join(out)


def relabel_word(word: str, d: int) -> str:
    """Double every framing exponent (mod d)."""
    out = []
    for tok in word.split():
        if tok.startswith("t"):
            j, k = tok[1:].split("^")
            out.append(f"t{j}^{(2 * int(k)) % d}")
        else:
            out.append(tok)
    return " ".join(out)


def relabel_letters(letters, d: int) -> tuple[int, ...]:
    """Letters a whose roots xi_a = zeta^(a-1) are squared: a -> 2(a-1)+1 mod d."""
    return tuple(sorted((2 * (a - 1)) % d + 1 for a in letters))


def relabel_support(parts: tuple[int, ...]) -> tuple[int, ...]:
    d = len(parts)
    letters = [a for a, p in enumerate(parts, start=1) if p]
    moved = set(relabel_letters(letters, d))
    return tuple(1 if a in moved else 0 for a in range(1, d + 1))


def support_key(parts) -> str:
    return ",".join(str(p) for p in parts)


# -- numeric evaluation of a stored polynomial ---------------------------------

def eval_machine_lines(lines: list[str], d: int, u, v, g) -> complex:
    """Evaluate a polynomial given as ``--machine`` lines, in plain floats."""
    zeta = cmath.exp(2j * math.pi / d)
    total = 0j
    for line in lines:
        parts = line.split()
        eu, ev, eg = (int(x) for x in parts[:3])
        coeff = sum(float(Fraction(c)) * zeta**k for k, c in enumerate(parts[3:]))
        total += coeff * u**eu * v**ev * g**eg
    return total


def jl_point(q: complex, z: complex, subset_size: int):
    """The (u, v, g) at which ``jl --q --z`` (branch +1) evaluates the invariant."""
    lam = (z + (1 - q) / subset_size) / (q * z)
    sqlam = cmath.sqrt(lam)
    sqq = cmath.sqrt(q)
    return sqq * sqlam, (q - 1) * sqlam, 1 / sqq


def _complex_arg(c: complex) -> str:
    return f"{c.real:.6f}{c.imag:+.6f}j"


# -- items ---------------------------------------------------------------------

def _cli(label: str, args: list[str], expect: str) -> dict:
    return {"label": label, "kind": "cli", "args": args, "expect": expect}


def _framed_items(pool: dict, rng: random.Random) -> list[dict]:
    fr = pool["framed"]
    d, n = fr["d"], fr["n"]
    items = []
    supports = sorted(fr["words"][0]["basic"])
    for idx, entry in enumerate(fr["words"]):
        word, kind = entry["word"], entry["kind"]
        flip, relabel = rng.random() < 0.5, rng.random() < 0.5
        if flip:
            word = flip_word(word, n)
        if relabel:
            word = relabel_word(word, d)

        def stored(parts: tuple[int, ...]) -> str:
            key = relabel_support(parts) if relabel else parts
            return entry["basic"][support_key(key)]

        def stored_jl(subset, field="jl"):
            key = relabel_letters(subset, d) if relabel else tuple(subset)
            return entry[field][support_key(key)]

        label = f"framed/{kind}#{idx}"
        base = ["--d", str(d), "--n", str(n)]
        if kind == "all-basic":
            lines = []
            for key in supports:
                parts = tuple(int(p) for p in key.split(","))
                lines.append(f"mu0=({key}) : {stored(parts)}")
            args = ["invariant", *base, "--all-basic", "--word", word]
            items.append(_cli(label, args, "\n".join(lines) + "\n"))
        elif kind == "mu0":
            key = rng.choice(supports)
            parts = tuple(int(p) for p in key.split(","))
            args = ["invariant", *base, "--mu0", key, "--word", word]
            items.append(_cli(label, args, stored(parts) + "\n"))
        elif kind == "jl":
            args = ["jl", "--d", str(d), "--S", "1,2", "--n", str(n), "--word", word]
            items.append(_cli(label, args, stored_jl((1, 2)) + "\n"))
        elif kind == "jl-numeric":
            while True:
                q = cmath.rect(0.6 + 0.8 * rng.random(), 2 * math.pi * rng.random())
                z = cmath.rect(0.6 + 0.8 * rng.random(), 2 * math.pi * rng.random())
                q, z = complex(_complex_arg(q)), complex(_complex_arg(z))
                lam = (z + (1 - q) / 2) / (q * z)
                if abs(lam) > 0.05:
                    break
            lines = stored_jl((1, 2), "jl_machine")
            value = eval_machine_lines(lines, d, *jl_point(q, z, 2))
            args = [
                "jl", "--d", str(d), "--S", "1,2", "--n", str(n), "--word", word,
                f"--q={_complex_arg(q)}", f"--z={_complex_arg(z)}",
            ]
            items.append({"label": label, "kind": "cli", "args": args,
                          "expect_complex": [value.real, value.imag]})
        else:
            raise ValueError(f"unknown framed item kind {kind!r}")

    wk = pool["worked"]
    for name, entry in sorted(wk["words"].items()):
        word = entry["word"]
        args = ["invariant", "--d", str(wk["d"]), "--n", str(wk["n"]),
                "--mu0", wk["mu0"], "--word", word]
        items.append(_cli(f"framed/worked-invariant-{name}", args, entry["invariant"] + "\n"))
        args = ["homflypt", "--n", str(wk["n"]), "--word", word]
        items.append(_cli(f"framed/worked-homflypt-{name}", args, entry["homflypt"] + "\n"))
    return items


def _classical_items(pool: dict, rng: random.Random) -> list[dict]:
    items = []
    for idx, entry in enumerate(pool["classical"]["words"]):
        n, word = entry["n"], entry["word"]
        if rng.random() < 0.5:
            word = flip_word(word, n)
        args = ["homflypt", "--n", str(n), "--word", word]
        items.append(_cli(f"classical/{entry['kind']}#{idx}", args, entry["homflypt"] + "\n"))
    return items


def _oracle_items(pool: dict, seed: int) -> list[dict]:
    items = []
    for entry in pool["oracle"]["suites"]:
        suite, d, n = entry["suite"], entry["d"], entry["n"]
        items.append({
            "label": f"oracle/{suite}-d{d}-n{n}",
            "kind": "suite",
            "args": [suite, str(d), str(n), str(seed)],
            "expect": "".join(f"PASS {cid}\n" for cid in entry["checks"]),
        })
    return items


def build_pass(workload: str, seed: int) -> list[dict]:
    """The items of one pass of ``workload`` for ``seed``, in run order."""
    pool = load_pool()
    rng = random.Random(f"{workload}:{seed}")
    if workload == "framed":
        items = _framed_items(pool, rng)
    elif workload == "classical":
        items = _classical_items(pool, rng)
    elif workload == "oracle":
        items = _oracle_items(pool, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def check_output(item: dict, code: int, out: str, err: str) -> bool:
    """An item passes on exit 0, empty stderr and the stored output."""
    if code != 0 or err:
        return False
    if "expect_complex" in item:
        try:
            got = complex(out.strip())
        except ValueError:
            return False
        want = complex(*item["expect_complex"])
        return abs(got - want) <= 1e-6 * max(1.0, abs(want))
    return out == item["expect"]
