#!/usr/bin/env python3
"""Survey the basic-trace invariants on a few standard closures.

For each d in {1, 2, 3} and each of the 2^d - 1 basic traces, evaluate the
3-variable invariant on small braid closures, and finish with the
subset-weighted specializations on the trefoil.

Run:  python3 scripts/trace_survey.py [--d 2]
"""

import argparse
import itertools

from yokohecke.links import jl_invariant, invariant_gamma, parse_word
from yokohecke.traces import all_basic_specs, format_trace_spec

CLOSURES = [
    ("unknot", "", 1),
    ("unlink(2)", "", 2),
    ("hopf", "1 1", 2),
    ("trefoil", "1 1 1", 2),
    ("figure-8", "1 -2 1 -2", 3),
    ("framed unknot", "t1^1", 1),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=None, help="only this framing modulus")
    args = ap.parse_args()
    ds = [args.d] if args.d else [1, 2, 3]

    for d in ds:
        print(f"== d = {d}")
        for spec in all_basic_specs(d):
            print(f"  {format_trace_spec(spec)}")
            for name, text, n in CLOSURES:
                if "t" in text and d == 1:
                    continue  # framings are trivial at d = 1
                w = parse_word(text, n, d)
                val = invariant_gamma(w, spec)
                print(f"    {name:14s} {val.text()}")
        print()

    print("== subset-weighted invariants of the trefoil")
    for d in ds:
        w = parse_word("1 1 1", 2, d)
        for r in range(1, d + 1):
            for S in itertools.combinations(range(1, d + 1), r):
                val = jl_invariant(w, d, S)
                print(f"  d={d} S={set(S)}: {val.text()}")


if __name__ == "__main__":
    main()
