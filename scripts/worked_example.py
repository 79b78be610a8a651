#!/usr/bin/env python3
"""Walk through the headline computation: two 4-strand braid words whose
closures (the links L10a46 and L10a110) are topologically different, share
the 2-variable invariant, and also share the 3-variable invariant for
d = 2 with support (1,1).

Run:  python3 scripts/worked_example.py
"""

import time

from yokohecke.exactnum import LPoly
from yokohecke.links import (
    component_count,
    homflypt,
    invariant_contributions,
    invariant_gamma,
    parse_word,
    underlying_perm,
)
from yokohecke.permcomp import Composition, all_compositions, cycles
from yokohecke.traces import basic_spec

WORDS = {
    "L10a46": "1 1 -2 -3 -2 1 1 1 -2 3 -2 1",
    "L10a110": "-1 2 2 2 -1 -3 2 2 2 -3",
}


def main():
    spec = basic_spec(Composition((1, 1)))

    print("braid words on 4 strands")
    for name, text in WORDS.items():
        w = parse_word(text, 4, 2)
        perm = underlying_perm(w)
        print(f"  {name:8s} {text}")
        print(f"           permutation {perm}, cycles {cycles(perm)},"
              f" {component_count(w)} components")
    print()

    print("2-variable invariant of the closures")
    values = {}
    for name, text in WORDS.items():
        values[name] = homflypt(parse_word(text, 4, None))
        print(f"  {name:8s} {values[name].text()}")
    print(f"  equal: {values['L10a46'] == values['L10a110']}")
    print()

    print("3-variable invariant, d=2, support (1,1)")
    totals = {}
    for name, text in WORDS.items():
        w = parse_word(text, 4, 2)
        t0 = time.perf_counter()
        contributions = invariant_contributions(w, spec)
        totals[name] = invariant_gamma(w, spec)
        dt = time.perf_counter() - t0
        print(f"  {name} ({dt:.2f} s)")
        for mu in all_compositions(2, 4):
            print(f"    block {mu}: {contributions.get(mu, LPoly.zero(2)).text()}")
        print(f"    total: {totals[name].text()}")
    print(f"  equal: {totals['L10a46'] == totals['L10a110']}")


if __name__ == "__main__":
    main()
