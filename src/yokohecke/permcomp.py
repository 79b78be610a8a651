"""Symmetric group combinatorics: permutations, compositions, characters.

Conventions used throughout the package:

* A permutation w of {1, ..., n} is a plain tuple in one-line notation,
  `w[i-1]` being the image of i.  Composition is (v * w)(i) = v(w(i)), so in
  a product the right factor acts first, and a braid word read left to right
  multiplies up as w1 * w2 * ... * wr.
* s_i denotes the simple transposition (i, i+1), for i in 1..n-1.
* A composition mu of n with d parts is a tuple of non-negative integers
  summing to n; it records how many strands carry each of the d letters.
* A character chi assigns to each position j in 1..n a letter in 1..d; it is
  stored as the tuple of letters.  The symmetric group acts by permuting
  positions: (w . chi)(w(j)) = chi(j).

>>> compose(s_perm(3, 1), s_perm(3, 2))   # s_1 s_2 = cycle 1->2->3->1
(2, 3, 1)
>>> reduced_word((2, 1, 4, 3))
(1, 3)
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

__all__ = [
    "Perm",
    "Character",
    "identity",
    "s_perm",
    "compose",
    "inverse",
    "length",
    "reduced_word",
    "extend",
    "cycles",
    "Composition",
    "all_compositions",
    "all_comp0",
    "comp_of",
    "chi_one",
    "orbit",
    "orbit_index",
    "min_coset_rep",
    "act",
    "in_young",
    "block_split",
]

Perm = tuple[int, ...]
Character = tuple[int, ...]


# --------------------------------------------------------------------------
# permutations
# --------------------------------------------------------------------------

def _check_order(d) -> None:
    """The one check of an order, run before any cache keyed on it: an int,
    not a bool (here and below, an integer is `type(x) is int`), at least 1."""
    if type(d) is not int:
        raise ValueError(f"order must be an integer, got {d!r}")
    if d < 1:
        raise ValueError(f"order must be >= 1, got {d}")


def _check_strands(n) -> None:
    if type(n) is not int:
        raise ValueError(f"strand count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("strand count must be at least 1")


def _check_generator(n: int, i) -> None:
    if type(i) is not int:
        raise ValueError(f"generator index must be an integer, got {i!r}")
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")


def _check_crossing(n: int, i, sign) -> None:
    _check_generator(n, i)
    if not (type(sign) is int and sign in (1, -1)):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")


def _check_framing(n: int, j, power) -> None:
    if not (type(j) is int and 1 <= j <= n):
        raise ValueError(f"framing index {j!r} out of range for {n} strands")
    if type(power) is not int:
        raise ValueError(f"framing power must be an integer, got {power!r}")


def _is_perm(w, n: int) -> bool:
    """Is w a permutation: a tuple of ints, not bools, holding each of 1..n once?"""
    return type(w) is tuple and all([type(x) is int for x in w]) and sorted(w) == [*range(1, n + 1)]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def s_perm(n: int, i: int) -> Perm:
    """The simple transposition s_i in S_n.

    >>> s_perm(4, 2)
    (1, 3, 2, 4)
    """
    _check_generator(n, i)
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def compose(v: Perm, w: Perm) -> Perm:
    """(v * w)(i) = v(w(i)): w acts first."""
    return tuple([v[x - 1] for x in w])


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def length(w: Perm) -> int:
    """Coxeter length = number of inversions.

    >>> length((1, 2, 3)), length((3, 2, 1))
    (0, 3)
    """
    n = len(w)
    return sum([1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j]])


def reduced_word(w: Perm) -> tuple[int, ...]:
    """The lexicographically smallest reduced word for w.

    Repeatedly strips the smallest left descent, i.e. bubble-sorts the
    one-line form of w^{-1} while recording swaps; the resulting generators
    multiply back to w left to right.

    >>> reduced_word((2, 1, 4, 3))
    (1, 3)
    >>> reduced_word((3, 1, 2))
    (2, 1)
    """
    inv = list(inverse(w))
    word: list[int] = []
    i = 0
    while i < len(inv) - 1:
        if inv[i] > inv[i + 1]:
            word.append(i + 1)
            inv[i], inv[i + 1] = inv[i + 1], inv[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(word)


def extend(w: Perm, m: int) -> Perm:
    """View w in S_m (m >= len(w)) by fixing the new points."""
    if m < len(w):
        raise ValueError("cannot extend to a smaller size")
    return w + tuple(range(len(w) + 1, m + 1))


def cycles(w: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition, including fixed points, each cycle led by its minimum.

    >>> cycles((2, 4, 3, 1))
    [(1, 2, 4), (3,)]
    """
    seen = [False] * len(w)
    out = []
    for start in range(1, len(w) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        j = w[start - 1]
        while j != start:
            cyc.append(j)
            seen[j - 1] = True
            j = w[j - 1]
        out.append(tuple(cyc))
    return out


# --------------------------------------------------------------------------
# compositions
# --------------------------------------------------------------------------

class Composition(namedtuple("Composition", "parts")):
    """A d-tuple of non-negative integers summing to n (parts may be zero).

    An immutable named tuple that equals, orders and hashes as the plain tuple
    of its fields: ``Composition((1, 0)) == ((1, 0),)``.  Assigning a field
    raises AttributeError; ``_make((parts,))`` builds without the checks (see `exactnum.Sparse`).
    """

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        if type(parts) is not tuple or not all([type(p) is int for p in parts]):
            raise ValueError(f"parts must be a tuple of integers, got {parts!r}")
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        return tuple.__new__(cls, (parts,))

    @property
    def d(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @lru_cache(maxsize=1024)
    def base(self) -> "Composition":
        """Replace every nonzero part by 1; memoized in a fixed-size cache.

        >>> Composition((3, 0, 1)).base()
        Composition(parts=(1, 0, 1))
        """
        return Composition._make((tuple([1 if p else 0 for p in self.parts]),))

    @lru_cache(maxsize=1024)
    def letters(self) -> frozenset[int]:
        """The letters with a nonzero part; memoized like `base`.

        >>> Composition((3, 0, 1)).letters()
        frozenset({1, 3})
        """
        return frozenset([a for a, p in enumerate(self.parts, start=1) if p])

    def bump(self, a: int) -> "Composition":
        """Add 1 to part a (1-indexed), a letter checked by `comp_of`."""
        comp_of((a,), self.d)
        parts = list(self.parts)
        parts[a - 1] += 1
        return Composition._make((tuple(parts),))

    def multiplicity(self) -> int:
        """Size of the character orbit: the multinomial n! / prod(mu_a!).

        >>> Composition((2, 2)).multiplicity()
        6
        """
        out = math.factorial(self.n)
        for p in self.parts:
            out //= math.factorial(p)
        return out

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


def all_compositions(d: int, n: int) -> list[Composition]:
    """All compositions of n with d parts, ascending lexicographic order.

    >>> [c.parts for c in all_compositions(2, 2)]
    [(0, 2), (1, 1), (2, 0)]
    """
    out = []
    # the cuts come in lexicographic order, and so do the parts they give
    for cuts in itertools.combinations(range(n + d - 1), d - 1):
        ext = (-1,) + cuts + (n + d - 1,)
        out.append(Composition._make((tuple([ext[i + 1] - ext[i] - 1 for i in range(d)]),)))
    return out


def all_comp0(d: int) -> list[Composition]:
    """The 2^d - 1 nonzero compositions with parts in {0, 1}, ascending lex."""
    out = []
    for bits in itertools.product((0, 1), repeat=d):
        if any(bits):
            out.append(Composition._make((bits,)))
    return out


def comp_of(chi: Character, d: int) -> Composition:
    """Letter multiplicities of a character; the one check of a letter,
    which must be an int, not a bool, in 1..d.

    >>> comp_of((1, 2, 1, 1), 2)
    Composition(parts=(3, 1))
    """
    _check_order(d)
    counts = [0] * d
    for a in chi:
        if type(a) is not int or not 1 <= a <= d:
            raise ValueError(f"letter {a!r} out of range 1..{d}")
        counts[a - 1] += 1
    return Composition._make((tuple(counts),))


def _check_support(mu0, d: int | None) -> None:
    """The one check of a support: a nonzero `Composition` with parts in
    {0, 1}, and with d parts unless d is None."""
    if type(mu0) is not Composition:
        raise ValueError(f"{mu0} is not a nonzero 0/1 composition")
    if d is not None and mu0.d != d:
        raise ValueError(f"support {mu0} has {mu0.d} parts, expected {d}")
    if any(p not in (0, 1) for p in mu0.parts) or mu0.n == 0:
        raise ValueError(f"{mu0} is not a nonzero 0/1 composition")


def _check_character(chi, d: int) -> Composition:
    """`comp_of` of a character from outside, which must be a tuple."""
    if type(chi) is not tuple:
        raise ValueError(f"character {chi!r} is not a tuple of letters")
    return comp_of(chi, d)


# --------------------------------------------------------------------------
# characters and their orbit combinatorics
# --------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def chi_one(mu: Composition) -> Character:
    """The block-sorted character: mu_1 ones, then mu_2 twos, etc.

    Its stabilizer in S_n is exactly the Young subgroup of mu.  Memoized in
    a fixed-size cache, which cannot grow with the compositions.

    >>> chi_one(Composition((3, 1)))
    (1, 1, 1, 2)
    """
    out: list[int] = []
    for a, p in enumerate(mu.parts, start=1):
        out.extend([a] * p)
    return tuple(out)


def orbit(mu: Composition) -> tuple[Character, ...]:
    """All characters with letter multiplicities mu, in ascending
    lexicographic order; the block-sorted chi_one(mu) is the least of them,
    so it comes first.

    >>> orbit(Composition((1, 1)))
    ((1, 2), (2, 1))
    """
    return tuple(sorted(set(itertools.permutations(chi_one(mu)))))


@lru_cache(maxsize=None)
def orbit_index(mu: Composition) -> dict[Character, int]:
    """Map each orbit character to its 0-based position in `orbit(mu)`."""
    return {chi: k for k, chi in enumerate(orbit(mu))}


def act(w: Perm, chi: Character) -> Character:
    """The position action: (w . chi) has letter chi(j) at position w(j).

    >>> act((1, 3, 4, 2), (1, 1, 1, 2))
    (1, 2, 1, 1)
    """
    out = [0] * len(chi)
    for j, a in enumerate(chi):
        out[w[j] - 1] = a
    return tuple(out)


def min_coset_rep(chi: Character, d: int) -> Perm:
    """The shortest permutation sending chi_one(comp_of(chi)) to chi.

    It sends the letter blocks, in order, to the positions of each letter
    taken in increasing order (a stable sort of the positions by letter),
    which keeps every letter block order-preserved; this is the distinguished (minimal
    length) representative of the left coset pi * Stab(chi_one).

    >>> min_coset_rep((1, 2, 1, 1), 2)
    (1, 3, 4, 2)
    """
    _check_character(chi, d)
    return _min_coset_rep(chi)


@lru_cache(maxsize=4096)
def _min_coset_rep(chi: Character) -> Perm:
    """`min_coset_rep` of a valid character, memoized in a fixed-size cache."""
    return tuple(sorted(range(1, len(chi) + 1), key=lambda j: chi[j - 1]))


# --------------------------------------------------------------------------
# Young subgroups
# --------------------------------------------------------------------------

def in_young(w: Perm, mu: Composition) -> bool:
    """Is w in S_{|mu|} and does it preserve every letter block of mu?"""
    if len(w) != mu.n:
        return False
    letter = chi_one(mu)
    return all(letter[w[j] - 1] == letter[j] for j in range(len(w)))


def block_split(w: Perm, mu: Composition) -> list[Perm]:
    """Split w in the Young subgroup of mu into per-block permutations,
    each renumbered to 1..mu_a (zero parts give empty tuples).

    >>> block_split((2, 1, 3, 4), Composition((3, 1)))
    [(2, 1, 3), (1,)]
    """
    if not in_young(w, mu):
        raise ValueError(f"{w} is not in the Young subgroup of {mu}")
    out, lo = [], 0  # lo: the positions before the block
    for p in mu.parts:
        out.append(tuple([w[j] - lo for j in range(lo, lo + p)]))
        lo += p
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
