"""Constructions of binomial poset truncations, and the section words
that name the type-(1,1,2,2,...) ones.

A section word is a word over {1, 2} with no two adjacent 2s.  The word
language validates, enumerates and counts these words, and builds a
versal word that contains every one of them up to a given length.

Every builder lists each element's lower covers as integer positions,
counted level by level, and hands them to core, which names the elements
with uniform "rank:index" ids and validates the diagram.  Ids are for
debugging only; nothing downstream depends on them.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Sequence

from .core import AtomicSequence, GradedPoset, PosetError, grid_ids
from .core import _as_sequence, _from_down, _validated, _whole

__all__ = [
    "validate_string",
    "valid_words",
    "count_valid_words",
    "versal_string",
    "poset_from_string",
    "debruijn_poset",
    "stripped_boolean_interval",
    "m_interval",
    "divisible_poset",
]

# ---------------------------------------------------------------------------
# the word language


def validate_string(word: str) -> bool:
    """True iff the word is over {1,2} with no two adjacent 2s."""
    if not isinstance(word, str):
        raise PosetError(f"section word must be a string, got {word!r}")
    if any(ch not in "12" for ch in word):
        raise PosetError(f"bad section word {word!r}: letters must be 1 or 2")
    return "22" not in word


def valid_words(length: int) -> Iterator[str]:
    """All valid words of the given length, lexicographically."""
    length = _whole(length, "length")
    word = ["1"] * length
    while True:
        yield "".join(word)
        # the next word raises the rightmost 1 whose left neighbour is not
        # a 2, and resets the letters after it to 1s
        i = length - 1
        while i >= 0 and (word[i] == "2" or (i and word[i - 1] == "2")):
            i -= 1
        if i < 0:
            return
        word[i:] = ["2"] + ["1"] * (length - i - 1)


def count_valid_words(length: int) -> int:
    """Number of valid words of the given length: c(L) = c(L-1) + c(L-2)."""
    length = _whole(length, "length")
    a, b = 1, 2  # c(0), c(1)
    for _ in range(length):
        a, b = b, a + b
    return a


def versal_string(max_length: int) -> str:
    """A valid word containing every valid word of length <= max_length as
    a contiguous substring: the words in (length, lex) order, joined by 1s."""
    max_length = _whole(max_length, "max_length", 1)
    words = [w for n in range(1, max_length + 1) for w in valid_words(n)]
    return "1".join(words)


# ---------------------------------------------------------------------------
# constructions

def _diagram(widths: Sequence[int], down: Sequence[Iterable[int]]) -> GradedPoset:
    """The validated diagram with these level widths whose i-th element,
    counted level by level, has the lower covers ``down[i]``."""
    return _validated(_from_down(grid_ids(widths), down))


def _word_diagram(level_words: list[list[tuple]], lower: Callable) -> GradedPoset:
    """The validated diagram whose rank-i elements are ``level_words[i]``,
    in that order, a rank-i word t covering the words ``lower(i, t)``."""
    keys = [(i, w) for i, words in enumerate(level_words) for w in words]
    pos = dict(zip(keys, range(len(keys))))
    down = [[pos[i - 1, s] for s in lower(i, t)] if i else [] for i, t in keys]
    return _diagram([len(words) for words in level_words], down)


# The three 2+2 partitions of positions {0,1,2,3}, in lexicographic order.
_PARTS = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)


def poset_from_string(word: str, height: int | None = None) -> GradedPoset:
    """The type-(1,1,2,2,...) truncation whose section word is ``word``.

    Levels have widths 1, 2, 4, 4, ...; the poset has height
    ``len(word) + 2`` (one section per letter, plus the two bottom
    sections forced by widths 1, 2, 4).

    Wiring invariant: after each level is attached, ``forbidden`` holds
    the 2+2 position partitions of the new top level that are induced
    from below (as upper-cover sets of the previous level).  A letter 1
    glues two 4-cycles along the lexicographically least partition not in
    that set; a letter 2 threads an 8-cycle alternating across the unique
    forbidden partition.  Avoiding the forbidden set is exactly what
    keeps every section count correct, so the measured word of the result
    equals ``word``.
    """
    if not validate_string(word):
        raise PosetError(f"invalid section word {word!r}: adjacent 2s")
    want = len(word) + 2
    if height is None:
        height = want
    if height != want:
        raise PosetError(f"word of length {len(word)} forces height {want}, got {height}")
    # Width 2 -> 4: each bottom-level element gets both elements of one
    # parity class, making the up-sets {0,2} and {1,3}.
    down: list[tuple[int, ...]] = [(), (0,), (0,), (1,), (2,), (1,), (2,)]
    forbidden = {_PARTS[1]}
    for j, letter in enumerate(word):
        lo = 3 + 4 * j  # position of the first element of level j + 2
        if letter == "1":
            part = next(pp for pp in _PARTS if pp not in forbidden)
            pairs = (part[0], part[0], part[1], part[1])
            forbidden = {_PARTS[0]}
        else:
            if len(forbidden) != 1:
                raise AssertionError("adjacent 2s slipped through validation")
            ((p0, q0), (r0, s0)) = next(iter(forbidden))
            cycle = (p0, r0, q0, s0)
            pairs = tuple((cycle[t], cycle[(t + 1) % 4]) for t in range(4))
            forbidden = {_PARTS[0], _PARTS[2]}
        down.extend((lo + u, lo + v) for u, v in pairs)
    return _diagram((1, 2) + (4,) * (height - 1), down)


def debruijn_poset(m: int, n: int, height: int) -> GradedPoset:
    """Shift-register poset over an n-letter alphabet with window m.

    Rank-i elements are the words in [n]^min(i, m); a word covers another
    when dropping its last letter leaves a suffix of the lower word.
    For m >= 1 it realizes the atom sequence (1^m, n, n, ...); window 0
    gives a chain, whose atom counts are all 1."""
    m, n, height = _whole(m, "m"), _whole(n, "n", 1), _whole(height, "height")
    levels = [list(product(range(n), repeat=min(i, m))) for i in range(height + 1)]

    def lower(i: int, t: tuple) -> list[tuple]:
        # below the window: the head itself; at the window: the head behind each letter
        head = t[:-1]
        return [head] if len(head) == min(i - 1, m) else [(x,) + head for x in range(n)]

    return _word_diagram(levels, lower)


def stripped_boolean_interval(n: int, k: int) -> GradedPoset:
    """k copies of the subset lattice on n atoms, glued at bottom and top.

    The proper part of each copy is kept disjoint; a fresh bottom sits
    under every copy's atoms and a fresh top over every copy's
    coatoms.  Realizes the atom sequence (1, 2, ..., n-1, kn)."""
    n, k = _whole(n, "n", 2), _whole(k, "k", 1)
    levels = [[(copy, s) for copy in range(k) for s in combinations(range(n), j)]
              for j in range(n + 1)]
    levels[0] = levels[n] = [()]

    def lower(j: int, t: tuple) -> list[tuple]:
        if j in (1, n):  # the shared bottom, or every copy's coatoms
            return levels[j - 1]
        copy, s = t
        return [(copy, s[:c] + s[c + 1:]) for c in range(j)]

    return _word_diagram(levels, lower)


def m_interval(m: int) -> GradedPoset:
    """The length-3 interval with atom sequence (1, m, m+1).

    Two middle levels of m+1 elements each, with x_i below y_j exactly
    when i != j."""
    m = _whole(m, "m", 1)
    down = [()] + [(0,)] * (m + 1)
    down += [tuple(1 + i for i in range(m + 1) if i != j) for j in range(m + 1)]
    down.append(tuple(range(m + 2, 2 * m + 3)))
    return _diagram((1, m + 1, m + 1, 1), down)


def divisible_poset(seq: AtomicSequence | str | Sequence[int], height: int) -> GradedPoset:
    """Mixed-modulus shift register realizing a divisible atom sequence.

    Requires a_i | a_(i+1) along the sequence (a finite head is extended
    by its last value up to ``height``).  With a = a_height and
    r_j = a / a_j, a rank-i element is a tuple (x_1, ..., x_i) with
    x_j in range(r_j); its upper covers are the tuples
    (y, x_1 mod r_2, ..., x_i mod r_(i+1)) for y in range(r_1).
    """
    height = _whole(height, "height")
    seq = _as_sequence(seq)
    if not seq.head and seq.tail is None:
        raise PosetError("empty sequence")
    if height == 0:
        return _diagram((1,), [()])
    vals = [seq.a(min(i, len(seq.head)) if seq.finite else i) for i in range(1, height + 1)]
    for i in range(len(vals) - 1):
        if vals[i + 1] % vals[i]:
            raise PosetError(
                f"a_{i + 2} = {vals[i + 1]} is not a multiple of a_{i + 1} = {vals[i]}"
            )
    radii = [vals[-1] // v for v in vals]
    levels = [list(product(*(range(r) for r in radii[:i]))) for i in range(height + 1)]

    def lower(i: int, t: tuple) -> Iterable[tuple]:
        # the rank-(i-1) words x with x_j = t_(j+1) mod r_(j+1)
        return product(*(range(z, radii[j], radii[j + 1]) for j, z in enumerate(t[1:])))

    return _word_diagram(levels, lower)
