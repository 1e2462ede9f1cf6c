"""Graded posets with exact maximal-chain counting.

A poset truncation is stored level by level (rank 0 first) together with
the cover relation between consecutive levels.  All chain counts are
exact big integers: the counts grow factorially and would overflow any
fixed-width or floating representation.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, zip_longest
from math import prod
from typing import Iterable, Iterator, Sequence

__all__ = [
    "PosetError",
    "AtomicSequence",
    "GradedPoset",
    "BinomialReport",
    "AtomicNumbersReport",
    "build_poset",
    "grid_ids",
    "dual",
    "interval",
    "count_maximal_chains",
    "atomic_numbers",
    "verify_binomial",
    "predicted_rank_size",
    "sup_rank_size",
    "poset_to_json",
    "poset_from_json",
    "poset_to_dot",
]


class PosetError(ValueError):
    """A diagram, interval, or sequence violates a structural requirement."""


# ---------------------------------------------------------------------------
# atom-count sequences and their derived factorials


@dataclass(frozen=True)
class AtomicSequence:
    """The sequence a_1, a_2, ... of interval atom counts, by length.

    ``head`` lists the leading values; a non-None ``tail`` means every
    value past the head equals it (an eventually constant sequence).
    Only integer entries, positivity and a_1 = 1 are enforced here.
    Monotonicity and the divisibility conditions are a verdict, not a type
    invariant: the checker in :mod:`binposet.seqcheck` owns them, and
    sequences measured off arbitrary diagrams must be representable even
    when they fail.
    """

    head: tuple[int, ...]
    tail: int | None = None

    def __post_init__(self) -> None:
        try:
            head = tuple(map(operator.index, self.head))
            tail = self.tail if self.tail is None else operator.index(self.tail)
        except TypeError:
            raise PosetError(
                f"atom counts must be integers, got head {self.head!r}, tail {self.tail!r}"
            ) from None
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)
        if any(a < 1 for a in self.head):
            raise PosetError("atom counts must be positive")
        first = self.head[0] if self.head else self.tail
        if first is not None and first != 1:
            raise PosetError("a_1 must be 1")
        if self.tail is not None and self.tail < 1:
            raise PosetError("tail must be positive")

    @property
    def finite(self) -> bool:
        return self.tail is None

    def a(self, i: int) -> int:
        """Value a_i, 1-indexed; IndexError past the head of a finite sequence."""
        i = _whole(i, "atom index", 1)
        if i <= len(self.head):
            return self.head[i - 1]
        if self.tail is None:
            raise IndexError(f"a_{i} undefined: sequence has {len(self.head)} values")
        return self.tail

    def B(self, n: int) -> int:
        """Factorial-like product a_1 * ... * a_n (1 when n = 0)."""
        return prod(self.a(i) for i in range(1, _whole(n, "length") + 1))

    def coefficient(self, n: int, j: int) -> Fraction:
        """B(n) / (B(j) B(n-j)) as an exact rational."""
        if _whole(j, "rank") > _whole(n, "length"):
            raise PosetError(f"coefficient ({n}, {j}) out of range")
        return Fraction(self.B(n), self.B(j) * self.B(n - j))

    def W(self, n: int, j: int) -> int:
        """Number of rank-j elements inside any length-n interval."""
        c = self.coefficient(n, j)
        if c.denominator != 1:
            raise PosetError(f"B({n})/(B({j})B({n - j})) = {c} is not an integer")
        return c.numerator

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.a(i) for i in range(1, _whole(n, "length") + 1))

    @classmethod
    def parse(cls, text: str) -> AtomicSequence:
        """Parse '1,2,6' or '1,1,2...' (trailing ... repeats the last value)."""
        s = text.strip()
        constant_tail = s.endswith("...")
        if constant_tail:
            s = s[:-3]
        try:
            head = tuple(int(part) for part in s.split(","))
        except ValueError:
            raise PosetError(
                f"bad sequence {text!r}: comma-separated integers expected"
            ) from None
        return cls(head, head[-1] if constant_tail else None)

    def format(self) -> str:
        body = ",".join(str(a) for a in self.head)
        if self.tail is None:
            return body
        if not self.head or self.tail == self.head[-1]:
            return f"{body or self.tail}..."
        return f"{body},{self.tail}..."

    def __str__(self) -> str:
        return self.format()


def _as_sequence(seq: AtomicSequence | str | Iterable[int]) -> AtomicSequence:
    """What the entry points accept as atom counts: a sequence, a string
    for :meth:`AtomicSequence.parse`, or an iterable of integers (a head)."""
    if isinstance(seq, AtomicSequence):
        return seq
    if isinstance(seq, str):
        return AtomicSequence.parse(seq)
    try:
        return AtomicSequence(tuple(seq))
    except TypeError:
        raise PosetError(f"atom counts expected, got {seq!r}") from None


def _whole(value, what: str, least: int = 0) -> int:
    """``value`` as an integer of at least ``least``, else a PosetError."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise PosetError(f"{what} must be an integer >= {least}, got {value!r}")
    return n


def _ratio_failure(seq: AtomicSequence, top: int) -> tuple[int, int, Fraction] | None:
    """The first non-integral B(i+j) / (B(i) B(j)) over 1 <= i <= j with
    i + j <= top, as ``(i, j, value)``, taking the pairs by i + j and then
    by i; None when all are integers."""
    B = list(accumulate(seq.prefix(top), operator.mul, initial=1))
    for n in range(2, top + 1):
        for i in range(1, n // 2 + 1):
            below = B[i] * B[n - i]
            if B[n] % below:
                return i, n - i, Fraction(B[n], below)
    return None


# ---------------------------------------------------------------------------
# the poset data model


@dataclass(frozen=True)
class GradedPoset:
    """A leveled diagram: ``levels[r]`` lists the rank-r element ids and
    ``covers`` holds (lower, upper) pairs between consecutive ranks.

    This raw constructor accepts any leveled diagram, including ones with
    several minima or dangling elements; comparisons of bare sections and
    partially built search states need that freedom.  Use
    :func:`build_poset` for the validated single-bottom form.
    """

    levels: tuple[tuple[str, ...], ...]
    covers: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        if not self.levels or any(not lv for lv in self.levels):
            raise PosetError("levels must be non-empty")
        pos: dict[str, int] = {}
        for r, lv in enumerate(self.levels):
            for x in lv:
                if x in pos:
                    raise PosetError(f"duplicate element id {x!r}")
                pos[x] = r
        for lo, hi in self.covers:
            if lo not in pos or hi not in pos:
                raise PosetError(f"cover ({lo!r}, {hi!r}) names an unknown element")
            if pos[hi] != pos[lo] + 1:
                raise PosetError(f"cover ({lo!r}, {hi!r}) must join consecutive levels")

    @property
    def height(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def widths(self) -> tuple[int, ...]:
        return tuple(len(lv) for lv in self.levels)

    @cached_property
    def elements(self) -> tuple[str, ...]:
        return tuple(x for lv in self.levels for x in lv)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def _level_of(self) -> tuple[int, ...]:
        out: list[int] = []
        for r, lv in enumerate(self.levels):
            out.extend([r] * len(lv))
        return tuple(out)

    def __contains__(self, x: str) -> bool:
        return x in self._index

    def rank(self, x: str) -> int:
        try:
            return self._level_of[self._index[x]]
        except KeyError:
            raise PosetError(f"unknown id {x!r}") from None

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        idx = self._index
        up: list[list[int]] = [[] for _ in self.elements]
        down: list[list[int]] = [[] for _ in self.elements]
        for lo, hi in self.covers:
            up[idx[lo]].append(idx[hi])
            down[idx[hi]].append(idx[lo])
        return (
            tuple(tuple(sorted(nbrs)) for nbrs in up),
            tuple(tuple(sorted(nbrs)) for nbrs in down),
        )

    @property
    def _up(self) -> tuple[tuple[int, ...], ...]:
        return self._adjacency[0]

    @property
    def _down(self) -> tuple[tuple[int, ...], ...]:
        return self._adjacency[1]

    def upper_covers(self, x: str) -> tuple[str, ...]:
        els = self.elements
        return tuple(els[i] for i in self._up[self._require(x)])

    def lower_covers(self, x: str) -> tuple[str, ...]:
        els = self.elements
        return tuple(els[i] for i in self._down[self._require(x)])

    def _require(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise PosetError(f"unknown id {x!r}") from None

    @cached_property
    def _down_mask(self) -> tuple[int, ...]:
        # bit i of entry e is set iff element i <= element e
        masks: list[int] = []
        down = self._down
        for e in range(len(self.elements)):
            m = 1 << e
            for j in down[e]:
                m |= masks[j]
            masks.append(m)
        return tuple(masks)

    @cached_property
    def _up_mask(self) -> tuple[int, ...]:
        # bit i of entry e is set iff element e <= element i
        up = self._up
        masks = [0] * len(up)
        for e in range(len(up) - 1, -1, -1):
            m = 1 << e
            for j in up[e]:
                m |= masks[j]
            masks[e] = m
        return tuple(masks)

    @cached_property
    def _level_start(self) -> tuple[int, ...]:
        # level r holds the element indices _level_start[r] .. _level_start[r + 1] - 1
        return tuple(accumulate(self.widths, initial=0))

    @cached_property
    def _sweep(self) -> tuple:
        # the outcome of the all-pairs atom sweep (see _atom_sweep), kept
        # so that verify_binomial and atomic_numbers sweep a poset once
        return _atom_sweep(self)

    def le(self, x: str, y: str) -> bool:
        """Order relation generated by the covers."""
        ix, iy = self._require(x), self._require(y)
        return bool(self._down_mask[iy] >> ix & 1)


def grid_ids(widths: Sequence[int]) -> tuple[tuple[str, ...], ...]:
    """Standard 'rank:index' id grid for the given level widths."""
    return tuple(tuple(f"{r}:{i}" for i in range(w)) for r, w in enumerate(widths))


def build_poset(
    levels: Iterable[Iterable[str]], covers: Iterable[tuple[str, str]]
) -> GradedPoset:
    """Validate and freeze a leveled diagram.

    Beyond the structural checks of the raw constructor, this enforces a
    unique bottom element and forbids dangling elements (:func:`_validated`).
    """
    return _validated(GradedPoset(
        tuple(tuple(lv) for lv in levels),
        frozenset((lo, hi) for lo, hi in covers),
    ))


def _validated(p: GradedPoset) -> GradedPoset:
    """``p``, once it has one bottom element, a lower cover for everything
    above level 0 and an upper cover for everything below the top."""
    if len(p.levels[0]) != 1:
        raise PosetError(f"want exactly one bottom element, got {len(p.levels[0])}")
    up, down = p._adjacency
    for i, x in enumerate(p.elements):
        r = p._level_of[i]
        if r > 0 and not down[i]:
            raise PosetError(f"{x!r} at level {r} has no lower cover")
        if r < p.height and not up[i]:
            raise PosetError(f"{x!r} at level {r} has no upper cover")
    return p


def dual(p: GradedPoset) -> GradedPoset:
    """The same diagram upside down."""
    return GradedPoset(
        tuple(reversed(p.levels)),
        frozenset((hi, lo) for lo, hi in p.covers),
    )


def _cover_lists(down: Iterable[Iterable[int]]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The upper- and lower-cover lists, as ``_adjacency`` gives them, of
    the diagram whose i-th element has the lower covers ``down[i]``."""
    lower = [tuple(sorted(set(cs))) for cs in down]
    upper: list[list[int]] = [[] for _ in lower]
    for i, cs in enumerate(lower):
        for c in cs:
            upper[c].append(i)
    return tuple(map(tuple, upper)), tuple(lower)


def _from_down(levels: Sequence[Sequence[str]], down: Iterable[Iterable[int]]) -> GradedPoset:
    """The diagram whose i-th element, counted level by level through
    ``levels``, has the lower covers ``down[i]`` (positions in that count).

    The integer cover lists are kept as the poset's ``_adjacency``, which
    would otherwise be rebuilt from the id pairs."""
    els = [x for lv in levels for x in lv]
    adjacency = _cover_lists(down)
    p = GradedPoset(
        tuple(map(tuple, levels)),
        frozenset([(els[c], els[i]) for i, cs in enumerate(adjacency[1]) for c in cs]),
    )
    p.__dict__["_adjacency"] = adjacency
    return p


# ---------------------------------------------------------------------------
# intervals and chain counting


def interval(p: GradedPoset, bottom: str, top: str) -> GradedPoset:
    """The induced subposet {z : bottom <= z <= top}, re-ranked from 0;
    its elements keep their ids."""
    ib, it = p._require(bottom), p._require(top)
    if not p._down_mask[it] >> ib & 1:
        raise PosetError(f"not comparable: {bottom!r} is not below {top!r}")
    order = _between(p, ib, it)
    lo = p._level_of[ib]
    els = p.elements
    lv: list[list[str]] = [[] for _ in range(p._level_of[it] - lo + 1)]
    for i in order:
        lv[p._level_of[i] - lo].append(els[i])
    return _from_down(lv, _induced_down(p, order))


def _between(p: GradedPoset, s: int, t: int) -> list[int]:
    """The indices z with s <= z <= t, ascending."""
    # no index below s qualifies, so the shifted mask is only as wide as
    # the interval's span of indices, and reading its binary digits runs
    # faster than decoding it bit by bit
    digits = bin((p._up_mask[s] & p._down_mask[t]) >> s)
    return [s + i for i, d in enumerate(reversed(digits)) if d == "1"]


def _induced_down(p: GradedPoset, order: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The lower covers of each element of ``order`` inside ``order``, as
    positions in ``order``; ascending when ``order`` is."""
    # the census builds this key for every top of each up-set it keys
    # first, so it is built with list comprehensions, which run faster
    # than generator expressions here
    pos = dict(zip(order, range(len(order))))
    down = p._down
    return tuple([tuple([pos[k] for k in down[e] if k in pos]) for e in order])


def count_maximal_chains(p: GradedPoset) -> int:
    """Exact number of saturated chains from the bottom to the top of a
    bounded poset.

    Element order is topological (levels are stored bottom-up), so one
    forward sweep from the bottom adds each element's count into its
    upper covers before they are reached."""
    if p.widths[0] != 1 or p.widths[-1] != 1:
        raise PosetError("need a bounded poset: one bottom and one top")
    up = p._up
    f = [0] * len(up)
    f[0] = 1
    for j in range(len(up) - 1):
        c = f[j]
        if c:
            for k in up[j]:
                f[k] += c
    return f[-1]


# ---------------------------------------------------------------------------
# the all-pairs atom sweep


def _rank_span(start: Sequence[int], lo: int, hi: int) -> int:
    """Bitset of the elements whose rank lies in lo..hi (empty if lo > hi),
    given a poset's ``_level_start``."""
    if lo > hi:
        return 0
    return ((1 << (start[hi + 1] - start[lo])) - 1) << start[lo]


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pairs_of_length(p: GradedPoset, n: int) -> Iterator[tuple[int, int]]:
    """Index pairs (s, t) with s <= t and rank(t) - rank(s) = n, in index order."""
    up = p._up_mask
    lv = p._level_of
    start = p._level_start
    for s in range(len(lv)):
        r = lv[s] + n
        if r > p.height:
            return
        for t in _bits(up[s] & _rank_span(start, r, r)):
            yield s, t


def _atom_count(p: GradedPoset, s: int, t: int) -> int:
    """The number of atoms of [s, t]: upper covers of s whose up-set holds t."""
    up = p._up_mask
    return sum(up[k] >> t & 1 for k in p._up[s])


def _atom_sweep(
    p: GradedPoset,
) -> tuple[tuple[int, ...], int | None, tuple[tuple[int, int], tuple[int, int], int] | None]:
    """The all-pairs kernel behind :func:`verify_binomial` and :func:`atomic_numbers`.

    Sources s are taken in index order.  For each, the atom counts of
    every interval [s, t] are summed as bit planes: bit t of ``above`` is
    set iff s < t, and bit t of ``planes[j]`` is bit j of the number of
    atoms of [s, t].  The atoms of [s, t] are the upper covers of s whose
    up-set holds t, so the up-sets of the upper covers are summed bitwise
    with a carry-save adder.

    The reference of length d is the first length-d pair (s, t) in index
    order; lengths are reached as a prefix 1, 2, ..., since a chain
    crosses every rank.  Returns ``(atoms, least, first)``: ``atoms[d -
    1]`` is the atom count of the length-d reference, ``least`` the least
    length at which some interval's atom count differs from its length's
    reference, and ``first`` is ``((s0, t0), (s, t), count)`` for the
    first such interval [s, t] in sweep order (least t for the first s)
    and the reference [s0, t0] of its length; both are None when every
    count agrees.  :attr:`GradedPoset._sweep` keeps this outcome, so a
    poset is swept at most once.
    """
    ups = p._up
    up = p._up_mask
    start = p._level_start
    lv = p._level_of
    height = p.height
    atoms: list[int] = []
    refs: list[tuple[int, int]] = []
    runs: list[list[tuple[int, int]]] = []
    expected: list[int] = []
    level = -1
    least: int | None = None
    first: tuple[tuple[int, int], tuple[int, int], int] | None = None
    for s, covers in enumerate(ups):
        above = 0
        planes: list[int] = []
        for k in covers:
            x = up[k]
            above |= x
            for j, plane in enumerate(planes):
                planes[j] = plane ^ x
                x &= plane
                if not x:
                    break
            else:
                planes.append(x)
        if not above:
            continue
        r = lv[s]
        reach = lv[above.bit_length() - 1] - r
        if reach > len(atoms):
            for d in range(len(atoms) + 1, reach + 1):
                t = next(_bits(above & _rank_span(start, r + d, r + d)))
                atoms.append(_atom_count(p, s, t))
                refs.append((s, t))
            runs = _bit_runs(atoms)
            level = -1
        if r != level:
            # bit t of expected[j] is bit j of the reference count at t's
            # length; the spans are disjoint, so their sum is their union
            expected = [
                sum(_rank_span(start, r + d1, min(r + d2, height)) for d1, d2 in rj)
                for rj in runs
            ]
            level = r
        diff = 0
        for got, want in zip_longest(planes, expected, fillvalue=0):
            diff |= got ^ want
        bad = above & diff
        if bad:
            t = next(_bits(bad))
            d = lv[t] - r
            if least is None or d < least:
                least = d
            if first is None:
                first = refs[d - 1], (s, t), _atom_count(p, s, t)
    return tuple(atoms), least, first


def _bit_runs(values: list[int]) -> list[list[tuple[int, int]]]:
    """Per bit j, the maximal runs d1..d2 of 1-based positions whose value has bit j set."""
    out: list[list[tuple[int, int]]] = []
    for j in range(max(values).bit_length()):
        rj: list[tuple[int, int]] = []
        for d, a in enumerate(values, 1):
            if a >> j & 1:
                if rj and rj[-1][1] == d - 1:
                    rj[-1] = (rj[-1][0], d)
                else:
                    rj.append((d, d))
        out.append(rj)
    return out


@dataclass(frozen=True)
class BinomialReport:
    """Outcome of the equal-chain-count check over every interval.

    When ``ok``, ``counts[d]`` is the common maximal-chain count of every
    length-d interval and ``atoms`` the atom sequence it forces.  When not,
    ``witness`` holds two same-length intervals with different counts,
    the lexicographically least such pair under id order."""

    ok: bool
    counts: dict[int, int] | None = None
    atoms: AtomicSequence | None = None
    witness: tuple[tuple[str, str], tuple[str, str]] | None = None
    detail: str = ""


def _witness_pass(
    p: GradedPoset, d: int, below: int
) -> tuple[tuple[str, str], tuple[str, str], int, int]:
    """Lexicographically least pair of length-d intervals with unequal counts,
    given that every length-(d-1) interval has ``below`` maximal chains."""
    els = p.elements
    ups = p._up
    down = p._down_mask
    pairs: list[tuple[str, str, int]] = []
    source, covers = -1, 0
    for s, t in _pairs_of_length(p, d):
        if s != source:
            # bit k is set iff k covers s; those at or below t are the atoms of [s, t]
            source, covers = s, sum(1 << k for k in ups[s])
        pairs.append((els[s], els[t], (covers & down[t]).bit_count() * below))
    pairs.sort(key=lambda r: (r[0], r[1]))
    x1, y1, c1 = pairs[0]
    for x2, y2, c2 in pairs[1:]:
        if c2 != c1:
            return (x1, y1), (x2, y2), c1, c2
    raise AssertionError("witness pass found no mismatch")


def verify_binomial(p: GradedPoset) -> BinomialReport:
    """Check that the maximal-chain count of an interval depends only on
    its length, over every interval contained in the truncation.

    The chains are counted through atoms.  A maximal chain of [s, t]
    starts with a cover s < k, so chains(s, t) is the sum of chains(k, t)
    over the atoms k of [s, t].  If every interval shorter than d has the
    common count C(d-1) of its length, a length-d interval [s, t]
    therefore has atoms(s, t) * C(d-1) chains, and C(d-1) >= 1.  By
    induction on d, chain counts first disagree at exactly the length
    where atom counts first do, and below it ``counts[d]`` is
    ``counts[d-1]`` times the common atom count A(d), with no remainder.
    So the check runs on atom counts (see :func:`_atom_sweep`), and only
    the witness, at the first disagreeing length, is turned back into
    chain counts.  The poset keeps the sweep's outcome, shared with
    :func:`atomic_numbers`, so asking the same object twice sweeps once.
    """
    atoms, least, _first = p._sweep
    counts = {0: 1}
    for d, a in enumerate(atoms, 1):
        counts[d] = counts[d - 1] * a
    if least is not None:
        d = least
        w1, w2, c1, c2 = _witness_pass(p, d, counts[d - 1])
        return BinomialReport(
            ok=False,
            witness=(w1, w2),
            detail=(
                f"length-{d} intervals disagree: [{w1[0]}, {w1[1]}] has {c1} "
                f"maximal chains, [{w2[0]}, {w2[1]}] has {c2}"
            ),
        )
    if len(atoms) < p.height:
        return BinomialReport(ok=False, detail=f"no interval of length {len(atoms) + 1}")
    return BinomialReport(ok=True, counts=counts, atoms=AtomicSequence(atoms))


@dataclass(frozen=True)
class AtomicNumbersReport:
    """Per-length atom counts measured over all intervals.

    ``ok`` means every length-n interval has the same atom count A(n);
    ``witness`` otherwise names two equal-length intervals disagreeing."""

    ok: bool
    atoms: AtomicSequence | None = None
    witness: tuple[tuple[str, str], tuple[str, str]] | None = None
    detail: str = ""


def atomic_numbers(p: GradedPoset) -> AtomicNumbersReport:
    """Measure A(n) = atom count of every length-n interval, per length.

    Read off the same kept sweep as :func:`verify_binomial`, so it is not
    an independent check on it (the brute-force oracles in
    ``tests/conftest.py`` are), and asking after it sweeps nothing.  The
    witness pairs the first interval of its length in (bottom, top) index
    order with the first interval in that order whose atom count differs
    from it."""
    atoms, _least, first = p._sweep
    if first is not None:
        els = p.elements
        (s0, t0), (s, t), a = first
        d = p._level_of[t] - p._level_of[s]
        a0 = atoms[d - 1]
        return AtomicNumbersReport(
            ok=False,
            witness=((els[s0], els[t0]), (els[s], els[t])),
            detail=(
                f"length-{d} intervals disagree on atom count: "
                f"[{els[s0]}, {els[t0]}] has {a0}, [{els[s]}, {els[t]}] has {a}"
            ),
        )
    if len(atoms) < p.height:
        return AtomicNumbersReport(ok=False, detail=f"no interval of length {len(atoms) + 1}")
    return AtomicNumbersReport(ok=True, atoms=AtomicSequence(atoms))


# ---------------------------------------------------------------------------
# rank sizes


def predicted_rank_size(seq: AtomicSequence, i: int) -> Fraction:
    """Level width a^i / B(i) predicted for an eventually constant sequence."""
    if seq.tail is None:
        raise PosetError("width prediction needs an eventually constant sequence")
    i = _whole(i, "rank index")
    return Fraction(seq.tail**i, seq.B(i))


def sup_rank_size(seq: AtomicSequence) -> Fraction:
    """The limiting level width: the product of a/a_i over all i."""
    if seq.tail is None:
        raise PosetError("width limit needs an eventually constant sequence")
    a = seq.tail
    return prod((Fraction(a, ai) for ai in seq.head), start=Fraction(1))


# ---------------------------------------------------------------------------
# serialization


def poset_to_json(p: GradedPoset) -> str:
    doc = {
        "height": p.height,
        "levels": [list(lv) for lv in p.levels],
        "covers": sorted([lo, hi] for lo, hi in p.covers),
    }
    return json.dumps(doc, separators=(",", ":"))


def poset_from_json(text: str) -> GradedPoset:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and an integer literal too long
        # to convert; a deeply nested document exhausts the recursion limit
        raise PosetError(f"bad poset JSON: {e}") from None
    if not isinstance(doc, dict):
        raise PosetError("poset JSON must be an object")
    try:
        height = doc["height"]
        levels = doc["levels"]
        covers = doc["covers"]
    except KeyError as e:
        raise PosetError(f"poset JSON is missing {e.args[0]!r}") from None
    if isinstance(height, bool) or not isinstance(height, int):
        raise PosetError("height must be an integer")
    if not isinstance(levels, list) or not all(
        isinstance(lv, list) and all(isinstance(x, str) for x in lv) for lv in levels
    ):
        raise PosetError("levels must be a list of lists of string ids")
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(isinstance(x, str) for x in c)
        for c in covers
    ):
        raise PosetError("covers must be [lo, hi] pairs of string ids")
    if height != len(levels) - 1:
        raise PosetError(f"height {height} does not match {len(levels)} levels")
    return build_poset(levels, [(lo, hi) for lo, hi in covers])


def poset_to_dot(p: GradedPoset) -> str:
    """DOT rendering: edges point upward, one rank=same group per level."""
    def quote(x: str) -> str:
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'

    out = ["digraph poset {", "  rankdir=BT;", "  node [shape=box];"]
    for lv in p.levels:
        row = " ".join(f"{quote(x)};" for x in lv)
        out.append("  { rank=same; " + row + " }")
    idx = p._index
    for lo, hi in sorted(p.covers, key=lambda c: (idx[c[0]], idx[c[1]])):
        out.append(f"  {quote(lo)} -> {quote(hi)};")
    out.append("}")
    return "\n".join(out) + "\n"
