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


def _from_down(levels: Sequence[Sequence[str]], down: Sequence[Iterable[int]]) -> GradedPoset:
    """The diagram whose i-th element, counted level by level through
    ``levels``, has the lower covers ``down[i]`` (positions in that count)."""
    els = [x for lv in levels for x in lv]
    return GradedPoset(
        tuple(map(tuple, levels)),
        frozenset({(els[c], els[i]) for i, cs in enumerate(down) for c in cs}),
    )


# ---------------------------------------------------------------------------
# intervals and chain counting


def interval(p: GradedPoset, bottom: str, top: str) -> GradedPoset:
    """The induced subposet {z : bottom <= z <= top}, re-ranked from 0;
    its elements keep their ids."""
    ib, it = p._require(bottom), p._require(top)
    if not p._down_mask[it] >> ib & 1:
        raise PosetError(f"not comparable: {bottom!r} is not below {top!r}")
    order = list(_bits(p._up_mask[ib] & p._down_mask[it]))
    lo = p._level_of[ib]
    els = p.elements
    lv: list[list[str]] = [[] for _ in range(p._level_of[it] - lo + 1)]
    for i in order:
        lv[p._level_of[i] - lo].append(els[i])
    return _from_down(lv, _induced_down(p, order))


def _induced_down(p: GradedPoset, order: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The lower covers of each element of ``order`` inside ``order``, as
    positions in ``order``; ascending when ``order`` is."""
    # this is the census key of every interval, so it is built with list
    # comprehensions, which run faster than generator expressions here
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


def _rank_span(p: GradedPoset, lo: int, hi: int) -> int:
    """Bitset of the elements whose rank lies in lo..hi (empty if lo > hi)."""
    if lo > hi:
        return 0
    start = p._level_start
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
    for s in range(len(lv)):
        r = lv[s] + n
        if r > p.height:
            return
        for t in _bits(up[s] & _rank_span(p, r, r)):
            yield s, t


def _atom_planes(p: GradedPoset, s: int) -> tuple[int, list[int]]:
    """Atom counts of every interval with bottom ``s``, as bit planes.

    Returns ``(above, planes)``: bit t of ``above`` is set iff s < t, and
    bit t of ``planes[j]`` is bit j of the number of atoms of [s, t].  The
    atoms of [s, t] are the upper covers of s whose up-set holds t, so the
    up-sets of the upper covers are summed bitwise with a carry-save adder.
    """
    up = p._up_mask
    above = 0
    planes: list[int] = []
    for k in p._up[s]:
        x = up[k]
        above |= x
        for j, plane in enumerate(planes):
            planes[j] = plane ^ x
            x &= plane
            if not x:
                break
        else:
            planes.append(x)
    return above, planes


def _count_at(planes: list[int], t: int) -> int:
    """The count whose bit j is bit t of ``planes[j]``."""
    return sum((plane >> t & 1) << j for j, plane in enumerate(planes))


def _atom_sweep(
    p: GradedPoset, ref: list[tuple[int, int, int]]
) -> Iterator[tuple[int, list[int], int]]:
    """The all-pairs kernel behind :func:`verify_binomial` and :func:`atomic_numbers`.

    Sources s are taken in index order.  ``ref`` is extended in place:
    ``ref[d - 1]`` is ``(atoms, s, t)`` for the first length-d pair (s, t)
    in index order, added when the sweep first reaches length d (lengths
    are reached as a prefix 1..len(ref), since a chain crosses every rank).
    Each source with an interval whose atom count differs from its
    length's reference is yielded as ``(s, planes, bad)``, where ``bad``
    marks those tops t and ``planes`` is as in :func:`_atom_planes`.
    """
    lv = p._level_of
    height = p.height
    runs: list[list[tuple[int, int]]] = []
    expected: list[int] = []
    level = -1
    for s in range(len(lv)):
        above, planes = _atom_planes(p, s)
        if not above:
            continue
        r = lv[s]
        reach = lv[above.bit_length() - 1] - r
        if reach > len(ref):
            for d in range(len(ref) + 1, reach + 1):
                t = next(_bits(above & _rank_span(p, r + d, r + d)))
                ref.append((_count_at(planes, t), s, t))
            runs = _bit_runs([a for a, _, _ in ref])
            level = -1
        if r != level:
            # bit t of expected[j] is bit j of the reference count at t's
            # length; the spans are disjoint, so their sum is their union
            expected = [
                sum(_rank_span(p, r + d1, min(r + d2, height)) for d1, d2 in rj)
                for rj in runs
            ]
            level = r
        diff = 0
        for got, want in zip_longest(planes, expected, fillvalue=0):
            diff |= got ^ want
        bad = above & diff
        if bad:
            yield s, planes, bad


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
    lv = p._level_of
    pairs: list[tuple[str, str, int]] = []
    for s in range(len(els)):
        r = lv[s] + d
        if r > p.height:
            break
        above, planes = _atom_planes(p, s)
        for t in _bits(above & _rank_span(p, r, r)):
            pairs.append((els[s], els[t], _count_at(planes, t) * below))
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
    chain counts.
    """
    lv = p._level_of
    ref: list[tuple[int, int, int]] = []
    first_bad: int | None = None
    for s, _planes, bad in _atom_sweep(p, ref):
        d = lv[next(_bits(bad))] - lv[s]
        if first_bad is None or d < first_bad:
            first_bad = d
    counts = {0: 1}
    for d, (a, _s, _t) in enumerate(ref, 1):
        counts[d] = counts[d - 1] * a
    if first_bad is not None:
        d = first_bad
        w1, w2, c1, c2 = _witness_pass(p, d, counts[d - 1])
        return BinomialReport(
            ok=False,
            witness=(w1, w2),
            detail=(
                f"length-{d} intervals disagree: [{w1[0]}, {w1[1]}] has {c1} "
                f"maximal chains, [{w2[0]}, {w2[1]}] has {c2}"
            ),
        )
    if len(ref) < p.height:
        return BinomialReport(ok=False, detail=f"no interval of length {len(ref) + 1}")
    atoms = AtomicSequence(tuple(a for a, _s, _t in ref))
    return BinomialReport(ok=True, counts=counts, atoms=atoms)


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

    Counted directly from covers by the same sweep as
    :func:`verify_binomial`, so it is not an independent check on it; the
    brute-force oracles in ``tests/conftest.py`` are.  The witness pairs the
    first interval of its length in (bottom, top) index order with the
    first interval in that order whose atom count differs from it."""
    els = p.elements
    lv = p._level_of
    ref: list[tuple[int, int, int]] = []
    for s, planes, bad in _atom_sweep(p, ref):
        t = next(_bits(bad))
        d = lv[t] - lv[s]
        a0, s0, t0 = ref[d - 1]
        a = _count_at(planes, t)
        return AtomicNumbersReport(
            ok=False,
            witness=((els[s0], els[t0]), (els[s], els[t])),
            detail=(
                f"length-{d} intervals disagree on atom count: "
                f"[{els[s0]}, {els[t0]}] has {a0}, [{els[s]}, {els[t]}] has {a}"
            ),
        )
    if len(ref) < p.height:
        return AtomicNumbersReport(ok=False, detail=f"no interval of length {len(ref) + 1}")
    return AtomicNumbersReport(ok=True, atoms=AtomicSequence(tuple(a for a, _s, _t in ref)))


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
    except json.JSONDecodeError as e:
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
