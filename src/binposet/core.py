"""Graded posets with exact maximal-chain counting.

A poset truncation is stored level by level (rank 0 first) together with
the cover relation between consecutive levels.  All chain counts are
exact big integers: the counts grow factorially and would overflow any
fixed-width or floating representation.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Iterable, Iterator, Sequence

__all__ = [
    "PosetError",
    "AtomicSequence",
    "FactorialProfile",
    "GradedPoset",
    "Interval",
    "BinomialReport",
    "AtomicNumbersReport",
    "build_poset",
    "grid_ids",
    "dual",
    "interval",
    "count_maximal_chains",
    "atomic_numbers",
    "verify_binomial",
    "rank_sizes",
    "predicted_rank_size",
    "sup_rank_size",
    "poset_to_json",
    "poset_from_json",
    "poset_to_dot",
]

WORKERS_ENV = "BINPOSET_WORKERS"


class PosetError(ValueError):
    """A diagram, interval, or sequence violates a structural requirement."""


# ---------------------------------------------------------------------------
# atom-count sequences and their derived factorials


@dataclass(frozen=True)
class AtomicSequence:
    """The sequence a_1, a_2, ... of interval atom counts, by length.

    ``head`` lists the leading values; a non-None ``tail`` means every
    value past the head equals it (an eventually constant sequence).
    Only positivity and a_1 = 1 are enforced here.  Monotonicity and the
    divisibility conditions are a verdict, not a type invariant: the
    checker in :mod:`binposet.seqcheck` owns them, and sequences measured
    off arbitrary diagrams must be representable even when they fail.
    """

    head: tuple[int, ...]
    tail: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", tuple(int(a) for a in self.head))
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
        """Value a_i, 1-indexed."""
        if i < 1:
            raise IndexError(f"a_{i} undefined: indices start at 1")
        if i <= len(self.head):
            return self.head[i - 1]
        if self.tail is None:
            raise IndexError(f"a_{i} undefined: sequence has {len(self.head)} values")
        return self.tail

    def B(self, n: int) -> int:
        """Factorial-like product a_1 * ... * a_n (1 when n = 0)."""
        return prod(self.a(i) for i in range(1, n + 1))

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.a(i) for i in range(1, n + 1))

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
        if self.head and self.tail == self.head[-1]:
            return body + "..."
        return f"{body},{self.tail}..."

    def __str__(self) -> str:
        return self.format()


class FactorialProfile:
    """B(n), generalized binomial coefficients, and interval rank sizes
    derived from an atom-count sequence, all exact."""

    def __init__(self, source: AtomicSequence):
        self.source = source
        self._B: dict[int, int] = {0: 1}

    def B(self, n: int) -> int:
        if n < 0:
            raise IndexError("negative length")
        got = self._B.get(n)
        if got is None:
            got = self.B(n - 1) * self.source.a(n)
            self._B[n] = got
        return got

    def coefficient(self, n: int, j: int) -> Fraction:
        """B(n) / (B(j) B(n-j)) as an exact rational."""
        if not 0 <= j <= n:
            raise IndexError(f"coefficient ({n}, {j}) out of range")
        return Fraction(self.B(n), self.B(j) * self.B(n - j))

    def W(self, n: int, j: int) -> int:
        """Number of rank-j elements inside any length-n interval."""
        c = self.coefficient(n, j)
        if c.denominator != 1:
            raise PosetError(f"B({n})/(B({j})B({n - j})) = {c} is not an integer")
        return c.numerator


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
    unique bottom element and forbids dangling elements: everything above
    level 0 has a lower cover, everything below the top has an upper one.
    """
    p = GradedPoset(
        tuple(tuple(lv) for lv in levels),
        frozenset((lo, hi) for lo, hi in covers),
    )
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


# ---------------------------------------------------------------------------
# intervals and chain counting


@dataclass(frozen=True)
class Interval:
    """The induced subposet {z : bottom <= z <= top}, re-ranked from 0."""

    poset: GradedPoset
    bottom: str
    top: str

    @property
    def length(self) -> int:
        return self.poset.height


def interval(p: GradedPoset, bottom: str, top: str) -> Interval:
    ib, it = p._require(bottom), p._require(top)
    if not p._down_mask[it] >> ib & 1:
        raise PosetError(f"not comparable: {bottom!r} is not below {top!r}")
    lo, hi = p._level_of[ib], p._level_of[it]
    masks = p._down_mask
    keep = [
        i
        for i in range(ib, it + 1)
        if masks[it] >> i & 1 and masks[i] >> ib & 1
    ]
    keepset = set(keep)
    els = p.elements
    lv: list[list[str]] = [[] for _ in range(hi - lo + 1)]
    for i in keep:
        lv[p._level_of[i] - lo].append(els[i])
    covers = frozenset(
        (els[a], els[b])
        for a in keep
        for b in p._up[a]
        if b in keepset
    )
    sub = GradedPoset(tuple(tuple(level) for level in lv), covers)
    return Interval(sub, bottom, top)


def _chain_rows(up: Sequence[Sequence[int]], src: int) -> list[tuple[int, int]]:
    """Saturated-chain counts from element ``src`` to everything above it.

    Element order is topological (levels are stored bottom-up), so one
    forward sweep suffices."""
    n = len(up)
    f = [0] * n
    f[src] = 1
    rows: list[tuple[int, int]] = []
    for j in range(src, n):
        c = f[j]
        if not c:
            continue
        rows.append((j, c))
        for k in up[j]:
            f[k] += c
    return rows


def count_maximal_chains(iv: Interval) -> int:
    """Exact number of saturated chains from bottom to top."""
    sub = iv.poset
    src = sub._require(iv.bottom)
    dst = sub._require(iv.top)
    for j, c in _chain_rows(sub._up, src):
        if j == dst:
            return c
    return 0


def _rows_for_chunk(args: tuple[tuple, tuple, list[int]]) -> list[tuple[int, list[tuple[int, int]]]]:
    levels, covers, chunk = args
    p = GradedPoset(levels, frozenset(covers))
    return [(s, _chain_rows(p._up, s)) for s in chunk]


def _scan_sources(
    p: GradedPoset, workers: int
) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    n = len(p.elements)
    if workers <= 1 or n < 96:
        for s in range(n):
            yield s, _chain_rows(p._up, s)
        return
    step = -(-n // workers)
    chunks = [list(range(lo, min(lo + step, n))) for lo in range(0, n, step)]
    args = [(p.levels, tuple(sorted(p.covers)), chunk) for chunk in chunks]
    with ProcessPoolExecutor(max_workers=len(chunks)) as ex:
        for part in ex.map(_rows_for_chunk, args):
            yield from part


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


def _witness_pass(p: GradedPoset, d: int) -> tuple[tuple[str, str], tuple[str, str], int, int]:
    """Lexicographically least pair of length-d intervals with unequal counts."""
    els = p.elements
    lv = p._level_of
    pairs: list[tuple[str, str, int]] = []
    for s in range(len(els)):
        for t, c in _chain_rows(p._up, s):
            if lv[t] - lv[s] == d:
                pairs.append((els[s], els[t], c))
    pairs.sort(key=lambda r: (r[0], r[1]))
    x1, y1, c1 = pairs[0]
    for x2, y2, c2 in pairs[1:]:
        if c2 != c1:
            return (x1, y1), (x2, y2), c1, c2
    raise AssertionError("witness pass found no mismatch")


def verify_binomial(p: GradedPoset, workers: int | None = None) -> BinomialReport:
    """Check that the maximal-chain count of an interval depends only on
    its length, over every interval contained in the truncation.

    ``workers`` (default: the BINPOSET_WORKERS environment variable, else 1)
    partitions the scan across processes; verdict and witness are identical
    regardless of the worker count.
    """
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1") or "1")
    lv = p._level_of
    counts: dict[int, int] = {}
    bad: set[int] = set()
    for s, rows in _scan_sources(p, workers):
        for t, c in rows:
            d = lv[t] - lv[s]
            have = counts.setdefault(d, c)
            if have != c:
                bad.add(d)
    if bad:
        d = min(bad)
        w1, w2, c1, c2 = _witness_pass(p, d)
        return BinomialReport(
            ok=False,
            witness=(w1, w2),
            detail=(
                f"length-{d} intervals disagree: [{w1[0]}, {w1[1]}] has {c1} "
                f"maximal chains, [{w2[0]}, {w2[1]}] has {c2}"
            ),
        )
    missing = [d for d in range(p.height + 1) if d not in counts]
    if missing:
        return BinomialReport(ok=False, detail=f"no interval of length {missing[0]}")
    head: list[int] = []
    for d in range(1, p.height + 1):
        q, r = divmod(counts[d], counts[d - 1])
        if r:
            return BinomialReport(
                ok=False,
                detail=f"chain counts at lengths {d - 1} and {d} are incompatible",
            )
        head.append(q)
    atoms = AtomicSequence(tuple(head))
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

    Counted directly from covers (not derived from chain counts), so it is
    an independent cross-check on :func:`verify_binomial`."""
    els = p.elements
    lv = p._level_of
    up = p._up
    masks = p._down_mask
    per_len: dict[int, tuple[int, int, int]] = {}
    for s in range(len(els)):
        for t, _ in _chain_rows(up, s):
            d = lv[t] - lv[s]
            if d == 0:
                continue
            atoms_here = sum(1 for k in up[s] if masks[t] >> k & 1)
            have = per_len.get(d)
            if have is None:
                per_len[d] = (atoms_here, s, t)
            elif have[0] != atoms_here:
                a0, s0, t0 = have
                return AtomicNumbersReport(
                    ok=False,
                    witness=((els[s0], els[t0]), (els[s], els[t])),
                    detail=(
                        f"length-{d} intervals disagree on atom count: "
                        f"[{els[s0]}, {els[t0]}] has {a0}, [{els[s]}, {els[t]}] has {atoms_here}"
                    ),
                )
    if not p.height:
        return AtomicNumbersReport(ok=True, atoms=AtomicSequence(()))
    missing = [d for d in range(1, p.height + 1) if d not in per_len]
    if missing:
        return AtomicNumbersReport(ok=False, detail=f"no interval of length {missing[0]}")
    head = tuple(per_len[d][0] for d in range(1, p.height + 1))
    return AtomicNumbersReport(ok=True, atoms=AtomicSequence(head))


# ---------------------------------------------------------------------------
# rank sizes


def rank_sizes(p: GradedPoset) -> tuple[int, ...]:
    """Observed level widths."""
    return p.widths


def predicted_rank_size(seq: AtomicSequence, i: int) -> Fraction:
    """Level width a^i / B(i) predicted for an eventually constant sequence."""
    if seq.tail is None:
        raise PosetError("width prediction needs an eventually constant sequence")
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


def poset_to_dot(p: GradedPoset, name: str = "poset") -> str:
    """DOT rendering: edges point upward, one rank=same group per level."""
    def quote(x: str) -> str:
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'

    out = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for lv in p.levels:
        row = " ".join(f"{quote(x)};" for x in lv)
        out.append("  { rank=same; " + row + " }")
    idx = p._index
    for lo, hi in sorted(p.covers, key=lambda c: (idx[c[0]], idx[c[1]])):
        out.append(f"  {quote(lo)} -> {quote(hi)};")
    out.append("}")
    return "\n".join(out) + "\n"
