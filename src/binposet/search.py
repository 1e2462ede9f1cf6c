"""Exhaustive search for bounded binomial posets with prescribed atom counts.

Two strategies, both complete (they enumerate every isomorphism class
unless a resource cap interrupts):

* levelwise: for N atom counts, build levels 1 .. N-1 of the diagram
  (levels 0 .. N) one rank at a time, one element at a time, walking an
  explicit stack with one frame per element being placed, so a target
  of any length needs no recursion.  Cover sets are generated in
  non-decreasing order within a level, and only those that fit: each
  member is below its forced up-degree, and the set holds every element
  whose remaining deficit equals the picks left, so no deficit ever
  exceeds them (see ``_fitting``).  Every element x at distance d >= 2
  below a new element must have exactly a_d upper covers below it, and
  up-degrees are tracked against their forced values.  As in
  ``verify_binomial``, exact atom counts force exact chain counts and
  level widths in every interval.  Completed partial diagrams of levels
  0 .. j, for j <= N-2, are deduplicated by canonical certificate.  A
  node is a cover set tried for an element of levels 1 .. N-1.

  The top is built, not searched: once level N-1 is complete, the
  candidate is that diagram with the top covering all of level N-1.
  This is exact.  W(N, N-1) = a_N, so the top's only possible cover set
  is the whole level, the one set its frame could yield.  Its atom check
  cannot fail: the atoms of [x, top] are the upper covers of x, and
  ``_fitting`` fixes their number at a(N - rank x).  A stage of levels
  0 .. N-1 has one completion, and isomorphic stages have isomorphic
  completions, so dedup there would only prune stages whose completion
  ``classify`` meets as a stored class; the known leaves stop each such
  canonical search at its first leaf.  The walk order is that of a
  search that places the top, so each class keeps the first candidate
  of it that the walk completes as its representative.

* rank-4 assembly: enumerate rank-3 classes first, then choose which
  rank-3 interval sits under each coatom (an atom set plus a wiring
  pattern), and finally match the rank-2 rows of those blocks to
  concrete mid-level elements.  This tames the very wide middle level
  that defeats the levelwise order at rank 4.  Blocks are chosen in
  non-decreasing order, made one at a time as they are taken: the atom
  set comes from the generator that levelwise takes its cover sets
  from, fitted to the atoms' block counts as levelwise fits its sets to
  up-degrees, and for each set the patterns come from one sorted list,
  from the last block's pattern on while the set repeats the last
  block's.  Each of the a3! atom relabelings that make the patterns of
  a rank-3 class spends a node.  The deadline is read before each
  candidate is classified.

Both break the symmetry of the atoms before any certificate is computed.
Until a block (assembly) or a rank-2 element (levelwise) covers an atom,
it covers only the bottom, so any permutation of the unused atoms is an
automorphism of the partial state that fixes everything else.  A new
block's atom set S, or a new rank-2 element's cover set, may therefore
take unused atoms only as the lowest unused ones.  The used atoms then
always form a prefix, those below ``used``, and the test is
``S[-1] < used + #{x in S : x >= used}``.  Each strategy states it in its
own code on purpose: ``test_strategies_agree_at_rank_four`` compares
their classes, and a shared helper would let one wrong rule pass in both.

Nothing is lost.  Both strategies take these sets as combinations in
non-decreasing lexicographic order.  Let a generation path first break
the rule at S, and relabel the whole diagram by the permutation of the
unused atoms that replaces the unused part of S by the lowest unused
atoms, in order; it fixes every set chosen so far.  Compare the image
of S, or of any later set, with the last chosen set at their first
differing position.  That position either lies in the used part, which
is unchanged, or holds an unused atom, which is larger than every used
one.  Either way the image is not smaller than the last chosen set.  So
the relabelled remainder, sorted again, extends the same prefix, and its
first set is at most the image of S, which is smaller than S.  The sets
are finitely many, so repeating this ends on a path that keeps the rule
throughout, to an isomorphic diagram.

Every completed candidate is binomial with the target atom counts by
construction, so none is dropped:

* levelwise: ``_create`` checks the atom count of every pair that a new
  element closes, the pairs under the top hold by ``_fitting``, and
  exact atom counts force the rest (see above).
* assembly: each block is a rank-3 class with atom counts (1, a2, a3) on
  a3 atoms, and ``_fitting`` ends with every atom in exactly a3 blocks.
  ``stuck`` keeps only row demands divisible by a2, and ``_assign`` gives
  each copy of a row a2 occurrences from distinct blocks.

Both run on one core, ``_Core``: the node and deadline budget, the
certificate check behind dedup, the translation of a canonicalization
cap into a "capped" verdict, and ``classify``, which canonicalizes a
completed candidate against the classes stored so far and stores it if
it is a new class.  A new class is verified first, and one that fails
raises ``AssertionError``: it is a fault in the search, not a verdict.
The class keeps that check's sweep, so a caller that verifies a
returned class again sweeps nothing.
A strategy supplies only the candidate generator: its walk and prunes, a
``spend()`` per branch it opens, the states it dedups on (its own
records, a bucket key for each, and a function expanding one to level
widths and integer lower-cover lists) and its dedup table.  A key names
the stage; a table is never shared between runs, as the partial states
of two stages can be the same diagram and would then prune each other.

Dedup buckets a stage's states under a key the strategy already holds,
which fixes their degree shape (the level widths and the sorted (level,
lower degree, upper degree) triples, shared by isomorphic diagrams) and,
within a table, is fixed by it.  Levelwise keys by the level j just
completed, from 0 to N-2: a level-i element has a(i) lower covers,
a(N-i) upper ones below j (see ``_fitting``) and none at j.  Assembly
keys by the block count and the atoms' sorted block counts: the widths
are (a4, a3 blocks, blocks), and atom x, a row element and a block have
the triples (0, 0, a2 count[x]), (1, a2, 1) and (2, a3, 0).  Levelwise records a
state as the record of levels 0..j-1 on the current path paired with
level j's cover tuples, assembly as the tuple of chosen blocks.  The
first state of a bucket is kept as that record, uncertified, as no
earlier state can be isomorphic to it.  When a second state comes, the
kept one is expanded and certified first, then the new one, so the
states pruned are exactly those that certifying every state would prune.
A state whose canonical search hits the cap is recorded by neither.

Every canonical search of the core shares one dict of known leaves
(see Known leaves in ``iso``): dedup, ``classify`` and the levelwise
anchor check.  A search of a class already met stops at its first leaf.
The deadline reaches these searches too: one that runs past it raises
``_Capped``, which ``iso`` defines and ``spend()`` raises, so it caps
the search the same way.

Expanded states and candidates are level widths and ascending
lower-cover lists, and are certified as such (see ``iso._certify``); the
anchor check alone relists a diagram, the lower set of the new element,
with ``core._induced_down``.  A ``GradedPoset`` is built only for a new
class.  A candidate whose canonical search hits the cap caps the search
unbuilt.

A search reports "exhausted" only when no branch was cut by a cap.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from itertools import accumulate, combinations, permutations, product, takewhile
from numbers import Real
from typing import Iterable, Iterator, Sequence

from .core import (
    AtomicSequence,
    GradedPoset,
    PosetError,
    grid_ids,
    verify_binomial,
    _as_sequence,
    _bits,
    _from_down,
    _induced_down,
    _ratio_failure,
    _whole,
)
from .iso import (
    DEFAULT_NODE_CAP,
    CanonicalizationCapError,
    canonical_form,
    _Capped,
    _certify,
)

__all__ = [
    "SearchLimits",
    "SearchResult",
    "enumerate_intervals",
    "extension_search",
]


@dataclass(frozen=True)
class SearchLimits:
    max_nodes: int = 2_000_000
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        _whole(self.max_nodes, "max_nodes")
        secs = self.max_seconds
        if secs is not None and not (isinstance(secs, Real) and secs >= 0):
            raise PosetError(f"max_seconds must be None or a number >= 0, got {secs!r}")


@dataclass(frozen=True)
class SearchResult:
    """verdict is "found", "exhausted", or "capped".  classes holds one
    representative per isomorphism class, sorted by certificate; on
    "capped" it holds whatever was classified before the cap."""

    verdict: str
    classes: tuple[GradedPoset, ...] = ()
    nodes: int = 0
    detail: str = ""

    @property
    def witness(self) -> GradedPoset | None:
        return self.classes[0] if self.classes else None


class _Core:
    """The budget, dedup and classification shared by every strategy, on integer diagrams."""

    __slots__ = ("max_nodes", "deadline", "nodes", "known")

    def __init__(self, limits: SearchLimits):
        self.max_nodes = limits.max_nodes
        self.deadline = (
            None if limits.max_seconds is None else time.monotonic() + limits.max_seconds
        )
        self.nodes = 0
        # leaf encoding -> certificate, for every canonical search of the run
        self.known: dict[bytes, bytes] = {}

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Capped("time budget exhausted")

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _Capped(f"node budget of {self.max_nodes} exhausted")
        if not self.nodes % 256:
            self.check_deadline()

    def _certificate(self, widths: Sequence[int], down: Sequence[Sequence[int]]) -> tuple:
        """``_certify`` on the diagram with level ``widths`` and lower covers
        ``down``, stopping at a known leaf; the deadline caps the search."""
        return _certify(widths, down, DEFAULT_NODE_CAP, self.known, self.deadline)

    def repeats(self, seen: dict, key, state, expand) -> bool:
        """Is the search state ``state`` isomorphic to a state already in
        ``seen``?  Records it if not.  ``state`` is the caller's immutable
        record, and ``expand(state)`` gives its level widths and ascending
        lower-cover lists.  ``key`` is the caller's bucket key, which fixes
        the degree shape and is fixed by it; ``seen`` maps it to the one
        state of that key so far, kept as it came, or to the certificates
        of its states (see the module docstring)."""
        held = seen.get(key)
        if held is None:
            seen[key] = state
            return False
        if not isinstance(held, set):
            seen[key] = set()
            self._record(seen[key], *expand(held))
        return self._record(seen[key], *expand(state))

    def _record(
        self, certs: set[bytes], widths: Sequence[int], down: Sequence[Sequence[int]]
    ) -> bool:
        """Is the certificate of the diagram in ``certs``?  Adds it if not.
        Always False when the canonicalization cap is hit, and nothing is
        recorded: searching on is still sound."""
        try:
            cert = self._certificate(widths, down)[0]
        except CanonicalizationCapError:
            return False
        if cert in certs:
            return True
        certs.add(cert)
        return False

    def classify(
        self, widths: list[int], down: list, seq: AtomicSequence, out: dict[bytes, GradedPoset]
    ) -> None:
        """Store a completed candidate under its certificate.

        Only a new class is built as a poset and verified: a candidate
        whose certificate is already stored is isomorphic to a verified
        class.  Every candidate is binomial with atom counts ``seq`` by
        construction (see the module docstring), so one that is not is a
        fault in the search.  A candidate whose canonical search hits the
        cap caps the search, and is not built."""
        try:
            cert, _, search = self._certificate(widths, down)
        except CanonicalizationCapError as exc:
            raise _Capped(f"classifying a candidate hit the canonicalization cap: {exc}") from None
        if cert in out:
            return
        p = _from_down(grid_ids(widths), down)
        rep = verify_binomial(p)
        if not rep.ok or rep.atoms.head != seq.head:
            raise AssertionError(
                f"search completed a candidate that fails its own target "
                f"{seq.format()}: {rep.detail or rep.atoms}"
            )
        search.keep(p)
        out[cert] = p


def _sets_from(
    first: tuple[int, ...], pool: Sequence[int], must: set[int]
) -> Iterable[tuple[int, ...]]:
    """The sorted tuples of ``len(first)`` members of ``pool`` (ascending)
    that hold every member of ``must`` (a subset of ``pool``), from
    ``first`` on in lexicographic order, made one at a time.  A later
    tuple keeps the first i members of ``first`` and continues above
    ``first[i]``, for i from the longest prefix down; a prefix that leaves
    ``pool`` or passes over a member of ``must`` is skipped whole."""
    k = len(first)
    inside = set(pool)
    fits = 0  # first[:fits] lies inside the pool
    while fits < k and first[fits] in inside:
        fits += 1
    if fits == k and must.issubset(first):
        yield first
    for i in range(min(fits, k - 1), -1, -1):
        head, lo = first[:i], first[i]
        # the members of ``must`` outside the head; each must lie above lo
        missing = sorted(must.difference(head))
        if (missing and missing[0] <= lo) or len(missing) > k - i:
            continue
        free = [x for x in pool if x > lo and x not in must]
        for rest in combinations(free, k - i - len(missing)):
            yield head + (tuple(sorted((*missing, *rest))) if missing else rest)


def _fitting(
    counts: Iterable[tuple[int, int]], cap: int, picks: int
) -> tuple[list[int], set[int]]:
    """The pool and the required members of the next of ``picks`` sets
    drawn from the elements that ``counts`` pairs with their counts, when
    each set adds one to the count of its members and every count must end
    at ``cap``: the elements still below ``cap``, and those that need every
    pick left.

    No element needs more picks than are left.  At a level's first pick
    every count is 0, and the caller has checked ``cap <= picks``:
    assembly that a3 <= a4, levelwise that a(j) <= W(N, j-1), which is the
    same as a(N-j+1) <= W(N, j), as both sides count the covers between
    levels j-1 and j.  Each set drawn holds every required member, so an
    element's need falls with the picks left whenever it equals them."""
    pool: list[int] = []
    must: set[int] = set()
    for x, count in counts:
        short = cap - count
        if short > picks:
            raise AssertionError("an element needs more picks than are left")
        if short:
            pool.append(x)
            if short == picks:
                must.add(x)
    return pool, must


# ---------------------------------------------------------------------------
# levelwise strategy


def _unfold(record) -> tuple[list[int], list[tuple[int, ...]]]:
    """The level widths and lower-cover lists of a levelwise record."""
    levels = []
    while record is not None:
        record, level = record
        levels.append(level)
    levels.reverse()
    return [len(level) for level in levels], [cs for level in levels for cs in level]


class _Levelwise:
    def __init__(
        self,
        seq: AtomicSequence,
        core: _Core,
        anchor: tuple[bytes, int] | None,
        out: dict[bytes, GradedPoset],
    ):
        self.seq = seq
        self.N = len(seq.head)
        self.core = core
        self.anchor = anchor
        self.out = out
        # W(N, j) = B(N) / (B(j) B(N - j)) from one list of B;
        # enumerate_intervals' ratio check proved every quotient integral
        B = list(accumulate(seq.head, operator.mul, initial=1))
        self.widths = [B[self.N] // (B[j] * B[self.N - j]) for j in range(self.N + 1)]
        # level j holds the elements start[j] <= e < start[j + 1]
        self.start = [0, *accumulate(self.widths)]
        # a(1) .. a(j) are all 1 for j <= ones
        self.ones = len(list(takewhile((1).__eq__, seq.head)))
        # element state, indexed in creation order; index 0 is the bottom
        self.down_mask = [1]
        self.upcov_mask = [0]
        self.covers_of: list[tuple[int, ...]] = [()]
        # the completed levels' records, keyed by the last level j
        self.seen: dict = {}

    def run(self) -> None:
        core, seq, N, widths, start = self.core, self.seq, self.N, self.widths, self.start
        covers_of = self.covers_of
        # path[j + 1] records levels 0 .. j as (path[j], level j's cover tuples)
        path: list = [None] * N
        # One frame per element being placed, element k at stack[k - 1]:
        # its level, the unused-atom mark and the cover sets left to try.
        stack: list[tuple[int, int, Iterator[tuple[int, ...]]]] = []
        j, placed = 0, True  # the element placed last, the bottom, is on level j
        while True:
            if placed:
                e, first = len(covers_of), None
                if e < start[j + 1]:
                    # the next element of level j takes sets from the last one's on
                    first = covers_of[-1]
                    used = max(stack[-1][1], first[-1] + 1)
                elif j == N - 1:
                    # the top covers all of level N-1 (see the module docstring)
                    top = tuple(range(start[j], start[N]))
                    core.classify(widths, [*covers_of, top], seq, self.out)
                else:
                    path[j + 1] = state = (path[j], tuple(covers_of[start[j] :]))
                    # level j + 1 opens unless the stage repeats or W(N, j) < a(j+1)
                    repeat = core.repeats(self.seen, j, state, _unfold)
                    if not repeat and seq.a(j + 1) <= widths[j]:
                        used, j = start[j], j + 1
                        first = tuple(range(used, used + seq.a(j)))
                if first is not None:
                    # every element of level j-1 reaches its forced up-degree
                    lo, hi = start[j - 1], start[j]
                    counts = enumerate(map(int.bit_count, self.upcov_mask[lo:hi]), lo)
                    fit = _fitting(counts, seq.a(N - j + 1), start[j + 1] - e)
                    stack.append((j, used, _sets_from(first, *fit)))
            if not stack:
                return
            # the deepest frame takes its element back, if placed, and places
            # the next set that makes one; a frame out of sets is dropped
            j, used, sets = stack[-1]
            if len(covers_of) > len(stack):
                self._destroy()
            placed = False
            for C in sets:
                # rank 2 takes unused atoms lowest-first: the atoms below
                # ``used`` are exactly those covered so far
                if j == 2 and C[-1] >= used + sum(c >= used for c in C):
                    continue
                core.spend()
                if self._create(j, C):
                    placed = True
                    break
            else:
                stack.pop()

    def _create(self, j: int, C: tuple[int, ...]) -> bool:
        down = 0
        for c in C:
            down |= self.down_mask[c]
        # [x, e] must have a_d atoms for each x at distance d >= 2 (``down``
        # comes level by level); every element below e passed the same check
        # when it was created, so chain counts follow as in verify_binomial.
        # While a(1) .. a(j) are all 1, e has one lower cover c, [x, e] has
        # the atoms of [x, c], and the check holds without a walk
        start, upcov_mask, head = self.start, self.upcov_mask, self.seq.head
        if j > self.ones:
            level = 0
            for x in _bits(down):
                while x >= start[level + 1]:
                    level += 1
                if level == j - 1:
                    break
                if (upcov_mask[x] & down).bit_count() != head[j - level - 1]:
                    return False
        e = len(self.covers_of)
        mask = 1 << e
        self.down_mask.append(down | mask)
        upcov_mask.append(0)
        self.covers_of.append(C)
        for u in C:
            upcov_mask[u] |= mask
        if self.anchor is not None and j == self.anchor[1] and not self._anchored(e):
            self._destroy()
            return False
        return True

    def _anchored(self, e: int) -> bool:
        """Is the lower set of ``e`` isomorphic to the anchor interval?"""
        mask = self.down_mask[e]
        # its elements on levels r and above number (mask >> start[r]).bit_count()
        above = [(mask >> s).bit_count() for s in self.start[: self.anchor[1] + 2]]
        widths = [a - b for a, b in zip(above, above[1:])]
        down = _induced_down(self.covers_of, list(_bits(mask)))
        try:
            return self.core._certificate(widths, down)[0] == self.anchor[0]
        except CanonicalizationCapError as exc:
            raise _Capped(f"anchor check hit the canonicalization cap: {exc}") from None

    def _destroy(self) -> None:
        """Remove the element created last."""
        mask = ~(1 << (len(self.covers_of) - 1))
        for u in self.covers_of.pop():
            self.upcov_mask[u] &= mask
        self.down_mask.pop()
        self.upcov_mask.pop()


# ---------------------------------------------------------------------------
# rank-4 assembly strategy


def _row_patterns(rep: GradedPoset, a3: int, core: _Core) -> set[tuple[tuple[int, ...], ...]]:
    """All atom-relabelings of a rank-3 interval's mid-level row multiset;
    each of the a3! relabelings spends a node, so the node budget bounds
    them and ``spend()`` reads the deadline between them."""
    # the atoms of each mid element, as positions among the atoms
    rows = [tuple(c - 1 for c in rep._down[y]) for y in range(1 + a3, len(rep._down) - 1)]
    pats = set()
    for perm in permutations(range(a3)):
        core.spend()
        pats.add(tuple(sorted(tuple(sorted(perm[i] for i in row)) for row in rows)))
    return pats


class _Assembly:
    def __init__(
        self,
        seq: AtomicSequence,
        core: _Core,
        anchor: tuple[bytes, int] | None,
        out: dict[bytes, GradedPoset],
    ):
        if len(seq.head) != 4:
            raise PosetError("assembly strategy handles rank 4 only")
        if anchor is not None and anchor[1] != 3:
            raise PosetError("assembly strategy anchors at rank 3 only")
        self.seq = seq
        self.core = core
        self.anchor = anchor
        self.out = out
        self.a2, self.a3, self.a4 = seq.a(2), seq.a(3), seq.a(4)
        self.seen: dict = {}

    def run(self) -> None:
        # no block of a3 atoms fits among a4 of them: nothing to catalog
        if self.a3 > self.a4:
            return
        catalog: dict[bytes, GradedPoset] = {}
        _Levelwise(AtomicSequence(self.seq.head[:3]), self.core, None, catalog).run()
        wanted = None if self.anchor is None else self.anchor[0]
        reps = [p for c, p in sorted(catalog.items()) if wanted is None or c == wanted]
        patterns: set[tuple[tuple[int, ...], ...]] = set()
        for rep in reps:
            patterns |= _row_patterns(rep, self.a3, self.core)
        self.patterns = sorted(patterns)
        self.count = [0] * self.a4
        self.demand: dict[tuple[int, ...], int] = {}
        self.distinct_through = [0] * self.a4
        self.chosen: list[tuple[tuple[int, ...], ...]] = []
        # no block fits if the anchor left no rank-3 class
        if self.patterns:
            self._slots(tuple(range(self.a3)), 0, 0)

    def _slots(self, first: tuple[int, ...], k0: int, used: int) -> None:
        """Choose the next block: atom set S from ``first`` on, pattern k
        from ``k0`` on for S = ``first`` and from 0 for a later S."""
        if len(self.chosen) == self.a4:
            self._match()
            return
        cap = self.a3
        # every atom lies in a3 blocks; each later block takes it at most once
        fit = _fitting(enumerate(self.count), cap, self.a4 - len(self.chosen))
        for S in _sets_from(first, *fit):
            # unused atoms are taken lowest-first: atoms below ``used``
            # are exactly those in the blocks chosen so far
            if S[-1] >= used + sum(x >= used for x in S):
                continue
            for k in range(k0 if S == first else 0, len(self.patterns)):
                rows = tuple(tuple(S[i] for i in row) for row in self.patterns[k])
                # every row with positive demand becomes a mid atom-set in
                # the finished diagram, so an atom lies in at most a3
                # distinct rows (its upper degree).  That also caps the
                # distinct rows at the mid count: each row has a2 atoms, so
                # there are at most a4 * a3 / a2 = W(4,2) of them
                fresh = {row for row in rows if not self.demand.get(row)}
                if any(
                    self.distinct_through[x] + sum(1 for row in fresh if x in row)
                    > self.a3
                    for x in S
                ):
                    continue
                self.core.spend()
                for x in S:
                    self.count[x] += 1
                for row in rows:
                    was = self.demand.get(row, 0)
                    self.demand[row] = was + 1
                    if not was:
                        for x in row:
                            self.distinct_through[x] += 1
                self.chosen.append(rows)
                stuck = any(
                    d % self.a2 and any(self.count[x] >= cap for x in T)
                    for T, d in self.demand.items()
                )
                # the block count and the sorted atom counts fix the degree shape
                shape = len(self.chosen), tuple(sorted(self.count))
                state = tuple(self.chosen)
                if not stuck and not self.core.repeats(self.seen, shape, state, self._state):
                    self._slots(S, k, max(used, S[-1] + 1))
                self.chosen.pop()
                for row in rows:
                    self.demand[row] -= 1
                    if not self.demand[row]:
                        del self.demand[row]
                        for x in row:
                            self.distinct_through[x] -= 1
                for x in S:
                    self.count[x] -= 1

    def _state(self, chosen: tuple) -> tuple[list[int], list]:
        """The blocks ``chosen`` as level widths and lower-cover lists:
        atoms, one mid element per placed row, one element per block."""
        a4 = self.a4
        mid: list[tuple[int, ...]] = []
        blocks: list[range] = []
        for rows in chosen:
            blocks.append(range(a4 + len(mid), a4 + len(mid) + len(rows)))
            mid.extend(rows)
        return [a4, len(mid), len(blocks)], [()] * a4 + mid + blocks

    def _match(self) -> None:
        # every atom is in a3 blocks (``_fitting`` on the last pick), every
        # row demand is a multiple of a2 (``stuck`` drops the rest), and so
        # the copies sum to a4 * a3 / a2 = W(4,2)
        mu = {T: d // self.a2 for T, d in self.demand.items()}
        rows_T = sorted(mu)
        options: list[list[tuple[tuple[int, int], ...]]] = []
        for T in rows_T:
            occs: list[int] = []  # block slots, one entry per occurrence of row T
            for k, rows in enumerate(self.chosen):
                occs.extend(k for row in rows if row == T)
            opts = self._assign(occs, mu[T])
            if not opts:
                return
            options.append(opts)
        for combo in product(*options):
            self.core.spend()
            # a candidate's canonical search can outlast many nodes
            self.core.check_deadline()
            self.core.classify(*self._candidate(rows_T, mu, combo), self.seq, self.out)

    def _assign(self, occs: list[int], copies: int) -> list[tuple[tuple[int, int], ...]]:
        """All ways to spread row occurrences over interchangeable copies.

        Each copy takes exactly a2 occurrences; occurrences from the same
        block go to distinct copies.  Copies are claimed in first-use
        order and same-block occurrences get increasing copy ids, so each
        symmetry class appears once."""
        a2 = self.a2
        load = [0] * copies
        res: list[tuple[tuple[int, int], ...]] = []
        cur: list[tuple[int, int]] = []

        def rec(i: int, used: int) -> None:
            if i == len(occs):
                # all copies are full: loads sum to len(occs) = copies * a2, none > a2
                res.append(tuple(cur))
                return
            self.core.spend()
            floor = cur[-1][1] + 1 if cur and cur[-1][0] == occs[i] else 0
            for c in range(floor, min(used + 1, copies)):
                if load[c] >= a2:
                    continue
                load[c] += 1
                cur.append((occs[i], c))
                rec(i + 1, max(used, c + 1))
                cur.pop()
                load[c] -= 1

        rec(0, 0)
        return res

    def _candidate(
        self,
        rows_T: list[tuple[int, ...]],
        mu: dict[tuple[int, ...], int],
        combo: tuple[tuple[tuple[int, int], ...], ...],
    ) -> tuple[list[int], list]:
        # level widths and lower covers of the positions: the bottom, atom x
        # at 1 + x, the mid elements (the mu[T] copies of each row T
        # together, in rows_T order), the coatoms and the top
        a4 = self.a4
        mid: list[tuple[int, ...]] = []
        coatoms: list[list[int]] = [[] for _ in range(a4)]
        for T, assignment in zip(rows_T, combo):
            base = 1 + a4 + len(mid)
            mid.extend([tuple(1 + x for x in T)] * mu[T])
            for k, c in assignment:
                coatoms[k].append(base + c)
        top = range(1 + a4 + len(mid), 1 + 2 * a4 + len(mid))
        return [1, a4, len(mid), a4, 1], [(), *[(0,)] * a4, *mid, *coatoms, top]


# ---------------------------------------------------------------------------
# public entry points


def _classes(out: dict[bytes, GradedPoset]) -> tuple[GradedPoset, ...]:
    return tuple(p for _, p in sorted(out.items()))


def _as_finite_sequence(atoms) -> AtomicSequence:
    seq = _as_sequence(atoms)
    if not seq.finite:
        raise PosetError("need a finite atom tuple, not a tailed sequence")
    if not seq.head:
        raise PosetError("need at least one atom value")
    return seq


def enumerate_intervals(
    atoms,
    *,
    base: GradedPoset | None = None,
    limits: SearchLimits | None = None,
    strategy: str = "auto",
) -> SearchResult:
    """Every isomorphism class of bounded poset passing verify_binomial
    with exactly the given atom counts.

    With ``base``, only posets all of whose rank-``base.height`` lower
    intervals are isomorphic to ``base`` are enumerated."""
    seq = _as_finite_sequence(atoms)
    rank = len(seq.head)
    bad = _ratio_failure(seq, rank)
    if bad is not None:
        i, j, value = bad
        detail = f"impossible level census: B({i + j})/(B({i})B({j})) = {value} is not an integer"
        return SearchResult("exhausted", (), 0, detail)
    anchor = None
    if base is not None:
        if base.widths[0] != 1 or base.widths[-1] != 1:
            raise PosetError("base must be a bounded interval")
        if not 0 < base.height < rank:
            raise PosetError("base height must be strictly between 0 and the rank")
        anchor = (canonical_form(base), base.height)
    if strategy == "auto":
        fits = rank == 4 and (anchor is None or anchor[1] == 3)
        strategy = "assembly" if fits else "levelwise"
    strategies = {"assembly": _Assembly, "levelwise": _Levelwise}
    if strategy not in strategies:
        raise PosetError(f"unknown strategy {strategy!r}")
    core = _Core(limits or SearchLimits())
    out: dict[bytes, GradedPoset] = {}
    try:
        strategies[strategy](seq, core, anchor, out).run()
    except _Capped as capped:
        return SearchResult("capped", _classes(out), core.nodes, capped.detail)
    classes = _classes(out)
    verdict = "found" if classes else "exhausted"
    return SearchResult(verdict, classes, core.nodes)


def extension_search(
    base: GradedPoset,
    target,
    extra_ranks: int = 1,
    limits: SearchLimits | None = None,
) -> SearchResult:
    """Search for bounded binomial posets extending ``base`` upward by
    ``extra_ranks`` ranks along the ``target`` atom sequence.

    The base is anchored: every rank-``base.height`` lower interval of a
    candidate must be isomorphic to it.  "exhausted" means no such
    extension exists; "capped" means a resource limit cut the search."""
    extra_ranks = _whole(extra_ranks, "extra_ranks", 1)
    target = _as_sequence(target)
    rep = verify_binomial(base)
    if not rep.ok:
        raise PosetError(f"base fails the chain-count check: {rep.detail}")
    assert rep.atoms is not None
    if base.widths[0] != 1 or base.widths[-1] != 1:
        raise PosetError("base must be a bounded interval")
    rank = base.height + extra_ranks
    try:
        head = target.prefix(rank)
    except IndexError:
        raise PosetError(
            f"target {target.format()} does not define {rank} atom values"
        ) from None
    if rep.atoms.head != head[: base.height]:
        raise PosetError(
            f"base atoms {rep.atoms.format()} do not match the target prefix"
        )
    return enumerate_intervals(AtomicSequence(head), base=base, limits=limits)
