"""Section analysis of type-(1,1,2,2,...) poset truncations.

Between two adjacent width-4 levels the cover relation is a 2-regular
bipartite graph on 4+4 vertices, hence an 8-cycle or two 4-cycles.  Its
letter, 2 or 1, is the number of 2+2 partitions of the lower level that
its covers induce from above.  The word of letters is a complete
isomorphism invariant for these truncations; this module measures it
and classifies intervals.  The words themselves (which ones are valid,
and how many) belong to :mod:`binposet.construct`, which builds a
truncation from its word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GradedPoset, PosetError, verify_binomial
from .core import _between, _cover_lists, _induced_down, _whole
from .iso import DEFAULT_NODE_CAP, _certify

__all__ = [
    "section_type",
    "phi",
    "cover_partitions",
    "co_cover_partitions",
    "AvoidanceReport",
    "check_partition_avoidance",
    "IntervalClass",
    "IntervalClassification",
    "enumerate_interval_classes",
]


def section_type(p: GradedPoset, i: int) -> int:
    """Letter of the i-th section (levels i+1 and i+2): its number of cover
    partitions.  Two 4-cycles repeat two complementary pairs: one partition.
    An 8-cycle's four pairs are two opposite couples: both partitions."""
    i = _whole(i, "section index")
    if i + 2 > p.height:
        raise PosetError(f"section {i} needs levels {i + 1} and {i + 2}")
    lo, hi = p.levels[i + 1], p.levels[i + 2]
    if len(lo) != 4 or len(hi) != 4:
        raise PosetError(
            f"section needs width 4 at levels {i + 1} and {i + 2}, "
            f"got {len(lo)} and {len(hi)}"
        )
    blocks = [frozenset(p.lower_covers(u)) for u in hi]
    if any(len(b) != 2 for b in blocks) or any(sum(x in b for b in blocks) != 2 for x in lo):
        raise PosetError("section must be 2-regular")
    return len(_partitions_from_blocks(lo, set(blocks)))


def phi(p: GradedPoset) -> str:
    """The word of section types, one letter per adjacent width-4 level pair.

    Verifies first that the truncation is binomial with atom sequence
    (1, 1, 2, ..., 2); the word then determines the poset up to
    isomorphism."""
    if p.height < 3:
        raise PosetError("phi needs height at least 3")
    rep = verify_binomial(p)
    if not rep.ok:
        raise PosetError(f"not binomial: {rep.detail}")
    assert rep.atoms is not None
    expected = (1, 1) + (2,) * (p.height - 2)
    if rep.atoms.head != expected:
        raise PosetError(
            f"phi needs atom sequence (1,1,2,...,2), got {rep.atoms.format()}"
        )
    return "".join(str(section_type(p, i)) for i in range(1, p.height - 1))


# ---------------------------------------------------------------------------
# cover / co-cover partitions

Partition = frozenset[frozenset[str]]


def _partitions_from_blocks(level: tuple[str, ...], blocks: set[frozenset[str]]) -> set[Partition]:
    """2+2 partitions of the level whose blocks both occur in ``blocks``."""
    full = frozenset(level)
    out: set[Partition] = set()
    for b in blocks:
        rest = full - b
        if len(b) == 2 and rest in blocks:
            out.add(frozenset({b, rest}))
    return out


def cover_partitions(p: GradedPoset, i: int) -> set[Partition]:
    """Partitions of level i+1 whose blocks are lower-cover sets of
    level-(i+2) elements (induced from above)."""
    i = _whole(i, "partition index")
    if i + 2 > p.height:
        raise PosetError(f"cover partitions at level {i + 1} need level {i + 2}")
    level = p.levels[i + 1]
    if len(level) != 4:
        raise PosetError(f"level {i + 1} must have width 4, got {len(level)}")
    blocks = {frozenset(p.lower_covers(u)) for u in p.levels[i + 2]}
    return _partitions_from_blocks(level, blocks)


def co_cover_partitions(p: GradedPoset, i: int) -> set[Partition]:
    """Partitions of level i+1 whose blocks are upper-cover sets of
    level-i elements (induced from below)."""
    i = _whole(i, "partition index")
    if i + 1 > p.height:
        raise PosetError(f"co-cover partitions at level {i + 1} need level {i}")
    level = p.levels[i + 1]
    if len(level) != 4:
        raise PosetError(f"level {i + 1} must have width 4, got {len(level)}")
    blocks = {frozenset(p.upper_covers(x)) for x in p.levels[i]}
    return _partitions_from_blocks(level, blocks)


@dataclass(frozen=True)
class AvoidanceReport:
    """PASS iff no 2+2 partition of a width-4 level is induced both as a
    cover partition and as a co-cover partition."""

    ok: bool
    level: int | None = None
    partition: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    detail: str = ""


def check_partition_avoidance(p: GradedPoset) -> AvoidanceReport:
    for r, w in enumerate(p.widths):
        want = 1 if r == 0 else 2 if r == 1 else 4
        if w != want:
            raise PosetError(f"level {r} has width {w}, want {want} for this check")
    for level in range(2, p.height):
        shared = cover_partitions(p, level - 1) & co_cover_partitions(p, level - 1)
        if shared:
            blocks = min(
                tuple(sorted(tuple(sorted(b)) for b in part)) for part in shared
            )
            return AvoidanceReport(
                ok=False,
                level=level,
                partition=blocks,
                detail=f"partition {blocks} of level {level} is induced from both sides",
            )
    return AvoidanceReport(ok=True)


# ---------------------------------------------------------------------------
# interval classification


@dataclass(frozen=True)
class IntervalClass:
    certificate: bytes
    bottom: str
    top: str
    size: int


@dataclass(frozen=True)
class IntervalClassification:
    length: int
    classes: tuple[IntervalClass, ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def enumerate_interval_classes(p: GradedPoset, n: int) -> IntervalClassification:
    """Group all length-n intervals by canonical certificate.

    Returns one representative (bottom, top) pair per class: the first in
    level order.

    Keys are made once per bottom s, not once per interval.  U is s with
    its up-set through rank(s) + n, level by level in element order; each
    level is the upper covers of the one below.  U's key gives, for each
    level below the top, the upper covers of its elements as positions in
    the level above, so it fixes U's diagram position by position.  Those
    cover lists depend only on the level, so each level met is listed
    once and numbered, and the key is U's sequence of numbers.
    Inside U, z <= t holds exactly when a chain of U's own covers joins
    them, since every element between z and t lies in U.  So when
    bottoms s and s' have equal keys, the map between their U's by
    position carries [s, t] onto [s', t'] for tops t and t' at equal
    positions.  So the first bottom with a key certifies each of its tops,
    and the list of their certificates serves every later bottom with
    that key, which only adds one to the key's count of bottoms.

    None of this depends on n, so ``p`` keeps it in its own ``__dict__``
    (see ``GradedPoset``): the step from each level met to the level
    above and its number, and each bottom's walk, its levels and step
    numbers, taken as far as the longest length asked so far.  The key
    of s at length n is the walk's first n numbers, and the tops are its
    level n, so the census at every length walks each up-set once.

    An interval is certified from its own key, its cover lists in the
    order of ``p``'s elements.  Equal interval keys are the same labelled
    diagram, so only the first interval with a key is canonicalized, as
    its key and level widths, not a poset.  The canonical searches of a
    call share one dict of known leaves (see Known leaves in ``iso``), so
    a search of a class already met stops at its first leaf.  The
    certificates and known leaves are the call's own, so each length
    runs the same canonical searches whatever was asked before."""
    n = _whole(n, "interval length")
    if n > p.height:
        raise PosetError(f"interval length {n} out of range 0..{p.height}")
    els, rank, up = p.elements, p._level_of, p._up
    # a level of some U -> (the level above it, the number of its step);
    # a step's cover lists -> its number; a bottom -> (U's levels, U's steps)
    steps, step_number, walks = p.__dict__.setdefault("_census_walks", ({}, {}, {}))
    # U's key -> its first bottom and the certificates of [s, t] for its tops
    firsts: dict[tuple[int, ...], tuple[int, list[bytes]]] = {}
    bottoms: dict[tuple[int, ...], int] = {}
    seen: dict[tuple[tuple[int, ...], ...], bytes] = {}
    known: dict[bytes, bytes] = {}
    for s in range(len(els)):
        if rank[s] + n > p.height:
            break
        walk = walks.get(s)
        if walk is None:
            walk = walks[s] = [(s,)], []
        levels, numbers = walk
        while len(numbers) < n:
            level = levels[-1]
            step = steps.get(level)
            if step is None:
                above = tuple(sorted({k for e in level for k in up[e]}))
                pos = dict(zip(above, range(len(above))))
                covers = tuple([tuple([pos[k] for k in up[e]]) for e in level])
                step = steps[level] = above, step_number.setdefault(covers, len(step_number))
            levels.append(step[0])
            numbers.append(step[1])
        key = tuple(numbers[:n])
        count = bottoms.get(key)
        if count is not None:
            bottoms[key] = count + 1
            continue
        bottoms[key] = 1
        certs = []
        for t in levels[n]:
            members = _between(p, s, t)
            ikey = _induced_down(p, members)
            cert = seen.get(ikey)
            if cert is None:
                widths = [0] * (n + 1)
                for z in members:
                    widths[rank[z] - rank[s]] += 1
                adjacency = _cover_lists(ikey)
                cert = seen[ikey] = _certify(widths, *adjacency, DEFAULT_NODE_CAP, known)[0]
            certs.append(cert)
        firsts[key] = s, certs
    # keys come in the order of their first bottoms, so each class's first
    # pair is met first, as in a walk over every pair in level order
    first: dict[bytes, tuple[str, str]] = {}
    size: dict[bytes, int] = {}
    for key, (s, certs) in firsts.items():
        for t, cert in zip(walks[s][0][n], certs):
            if cert in size:
                size[cert] += bottoms[key]
            else:
                first[cert], size[cert] = (els[s], els[t]), bottoms[key]
    classes = tuple(
        IntervalClass(cert, *first[cert], size[cert]) for cert in sorted(size)
    )
    return IntervalClassification(length=n, classes=classes)
