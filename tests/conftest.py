"""Shared fixtures and independent oracles.

The oracles here recompute facts by brute force, with no reliance on the
library's own algorithms, so the fast implementations are tested against
something slower but obviously correct.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import settings

from binposet.core import (
    AtomicNumbersReport,
    AtomicSequence,
    BinomialReport,
    GradedPoset,
    build_poset,
)

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

# one line per end-to-end criterion, echoed after the run summary
ACCEPTANCE: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE:
            terminalreporter.write_line(line)


def frame_depth() -> int:
    """The number of Python frames on the stack, this one included."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def relabel(p: GradedPoset, rng: random.Random) -> GradedPoset:
    """A copy of ``p`` under fresh ids, each level in shuffled order."""
    ids = rng.sample(range(10**9), len(p.elements))
    names = {el: f"n{i}" for el, i in zip(p.elements, ids)}
    levels = []
    for lv in p.levels:
        row = [names[e] for e in lv]
        rng.shuffle(row)
        levels.append(tuple(row))
    covers = frozenset((names[a], names[b]) for a, b in p.covers)
    return GradedPoset(tuple(levels), covers)


def brute_chain_count(levels, covers, src, dst) -> int:
    """Number of saturated chains from src to dst, by memoized DFS."""
    up: dict[str, list[str]] = {}
    for a, b in covers:
        up.setdefault(a, []).append(b)

    @lru_cache(maxsize=None)
    def walk(x: str) -> int:
        if x == dst:
            return 1
        return sum(walk(y) for y in up.get(x, ()))

    return walk(src)


def _brute_pairs(p: GradedPoset) -> list[tuple[str, str]]:
    """Every comparable pair (x, y), x <= y, in (x, y) element order."""
    up: dict[str, list[str]] = {}
    for a, b in p.covers:
        up.setdefault(a, []).append(b)
    order = {x: i for i, x in enumerate(p.elements)}
    pairs = []
    for x in p.elements:
        seen, stack = {x}, [x]
        while stack:
            for y in up.get(stack.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        pairs.extend((x, y) for y in sorted(seen, key=order.__getitem__))
    return pairs


def brute_binomial_report(p: GradedPoset) -> BinomialReport:
    """The report :func:`verify_binomial` must give, from a chain count per pair.

    A disagreement is reported at its least length, with the id-order
    least pair of that length and the first pair after it, in id order,
    whose count differs; then a length with no interval; then counts that
    do not divide."""
    by_len: dict[int, list[tuple[str, str, int]]] = {}
    for x, y in _brute_pairs(p):
        c = brute_chain_count(p.levels, p.covers, x, y)
        by_len.setdefault(p.rank(y) - p.rank(x), []).append((x, y, c))
    bad = [d for d, rows in by_len.items() if len({c for _, _, c in rows}) > 1]
    if bad:
        d = min(bad)
        rows = sorted(by_len[d])
        x1, y1, c1 = rows[0]
        x2, y2, c2 = next(r for r in rows if r[2] != c1)
        return BinomialReport(
            ok=False,
            witness=((x1, y1), (x2, y2)),
            detail=(
                f"length-{d} intervals disagree: [{x1}, {y1}] has {c1} "
                f"maximal chains, [{x2}, {y2}] has {c2}"
            ),
        )
    missing = [d for d in range(p.height + 1) if d not in by_len]
    if missing:
        return BinomialReport(ok=False, detail=f"no interval of length {missing[0]}")
    counts = {d: by_len[d][0][2] for d in range(p.height + 1)}
    head = []
    for d in range(1, p.height + 1):
        q, r = divmod(counts[d], counts[d - 1])
        if r:
            return BinomialReport(
                ok=False, detail=f"chain counts at lengths {d - 1} and {d} are incompatible"
            )
        head.append(q)
    return BinomialReport(ok=True, counts=counts, atoms=AtomicSequence(tuple(head)))


def brute_atomic_report(p: GradedPoset) -> AtomicNumbersReport:
    """The report :func:`atomic_numbers` must give, from an atom count per pair.

    The atoms of [x, y] are the upper covers of x that lie below y.  The
    first pair in element order whose count differs from the first pair of
    its length is reported against that pair."""
    pairs = _brute_pairs(p)
    below = set(pairs)
    first: dict[int, tuple[str, str, int]] = {}
    for x, y in pairs:
        d = p.rank(y) - p.rank(x)
        if d == 0:
            continue
        a = sum(1 for lo, k in p.covers if lo == x and (k, y) in below)
        x0, y0, a0 = first.setdefault(d, (x, y, a))
        if a != a0:
            return AtomicNumbersReport(
                ok=False,
                witness=((x0, y0), (x, y)),
                detail=(
                    f"length-{d} intervals disagree on atom count: "
                    f"[{x0}, {y0}] has {a0}, [{x}, {y}] has {a}"
                ),
            )
    missing = [d for d in range(1, p.height + 1) if d not in first]
    if missing:
        return AtomicNumbersReport(ok=False, detail=f"no interval of length {missing[0]}")
    head = tuple(first[d][2] for d in range(1, p.height + 1))
    return AtomicNumbersReport(ok=True, atoms=AtomicSequence(head))


def brute_isomorphic(p: GradedPoset, q: GradedPoset) -> bool:
    """Exhaustive rank-preserving isomorphism test.

    Tries every per-level bijection, so keep inputs tiny (about a dozen
    elements)."""
    if p.widths != q.widths or len(p.covers) != len(q.covers):
        return False
    q_covers = set(q.covers)
    pools = [list(itertools.permutations(lv_q)) for lv_q in q.levels]
    for assignment in itertools.product(*pools):
        mapping = {}
        for lv_p, lv_q in zip(p.levels, assignment):
            mapping.update(zip(lv_p, lv_q))
        if all((mapping[a], mapping[b]) in q_covers for a, b in p.covers):
            return True
    return False


def brute_classes(head: tuple[int, ...]) -> list[GradedPoset]:
    """One poset per isomorphism class of bounded poset that passes
    :func:`brute_binomial_report` with atom counts ``head``.

    In a bounded binomial poset of rank n, level j has
    W(n, j) = B(n) / (B(j) B(n - j)) elements, B(j) the product of the
    first j atom counts, and each element of level j covers a_j elements
    and is covered by a_(n - j) (the atoms of its lower and upper
    intervals).  Every wiring of every level pair with those degrees is
    tried, with no symmetry reduction, so keep the targets tiny."""
    n = len(head)
    B = [math.prod(head[:j]) for j in range(n + 1)]
    widths = [B[n] // (B[j] * B[n - j]) for j in range(n + 1)]
    levels = [[f"{j}:{i}" for i in range(w)] for j, w in enumerate(widths)]
    wirings = []
    for j in range(1, n + 1):
        lower, upper = levels[j - 1], levels[j]
        pair = []
        for below in itertools.product(
            itertools.combinations(lower, head[j - 1]), repeat=len(upper)
        ):
            degree = Counter(itertools.chain.from_iterable(below))
            if all(degree[x] == head[n - j] for x in lower):
                pair.append([(x, y) for y, xs in zip(upper, below) for x in xs])
        wirings.append(pair)
    reps: list[GradedPoset] = []
    for parts in itertools.product(*wirings):
        p = build_poset(levels, [c for part in parts for c in part])
        rep = brute_binomial_report(p)
        if not rep.ok or rep.atoms.head != head:
            continue
        if not any(brute_isomorphic(p, q) for q in reps):
            reps.append(p)
    return reps


def brute_ratio_ok(values: list[int], i: int, j: int) -> bool:
    """Whether the product over the first i+j values splits integrally."""
    total = math.prod(values[: i + j])
    return total % (math.prod(values[:i]) * math.prod(values[:j])) == 0


def regular_matrix_count(n: int, k: int) -> int:
    """The number of n x n 0/1 matrices whose rows and columns all sum to k.

    Rows are filled one at a time.  The state is how many columns still
    need each number of ones, from 0 to k; a row takes its k ones from
    columns that need at least one, and each column it takes needs one
    fewer."""

    @lru_cache(maxsize=None)
    def fill(rows: int, need: tuple[int, ...]) -> int:
        if rows == 0:
            return int(need[0] == n)
        total = 0
        for take in itertools.product(*(range(min(c, k) + 1) for c in need[1:])):
            if sum(take) != k:
                continue
            after = list(need)
            for d, x in enumerate(take, 1):
                after[d] -= x
                after[d - 1] += x
            ways = math.prod(math.comb(c, x) for c, x in zip(need[1:], take))
            total += ways * fill(rows - 1, tuple(after))
        return total

    return fill(n, (0,) * k + (n,))


@pytest.fixture
def chain3() -> GradedPoset:
    return build_poset([["a"], ["b"], ["c"]], [("a", "b"), ("b", "c")])


@pytest.fixture
def diamond() -> GradedPoset:
    return build_poset(
        [["0"], ["x", "y"], ["1"]],
        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")],
    )


@pytest.fixture
def butterfly() -> GradedPoset:
    """Two atoms, two coatoms, full bipartite middle: atoms (1, 2, 2)."""
    return build_poset(
        [["0"], ["x", "y"], ["u", "v"], ["1"]],
        [
            ("0", "x"),
            ("0", "y"),
            ("x", "u"),
            ("x", "v"),
            ("y", "u"),
            ("y", "v"),
            ("u", "1"),
            ("v", "1"),
        ],
    )


@pytest.fixture
def cube() -> GradedPoset:
    """Subset lattice on three points."""
    singles = ["a", "b", "c"]
    pairs = ["ab", "ac", "bc"]
    levels = [["e"], singles, pairs, ["abc"]]
    covers = [("e", s) for s in singles]
    covers += [(s, d) for s in singles for d in pairs if s in d]
    covers += [(d, "abc") for d in pairs]
    return build_poset(levels, covers)


@pytest.fixture
def not_binomial() -> GradedPoset:
    """Graded and bounded, but one coatom covers only one middle element."""
    return build_poset(
        [["0"], ["x", "y"], ["u", "v"], ["1"]],
        [
            ("0", "x"),
            ("0", "y"),
            ("x", "u"),
            ("x", "v"),
            ("y", "u"),
            ("u", "1"),
            ("v", "1"),
        ],
    )
