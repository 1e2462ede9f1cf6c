import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binposet.core import GradedPoset, build_poset, dual, grid_ids
from binposet.iso import (
    CanonicalizationCapError,
    are_isomorphic,
    canonical_form,
    isomorphism,
)
from conftest import brute_isomorphic


def relabel(p: GradedPoset, rng: random.Random) -> GradedPoset:
    ids = rng.sample(range(10**9), len(p.elements))
    names = {el: f"n{i}" for el, i in zip(p.elements, ids)}
    levels = []
    for lv in p.levels:
        row = [names[e] for e in lv]
        rng.shuffle(row)
        levels.append(tuple(row))
    covers = frozenset((names[a], names[b]) for a, b in p.covers)
    return GradedPoset(tuple(levels), covers)


def two_level(edges: list[tuple[int, int]]) -> GradedPoset:
    """Raw bipartite diagram on 4 + 4 vertices."""
    return GradedPoset(
        (tuple(f"x{i}" for i in range(4)), tuple(f"y{i}" for i in range(4))),
        frozenset((f"x{a}", f"y{b}") for a, b in edges),
    )


@pytest.fixture
def eight_cycle() -> GradedPoset:
    return two_level([(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)])


@pytest.fixture
def two_squares() -> GradedPoset:
    return two_level(
        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    )


class TestCanonicalForm:
    def test_stable_under_relabeling(self, cube, butterfly, not_binomial):
        rng = random.Random(11)
        for p in (cube, butterfly, not_binomial):
            want = canonical_form(p)
            for _ in range(8):
                assert canonical_form(relabel(p, rng)) == want

    def test_separates_regular_section_shapes(self, eight_cycle, two_squares):
        # same widths, same degrees everywhere: only the global cycle
        # structure differs
        assert canonical_form(eight_cycle) != canonical_form(two_squares)
        rng = random.Random(3)
        assert canonical_form(relabel(eight_cycle, rng)) == canonical_form(eight_cycle)

    def test_node_cap(self, cube):
        with pytest.raises(CanonicalizationCapError):
            canonical_form(cube, node_cap=2)


def cycle_union(lengths: tuple[int, ...]) -> GradedPoset:
    """Two levels, every element of degree 2: one 2L-cycle per length L.
    Refinement cannot split such a diagram, and two of them are
    isomorphic exactly when their length multisets agree."""
    lo = [f"a{c}.{i}" for c, n in enumerate(lengths) for i in range(n)]
    hi = [f"b{c}.{i}" for c, n in enumerate(lengths) for i in range(n)]
    covers = {
        (f"a{c}.{i}", f"b{c}.{(i + d) % n}")
        for c, n in enumerate(lengths)
        for i in range(n)
        for d in (0, 1)
    }
    return GradedPoset((tuple(lo), tuple(hi)), frozenset(covers))


def partitions(total: int, least: int = 2) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(least, total + 1)
        for rest in partitions(total - first, first)
    ]


def test_certificates_of_cycle_unions_follow_their_lengths():
    rng = random.Random(17)
    shapes = partitions(11)
    certs = [canonical_form(cycle_union(shape)) for shape in shapes]
    assert len(set(certs)) == len(shapes)
    for shape, cert in zip(shapes, certs):
        for _ in range(4):
            assert canonical_form(relabel(cycle_union(shape), rng)) == cert


class TestAreIsomorphic:
    def test_matches_brute_force_on_small_pool(
        self, chain3, diamond, butterfly, cube, not_binomial, eight_cycle, two_squares
    ):
        pool = [chain3, diamond, butterfly, cube, not_binomial, eight_cycle, two_squares]
        rng = random.Random(5)
        pool += [relabel(p, rng) for p in pool]
        for p, q in itertools.combinations(pool, 2):
            assert are_isomorphic(p, q) == brute_isomorphic(p, q)

    def test_dual_of_chain(self, chain3):
        assert are_isomorphic(chain3, dual(chain3))

    def test_width_mismatch_is_cheap(self, chain3, diamond):
        assert not are_isomorphic(chain3, diamond)


class TestIsomorphism:
    def test_map_preserves_covers(self, cube):
        rng = random.Random(9)
        q = relabel(cube, rng)
        m = isomorphism(cube, q)
        assert m is not None
        assert {(m[a], m[b]) for a, b in cube.covers} == set(q.covers)
        assert sorted(m.values()) == sorted(q.elements)

    def test_none_for_distinct_diagrams(self, eight_cycle, two_squares):
        assert isomorphism(eight_cycle, two_squares) is None


def kept_run(p: GradedPoset):
    """The (certificate, order, nodes) run ``p`` keeps, or None."""
    return p.__dict__.get("_canonical_run")


class TestInstanceCache:
    def test_kept_run_honours_a_smaller_node_cap(self, cube):
        cert = canonical_form(cube)
        nodes = kept_run(cube)[2]
        assert nodes > 1
        with pytest.raises(CanonicalizationCapError):
            canonical_form(cube, node_cap=nodes - 1)
        assert canonical_form(cube, node_cap=nodes) == cert

    def test_capped_run_is_not_kept(self, cube):
        with pytest.raises(CanonicalizationCapError):
            canonical_form(cube, node_cap=1)
        assert kept_run(cube) is None
        canonical_form(cube)
        assert kept_run(cube) is not None

    def test_isomorphism_on_kept_runs_maps_covers_to_covers(self, cube):
        q = relabel(cube, random.Random(4))
        assert canonical_form(cube) == canonical_form(q)
        runs = kept_run(cube), kept_run(q)
        m = isomorphism(cube, q)
        assert (kept_run(cube), kept_run(q)) == runs
        assert m is not None
        assert {(m[a], m[b]) for a, b in cube.covers} == set(q.covers)

    def test_equal_twin_gets_its_own_run(self, cube):
        cert = canonical_form(cube)
        twin = GradedPoset(cube.levels, cube.covers)
        assert twin == cube and hash(twin) == hash(cube) and twin is not cube
        assert kept_run(twin) is None
        assert canonical_form(twin) == cert
        assert kept_run(twin) == kept_run(cube)
        assert kept_run(twin) is not kept_run(cube)


widths_strategy = st.lists(st.integers(1, 4), min_size=1, max_size=3)


@st.composite
def raw_diagrams(draw):
    widths = draw(widths_strategy)
    levels = tuple(
        tuple(f"{r}:{i}" for i in range(w)) for r, w in enumerate(widths)
    )
    covers = set()
    for r in range(len(widths) - 1):
        for i in range(widths[r]):
            for j in range(widths[r + 1]):
                if draw(st.booleans()):
                    covers.add((f"{r}:{i}", f"{r + 1}:{j}"))
    return GradedPoset(levels, frozenset(covers))


@given(raw_diagrams(), st.integers(0, 2**32 - 1))
def test_certificate_is_an_invariant(p, seed):
    rng = random.Random(seed)
    assert canonical_form(relabel(p, rng)) == canonical_form(p)


@given(raw_diagrams(), raw_diagrams())
def test_certificate_equality_matches_brute_force(p, q):
    assert (canonical_form(p) == canonical_form(q)) == brute_isomorphic(p, q)


def random_graded(rng: random.Random) -> GradedPoset:
    """A random leveled diagram of at most 60 elements; every third one is
    a few copies of one random block between a bottom and a top, which
    gives large automorphism groups."""
    if rng.randrange(3):
        widths = [rng.randint(1, 12) for _ in range(rng.randint(2, 6))]
        while sum(widths) > 60:
            widths.pop()
        levels = grid_ids(widths)
        density = rng.uniform(0.15, 0.7)
        covers = {
            (a, b)
            for r in range(len(levels) - 1)
            for a in levels[r]
            for b in levels[r + 1]
            if rng.random() < density
        }
        return GradedPoset(levels, frozenset(covers))
    copies = rng.randint(2, 4)
    block = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    inner = {
        (r, i, j)
        for r in range(len(block) - 1)
        for i in range(block[r])
        for j in range(block[r + 1])
        if rng.random() < 0.6
    }
    levels = (("b",),) + tuple(
        tuple(f"{r}:{c}:{i}" for c in range(copies) for i in range(w))
        for r, w in enumerate(block)
    ) + (("t",),)
    covers = set()
    for c in range(copies):
        covers |= {("b", f"0:{c}:{i}") for i in range(block[0])}
        covers |= {(f"{len(block) - 1}:{c}:{i}", "t") for i in range(block[-1])}
        covers |= {(f"{r}:{c}:{i}", f"{r + 1}:{c}:{j}") for r, i, j in inner}
    return GradedPoset(levels, frozenset(covers))


def near_twin(p: GradedPoset, rng: random.Random) -> GradedPoset | None:
    """The same widths and cover count with one cover moved, or None."""
    covers = sorted(p.covers)
    if not covers:
        return None
    lo, hi = rng.choice(covers)
    r = p.rank(lo)
    free = [
        (a, b) for a in p.levels[r] for b in p.levels[r + 1] if (a, b) not in p.covers
    ]
    if not free:
        return None
    return GradedPoset(p.levels, (p.covers - {(lo, hi)}) | {rng.choice(free)})


def test_certificate_equality_matches_vf2():
    nx = pytest.importorskip("networkx")

    def graph(p: GradedPoset):
        g = nx.Graph()
        for x in p.elements:
            g.add_node(x, rank=p.rank(x))
        g.add_edges_from(sorted(p.covers))
        return g

    match = nx.algorithms.isomorphism.categorical_node_match("rank", None)
    rng = random.Random(2024)
    verdicts = []
    for _ in range(60):
        p = random_graded(rng)
        pairs = [relabel(p, rng)]
        twin = near_twin(p, rng)
        if twin is not None:
            pairs.append(relabel(twin, rng))
        for q in pairs:
            want = nx.is_isomorphic(graph(p), graph(q), node_match=match)
            assert (canonical_form(p) == canonical_form(q)) == want
            verdicts.append(want)
    assert True in verdicts and False in verdicts
