import hashlib
import itertools
import random
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binposet.classify import enumerate_interval_classes
from binposet.construct import (
    debruijn_poset,
    divisible_poset,
    m_interval,
    poset_from_string,
    stripped_boolean_interval,
    versal_string,
)
from binposet.core import (
    GradedPoset,
    PosetError,
    build_poset,
    dual,
    grid_ids,
    interval,
    _pairs_of_length,
)
from binposet.iso import (
    DEFAULT_NODE_CAP,
    CanonicalizationCapError,
    _canonical,
    _Canonicalizer,
    _Capped,
    _certify,
    _preserves_covers,
    are_isomorphic,
    canonical_form,
    isomorphism,
)
from binposet.search import enumerate_intervals
from conftest import brute_isomorphic, frame_depth, relabel
from test_search import PINNED


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
        # search classes reach several leaves that encode differently, so a
        # child skipped as an image of the best path without being one, or
        # a search resumed at the wrong depth, shows as a changed certificate
        for head, count in (((1, 3, 7), 16), ((1, 2, 4, 4), 24)):
            classes = enumerate_intervals(head).classes
            assert len(classes) == count
            for p in classes:
                want = canonical_form(p)
                for _ in range(10):
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

    @pytest.mark.parametrize("cap", [-1, 0, 0.5, None, "x"])
    def test_junk_node_cap_is_not_a_cap_hit(self, cap, cube, chain3):
        calls = (
            lambda: canonical_form(cube, node_cap=cap),
            lambda: are_isomorphic(cube, chain3, node_cap=cap),
            lambda: isomorphism(cube, chain3, node_cap=cap),
        )
        for call in calls:
            with pytest.raises(PosetError, match="node_cap") as info:
                call()
            assert not isinstance(info.value, CanonicalizationCapError)


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


def pinned_corpus_certificates() -> list[bytes]:
    """Certificates of a fixed corpus: the constructions, the classes of
    the pinned searches, and a versal word poset with its interval census
    up to length 12 (the longer lengths take seconds)."""
    word = poset_from_string(versal_string(3))
    posets = [
        word,
        stripped_boolean_interval(4, 2),
        stripped_boolean_interval(3, 2),
        poset_from_string("121"),
        m_interval(3),
        debruijn_poset(3, 3, 7),
        divisible_poset((1, 2, 4, 8), 4),
    ]
    for run, *_ in PINNED.values():
        posets += run().classes
    certs = [canonical_form(p) for p in posets]
    for n in range(13):
        certs += [c.certificate for c in enumerate_interval_classes(word, n).classes]
    return sorted(certs)


def test_certificate_bytes_are_pinned():
    # A faster search may change how a certificate is found, never its
    # bytes: the least encoding over the same search tree stays the least.
    certs = pinned_corpus_certificates()
    assert (len(certs), len(set(certs))) == (125, 115)
    digest = hashlib.sha256(b"\n".join(c.hex().encode() for c in certs)).hexdigest()
    assert digest == "2999e522dd7aeab85f985d47c56131103661b2452aca5af0bcf0a6b44fd52fdf"


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

    def test_none_for_different_widths(self, diamond):
        # four covers each, so only the widths tell them apart
        chain = build_poset(
            [[str(r)] for r in range(5)], [(str(r), str(r + 1)) for r in range(4)]
        )
        assert len(chain.covers) == len(diamond.covers)
        assert isomorphism(diamond, chain) is None


def kept_run(p: GradedPoset):
    """The (certificate, order, nodes) run ``p`` keeps, or None."""
    return p.__dict__.get("_canonical_run")


def canonicalizer(p: GradedPoset, *args) -> _Canonicalizer:
    """A canonical search of the integer lists of ``p``, not yet run."""
    return _Canonicalizer(p.widths, p._down, *args)


def certify(p: GradedPoset, *args):
    """``_certify`` on the integer lists of ``p``: (certificate, order, search)."""
    return _certify(p.widths, p._down, *args)


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


def twin_atoms(k: int) -> GradedPoset:
    """A bottom, k atoms and a top: the k atoms are twins."""
    levels = grid_ids((1, k, 1))
    atoms = levels[1]
    return build_poset(levels, [("0:0", a) for a in atoms] + [(a, "2:0") for a in atoms])


class TestCanonicalNodes:
    """Known twin swaps prune the search, twin-only cells end it, and a
    child whose partition is an automorphic image of the best path's node
    of its depth is refined but not searched."""

    def test_twin_atoms_take_one_node(self):
        # one twin class and no other non-singleton cell: the root is a leaf
        for k in range(2, 21):
            p = twin_atoms(k)
            canonical_form(p)
            assert kept_run(p)[2] == 1, k

    def test_divisible_poset_fits_a_thousand_nodes(self):
        # each element of ranks 1-3 has one twin, and the 64 of rank 4 fall
        # into eight twin classes of eight
        p = divisible_poset((1, 2, 4, 8), 4)
        q = relabel(p, random.Random(8))
        assert canonical_form(p, node_cap=1000) == canonical_form(q, node_cap=1000)
        assert kept_run(p)[2] == 25

    @pytest.mark.parametrize("k, nodes", [(3, 96), (4, 213)])
    def test_word_poset_nodes_are_pinned(self, k, nodes):
        # word posets have no twins: the cheap automorphisms do the pruning,
        # about three nodes per level of the first path (34 and 73 levels)
        p = poset_from_string(versal_string(k))
        canonical_form(p)
        assert kept_run(p)[2] == nodes

    def test_a_skipped_child_counts_against_the_cap(self, monkeypatch):
        # fresh posets, so the cap is met inside the search, not by the kept run
        word = versal_string(3)
        with pytest.raises(CanonicalizationCapError):
            canonical_form(poset_from_string(word), node_cap=95)
        skipped = []
        real = _Canonicalizer._image_of_best

        def image_of_best(search, *args):
            aut = real(search, *args)
            skipped.append(aut is not None)
            return aut

        monkeypatch.setattr(_Canonicalizer, "_image_of_best", image_of_best)
        p = poset_from_string(word)
        canonical_form(p, node_cap=96)
        assert kept_run(p)[2] == 96
        # one per level of the first path: without them it would count 62
        assert sum(skipped) == 34


class TestDeepSearches:
    """The search walks from an explicit stack: a first path of any depth
    fits in a small recursion limit, and the nodes grow with its depth."""

    def test_a_deep_first_path_needs_no_recursion(self):
        # the first path of versal_string(6) is 298 levels deep
        p = poset_from_string(versal_string(6))
        q = relabel(p, random.Random(6))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 100)
        try:
            cert = canonical_form(p)
            m = isomorphism(p, q)
        finally:
            sys.setrecursionlimit(limit)
        assert cert == canonical_form(q)
        assert m is not None
        assert {(m[a], m[b]) for a, b in p.covers} == set(q.covers)

    def test_versal_string_8_certifies_within_30_cpu_seconds(self):
        # 4,263 elements and a first path 1,065 levels deep: 3,156 nodes,
        # 3,769 for the copy, about 1 s of CPU each on a 2.1 GHz Xeon
        p = poset_from_string(versal_string(8))
        q = relabel(p, random.Random(8))
        start = time.process_time()
        assert canonical_form(p) == canonical_form(q)
        assert time.process_time() - start < 30
        assert max(kept_run(p)[2], kept_run(q)[2]) <= len(p.elements)


def random_word(rng: random.Random, length: int) -> str:
    """A valid section word: a uniform letter at each step, a 1 after a 2."""
    out: list[str] = []
    for _ in range(length):
        out.append("1" if out and out[-1] == "2" else rng.choice("12"))
    return "".join(out)


def test_word_posets_certify_like_their_words():
    # Word posets are twin-free, so their searches lean on the cheap
    # automorphisms at every depth, which the twin-heavy and VF2 oracles
    # barely reach.  Words of one length give isomorphic posets only when
    # equal (criterion 2), and posets of different heights never are.
    rng = random.Random(61)
    words = [random_word(rng, rng.randint(6, 10)) for _ in range(30)]
    posets = [poset_from_string(w) for w in words]
    certs = [canonical_form(p) for p in posets]
    for (u, cert_u), (v, cert_v) in itertools.combinations(zip(words, certs), 2):
        assert (cert_u == cert_v) == (u == v), (u, v)
    for w, p, cert in zip(words, posets, certs):
        q = relabel(p, rng)
        assert canonical_form(q) == cert, w
        m = isomorphism(p, q)
        assert m is not None, w
        assert {(m[a], m[b]) for a, b in p.covers} == set(q.covers), w


def blow_up(p: GradedPoset, mult: dict[str, int]) -> GradedPoset:
    """Each element x of ``p`` becomes ``mult[x]`` twins, each covered as
    x is."""
    levels = tuple(tuple(f"{x}.{i}" for x in lv for i in range(mult[x])) for lv in p.levels)
    covers = {
        (f"{a}.{i}", f"{b}.{j}")
        for a, b in p.covers
        for i in range(mult[a])
        for j in range(mult[b])
    }
    return GradedPoset(levels, frozenset(covers))


def twin_heavy(rng: random.Random, widths: list[int]) -> tuple[GradedPoset, GradedPoset | None]:
    """A random blow-up with 1-3 twins per element, and the blow-up with
    two multiplicities of one level swapped (None if no level has two
    that differ).  The last element of the first and of the last level
    has no covers, so twins without covers sit on two levels."""
    levels = grid_ids(widths)
    lonely = {levels[0][-1], levels[-1][-1]}
    covers = {
        (a, b)
        for r in range(len(levels) - 1)
        for a in levels[r]
        for b in levels[r + 1]
        if a not in lonely and b not in lonely and rng.random() < 0.5
    }
    base = GradedPoset(levels, frozenset(covers))
    mult = {x: rng.randint(1, 3) for x in base.elements}
    swaps = [
        (x, y) for lv in levels for x, y in itertools.combinations(lv, 2) if mult[x] != mult[y]
    ]
    if not swaps:
        return blow_up(base, mult), None
    x, y = rng.choice(swaps)
    return blow_up(base, mult), blow_up(base, {**mult, x: mult[y], y: mult[x]})


def check_twin_heavy(p: GradedPoset, q: GradedPoset | None, rng: random.Random, oracle):
    """Certificates of ``p`` and a relabelled copy agree, the isomorphism
    between them maps covers to covers, and certificates of ``p`` and
    ``q`` agree exactly when ``oracle`` says they are isomorphic."""
    copy = relabel(p, rng)
    assert canonical_form(copy) == canonical_form(p)
    m = isomorphism(p, copy)
    assert m is not None and {(m[a], m[b]) for a, b in p.covers} == set(copy.covers)
    if q is None:
        return None
    same = oracle(p, q)
    assert (canonical_form(p) == canonical_form(q)) == same
    return same


def test_twin_heavy_diagrams_match_brute_force():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(150):
        widths = [rng.randint(1, 2) for _ in range(rng.randint(2, 3))]
        p, q = twin_heavy(rng, widths)
        if max(p.widths + (q.widths if q else ())) > 4:
            continue
        verdicts.add(check_twin_heavy(p, q, rng, brute_isomorphic))
    assert {True, False} <= verdicts


def test_twin_heavy_diagrams_match_vf2():
    nx = pytest.importorskip("networkx")
    rng = random.Random(43)
    verdicts = set()
    for _ in range(60):
        widths = [rng.randint(2, 5) for _ in range(rng.randint(3, 5))]
        verdicts.add(check_twin_heavy(*twin_heavy(rng, widths), rng, lambda p, q: vf2(nx, p, q)))
    assert {True, False} <= verdicts


def recorded_generators(p: GradedPoset) -> list[dict[int, int]]:
    """The generators one search of ``p`` records, each checked to keep
    ranks and to map the covers onto the covers."""
    search = canonicalizer(p, DEFAULT_NODE_CAP)
    search.run()
    level, covers = p._level_of, {(p._index[a], p._index[b]) for a, b in p.covers}
    for g in search.gens:
        assert all(level[g[x]] == level[x] for x in g)
        assert {(g.get(a, a), g.get(b, b)) for a, b in covers} == covers
    return search.gens


def test_every_recorded_generator_is_an_automorphism():
    # twin swaps included: elements without covers on two levels are not
    # twins, as a swap between them would not keep ranks
    rng = random.Random(47)
    for _ in range(40):
        widths = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        recorded_generators(twin_heavy(rng, widths)[0])
    # the generators past the twin swaps come from the per-depth check alone
    for p in (poset_from_string(versal_string(3)), debruijn_poset(3, 3, 7)):
        assert recorded_generators(p)


def test_cover_check_sees_a_broken_cover_to_a_fixed_point():
    # swapping a<->b and c<->d keeps a<c and b<d, the covers among the
    # moved points, but sends a<e to b<e with e fixed
    p = build_poset(
        [["0"], ["a", "b"], ["c", "d", "e"]],
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "d"), ("a", "e")],
    )
    i = p._index
    swap = {i["a"]: i["b"], i["b"]: i["a"], i["c"]: i["d"], i["d"]: i["c"]}
    search = canonicalizer(p, 1)
    assert not _preserves_covers(search.adj, search.near, swap)
    q = build_poset(p.levels, sorted(p.covers) + [("b", "e")])
    search = canonicalizer(q, 1)
    assert _preserves_covers(search.adj, search.near, swap)


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


def certify_shuffled(p: GradedPoset, rng: random.Random) -> bytes:
    """The certificate ``_certify`` gives ``p`` with each lower-cover list
    in a random order instead of ascending."""
    down = [rng.sample(cs, len(cs)) for cs in p._down]
    return _certify(p.widths, down, DEFAULT_NODE_CAP)[0]


# _certify takes ascending lower-cover lists and does not sort them; a list
# out of order may cost nodes (twin detection reads the order), but it never
# changes the certificate
@given(raw_diagrams(), st.integers(0, 2**32 - 1))
def test_certificate_does_not_depend_on_the_order_of_lower_covers(p, seed):
    assert certify_shuffled(p, random.Random(seed)) == certify(p, DEFAULT_NODE_CAP)[0]


def test_large_certificates_do_not_depend_on_the_order_of_lower_covers():
    rng = random.Random(17)
    posets = [
        poset_from_string(versal_string(3)),
        divisible_poset((1, 2, 4), 5),
        m_interval(3),
        stripped_boolean_interval(4, 1),
    ]
    posets += enumerate_intervals((1, 2, 3, 8), strategy="assembly").classes
    posets += enumerate_intervals((1, 3, 6), strategy="levelwise").classes
    for p in posets:
        cert = certify(p, DEFAULT_NODE_CAP)[0]
        for _ in range(5):
            assert certify_shuffled(p, rng) == cert, p.widths


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


def vf2(nx, p: GradedPoset, q: GradedPoset) -> bool:
    """Rank-preserving isomorphism by networkx VF2."""

    def graph(p: GradedPoset):
        g = nx.Graph()
        for x in p.elements:
            g.add_node(x, rank=p.rank(x))
        g.add_edges_from(sorted(p.covers))
        return g

    match = nx.algorithms.isomorphism.categorical_node_match("rank", None)
    return nx.is_isomorphic(graph(p), graph(q), node_match=match)


def test_certificate_equality_matches_vf2():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    verdicts = []
    for _ in range(60):
        p = random_graded(rng)
        pairs = [relabel(p, rng)]
        twin = near_twin(p, rng)
        if twin is not None:
            pairs.append(relabel(twin, rng))
        for q in pairs:
            want = vf2(nx, p, q)
            assert (canonical_form(p) == canonical_form(q)) == want
            verdicts.append(want)
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# known leaves and the deadline


def known_run(p: GradedPoset, known: dict[bytes, bytes]) -> tuple[bytes, bool]:
    """The certificate of ``p`` from a search given the known leaves
    ``known``, and whether the search stopped at one of them."""
    cert, _order, search = certify(p, DEFAULT_NODE_CAP, known)
    return cert, search.stopped


def leaves_of(*posets: GradedPoset) -> dict[bytes, bytes]:
    """The known leaves that complete runs of ``posets`` leave behind."""
    known: dict[bytes, bytes] = {}
    for p in posets:
        certify(p, DEFAULT_NODE_CAP, known)
    return known


def fresh(p: GradedPoset) -> GradedPoset:
    """An equal poset that keeps no run."""
    return GradedPoset(p.levels, p.covers)


class TestKnownCertificates:
    """A search that stops at a known leaf returns the bytes a full search
    returns, and only for a poset isomorphic to the one whose run met that
    leaf."""

    def test_relabelled_pinned_classes(self):
        rng = random.Random(53)
        classes = [p for run, *_ in PINNED.values() for p in run().classes]
        known = leaves_of(*classes)
        assert {canonical_form(p) for p in classes} == set(known.values())
        # the certificates alone: a leaf of each class, so an incomplete dict
        certs = {cert: cert for cert in known.values()}
        stopped = 0
        for p in classes:
            copy = relabel(p, rng)
            cert, at_known = known_run(copy, known)
            assert cert == canonical_form(fresh(copy))
            assert at_known
            copy = relabel(p, rng)
            got, at_known = known_run(copy, dict(certs))
            assert got == cert
            stopped += at_known
            # without its own class the search runs in full
            other = relabel(p, rng)
            got, at_known = known_run(other, {e: c for e, c in known.items() if c != cert})
            assert got == cert
            assert not at_known
        assert stopped

    def test_census_intervals(self):
        rng = random.Random(59)
        word = poset_from_string(versal_string(3))
        els = word.elements
        for n in range(2, 9):
            classes = enumerate_interval_classes(word, n).classes
            known = leaves_of(*(interval(word, c.bottom, c.top) for c in classes))
            assert set(known.values()) == {c.certificate for c in classes}
            pairs = list(_pairs_of_length(word, n))
            for s, t in rng.sample(pairs, min(30, len(pairs))):
                q = relabel(interval(word, els[s], els[t]), rng)
                cert, at_known = known_run(q, known)
                assert cert in known.values() and at_known
                assert cert == canonical_form(fresh(q))

    def test_random_diagrams_match_vf2(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(61)
        verdicts = set()
        for _ in range(60):
            p = random_graded(rng)
            others = [relabel(p, rng)]
            twin = near_twin(p, rng)
            if twin is not None:
                others.append(relabel(twin, rng))
            for q in others:
                copy = relabel(p, rng)
                cert, _ = known_run(copy, leaves_of(q))
                assert cert == canonical_form(fresh(copy))
                same = vf2(nx, p, q)
                assert (cert == canonical_form(q)) == same
                verdicts.add(same)
        assert verdicts == {True, False}

    def test_known_leaves_are_complete(self):
        """Handed the leaves of one full run, a search on any relabelled
        copy stops at its first leaf: one node per level of its first path
        and the root's, and no backtracking."""
        rng = random.Random(71)
        word = poset_from_string(versal_string(3))
        posets = [p for run, *_ in PINNED.values() for p in run().classes]
        # the short lengths, and the whole poset (135 elements)
        for n in [*range(9), word.height]:
            classes = enumerate_interval_classes(word, n).classes
            posets += [interval(word, c.bottom, c.top) for c in classes]
        for p in posets:
            known = leaves_of(fresh(p))
            cert = canonical_form(p)
            for _ in range(10):
                search = canonicalizer(relabel(p, rng), DEFAULT_NODE_CAP, known)
                assert search.run()[0] == cert
                assert search.stopped and search.nodes == len(search.path) + 1


@given(raw_diagrams(), raw_diagrams())
def test_known_certificate_matches_brute_force(p, q):
    cert, _ = known_run(p, leaves_of(q))
    assert cert == canonical_form(fresh(p))
    assert (cert == canonical_form(q)) == brute_isomorphic(p, q)


class TestDeadline:
    def test_a_passed_deadline_ends_a_search(self):
        p = poset_from_string(versal_string(3))
        with pytest.raises(_Capped, match="time budget exhausted"):
            certify(p, DEFAULT_NODE_CAP, {}, time.monotonic() - 1)
        assert kept_run(p) is None

    def test_the_clock_is_read_every_64_nodes(self, cube):
        canonical_form(cube)
        assert kept_run(cube)[2] < 64
        q = fresh(cube)
        cert, order, _ = certify(q, DEFAULT_NODE_CAP, {}, time.monotonic() - 1)
        assert (cert, tuple(order)) == _canonical(cube, DEFAULT_NODE_CAP)
