import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binposet.classify import (
    check_partition_avoidance,
    co_cover_partitions,
    cover_partitions,
    enumerate_interval_classes,
    phi,
    section_type,
)
from binposet import classify
from binposet.core import GradedPoset, PosetError, build_poset, interval, verify_binomial
from binposet.core import _induced_down, _pairs_of_length
from binposet.construct import (
    count_valid_words,
    debruijn_poset,
    divisible_poset,
    poset_from_string,
    stripped_boolean_interval,
    valid_words,
    validate_string,
    versal_string,
)
from binposet.iso import canonical_form
from conftest import relabel


def small_words(max_len: int) -> list[str]:
    return [w for n in range(1, max_len + 1) for w in valid_words(n)]


def section_components(p: GradedPoset, i: int) -> int:
    """Connected components of the cover graph between levels i+1 and
    i+2, by union-find over its edges."""
    parent = {x: x for x in p.levels[i + 1] + p.levels[i + 2]}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a in p.levels[i + 1]:
        for b in p.upper_covers(a):
            parent[root(a)] = root(b)
    return len({root(x) for x in parent})


def random_section(rng: random.Random) -> GradedPoset:
    """0 | a b c d | w x y z | t with a random 2-regular middle: the
    union of two permutations that disagree everywhere."""
    lo, hi = ["a", "b", "c", "d"], ["w", "x", "y", "z"]
    while True:
        s, t = rng.sample(hi, 4), rng.sample(hi, 4)
        if all(u != v for u, v in zip(s, t)):
            break
    covers = [("0", a) for a in lo] + [(u, "t") for u in hi]
    covers += [(a, u) for a, u in zip(lo, s)] + [(a, u) for a, u in zip(lo, t)]
    rng.shuffle(lo)
    rng.shuffle(hi)
    return build_poset([["0"], lo, hi, ["t"]], covers)


@pytest.fixture
def avoidance_violator() -> GradedPoset:
    """poset_from_string("1") rewired so level 1 induces the same 2+2
    partition of level 2 that the section above it uses."""
    p = poset_from_string("1")
    covers = set(p.covers)
    covers -= {("1:0", "2:2"), ("1:1", "2:1")}
    covers |= {("1:0", "2:1"), ("1:1", "2:2")}
    return build_poset(p.levels, covers)


class TestSections:
    def test_letter_two_is_connected(self):
        assert section_type(poset_from_string("2"), 1) == 2

    def test_letter_one_is_two_squares(self):
        assert section_type(poset_from_string("1"), 1) == 1

    def test_needs_width_four(self, cube):
        with pytest.raises(PosetError, match="width 4"):
            section_type(cube, 0)

    def test_section_index_range(self):
        with pytest.raises(PosetError):
            section_type(poset_from_string("1"), 5)

    def test_random_sections_match_their_component_count(self):
        rng = random.Random(14)
        seen = set()
        for _ in range(1000):
            p = random_section(rng)
            letter = section_type(p, 0)
            assert letter == 3 - section_components(p, 0)
            seen.add(letter)
        assert seen == {1, 2}

    def test_word_sections_match_their_component_count(self):
        for word in small_words(8):
            p = poset_from_string(word)
            for i in range(1, p.height - 1):
                assert section_type(p, i) == 3 - section_components(p, i), (word, i)


class TestPhi:
    @pytest.mark.parametrize("word", small_words(4))
    def test_round_trip(self, word):
        assert phi(poset_from_string(word)) == word

    def test_needs_matching_atom_counts(self, cube):
        with pytest.raises(PosetError, match="atom sequence"):
            phi(cube)

    def test_needs_height(self, diamond):
        with pytest.raises(PosetError, match="height"):
            phi(diamond)

    def test_rejects_inhomogeneous_diagram(self, avoidance_violator):
        with pytest.raises(PosetError, match="not binomial"):
            phi(avoidance_violator)


class TestPartitions:
    def test_cover_partition_of_a_split_section(self):
        p = poset_from_string("1")
        parts = cover_partitions(p, 1)
        assert parts == {
            frozenset({frozenset({"2:0", "2:1"}), frozenset({"2:2", "2:3"})})
        }

    def test_cover_partitions_of_a_cycle_section(self):
        # an 8-cycle induces both opposite-pair partitions
        assert len(cover_partitions(poset_from_string("2"), 1)) == 2

    def test_co_cover_partition_at_the_bottom(self):
        p = poset_from_string("1")
        assert co_cover_partitions(p, 1) == {
            frozenset({frozenset({"2:0", "2:2"}), frozenset({"2:1", "2:3"})})
        }

    def test_width_guard(self, cube):
        with pytest.raises(PosetError, match="width 4"):
            cover_partitions(cube, 0)

    @pytest.mark.parametrize("find", [section_type, cover_partitions, co_cover_partitions])
    def test_negative_index(self, find):
        # a negative index must not wrap round to the top levels
        with pytest.raises(PosetError, match="index"):
            find(poset_from_string("1212"), -3)


class TestAvoidance:
    @pytest.mark.parametrize("word", small_words(4))
    def test_valid_words_pass(self, word):
        assert check_partition_avoidance(poset_from_string(word)).ok

    def test_shared_partition_fails(self, avoidance_violator):
        rep = check_partition_avoidance(avoidance_violator)
        assert not rep.ok
        assert rep.level == 2
        assert rep.partition == (("2:0", "2:1"), ("2:2", "2:3"))

    def test_failure_tracks_chain_counts(self, avoidance_violator):
        # the same rewiring that breaks avoidance breaks count homogeneity
        assert not verify_binomial(avoidance_violator).ok

    def test_width_shape_guard(self, cube):
        with pytest.raises(PosetError, match="width"):
            check_partition_avoidance(cube)


class TestWords:
    def test_validate(self):
        assert validate_string("12112")
        assert not validate_string("1221")
        assert validate_string("")

    def test_validate_rejects_foreign_letters(self):
        with pytest.raises(PosetError, match="letters"):
            validate_string("13")

    def test_enumeration_is_lexicographic(self):
        assert list(valid_words(2)) == ["11", "12", "21"]

    def test_enumeration_avoids_adjacent_twos(self):
        for w in valid_words(6):
            assert "22" not in w

    @given(st.integers(0, 12))
    def test_count_matches_enumeration(self, n):
        assert count_valid_words(n) == sum(1 for _ in valid_words(n))

    def test_counts_follow_the_recurrence(self):
        cs = [count_valid_words(n) for n in range(10)]
        assert cs[0] == 1 and cs[1] == 2
        assert all(cs[n] == cs[n - 1] + cs[n - 2] for n in range(2, 10))

    def test_versal_contains_every_word(self):
        s = versal_string(4)
        assert validate_string(s)
        for w in small_words(4):
            assert w in s


class TestIntervalClassification:
    def test_interval_counts_on_a_versal_diagram(self):
        p = poset_from_string(versal_string(3))
        got = [enumerate_interval_classes(p, n).count for n in range(1, 8)]
        assert got == [1, 1, 1, 1, 2, 3, 5]

    def test_class_sizes_cover_all_intervals(self):
        p = poset_from_string("121")
        cls = enumerate_interval_classes(p, 2)
        # every comparable pair two apart belongs to exactly one class
        total = sum(c.size for c in cls.classes)
        want = sum(
            1
            for b in p.elements
            for t in p.elements
            if p.rank(t) - p.rank(b) == 2 and p.le(b, t)
        )
        assert total == want

    def test_representatives_have_distinct_certificates(self):
        p = poset_from_string(versal_string(3))
        cls = enumerate_interval_classes(p, 6)
        certs = [c.certificate for c in cls.classes]
        assert len(set(certs)) == len(certs)
        assert certs == sorted(certs)


def census_by_definition(p: GradedPoset, n: int) -> list[tuple[bytes, str, str, int]]:
    """Every length-n pair in element order, grouped by the certificate of
    its own interval poset: (certificate, first bottom, first top, size)."""
    found: dict[bytes, list[tuple[str, str]]] = {}
    for b in p.elements:
        for t in p.elements:
            if p.rank(t) - p.rank(b) == n and p.le(b, t):
                cert = canonical_form(interval(p, b, t))
                found.setdefault(cert, []).append((b, t))
    return [(cert, m[0][0], m[0][1], len(m)) for cert, m in sorted(found.items())]


def raw_with_several_minima(seed: int) -> GradedPoset:
    rng = random.Random(seed)
    widths = [rng.randint(2, 4) for _ in range(rng.randint(3, 5))]
    levels = tuple(tuple(f"{r}.{i}" for i in range(w)) for r, w in enumerate(widths))
    covers = frozenset(
        (a, b) for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi if rng.random() < 0.6
    )
    return GradedPoset(levels, covers)


def shifted_tops() -> GradedPoset:
    """Two bottoms whose up-sets have one shape, while their tops sit at
    different places in the top level: [s, t] is a square for s's first
    top and a chain for its second."""
    levels = (("s", "s'"), ("a", "b", "a'", "b'"), ("t0", "t1", "t2"))
    covers = {("s", "a"), ("s", "b"), ("a", "t0"), ("b", "t0"), ("b", "t1")}
    covers |= {("s'", "a'"), ("s'", "b'"), ("a'", "t1"), ("b'", "t1"), ("b'", "t2")}
    return GradedPoset(levels, frozenset(covers))


CENSUS_CASES = {
    **{w: lambda w=w: poset_from_string(w) for w in ("12", "211", "1211", "12112")},
    "divisible 124": lambda: divisible_poset((1, 2, 4), 5),
    "debruijn 3 2": lambda: debruijn_poset(3, 2, 5),
    "stripped boolean 4 2": lambda: stripped_boolean_interval(4, 2),
    **{f"raw {seed}": lambda seed=seed: raw_with_several_minima(seed) for seed in range(8)},
    "shifted tops": shifted_tops,
}
# a relabelled copy orders each level afresh, so its up-set keys group the
# bottoms unlike the original's, and a key reused wrongly for one of the
# two labellings shows here
CENSUS_CASES.update({
    f"relabelled {case}": lambda case=case: relabel(CENSUS_CASES[case](), random.Random(case))
    for case in ("12112", "divisible 124", "debruijn 3 2")
})


@pytest.mark.parametrize("case", CENSUS_CASES)
def test_census_matches_grouping_by_definition(case):
    p = CENSUS_CASES[case]()
    for n in range(p.height + 1):
        got = [
            (c.certificate, c.bottom, c.top, c.size)
            for c in enumerate_interval_classes(p, n).classes
        ]
        assert got == census_by_definition(p, n), n


@pytest.mark.parametrize("case", CENSUS_CASES)
def test_census_does_not_depend_on_call_history(case):
    """A poset keeps its up-set walks between census calls, so one object
    asked its lengths longest first, then in a shuffled order with repeats,
    gives every length's census as defined."""
    p = CENSUS_CASES[case]()
    lengths = list(range(p.height + 1))
    want = {n: census_by_definition(p, n) for n in lengths}
    shuffled = lengths * 2
    random.Random(case).shuffle(shuffled)
    for n in lengths[::-1] + shuffled:
        got = [
            (c.certificate, c.bottom, c.top, c.size)
            for c in enumerate_interval_classes(p, n).classes
        ]
        assert got == want[n], n


def test_census_canonicalizes_the_first_interval_of_each_labelled_key(monkeypatch):
    """The census's canonical searches are pinned: one per distinct labelled
    interval diagram (its cover lists in the poset's element order), on the
    first interval with that diagram, given as its level widths and those
    lists, each handed known leaves that map to exactly the certificates
    found before it.  Each poset object is asked lengths 0..7 and then
    7..0, and the walks it keeps between calls change none of them."""
    word = random.Random(23).choice(list(valid_words(12)))
    posets = [poset_from_string(versal_string(3)), poset_from_string(word)]
    posets += [relabel(p, random.Random(i)) for i, p in enumerate(posets)]
    calls = []
    real = classify._certify

    def spy(widths, down, cap, known, *args):
        # the certificates the known leaves map to before the call
        before = set(known.values())
        out = real(widths, down, cap, known, *args)
        calls.append(((tuple(widths), down), before, out[0]))
        return out

    monkeypatch.setattr(classify, "_certify", spy)
    for p in posets:
        els, start = p.elements, p._level_start
        for n in [*range(8), *range(7, -1, -1)]:
            calls.clear()
            enumerate_interval_classes(p, n)
            firsts = {}
            for s, t in _pairs_of_length(p, n):
                between = range(start[p.rank(els[s])], start[p.rank(els[t]) + 1])
                order = [i for i in between if p.le(els[s], els[i]) and p.le(els[i], els[t])]
                firsts.setdefault(_induced_down(p._down, order), (els[s], els[t]))
            want = [(interval(p, *pair).widths, key) for key, pair in firsts.items()]
            assert [diagram for diagram, _, _ in calls] == want, (p.levels[1], n)
            for i, (_, known, _) in enumerate(calls):
                assert known == {cert for _, _, cert in calls[:i]}
