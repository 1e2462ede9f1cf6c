import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from binposet import core
from binposet.classify import (
    co_cover_partitions,
    cover_partitions,
    enumerate_interval_classes,
    phi,
    section_type,
)
from binposet.construct import (
    count_valid_words,
    debruijn_poset,
    divisible_poset,
    m_interval,
    poset_from_string,
    stripped_boolean_interval,
    valid_words,
    validate_string,
    versal_string,
)
from binposet.core import (
    AtomicSequence,
    BinomialReport,
    GradedPoset,
    PosetError,
    atomic_numbers,
    build_poset,
    count_maximal_chains,
    dual,
    interval,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    predicted_rank_size,
    sup_rank_size,
    verify_binomial,
    _from_down,
    _pairs_of_length,
    grid_ids,
)
from binposet.search import SearchLimits, enumerate_intervals, extension_search
from binposet.seqcheck import (
    check_compatibility,
    check_R_equivalence,
    decide_family,
    lcm_extension,
)
from conftest import brute_atomic_report, brute_binomial_report, brute_chain_count
from test_construct import construction_corpus

heads = st.lists(st.integers(1, 9), min_size=0, max_size=6).map(
    lambda xs: tuple([1] + xs)
)


class TestAtomicSequence:
    def test_parse_finite(self):
        s = AtomicSequence.parse("1,2,6")
        assert s.head == (1, 2, 6) and s.tail is None and s.finite

    def test_parse_tail(self):
        s = AtomicSequence.parse("1,1,2...")
        assert s.head == (1, 1, 2) and s.tail == 2 and not s.finite

    def test_parse_rejects_garbage(self):
        for text in ("", "1,x", "1,2,...", "2,3"):
            with pytest.raises(PosetError):
                AtomicSequence.parse(text)

    def test_first_value_must_be_one(self):
        with pytest.raises(PosetError):
            AtomicSequence((2, 3))
        with pytest.raises(PosetError):
            AtomicSequence((), tail=0)

    def test_values_beyond_head_come_from_tail(self):
        s = AtomicSequence((1, 2), tail=4)
        assert [s.a(i) for i in range(1, 6)] == [1, 2, 4, 4, 4]

    def test_finite_lookup_past_end_raises(self):
        with pytest.raises(IndexError):
            AtomicSequence((1, 2)).a(3)

    def test_products(self):
        s = AtomicSequence((1, 2, 6))
        assert [s.B(n) for n in range(4)] == [1, 1, 2, 12]

    def test_str_is_the_text_form(self):
        assert str(AtomicSequence((1, 1), 2)) == "1,1,2..."

    def test_prefix(self):
        assert AtomicSequence((1, 1), tail=2).prefix(4) == (1, 1, 2, 2)

    @given(heads)
    def test_format_parse_round_trip(self, head):
        s = AtomicSequence(head)
        assert AtomicSequence.parse(s.format()) == s

    @given(heads, st.integers(1, 9))
    @example((), 1)
    def test_format_parse_round_trip_with_tail(self, head, tail):
        # the text form may fold the tail into the head, so compare values
        s = AtomicSequence(head, tail=tail)
        t = AtomicSequence.parse(s.format())
        n = len(t.head) + 3
        assert t.prefix(n) == s.prefix(n) and t.finite == s.finite


def section_poset(middle) -> GradedPoset:
    """0 | a b c d | w x y z | t with the given covers between a-d and w-z."""
    lo, hi = ["a", "b", "c", "d"], ["w", "x", "y", "z"]
    covers = [("0", a) for a in lo] + list(middle) + [(u, "t") for u in hi]
    return build_poset([["0"], lo, hi, ["t"]], covers)


# a has three upper covers, so x and y have one lower cover each
LOPSIDED = [("a", "w"), ("a", "x"), ("a", "y"), ("b", "w"), ("b", "z"), ("c", "z"), ("d", "z")]
# every upper element has two lower covers, but a has three upper covers and d one
UNEVEN = [("a", "w"), ("b", "w"), ("a", "x"), ("b", "x"), ("a", "y"), ("c", "y"), ("c", "z"), ("d", "z")]


# Atom counts, and the sizes around them (search budgets, ranks, rank
# indices, construction and census sizes), are numbers of the right kind:
# every entry point turns anything else into a PosetError instead of
# truncating it or leaking a TypeError/ValueError.
JUNK_ATOMS = {
    "float entry": lambda: AtomicSequence((1.5,)),
    "string entry": lambda: AtomicSequence(("x",)),
    "float tail": lambda: AtomicSequence((1,), tail=2.5),
    "not iterable": lambda: AtomicSequence(5),
    "check_compatibility": lambda: check_compatibility([1, "a"]),
    "check_compatibility, not iterable": lambda: check_compatibility(5),
    "check_compatibility, float horizon": lambda: check_compatibility(
        (1, 2, 4), horizon=2.5
    ),
    "check_compatibility, string horizon": lambda: check_compatibility((1, 2), horizon="3"),
    "lcm_extension": lambda: lcm_extension([1, None]),
    "decide_family": lambda: decide_family([1, 2.5]),
    "decide_family, negative witness height": lambda: decide_family(
        (1, 1, 2), witness_height=-1
    ),
    "decide_family, float witness height": lambda: decide_family(
        (1, 1, 2), witness_height=2.5
    ),
    "enumerate_intervals, string": lambda: enumerate_intervals("1,2,x"),
    "enumerate_intervals, float": lambda: enumerate_intervals((1, 2.0, 4)),
    "extension_search": lambda: extension_search(m_interval(3), [1, 3, "x", 6]),
    "max_nodes None": lambda: enumerate_intervals(
        (1, 2), limits=SearchLimits(max_nodes=None)
    ),
    "max_seconds string": lambda: SearchLimits(max_seconds="1"),
    "extra_ranks float": lambda: extension_search(m_interval(3), "1,3,4,6", extra_ranks=1.5),
    "predicted_rank_size, negative index": lambda: predicted_rank_size(
        AtomicSequence((1,), 2), -1
    ),
    "a, float index": lambda: AtomicSequence((1, 2, 4)).a(1.0),
    "a, zero index": lambda: AtomicSequence((1, 2, 4)).a(0),
    "B, negative length": lambda: AtomicSequence((1, 2, 4)).B(-1),
    "B, float length": lambda: AtomicSequence((1, 2, 4)).B(1.5),
    "prefix, negative length": lambda: AtomicSequence((1, 2, 4)).prefix(-2),
    "prefix, float length": lambda: AtomicSequence((1, 2, 4)).prefix(2.0),
    "W, float length": lambda: AtomicSequence((1, 2, 4)).W(2.0, 1),
    "W, negative rank": lambda: AtomicSequence((1, 2, 4)).W(2, -1),
    "W, rank past the length": lambda: AtomicSequence((1, 2, 4)).W(2, 3),
    "coefficient, negative length": lambda: AtomicSequence((1, 2, 4)).coefficient(-1, 0),
    "m_interval, float": lambda: m_interval(2.5),
    "debruijn_poset, float window": lambda: debruijn_poset(2.0, 2, 3),
    "divisible_poset, float height": lambda: divisible_poset((1, 2), 1.5),
    "divisible_poset, not iterable": lambda: divisible_poset(5, 3),
    "stripped_boolean_interval, float": lambda: stripped_boolean_interval(3.0, 1),
    "versal_string, string": lambda: versal_string("3"),
    "validate_string, None": lambda: validate_string(None),
    "poset_from_string, int": lambda: poset_from_string(12),
    "poset_from_string, list of letters": lambda: poset_from_string(["1", "2"]),
    "valid_words, float": lambda: next(valid_words(2.5)),
    "count_valid_words, float": lambda: count_valid_words(2.5),
    "interval census, float length": lambda: enumerate_interval_classes(m_interval(2), 1.5),
    "section_type, float index": lambda: section_type(poset_from_string("1212"), 1.5),
    "cover_partitions, float index": lambda: cover_partitions(poset_from_string("1212"), 1.5),
    "co_cover_partitions, float index": lambda: co_cover_partitions(
        poset_from_string("1212"), 1.5
    ),
    "zero entry": lambda: AtomicSequence((1, 0)),
    "zero tail": lambda: AtomicSequence((1,), 0),
    "rank, unknown id": lambda: stripped_boolean_interval(3, 1).rank("zz"),
    "upper_covers, unknown id": lambda: stripped_boolean_interval(3, 1).upper_covers("zz"),
    "build_poset, no levels": lambda: build_poset([], []),
    "build_poset, no upper cover": lambda: build_poset(
        [["0"], ["a", "b"], ["t"]], [("0", "a"), ("0", "b"), ("a", "t")]
    ),
    "predicted_rank_size, finite sequence": lambda: predicted_rank_size(
        AtomicSequence((1, 2)), 1
    ),
    "lcm_extension, empty": lambda: lcm_extension(()),
    "divisible_poset, empty": lambda: divisible_poset((), 3),
    "check_R_equivalence, height 1": lambda: check_R_equivalence(
        build_poset([["0"], ["1"]], [("0", "1")])
    ),
    "check_R_equivalence, unequal atom counts": lambda: check_R_equivalence(
        build_poset(
            [["0"], ["a", "b"], ["x", "y"], ["t"]],
            [("0", "a"), ("0", "b"), ("a", "x"), ("b", "x"), ("a", "y"), ("x", "t"), ("y", "t")],
        )
    ),
    "cover_partitions, past the top": lambda: cover_partitions(poset_from_string("11"), 3),
    "co_cover_partitions, past the top": lambda: co_cover_partitions(
        poset_from_string("11"), 4
    ),
    "co_cover_partitions, width 2": lambda: co_cover_partitions(poset_from_string("11"), 0),
    "section_type, not 2-regular": lambda: section_type(section_poset(LOPSIDED), 0),
}


@pytest.mark.parametrize("case", JUNK_ATOMS)
def test_junk_atom_counts_raise_poset_error(case):
    with pytest.raises(PosetError):
        JUNK_ATOMS[case]()


@pytest.mark.parametrize("middle", [LOPSIDED, UNEVEN], ids=["lopsided", "uneven"])
def test_section_that_is_not_2_regular(middle):
    with pytest.raises(PosetError, match="section must be 2-regular"):
        section_type(section_poset(middle), 0)


class TestFactorialProfile:
    """B, the coefficients B(n)/(B(j)B(n-j)) and the widths W of a sequence."""

    def test_interval_widths(self):
        # subset-lattice profile: a_i = i, so widths are the usual
        # binomial coefficients
        seq = AtomicSequence((1, 2, 3, 4))
        assert [seq.W(4, j) for j in range(5)] == [1, 4, 6, 4, 1]

    def test_coefficient_is_exact(self):
        assert AtomicSequence((1, 2, 2)).coefficient(3, 1) == Fraction(2, 1)

    def test_non_integral_width_raises(self):
        with pytest.raises(PosetError):
            AtomicSequence((1, 2, 3, 3)).W(4, 2)

    def test_long_lengths_need_no_recursion(self):
        # a length past the recursion limit
        seq = AtomicSequence((1,), 2)
        assert seq.W(1200, 3) == 2
        assert seq.B(1200) == 2**1199


class TestBuildPoset:
    def test_membership(self):
        p = build_poset([["a"], ["b"]], [("a", "b")])
        assert "a" in p and "b" in p
        assert "z" not in p

    def test_duplicate_id_rejected(self):
        with pytest.raises(PosetError, match="duplicate"):
            build_poset([["a"], ["a"]], [("a", "a")])

    def test_unknown_cover_endpoint_rejected(self):
        with pytest.raises(PosetError, match="unknown"):
            build_poset([["a"], ["b"]], [("a", "z")])

    def test_cover_must_step_one_level(self):
        with pytest.raises(PosetError, match="consecutive"):
            build_poset([["a"], ["b"], ["c"]], [("a", "c"), ("a", "b"), ("b", "c")])

    def test_multiple_bottoms_rejected(self):
        with pytest.raises(PosetError, match="bottom"):
            build_poset([["a", "b"], ["c"]], [("a", "c"), ("b", "c")])

    def test_dangling_element_rejected(self):
        with pytest.raises(PosetError, match="cover"):
            build_poset([["a"], ["b", "c"]], [("a", "b")])

    def test_rank_and_covers(self, cube):
        assert cube.rank("ab") == 2
        assert set(cube.upper_covers("a")) == {"ab", "ac"}
        assert set(cube.lower_covers("ab")) == {"a", "b"}

    def test_le(self, cube):
        assert cube.le("a", "ab") and cube.le("e", "abc")
        assert not cube.le("a", "bc")


class TestDual:
    def test_involution(self, cube):
        assert dual(dual(cube)) == cube

    def test_flips_covers(self, diamond):
        d = dual(diamond)
        assert ("1", "x") in d.covers and d.widths == (1, 2, 1)


class TestChainCounting:
    def test_against_brute_force(self, cube, butterfly, diamond):
        for p in (cube, butterfly, diamond):
            bottom = p.levels[0][0]
            top = p.levels[-1][0]
            iv = interval(p, bottom, top)
            assert count_maximal_chains(iv) == brute_chain_count(
                p.levels, p.covers, bottom, top
            )

    def test_cube_value(self, cube):
        assert count_maximal_chains(interval(cube, "e", "abc")) == 6

    def test_subinterval(self, cube):
        iv = interval(cube, "a", "abc")
        assert iv.height == 2
        assert count_maximal_chains(iv) == 2

    def test_unbounded_raises(self):
        # two maximal elements, and upside down two minimal ones
        vee = build_poset([["0"], ["a", "b"]], [("0", "a"), ("0", "b")])
        for p in (vee, dual(vee)):
            with pytest.raises(PosetError, match="bounded"):
                count_maximal_chains(p)

    def test_incomparable_raises(self, cube):
        with pytest.raises(PosetError, match="not comparable"):
            interval(cube, "a", "bc")

    def test_interval_induces_subdiagram(self, cube):
        iv = interval(cube, "e", "ab")
        assert iv.widths == (1, 2, 1)
        assert set(iv.elements) == {"e", "a", "b", "ab"}


class TestVerifyBinomial:
    def test_cube_passes(self, cube):
        rep = verify_binomial(cube)
        assert rep.ok
        assert rep.atoms is not None and rep.atoms.head == (1, 2, 3)
        assert rep.counts == {0: 1, 1: 1, 2: 2, 3: 6}

    def test_butterfly_passes(self, butterfly):
        rep = verify_binomial(butterfly)
        assert rep.ok and rep.atoms.head == (1, 2, 2)

    def test_failure_names_a_witness(self, not_binomial):
        rep = verify_binomial(not_binomial)
        assert not rep.ok
        assert rep.witness is not None
        (x1, y1), (x2, y2) = rep.witness
        a = brute_chain_count(not_binomial.levels, not_binomial.covers, x1, y1)
        b = brute_chain_count(not_binomial.levels, not_binomial.covers, x2, y2)
        assert a != b
        assert "maximal chains" in rep.detail

    def test_witness_is_deterministic(self, not_binomial):
        first = verify_binomial(not_binomial).witness
        assert all(verify_binomial(not_binomial).witness == first for _ in range(3))

    def test_boolean_lattice_b7(self):
        n = 7
        labels = ["".join("abcdefg"[i] for i in range(n) if m >> i & 1) or "0" for m in range(1 << n)]
        by_size: dict[int, list[str]] = {}
        for m in range(1 << n):
            by_size.setdefault(bin(m).count("1"), []).append(labels[m])
        levels = [by_size[k] for k in range(n + 1)]
        covers = []
        for m in range(1 << n):
            for i in range(n):
                if not m >> i & 1:
                    covers.append((labels[m], labels[m | 1 << i]))
        rep = verify_binomial(build_poset(levels, covers))
        assert rep.ok
        assert rep.atoms.head == tuple(range(1, n + 1))
        assert rep.counts == {d: math.factorial(d) for d in range(n + 1)}


class TestAtomicNumbers:
    def test_agrees_with_chain_verdict(self, cube, butterfly):
        for p in (cube, butterfly):
            assert atomic_numbers(p).atoms == verify_binomial(p).atoms

    def test_counts_atoms_not_chains(self, not_binomial):
        rep = atomic_numbers(not_binomial)
        assert not rep.ok and rep.witness is not None


def _random_raw_poset(rng: random.Random) -> GradedPoset:
    """A leveled diagram with random covers: often several minima or dangling elements.

    Ids are shuffled across levels, so id order differs from level order."""
    widths = [rng.randint(1, rng.choice((2, 4, 6))) for _ in range(rng.randint(0, 6) + 1)]
    ids = [f"{rng.choice('pqxy')}{i}" for i in range(sum(widths))]
    rng.shuffle(ids)
    levels = []
    for w in widths:
        levels.append(tuple(ids[:w]))
        del ids[:w]
    density = rng.choice((0.4, 0.7, 1.0))
    covers = frozenset(
        (a, b)
        for lo, hi in zip(levels, levels[1:])
        for a in lo
        for b in hi
        if rng.random() < density
    )
    return GradedPoset(tuple(levels), covers)


def _one_cover_mutant(p: GradedPoset, rng: random.Random) -> GradedPoset:
    """``p`` with one cover removed or one new cover added."""
    covers = set(p.covers)
    if rng.random() < 0.5:
        covers.remove(rng.choice(sorted(covers)))
    else:
        r = rng.randrange(p.height)
        missing = [
            (a, b) for a in p.levels[r] for b in p.levels[r + 1] if (a, b) not in covers
        ]
        if missing:
            covers.add(rng.choice(missing))
    return GradedPoset(p.levels, frozenset(covers))


class TestDifferentialOracle:
    """Both sweep reports equal the brute-force ones field by field.

    ``repr`` is compared, so the order of ``counts`` counts too."""

    @staticmethod
    def check(p: GradedPoset) -> BinomialReport:
        rep = verify_binomial(p)
        assert repr(rep) == repr(brute_binomial_report(p))
        assert repr(atomic_numbers(p)) == repr(brute_atomic_report(p))
        return rep

    def test_random_raw_posets(self):
        rng = random.Random(2005)
        kinds = set()
        for _ in range(250):
            p = _random_raw_poset(rng)
            rep = self.check(p)
            if len(p.levels[0]) > 1:
                kinds.add("several minima")
            if any(not p.upper_covers(x) for x in p.elements if p.rank(x) < p.height):
                kinds.add("dangling")
            kinds.add("ok" if rep.ok else "witness" if rep.witness else "other failure")
        assert kinds == {"several minima", "dangling", "ok", "witness", "other failure"}

    def test_one_cover_mutants(self):
        rng = random.Random(1972)
        witness_lengths = set()
        for base in (
            poset_from_string("12112121121"),
            divisible_poset((1, 2, 4), 5),
            debruijn_poset(3, 2, 5),
        ):
            assert self.check(base).ok
            for _ in range(12):
                rep = self.check(_one_cover_mutant(base, rng))
                if rep.witness is not None:
                    witness_lengths.add(int(rep.detail.split()[0].split("-")[1]))
        assert {3, 4} <= witness_lengths


def _rewired(p: GradedPoset, rng: random.Random, moves: int) -> GradedPoset:
    """``p`` with ``moves`` covers each moved, at its upper end, to another
    element of the same level that its lower end does not cover yet."""
    covers = set(p.covers)
    for _ in range(moves):
        lo, hi = rng.choice(sorted(covers))
        others = [x for x in p.levels[p.rank(hi)] if (lo, x) not in covers]
        if others:
            covers.remove((lo, hi))
            covers.add((lo, rng.choice(others)))
    return GradedPoset(p.levels, frozenset(covers))


class TestKeptSweep:
    """A poset keeps its sweep: both reports, asked in either order on one
    object, equal those of a fresh copy and the brute-force ones."""

    @staticmethod
    def check(p: GradedPoset) -> tuple[str, str]:
        want = {
            verify_binomial: repr(brute_binomial_report(p)),
            atomic_numbers: repr(brute_atomic_report(p)),
        }
        for order in ((verify_binomial, atomic_numbers), (atomic_numbers, verify_binomial)):
            q = GradedPoset(p.levels, p.covers)
            for report in order:
                assert repr(report(q)) == want[report]
                assert repr(report(GradedPoset(p.levels, p.covers))) == want[report]
        return verify_binomial(p).detail, atomic_numbers(p).detail

    def test_rewired_covers(self, cube, butterfly, not_binomial):
        rng = random.Random(4)
        failing = apart = 0
        for base in (
            cube,
            butterfly,
            not_binomial,
            poset_from_string("12112121121"),
            divisible_poset((1, 2, 4), 5),
            debruijn_poset(3, 2, 5),
        ):
            self.check(base)
            for moves in (1, 2) * 6:
                chains, atoms = self.check(_rewired(base, rng, moves))
                if atoms:
                    failing += 1
                    # "length-d intervals disagree ...": the two witnesses' lengths
                    apart += chains.split()[0] != atoms.split()[0]
        assert failing > 30 and apart > 0


class TestOneSweep:
    """The all-pairs sweep runs at most once per poset object."""

    @staticmethod
    def swept(monkeypatch) -> list[GradedPoset]:
        runs: list[GradedPoset] = []
        real = core._atom_sweep
        monkeypatch.setattr(core, "_atom_sweep", lambda p: runs.append(p) or real(p))
        return runs

    def test_reports_and_phi_share_one_sweep(self, monkeypatch):
        runs = self.swept(monkeypatch)
        p = poset_from_string("1211")
        assert verify_binomial(p).ok and atomic_numbers(p).ok and phi(p) == "1211"
        assert len(runs) == 1 and runs[0] is p
        q = GradedPoset(p.levels, p.covers)
        assert q == p and verify_binomial(q).ok
        assert len(runs) == 2 and runs[1] is q

    def test_search_classes_are_swept(self, monkeypatch):
        res = enumerate_intervals((1, 2, 2, 2))
        assert res.classes
        runs = self.swept(monkeypatch)
        assert all(verify_binomial(p).ok for p in res.classes)
        assert runs == []

    def test_extension_search_sweeps_its_base_once(self, monkeypatch, butterfly):
        runs = self.swept(monkeypatch)
        for _ in range(2):
            assert extension_search(butterfly, (1, 2, 2, 2)).verdict == "found"
        assert sum(p is butterfly for p in runs) == 1


class TestIntervalOracle:
    """``interval`` equals the induced subdiagram built by definition."""

    @staticmethod
    def check(p: GradedPoset) -> int:
        pairs = 0
        for b in p.elements:
            for t in p.elements:
                if not p.le(b, t):
                    continue
                keep = {x for x in p.elements if p.le(b, x) and p.le(x, t)}
                levels = tuple(
                    tuple(x for x in p.levels[r] if x in keep)
                    for r in range(p.rank(b), p.rank(t) + 1)
                )
                covers = frozenset((x, y) for x, y in p.covers if x in keep and y in keep)
                assert interval(p, b, t) == GradedPoset(levels, covers), (b, t)
                pairs += 1
        return pairs

    def test_random_raw_posets(self):
        rng = random.Random(2005)
        assert sum(self.check(_random_raw_poset(rng)) for _ in range(250)) > 10_000

    @pytest.mark.parametrize(
        "build",
        [lambda: poset_from_string("12112"), lambda: divisible_poset((1, 2, 4), 4)],
        ids=["word 12112", "divisible 1,2,4 height 4"],
    )
    def test_named_posets(self, build):
        self.check(build())


class TestSeededAdjacency:
    """The integer cover lists ``_from_down`` keeps are those ``_adjacency``
    rebuilds from the id pairs of a poset built anew."""

    @staticmethod
    def check(p: GradedPoset) -> None:
        assert "_adjacency" in p.__dict__
        assert p._adjacency == GradedPoset(p.levels, p.covers)._adjacency

    def test_constructions(self):
        count = 0
        for p in construction_corpus():
            self.check(p)
            count += 1
        assert count == 281

    def test_census_intervals(self):
        p = poset_from_string(versal_string(3))
        els = p.elements
        for n in range(9):
            for s, t in _pairs_of_length(p, n):
                self.check(interval(p, els[s], els[t]))

    def test_random_down_lists_with_repeats(self):
        rng = random.Random(2014)
        for _ in range(300):
            widths = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
            down, below, start = [], 0, 0
            for r, w in enumerate(widths):
                for _ in range(w):
                    # positions in the level below, unsorted and repeated
                    k = rng.randint(0, 2 * widths[r - 1]) if r else 0
                    down.append([rng.randrange(below, start) for _ in range(k)])
                below, start = start, start + w
            self.check(_from_down(grid_ids(widths), down))


class TestRankSizes:
    def test_observed(self, cube):
        assert cube.widths == (1, 3, 3, 1)

    def test_predicted(self):
        s = AtomicSequence((1, 1), tail=2)
        assert predicted_rank_size(s, 3) == Fraction(4)

    def test_limit(self):
        s = AtomicSequence((1, 1), tail=2)
        assert sup_rank_size(s) == Fraction(4)

    def test_limit_needs_tail(self):
        with pytest.raises(PosetError):
            sup_rank_size(AtomicSequence((1, 2)))


class TestSerialization:
    def test_json_round_trip(self, cube):
        assert poset_from_json(poset_to_json(cube)) == cube

    def test_json_keeps_level_order(self, cube):
        assert poset_to_json(cube) == poset_to_json(cube)
        relevelled = GradedPoset(
            tuple(tuple(reversed(lv)) for lv in cube.levels), cube.covers
        )
        assert poset_to_json(relevelled) != poset_to_json(cube)

    def test_json_errors(self):
        with pytest.raises(PosetError, match="JSON"):
            poset_from_json("{nope")
        with pytest.raises(PosetError, match="missing"):
            poset_from_json('{"height":1}')
        with pytest.raises(PosetError, match="height"):
            poset_from_json('{"height":3,"levels":[["a"],["b"]],"covers":[["a","b"]]}')

    def test_json_past_the_decoder_limits(self):
        # the decoder runs out of recursion before it sees the document's shape
        with pytest.raises(PosetError, match="bad poset JSON"):
            poset_from_json("[" * 100_000 + "]" * 100_000)
        # Python 3.11 and later refuse to convert an integer literal of more
        # than 4,300 digits with a plain ValueError; without that limit the
        # height parses and fails its own check
        with pytest.raises(PosetError, match="bad poset JSON|does not match"):
            poset_from_json('{"height":' + "1" * 5000 + ',"levels":[["a"]],"covers":[]}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"height":0,"levels":[5],"covers":[]}', "levels"),
            ('{"height":0,"levels":[[1]],"covers":[]}', "levels"),
            ('{"height":0,"levels":"a","covers":[]}', "levels"),
            ('{"height":"1","levels":[["a"],["b"]],"covers":[]}', "height"),
            ('{"height":true,"levels":[["a"]],"covers":[]}', "height"),
            ('{"height":1,"levels":[["a"],["b"]],"covers":[[["a"],"b"]]}', "covers"),
            ('{"height":1,"levels":[["a"],["b"]],"covers":[["a","b","a"]]}', "covers"),
            ('{"height":1,"levels":[["a"],["b"]],"covers":{"a":"b"}}', "covers"),
        ],
    )
    def test_json_type_errors(self, text, message):
        with pytest.raises(PosetError, match=message):
            poset_from_json(text)

    def test_dot_escapes_ids(self):
        p = build_poset([['a"b'], ["c\\d"]], [('a"b', "c\\d")])
        dot = poset_to_dot(p)
        assert '"a\\"b" -> "c\\\\d";' in dot
        assert '{ rank=same; "a\\"b"; }' in dot

    def test_dot_output(self, diamond):
        dot = poset_to_dot(diamond)
        assert dot.startswith("digraph poset {\n")
        assert "rankdir=BT" in dot
        assert '"0" -> "x"' in dot
