from functools import cache
from itertools import product

import pytest

from binposet import search
from binposet.construct import debruijn_poset, m_interval, stripped_boolean_interval
from binposet.core import (
    AtomicSequence,
    BinomialReport,
    PosetError,
    build_poset,
    dual,
    interval,
    verify_binomial,
)
from binposet.iso import CanonicalizationCapError, are_isomorphic, canonical_form
from binposet.search import SearchLimits, enumerate_intervals, extension_search
from conftest import brute_classes


def without_dedup(*args, **kwargs):
    """``enumerate_intervals`` with no partial diagram pruned as a repeat:
    the reference that each strategy's dedup stages are checked against."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search._Core, "repeats", lambda self, seen, p: False)
        return enumerate_intervals(*args, **kwargs)


def lower_classes(p, rank):
    """The certificates of the lower intervals of ``p`` at ``rank``."""
    bottom = p.levels[0][0]
    return {canonical_form(interval(p, bottom, x)) for x in p.levels[rank]}


def assert_closed_under_dual(classes):
    """The class set of a complete search holds the dual of each class:
    the dual of an interval is an interval with the same atom counts."""
    certs = {canonical_form(p) for p in classes}
    assert {canonical_form(dual(p)) for p in classes} == certs


@cache
def unanchored(head, strategy):
    """One unanchored run per head and strategy, shared by the tests."""
    return enumerate_intervals(head, strategy=strategy)


class TestEnumerate:
    def test_single_class_with_two_atoms(self, butterfly):
        res = enumerate_intervals((1, 2, 2))
        assert res.verdict == "found"
        assert len(res.classes) == 1
        assert are_isomorphic(res.witness, butterfly)
        assert res.nodes > 0

    def test_subset_lattice_is_unique(self, cube):
        res = enumerate_intervals((1, 2, 3))
        assert res.verdict == "found"
        assert len(res.classes) == 1
        assert are_isomorphic(res.witness, cube)

    def test_matching_complement_is_unique(self):
        res = enumerate_intervals((1, 3, 4))
        assert res.verdict == "found"
        assert len(res.classes) == 1
        assert are_isomorphic(res.witness, m_interval(3))

    def test_chain(self):
        res = enumerate_intervals((1, 1, 1))
        assert res.verdict == "found" and len(res.classes) == 1
        assert res.witness.widths == (1, 1, 1, 1)

    def test_two_classes(self):
        res = enumerate_intervals((1, 2, 4))
        assert res.verdict == "found"
        assert len(res.classes) == 2
        assert not are_isomorphic(*res.classes)
        for p in res.classes:
            rep = verify_binomial(p)
            assert rep.ok and rep.atoms.head == (1, 2, 4)

    def test_classes_are_sorted_by_certificate(self):
        res = enumerate_intervals((1, 2, 4))
        certs = [canonical_form(p) for p in res.classes]
        assert certs == sorted(certs) and len(set(certs)) == 2

    def test_strategies_agree_at_rank_four(self):
        # the atom rule sits in _Levelwise._slots at rank 2 and in
        # _Assembly._slots per block, so each strategy checks the other
        for head in (1, 2, 3, 4), (1, 2, 2, 4), (1, 2, 4, 4):
            by_level = unanchored(head, "levelwise")
            by_blocks = unanchored(head, "assembly")
            assert by_level.verdict == by_blocks.verdict == "found", head
            level_certs = sorted(canonical_form(p) for p in by_level.classes)
            block_certs = sorted(canonical_form(p) for p in by_blocks.classes)
            assert level_certs == block_certs, head

    def test_strategies_agree_at_the_anchor_rank(self, cube):
        # anchored levelwise checks each new rank-3 element's lower set
        # against the base (_Levelwise._anchored); assembly keeps only the
        # base's rank-3 class; filtering the unanchored classes by their
        # rank-3 lower intervals is the reference for both
        over_124 = enumerate_intervals((1, 2, 4)).classes[0]
        for head, base, count in ((1, 2, 3, 4), cube, 1), ((1, 2, 4, 4), over_124, 10):
            want = {canonical_form(base)}
            kept = {
                canonical_form(p)
                for p in unanchored(head, "assembly").classes
                if lower_classes(p, 3) == want
            }
            assert len(kept) == count, head
            for strategy in "levelwise", "assembly":
                res = enumerate_intervals(head, base=base, strategy=strategy)
                assert res.verdict == "found", (head, strategy)
                assert {canonical_form(p) for p in res.classes} == kept, (head, strategy)
                assert len(res.classes) == count, (head, strategy)

    def test_dedup_toggle_changes_nothing_but_work(self):
        fast = enumerate_intervals((1, 2, 4))
        slow = without_dedup((1, 2, 4))
        assert fast.verdict == slow.verdict == "found"
        assert [canonical_form(p) for p in fast.classes] == [
            canonical_form(p) for p in slow.classes
        ]

    def test_node_cap(self):
        res = enumerate_intervals((1, 2, 3), limits=SearchLimits(max_nodes=5))
        assert res.verdict == "capped"
        assert "budget" in res.detail
        assert res.nodes > 5

    @pytest.mark.parametrize("strategy, classes", [("assembly", 0), ("levelwise", 6)])
    def test_time_budget(self, strategy, classes):
        # the clock is read every 256 nodes, so a zero budget stops at the first reading
        res = enumerate_intervals(
            (1, 2, 4, 8), strategy=strategy, limits=SearchLimits(max_seconds=0)
        )
        assert (res.verdict, res.nodes, res.detail) == ("capped", 256, "time budget exhausted")
        assert len(res.classes) == classes

    def test_canonicalization_cap_while_classifying_caps_the_search(self, monkeypatch):
        def capped(p):
            raise CanonicalizationCapError("forced cap")

        monkeypatch.setattr(search, "canonical_form", capped)
        res = enumerate_intervals((1, 2, 4))
        assert (res.verdict, res.nodes) == ("capped", 9)
        assert res.detail.startswith("classifying a candidate hit the canonicalization cap")

    def test_canonicalization_cap_on_a_partial_diagram_skips_dedup(self, monkeypatch):
        def partial_capped(p):
            if p.widths[-1] != 1:
                raise CanonicalizationCapError("forced cap")
            return canonical_form(p)

        uncapped, reference = enumerate_intervals((1, 2, 4)), without_dedup((1, 2, 4))
        monkeypatch.setattr(search, "canonical_form", partial_capped)
        res = enumerate_intervals((1, 2, 4))
        assert (res.verdict, res.nodes) == ("found", reference.nodes)
        assert [canonical_form(p) for p in res.classes] == [
            canonical_form(p) for p in uncapped.classes
        ]

    def test_impossible_level_census_short_circuits(self):
        res = enumerate_intervals((1, 2, 3, 3))
        assert res.verdict == "exhausted"
        assert res.detail.startswith("impossible level census")
        assert res.nodes == 0

    def test_rejects_tailed_and_empty_input(self):
        with pytest.raises(PosetError, match="finite"):
            enumerate_intervals(AtomicSequence((1, 2), tail=2))
        with pytest.raises(PosetError, match="at least one"):
            enumerate_intervals(())

    def test_string_atoms_are_parsed(self):
        parsed, given = enumerate_intervals("1,2,4"), enumerate_intervals((1, 2, 4))
        assert (parsed.verdict, parsed.nodes) == (given.verdict, given.nodes)
        assert parsed.classes == given.classes
        with pytest.raises(PosetError, match="finite"):
            enumerate_intervals("1,2...")

    def test_base_height_must_be_interior(self, cube):
        with pytest.raises(PosetError, match="strictly between"):
            enumerate_intervals((1, 2, 3), base=cube)

    def test_unknown_strategy(self):
        with pytest.raises(PosetError, match="unknown strategy"):
            enumerate_intervals((1, 2), strategy="bogus")

    def test_assembly_is_rank_four_only(self):
        with pytest.raises(PosetError, match="rank 4"):
            enumerate_intervals((1, 2, 2), strategy="assembly")

    def test_assembly_anchors_at_rank_three_only(self, diamond):
        with pytest.raises(PosetError, match="anchors at rank 3 only"):
            enumerate_intervals((1, 2, 2, 4), base=diamond, strategy="assembly")

    def test_base_must_be_bounded(self):
        with pytest.raises(PosetError, match="base must be a bounded interval"):
            enumerate_intervals((1, 2, 2), base=debruijn_poset(1, 2, 2))

    def test_levelwise_raises_on_a_candidate_failing_its_target(self, monkeypatch):
        def fails(p):
            return BinomialReport(ok=False, detail="forced failure")

        monkeypatch.setattr(search, "verify_binomial", fails)
        with pytest.raises(AssertionError, match="forced failure"):
            enumerate_intervals((1, 2, 2), strategy="levelwise")


# Exact work counters of fixed searches.  Any change to them is a change
# to what the search does, so it must be deliberate.
_BUDGET = "node budget of {} exhausted"
PINNED = {
    "criterion 7": (
        lambda: extension_search(stripped_boolean_interval(4, 1), (1, 2, 3, 4, 4)),
        "exhausted", 3067, 0, "",
    ),
    "m3 to a4=6": (
        lambda: extension_search(m_interval(3), (1, 3, 4, 6)), "exhausted", 15, 0, "",
    ),
    "m3 to a4=9": (
        lambda: extension_search(m_interval(3), (1, 3, 4, 9)), "exhausted", 24, 0, "",
    ),
    "m3 to a4=12": (
        lambda: extension_search(m_interval(3), (1, 3, 4, 12)), "exhausted", 42, 0, "",
    ),
    "1349 assembly over m3": (
        lambda: enumerate_intervals((1, 3, 4, 9), base=m_interval(3), strategy="assembly"),
        "exhausted", 24, 0, "",
    ),
    "1349 levelwise capped": (
        lambda: enumerate_intervals(
            (1, 3, 4, 9), strategy="levelwise", limits=SearchLimits(max_nodes=2000)
        ),
        "capped", 2001, 0, _BUDGET.format(2000),
    ),
    "1238 assembly": (
        lambda: enumerate_intervals((1, 2, 3, 8), strategy="assembly"), "found", 87, 1, "",
    ),
    "1248 assembly capped": (
        lambda: enumerate_intervals(
            (1, 2, 4, 8), strategy="assembly", limits=SearchLimits(max_nodes=300)
        ),
        "capped", 301, 6, _BUDGET.format(300),
    ),
    "1248 levelwise capped": (
        lambda: enumerate_intervals(
            (1, 2, 4, 8), strategy="levelwise", limits=SearchLimits(max_nodes=300)
        ),
        "capped", 301, 6, _BUDGET.format(300),
    ),
    "1234 levelwise": (
        lambda: enumerate_intervals((1, 2, 3, 4), strategy="levelwise"), "found", 177, 1, "",
    ),
    "1234 assembly": (
        lambda: enumerate_intervals((1, 2, 3, 4), strategy="assembly"), "found", 28, 1, "",
    ),
    "124": (lambda: enumerate_intervals((1, 2, 4)), "found", 18, 2, ""),
    # the deepest rank-3 prune a pinned case reaches
    "136 levelwise": (
        lambda: enumerate_intervals((1, 3, 6), strategy="levelwise"), "found", 555, 7, "",
    ),
    "124 without dedup": (
        lambda: without_dedup((1, 2, 4)), "found", 18, 2, "",
    ),
    # the rank-3 partials of the inner levelwise run and the assembly block
    # states are the same 1+1+1 diagram: one dedup set for both stages
    # would let each prune the other
    "1111 assembly": (
        lambda: enumerate_intervals((1, 1, 1, 1), strategy="assembly"), "found", 6, 1, "",
    ),
}


@pytest.mark.parametrize("case", PINNED)
def test_search_counters_are_pinned(case):
    run, verdict, nodes, classes, detail = PINNED[case]
    res = run()
    assert (res.verdict, res.nodes, len(res.classes), res.detail) == (
        verdict, nodes, classes, detail
    )
    if verdict != "capped":
        assert_closed_under_dual(res.classes)


def _partitions(n: int, least: int = 2) -> int:
    """Partitions of n into parts of at least ``least``."""
    if n == 0:
        return 1
    return sum(_partitions(n - k, k) for k in range(least, n + 1))


def _rank3_count(a: int, b: int) -> int | None:
    """The class count of atoms (1, a, b), where a closed form gives it.

    A length-3 interval with these atoms is an a-regular bipartite graph
    with b vertices on each side, up to isomorphisms that keep the sides:
    a perfect matching, its complement and the complete graph are unique,
    and a 2-regular graph is a union of even cycles, one part >= 2 of b
    per cycle."""
    if a in (1, b - 1, b):
        return 1
    if a == 2:
        return _partitions(b)
    return None


def _middle_complement(p):
    """The poset whose atom-coatom covers are the non-covers of ``p``."""
    bottom, atoms, coatoms, top = p.levels
    covers = set(p.covers)
    middle = [(x, y) for x in atoms for y in coatoms if (x, y) not in covers]
    ends = [c for c in p.covers if c[0] in bottom or c[1] in top]
    return build_poset(p.levels, ends + middle)


class TestCompleteness:
    def test_rank_three_closed_forms(self):
        # b = 7 only where a closed form gives the count; the rest run far longer
        assert [_partitions(b) for b in range(2, 8)] == [1, 1, 2, 2, 4, 4]
        classes, certs = {}, {}
        for b in range(1, 8):
            for a in range(1, b + 1):
                if b == 7 and _rank3_count(a, b) is None:
                    continue
                res = enumerate_intervals((1, a, b))
                assert res.verdict == "found", (a, b)
                classes[a, b] = res.classes
                certs[a, b] = {canonical_form(p) for p in res.classes}
                if _rank3_count(a, b) is not None:
                    assert len(res.classes) == _rank3_count(a, b), (a, b)
                if b <= 5:
                    slow = without_dedup((1, a, b))
                    assert {canonical_form(p) for p in slow.classes} == certs[a, b]
        for b in range(2, 7):
            for a in range(1, b):
                flipped = {canonical_form(_middle_complement(p)) for p in classes[a, b]}
                assert flipped <= certs[b - a, b], (a, b)
                assert len(certs[a, b]) == len(certs[b - a, b]), (a, b)

    def test_rank_three_frontier(self):
        # sizes within reach only because unused atoms are taken
        # lowest-first: without that, (1,2,8) alone takes 207,236 nodes
        assert [_partitions(b) for b in range(8, 13)] == [7, 8, 12, 14, 21]
        for b in range(8, 13):
            res = enumerate_intervals((1, 2, b))
            assert res.verdict == "found", b
            assert len(res.classes) == _partitions(b), b
            assert_closed_under_dual(res.classes)
        three, four = enumerate_intervals((1, 3, 7)), enumerate_intervals((1, 4, 7))
        assert three.verdict == four.verdict == "found"
        assert len(three.classes) == len(four.classes)
        flipped = {canonical_form(_middle_complement(p)) for p in three.classes}
        assert flipped == {canonical_form(p) for p in four.classes}
        assert_closed_under_dual(three.classes)
        assert_closed_under_dual(four.classes)

    def test_rank_four_classes_are_closed_under_duality(self):
        res = enumerate_intervals((1, 2, 4, 4), strategy="assembly")
        assert res.verdict == "found" and len(res.classes) == 24
        assert_closed_under_dual(res.classes)
        self_dual = [p for p in res.classes if canonical_form(dual(p)) == canonical_form(p)]
        assert len(self_dual) == 4

    @pytest.mark.parametrize(
        "head",
        [
            (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (1, 3, 3), (1, 2, 4), (1, 3, 4),
            (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 1, 2, 2), (1, 2, 2, 2),
        ],
    )
    def test_search_finds_every_brute_force_class(self, head):
        oracle = brute_classes(head)
        certs = {canonical_form(p) for p in oracle}
        assert len(certs) == len(oracle)
        strategies = ("levelwise", "assembly") if len(head) == 4 else ("levelwise",)
        for strategy, run in product(strategies, (enumerate_intervals, without_dedup)):
            why = (strategy, run.__name__)
            res = run(head, strategy=strategy)
            assert res.verdict == ("found" if oracle else "exhausted"), why
            assert {canonical_form(p) for p in res.classes} == certs, why
            assert len(res.classes) == len(oracle), why


class TestExtension:
    def test_doubling_tower_extends(self, butterfly):
        res = extension_search(butterfly, (1, 2, 2, 2), extra_ranks=1)
        assert res.verdict == "found"
        assert len(res.classes) == 1
        rep = verify_binomial(res.witness)
        assert rep.ok and rep.atoms.head == (1, 2, 2, 2)

    def test_extension_respects_the_anchor(self, cube, butterfly):
        # an extension of the 3-atom lattice cannot sit over 2-atom bases
        res = extension_search(cube, (1, 2, 3, 4), extra_ranks=1)
        assert res.verdict == "found"
        for p in res.classes:
            assert not are_isomorphic(p, butterfly)

    def test_extra_ranks_validation(self, cube):
        with pytest.raises(PosetError, match="extra_ranks"):
            extension_search(cube, (1, 2, 3, 4), extra_ranks=0)

    def test_base_must_verify(self, not_binomial):
        with pytest.raises(PosetError, match="chain-count"):
            extension_search(not_binomial, (1, 2, 2, 2))

    def test_base_must_be_bounded(self):
        with pytest.raises(PosetError, match="bounded"):
            extension_search(debruijn_poset(1, 2, 2), (1, 2, 2, 2))

    def test_target_must_cover_the_new_ranks(self, cube):
        with pytest.raises(PosetError, match="does not define"):
            extension_search(cube, (1, 2, 3), extra_ranks=1)

    def test_target_must_start_with_the_base_atoms(self, cube):
        with pytest.raises(PosetError, match="do not match"):
            extension_search(cube, (1, 2, 4, 8), extra_ranks=1)

    def test_string_targets_are_parsed(self, butterfly):
        res = extension_search(butterfly, "1,2,2...", extra_ranks=1)
        assert res.verdict == "found"
