import math
import os
import random
import subprocess
import sys
import time
from functools import cache
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

from binposet import search
from binposet.classify import enumerate_interval_classes
from binposet.construct import (
    debruijn_poset,
    m_interval,
    poset_from_string,
    stripped_boolean_interval,
    versal_string,
)
from binposet.core import (
    AtomicSequence,
    BinomialReport,
    GradedPoset,
    PosetError,
    build_poset,
    dual,
    interval,
    verify_binomial,
)
from binposet.iso import CanonicalizationCapError, are_isomorphic, canonical_form
from binposet.search import SearchLimits, enumerate_intervals, extension_search
from conftest import brute_classes, frame_depth, regular_matrix_count


def without_dedup(*args, **kwargs):
    """``enumerate_intervals`` with no partial diagram pruned as a repeat:
    the reference that each strategy's dedup stages are checked against."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search._Core, "repeats", lambda self, seen, widths, down: False)
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
        def capped(widths, *args):
            raise CanonicalizationCapError("forced cap")

        monkeypatch.setattr(search, "_certify", capped)
        res = enumerate_intervals((1, 2, 4))
        assert (res.verdict, res.nodes) == ("capped", 9)
        assert res.detail.startswith("classifying a candidate hit the canonicalization cap")

    def test_canonicalization_cap_on_a_partial_diagram_skips_dedup(self, monkeypatch):
        real = search._certify

        def partial_capped(widths, *args):
            if widths[-1] != 1:
                raise CanonicalizationCapError("forced cap")
            return real(widths, *args)

        uncapped, reference = enumerate_intervals((1, 2, 4)), without_dedup((1, 2, 4))
        monkeypatch.setattr(search, "_certify", partial_capped)
        res = enumerate_intervals((1, 2, 4))
        assert (res.verdict, res.nodes) == ("found", reference.nodes)
        assert [canonical_form(p) for p in res.classes] == [
            canonical_form(p) for p in uncapped.classes
        ]

    def test_canonicalization_cap_in_the_anchor_check_caps_the_search(self, monkeypatch):
        # The anchor check certifies the lower set of each new element at
        # the base's rank: a bounded diagram of the base's height.  Dedup
        # certifies partial diagrams with a wide top, and classification
        # complete candidates of the full rank.  The base itself is
        # certified by ``canonical_form``, outside the search's core, so
        # the cap comes from a lower set.
        base = enumerate_intervals((1, 2)).classes[0]
        real = search._certify

        def anchor_capped(widths, *args):
            if len(widths) == base.height + 1 and widths[-1] == 1:
                raise CanonicalizationCapError("forced cap")
            return real(widths, *args)

        assert enumerate_intervals((1, 2, 4), base=base, strategy="levelwise").verdict == "found"
        monkeypatch.setattr(search, "_certify", anchor_capped)
        res = enumerate_intervals((1, 2, 4), base=base, strategy="levelwise")
        assert res.verdict == "capped"
        assert res.detail.startswith("anchor check hit the canonicalization cap")

    @pytest.mark.parametrize("stage", ["partial", "complete"])
    def test_deadline_reaches_a_slow_canonical_search(self, monkeypatch, stage):
        # Each search of the chosen stage certifies a fresh word poset
        # instead, which takes 96 nodes; the canonicalizer reads the clock
        # at its 64th, while spend() never reads it in this search.  A hit
        # in the dedup check of a partial diagram caps the search too: only
        # a canonicalization cap lets dedup search on.
        real, word = search._certify, poset_from_string(versal_string(3))

        def slow(widths, up, down, node_cap, known, deadline):
            if (widths[-1] == 1) == (stage == "complete"):
                widths, (up, down) = word.widths, word._adjacency
            return real(widths, up, down, node_cap, known, deadline)

        monkeypatch.setattr(search, "_certify", slow)
        res = enumerate_intervals((1, 2, 4), limits=SearchLimits(max_seconds=0))
        assert (res.verdict, res.detail) == ("capped", "time budget exhausted")
        res = enumerate_intervals((1, 2, 4), limits=SearchLimits(max_seconds=3600))
        assert res.verdict == "found"

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

    def test_a_time_budget_bounds_a_wide_level(self):
        # level 4 takes 8 covers out of 32: C(32, 8) = 10,518,300 sets, made
        # one at a time as the search takes them, so the budget is read
        started = time.monotonic()
        res = enumerate_intervals((1, 2, 4, 8, 8), limits=SearchLimits(max_seconds=2))
        assert (res.verdict, res.detail) == ("capped", "time budget exhausted")
        assert time.monotonic() - started < 10

    def test_long_targets_need_no_recursion(self):
        # levelwise keeps one frame per element being placed on a stack
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 100)
        try:
            chain = enumerate_intervals((1,) * 40)
            capped = enumerate_intervals((1, 1) + (2,) * 40, limits=SearchLimits(max_nodes=400))
        finally:
            sys.setrecursionlimit(limit)
        assert (chain.verdict, chain.nodes) == ("found", 40)
        assert (capped.verdict, capped.nodes) == ("capped", 401)
        chain = enumerate_intervals((1,) * 400)
        assert (chain.verdict, chain.nodes) == ("found", 400)

    def test_level_widths_read_each_atom_once(self, monkeypatch):
        def levelwise(head):
            return search._Levelwise(AtomicSequence(head), search._Core(SearchLimits()), None, {})

        for head in [(1, 2, 2), (1, 2, 4, 8), (1, 3, 6, 12), (1, 2, 3, 8), (1, 1, 2, 2, 2), (1,) * 7]:
            want = [AtomicSequence(head).W(len(head), j) for j in range(len(head) + 1)]
            assert levelwise(head).widths == want, head
        # a spy, not a timer: W(N, j) per level would make N calls for each j
        calls = 0
        real = AtomicSequence.a

        def counted(self, i):
            nonlocal calls
            calls += 1
            return real(self, i)

        monkeypatch.setattr(AtomicSequence, "a", counted)
        assert levelwise((1,) * 2000).widths == [1] * 2001
        assert calls <= 2000

    def test_cover_sets_run_on_from_the_last_chosen(self):
        for start, stop, k in [(0, 5, 0), (0, 5, 2), (2, 9, 3), (1, 7, 6)]:
            every = list(combinations(range(start, stop), k))
            for i, first in enumerate(every):
                assert list(search._sets_from(first, range(stop), set())) == every[i:]

    def test_cover_sets_are_the_fitting_combinations(self):
        # the reference: the combinations of the pool from ``first`` on, in
        # lexicographic order, that hold every required element
        def reference(first, pool, must):
            return [c for c in combinations(pool, len(first)) if c >= first and must <= set(c)]

        rng = random.Random(2020)
        below_first = no_room = 0
        for _ in range(3000):
            stop = rng.randint(1, 10)
            first = tuple(sorted(rng.sample(range(stop), rng.randint(0, stop))))
            pool = sorted(rng.sample(range(stop), rng.randint(0, stop)))
            must = set(rng.sample(pool, rng.randint(0, min(len(pool), len(first) + 1))))
            below_first += bool(first and must and min(must) < first[0])
            no_room += len(must) > len(first)
            got = list(search._sets_from(first, pool, must))
            assert got == reference(first, pool, must), (first, pool, must)
        assert below_first > 100 and no_room > 100

    def test_assembly_makes_its_blocks_as_it_takes_them(self):
        # C(12, 6) = 924 atom sets times the row patterns of the seven
        # (1,3,6) classes: listed whole before the first node, the blocks
        # outgrow a 256 MiB address space
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
            "from binposet.search import SearchLimits, enumerate_intervals\n"
            "res = enumerate_intervals(\n"
            "    (1, 3, 6, 12), strategy='assembly', limits=SearchLimits(max_seconds=1)\n"
            ")\n"
            "print(res.verdict, res.detail, sep='|')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "capped|time budget exhausted"

    def test_a_time_budget_reaches_the_row_patterns(self):
        # the seven (1,2,8) classes take 8! relabelings each, which the
        # deadline is read between
        started = time.monotonic()
        res = enumerate_intervals(
            (1, 2, 8, 8), strategy="assembly", limits=SearchLimits(max_seconds=0.5)
        )
        assert (res.verdict, res.detail) == ("capped", "time budget exhausted")
        assert time.monotonic() - started < 2

    @pytest.mark.parametrize(
        "head, anchored, nodes", [((1, 2, 4, 2), False, 18), ((1, 3, 4, 3), False, 13),
                                  ((1, 2, 3, 4), True, 8)],
    )
    def test_no_block_fits(self, not_binomial, head, anchored, nodes):
        # a block has more atoms than there are, or the anchor is not binomial
        # and so leaves no rank-3 class: only the catalog's nodes are spent
        base = not_binomial if anchored else None
        res = enumerate_intervals(head, base=base, strategy="assembly")
        assert (res.verdict, res.nodes, res.classes, res.detail) == ("exhausted", nodes, (), "")

    def test_levelwise_raises_on_a_candidate_failing_its_target(self, monkeypatch):
        def fails(p):
            return BinomialReport(ok=False, detail="forced failure")

        monkeypatch.setattr(search, "verify_binomial", fails)
        with pytest.raises(AssertionError, match="forced failure"):
            enumerate_intervals((1, 2, 2), strategy="levelwise")

    def test_assembly_reads_the_clock_before_each_candidate(self, monkeypatch):
        # the clock passes the deadline while the first rank-4 candidate is
        # classified; the search caps at the next candidate, not at the
        # next 256th node
        now = [0.0]
        monkeypatch.setattr(time, "monotonic", lambda: now[0])
        real = search._Core.classify
        at: list[int] = []

        def classify(self, widths, *args):
            try:
                return real(self, widths, *args)
            finally:
                if len(widths) == 5:
                    at.append(self.nodes)
                    now[0] = 2.0

        monkeypatch.setattr(search._Core, "classify", classify)
        res = enumerate_intervals(
            (1, 2, 4, 8), strategy="assembly", limits=SearchLimits(max_seconds=1)
        )
        assert (res.verdict, res.detail) == ("capped", "time budget exhausted")
        assert (len(at), res.nodes) == (1, at[0] + 1)

    def test_only_a_new_class_is_verified(self, monkeypatch):
        # a candidate isomorphic to a stored class passes as that class did
        verified = []
        real = search.verify_binomial
        monkeypatch.setattr(search, "verify_binomial", lambda p: verified.append(p) or real(p))
        res = enumerate_intervals(
            (1, 2, 4, 8), strategy="assembly", limits=SearchLimits(max_nodes=300)
        )
        assert (res.verdict, res.nodes, len(res.classes)) == ("capped", 301, 6)
        # two rank-3 classes of the catalog and six rank-4 classes
        assert len(verified) == 8

    @pytest.mark.parametrize("strategy", ["assembly", "levelwise"])
    def test_a_capped_candidate_that_fails_is_not_a_cap(self, monkeypatch, strategy):
        # a candidate whose canonical search hits the cap is verified: one
        # that fails is dropped by assembly, and is a fault in levelwise
        real_certify, real_verify = search._certify, search.verify_binomial

        def complete(widths):
            return len(widths) == 5 and widths[-1] == 1

        def capped(widths, *args):
            if complete(widths):
                raise CanonicalizationCapError("forced cap")
            return real_certify(widths, *args)

        def fails(p):
            if complete(p.widths):
                return BinomialReport(ok=False, detail="forced failure")
            return real_verify(p)

        monkeypatch.setattr(search, "_certify", capped)
        monkeypatch.setattr(search, "verify_binomial", fails)
        if strategy == "levelwise":
            with pytest.raises(AssertionError, match="forced failure"):
                enumerate_intervals((1, 2, 3, 4), strategy=strategy)
        else:
            res = enumerate_intervals((1, 2, 3, 4), strategy=strategy)
            assert (res.verdict, res.nodes, res.classes) == ("exhausted", 28, ())


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


# two 4 + 4 states of one degree shape (every degree 2) and two classes
EIGHT_CYCLE = [[]] * 4 + [[0, 1], [1, 2], [2, 3], [3, 0]]
TWO_SQUARES = [[]] * 4 + [[0, 1], [0, 1], [2, 3], [2, 3]]


def shuffled(widths, down, rng):
    """The state ``down`` with the positions of each level permuted."""
    perm, start = [], 0
    for w in widths:
        level = list(range(start, start + w))
        rng.shuffle(level)
        perm += level
        start += w
    out = [None] * len(down)
    for i, cs in enumerate(down):
        out[perm[i]] = [perm[c] for c in cs]
    return out


class TestShapeBuckets:
    """``_Core.repeats`` keys states by degree shape and certifies a state
    only once a second state of its shape comes."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """The diagrams handed to canonical searches, as their level widths
        and lower-cover lists, in call order; with ``cap_first`` set, the
        first search hits the cap."""
        real = search._certify
        log = SimpleNamespace(calls=[], cap_first=False)

        def spy(widths, up, down, *args):
            log.calls.append((widths, down))
            if log.cap_first and len(log.calls) == 1:
                raise CanonicalizationCapError("forced cap")
            return real(widths, up, down, *args)

        monkeypatch.setattr(search, "_certify", spy)
        return log

    def test_one_shape_two_classes(self, searches):
        core, seen, rng = search._Core(SearchLimits()), {}, random.Random(5)
        assert not core.repeats(seen, [4, 4], EIGHT_CYCLE)
        assert searches.calls == [] and core.known == {}
        assert not core.repeats(seen, [4, 4], TWO_SQUARES)
        assert len(searches.calls) == 2 and len(seen) == 1
        for down in (EIGHT_CYCLE, TWO_SQUARES) * 3:
            assert core.repeats(seen, [4, 4], shuffled([4, 4], down, rng))

    def test_a_relabelled_copy_of_the_pending_state_repeats(self, searches):
        core, seen, rng = search._Core(SearchLimits()), {}, random.Random(6)
        assert not core.repeats(seen, [4, 4], TWO_SQUARES)
        assert core.repeats(seen, [4, 4], shuffled([4, 4], TWO_SQUARES, rng))
        assert len(searches.calls) == 2

    def test_a_pending_state_capped_late_is_dropped(self, searches):
        searches.cap_first = True
        core, seen, rng = search._Core(SearchLimits()), {}, random.Random(7)
        assert not core.repeats(seen, [4, 4], EIGHT_CYCLE)
        # the eight-cycle's late search hits the cap; the squares are new
        assert not core.repeats(seen, [4, 4], TWO_SQUARES)
        assert len(searches.calls) == 2
        # so the eight-cycle was never recorded: a copy is new, then repeats
        assert not core.repeats(seen, [4, 4], shuffled([4, 4], EIGHT_CYCLE, rng))
        assert core.repeats(seen, [4, 4], shuffled([4, 4], EIGHT_CYCLE, rng))
        assert core.repeats(seen, [4, 4], shuffled([4, 4], TWO_SQUARES, rng))


def test_dedup_builds_no_diagram_for_an_unseen_shape(monkeypatch):
    # every GradedPoset constructed, in order
    real, built = GradedPoset.__post_init__, []

    def spy(p):
        real(p)
        built.append(p)

    monkeypatch.setattr(GradedPoset, "__post_init__", spy)
    # every level of a chain holds one state, so no dedup state is
    # certified, and the one diagram built is the class emitted
    res = enumerate_intervals((1,) * 400)
    assert res.verdict == "found" and len(res.classes) == 1
    assert len(built) == 1 and built[0] is res.classes[0]
    # states and candidates are certified as integer lists: a diagram is
    # built for each class stored, the six found and the two rank-3
    # classes of the assembly's catalog
    built.clear()
    res = enumerate_intervals(
        (1, 2, 4, 8), strategy="assembly", limits=SearchLimits(max_nodes=300)
    )
    assert len(res.classes) == 6 and len(built) == 8
    assert {id(p) for p in res.classes} <= {id(p) for p in built}
    # each stored class keeps the canonical run that certified it
    assert all("_canonical_run" in p.__dict__ for p in res.classes)
    # the census certifies its intervals as integer lists and builds none
    word = poset_from_string(versal_string(3))
    built.clear()
    for n in range(8):
        assert enumerate_interval_classes(word, n).count
    assert built == []


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

    def test_rank_three_mass_formula(self):
        # a (1, a, b) class is an a-regular bipartite graph with fixed sides,
        # so the labelled graphs, (b!)^2 / |Aut| per class, are the b x b 0/1
        # matrices with every line sum a: a missed or doubled class breaks the
        # sum.  a in {1, b-1, b} is left to the closed forms: VF2 lists every
        # automorphism, (6!)^2 of them for (1, 6, 6).
        nx = pytest.importorskip("networkx")
        match = nx.algorithms.isomorphism.categorical_node_match("rank", None)

        def automorphisms(p):
            g = nx.Graph()
            g.add_nodes_from((x, {"rank": p.rank(x)}) for x in p.elements)
            g.add_edges_from(p.covers)
            matcher = nx.algorithms.isomorphism.GraphMatcher(g, g, node_match=match)
            return sum(1 for _ in matcher.isomorphisms_iter())

        for n in range(1, 5):
            for k in range(n + 1):
                rows = list(combinations(range(n), k))
                brute = sum(
                    all(sum(j in row for row in m) == k for j in range(n))
                    for m in product(rows, repeat=n)
                )
                assert regular_matrix_count(n, k) == brute, (n, k)
        assert regular_matrix_count(6, 3) == 297_200
        for b in range(4, 7):
            for a in range(2, b - 1):
                res = enumerate_intervals((1, a, b))
                assert res.verdict == "found", (a, b)
                mass = sum(math.factorial(b) ** 2 // automorphisms(p) for p in res.classes)
                assert mass == regular_matrix_count(b, a), (a, b)

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
