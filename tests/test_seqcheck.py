import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binposet.construct import debruijn_poset, m_interval, stripped_boolean_interval
from binposet.core import (
    AtomicSequence,
    GradedPoset,
    PosetError,
    build_poset,
    interval,
    verify_binomial,
)
from binposet.search import enumerate_intervals
from binposet.seqcheck import (
    check_compatibility,
    check_R_equivalence,
    decide_family,
    lcm_extension,
)
from conftest import brute_ratio_ok, relabel


def bounded_section_cycle() -> GradedPoset:
    """(1, 2, 4) interval whose middle section is one 8-cycle."""
    mids = {"ab": "ab", "bc": "bc", "cd": "cd", "da": "da"}
    covers = [("0", x) for x in "abcd"] + [(m, "T") for m in mids]
    covers += [(x, m) for m in mids for x in m]
    return build_poset([["0"], list("abcd"), sorted(mids), ["T"]], covers)


def bounded_section_squares() -> GradedPoset:
    """(1, 2, 4) interval whose middle section is two 4-cycles."""
    blocks = {"u0": "ab", "u1": "ab", "v0": "cd", "v1": "cd"}
    covers = [("0", x) for x in "abcd"] + [(m, "T") for m in blocks]
    covers += [(x, m) for m, atoms in blocks.items() for x in atoms]
    return build_poset([["0"], list("abcd"), sorted(blocks), ["T"]], covers)


def atom_components(p: GradedPoset) -> tuple[tuple[str, ...], ...]:
    """The atoms of ``p`` grouped into connected components, two atoms
    joined when a rank-2 element covers both: each atom takes the least
    label among the lower covers of a rank-2 element above it, until no
    label changes."""
    label = {x: x for x in p.levels[1]}
    changed = True
    while changed:
        changed = False
        for y in p.levels[2]:
            least = min(label[a] for a in p.lower_covers(y))
            for a in p.lower_covers(y):
                if label[a] != least:
                    label[a], changed = least, True
    groups: dict[str, list[str]] = {}
    for x in sorted(label):
        groups.setdefault(label[x], []).append(x)
    return tuple(sorted(map(tuple, groups.values())))


class TestCompatibility:
    def test_finite_pass(self):
        assert check_compatibility((1, 2, 3, 4)).ok

    def test_tailed_pass(self):
        assert check_compatibility("1,1,2...").ok

    def test_monotone_failure(self):
        rep = check_compatibility((1, 3, 2))
        assert not rep.ok and rep.kind == "monotone" and rep.witness == (2, 3)

    def test_ratio_failure(self):
        rep = check_compatibility((1, 2, 3, 3))
        assert not rep.ok and rep.kind == "ratio"
        assert rep.witness == (2, 2) and rep.value == Fraction(9, 2)

    def test_first_value_enforced(self):
        with pytest.raises(PosetError):
            check_compatibility((2, 4))

    def test_horizon_validation(self):
        with pytest.raises(PosetError, match="horizon"):
            check_compatibility((1, 2), horizon=-1)
        with pytest.raises(PosetError, match="horizon"):
            check_compatibility((1, 2), horizon=5)

    def test_horizon_can_stop_before_a_failure(self):
        bad = AtomicSequence((1, 2, 3, 3), tail=3)
        assert check_compatibility(bad, horizon=3).ok
        assert not check_compatibility(bad).ok

    def test_a_far_horizon_checks_only_the_deciding_pairs(self):
        # pairs past 2k + 2 repeat earlier ones, so they are not checked
        for text in ("1,2...", "1,2,3...", "1,2,4,4..."):
            start = time.perf_counter()
            assert check_compatibility(text, horizon=10**9) == check_compatibility(text)
            assert time.perf_counter() - start < 0.5
        rep = check_compatibility("1,2,3...", horizon=10**9)
        assert rep.kind == "ratio" and rep.witness == (2, 2)

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.integers(1, 12),
    )
    def test_tailed_verdict_against_brute_force(self, bumps, tail_bump):
        # nondecreasing head, constant tail: the complete check must agree
        # with checking every ratio pair far past the head
        head = [1]
        for b in bumps:
            head.append(head[-1] * b if head[-1] * b <= 64 else head[-1])
        tail = head[-1] * tail_bump
        seq = AtomicSequence(tuple(head), tail=tail)
        rep = check_compatibility(seq)
        k = len(head)
        values = [seq.a(i) for i in range(1, 3 * k + 9)]
        violations = [
            (i, j)
            for i in range(1, len(values) // 2 + 1)
            for j in range(i, len(values) - i + 1)
            if not brute_ratio_ok(values, i, j)
        ]
        if rep.ok:
            assert not violations
        else:
            assert not brute_ratio_ok(values, *rep.witness)

    @given(st.integers(0, 40), st.lists(st.integers(1, 12), max_size=6))
    def test_leading_ones_keep_the_first_failure(self, ones, rest):
        # the ratio scan takes i past the leading 1s, as every pair with i
        # among them divides; the first failing pair by (i + j, i) stays the
        # one reported
        values = [1] * (1 + ones) + sorted(rest)
        pairs = [(i, n - i) for n in range(2, len(values) + 1) for i in range(1, n // 2 + 1)]
        failures = [pair for pair in pairs if not brute_ratio_ok(values, *pair)]
        rep = check_compatibility(tuple(values))
        if failures:
            assert (rep.ok, rep.kind, rep.witness) == (False, "ratio", failures[0])
        else:
            assert rep.ok

    def test_tail_violations_past_the_head_are_caught(self):
        # the finite head is admissible on its own; the constant tail is
        # too small and breaks a ratio one step past it
        assert check_compatibility((1, 2, 3)).ok
        rep = check_compatibility(AtomicSequence((1, 2, 3), tail=3))
        assert not rep.ok and rep.kind == "ratio"
        assert rep.witness == (2, 2) and rep.value == Fraction(9, 2)


class TestLcmExtension:
    def test_extends_by_the_lcm(self):
        ext = lcm_extension((1, 2, 3))
        assert ext.tail == 6
        assert check_compatibility(ext).ok

    def test_rejects_tailed_input(self):
        with pytest.raises(PosetError, match="tail"):
            lcm_extension(AtomicSequence((1, 2), tail=2))

    def test_rejects_inadmissible_head(self):
        with pytest.raises(PosetError, match="admissible"):
            lcm_extension((1, 3, 2))

    def test_single_value(self):
        assert lcm_extension((1,)).tail == 1

    def test_every_small_admissible_head_extends_admissibly(self):
        # lcm_extension does not check its extension; its docstring argues why
        heads = [
            head
            for k in range(1, 6)
            for head in itertools.combinations_with_replacement(range(1, 9), k)
            if head[0] == 1 and check_compatibility(head).ok
        ]
        assert len(heads) == 354
        for head in heads:
            assert check_compatibility(lcm_extension(head)).ok, head


class TestDecideFamily:
    def check_witness(self, decision, prefix):
        assert decision.witness is not None
        rep = verify_binomial(decision.witness)
        assert rep.ok
        assert rep.atoms.head == prefix

    def test_subset_lattice_family(self):
        d = decide_family((1, 2, 3, 4))
        assert d.verdict == "realizable"
        assert d.recipe == "stripped_boolean_interval(4, 1)"
        self.check_witness(d, (1, 2, 3, 4))

    def test_glued_copies(self):
        d = decide_family((1, 2, 6))
        assert d.verdict == "realizable"
        assert d.recipe == "stripped_boolean_interval(3, 2)"
        self.check_witness(d, (1, 2, 6))

    def test_counting_up_needs_divisibility(self):
        # (1,2,3,6) passes the growth check but 4 does not divide 6
        d = decide_family((1, 2, 3, 6))
        assert d.verdict == "non-realizable"
        assert "a_4 = 6" in d.reason

    def test_counting_up_through_the_tail(self):
        # the offending fourth value comes from the constant tail
        d = decide_family(AtomicSequence((1, 2, 3), tail=6))
        assert d.verdict == "non-realizable"
        assert "a_4 = 6" in d.reason

    def test_two_level_interval(self):
        d = decide_family((1, 3, 4))
        assert d.verdict == "realizable" and d.recipe == "m_interval(3)"
        self.check_witness(d, (1, 3, 4))

    def test_near_counting_prefix_cannot_grow(self):
        for seq in ((1, 3, 4, 12), "1,3,4..."):
            d = decide_family(seq)
            assert d.verdict == "non-realizable", seq

    def test_shift_register_family(self):
        d = decide_family("1,1,2...")
        assert d.verdict == "realizable"
        assert d.recipe == "debruijn_poset(2, 2, 5)"
        rep = verify_binomial(d.witness)
        assert rep.ok and rep.atoms.head == (1, 1, 2, 2, 2)

    def test_all_ones(self):
        d = decide_family((1, 1, 1))
        assert d.verdict == "realizable"
        assert d.witness.widths == (1, 1, 1, 1)

    def test_divisible_family(self):
        d = decide_family((1, 2, 4))
        assert d.verdict == "realizable"
        assert d.recipe.startswith("divisible_poset")
        self.check_witness(d, (1, 2, 4))

    def test_divisible_family_with_tail(self):
        d = decide_family("1,2,4...")
        assert d.verdict == "realizable"
        assert d.recipe.startswith("divisible_poset")

    def test_growth_failure_is_decisive(self):
        d = decide_family((1, 2, 3, 3))
        assert d.verdict == "non-realizable"
        assert "growth" in d.reason

    def test_unknown(self):
        d = decide_family((1, 2, 5))
        assert d.verdict == "unknown"

    def test_witness_height_override(self):
        d = decide_family("1,1,2...", witness_height=7)
        assert d.witness.height == 7

    def test_tail_only_sequence(self):
        d = decide_family(AtomicSequence((), tail=1))
        assert d.verdict == "realizable"

    def test_empty_sequence_is_unknown(self):
        d = decide_family(AtomicSequence(()))
        assert (d.verdict, d.reason) == ("unknown", "no values to decide on")


class TestREquivalence:
    def test_single_lattice(self, cube):
        rep = check_R_equivalence(cube)
        assert rep.ok and rep.k == 1
        assert rep.classes == (("a", "b", "c"),)

    def test_accepts_interval_objects(self, cube):
        rep = check_R_equivalence(interval(cube, "e", "abc"))
        assert rep.ok and rep.k == 1

    def test_glued_copies_give_one_class_each(self):
        for n, k in ((3, 2), (4, 3), (5, 2)):
            rep = check_R_equivalence(stripped_boolean_interval(n, k))
            assert rep.ok and rep.k == k, (n, k)
            assert all(len(cls) == n for cls in rep.classes)

    def test_cycle_section_is_not_transitive(self):
        rep = check_R_equivalence(bounded_section_cycle())
        assert not rep.ok
        assert "not transitive" in rep.detail

    def test_square_sections_have_wrong_class_size(self):
        rep = check_R_equivalence(bounded_section_squares())
        assert not rep.ok
        assert "size" in rep.detail
        assert rep.k == 2

    def test_classes_are_the_connected_components(self):
        rng = random.Random(3)
        inputs = [stripped_boolean_interval(n, k) for n in (2, 3, 4) for k in (1, 2, 3)]
        inputs += [bounded_section_cycle(), bounded_section_squares()]
        inputs.append(enumerate_intervals((1, 2, 3, 8), strategy="assembly").witness)
        for p in inputs:
            for q in [p] + [relabel(p, rng) for _ in range(3)]:
                assert check_R_equivalence(q).classes == atom_components(q)

    def test_needs_counting_up_prefix(self):
        with pytest.raises(PosetError, match="1, ..., 2"):
            check_R_equivalence(m_interval(3))

    def test_needs_bounded_input(self):
        with pytest.raises(PosetError, match="bounded"):
            check_R_equivalence(debruijn_poset(1, 2, 3))
