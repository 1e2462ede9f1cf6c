"""End-to-end acceptance checks.

Each test exercises one headline capability against values derived
independently (recurrences, closed forms, brute admissibility) and
records one PASS/FAIL summary line, echoed after the run.
"""

from contextlib import contextmanager
from fractions import Fraction

import conftest
from binposet import (
    AtomicSequence,
    are_isomorphic,
    atomic_numbers,
    canonical_form,
    check_compatibility,
    check_R_equivalence,
    count_valid_words,
    debruijn_poset,
    divisible_poset,
    enumerate_interval_classes,
    enumerate_intervals,
    extension_search,
    m_interval,
    phi,
    poset_from_string,
    predicted_rank_size,
    stripped_boolean_interval,
    sup_rank_size,
    valid_words,
    verify_binomial,
    versal_string,
)


@contextmanager
def criterion(n: int):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE.append(f"ACCEPTANCE criterion {n}: FAIL")
        raise
    conftest.ACCEPTANCE.append(f"ACCEPTANCE criterion {n}: PASS")


def word_count(length: int) -> int:
    """Valid words of a given length: w(0)=1, w(1)=2, then Fibonacci."""
    lo, hi = 1, 2
    for _ in range(length):
        lo, hi = hi, lo + hi
    return lo


def test_criterion_01_word_round_trip():
    with criterion(1):
        words = [w for L in range(1, 7) for w in valid_words(L)]
        assert len(words) == sum(word_count(L) for L in range(1, 7)) == 52
        for w in words:
            p = poset_from_string(w)
            assert phi(p) == w
            rep = verify_binomial(p)
            assert rep.ok
            assert rep.atoms.head == (1, 1) + (2,) * (p.height - 2)


def test_criterion_02_words_classify_the_posets():
    with criterion(2):
        words = [w for L in range(1, 6) for w in valid_words(L)]
        posets = {w: poset_from_string(w) for w in words}
        pairs = 0
        for u in words:
            for v in words:
                if len(u) != len(v):
                    continue
                pairs += 1
                assert are_isomorphic(posets[u], posets[v]) == (u == v), (u, v)
        assert pairs == sum(word_count(L) ** 2 for L in range(1, 6)) == 271


def test_criterion_03_interval_classes_count_like_words():
    with criterion(3):
        # a length-n interval here has widths (1, 2, 4, ..., 4, 2, 1) with
        # n - 3 levels of width 4, hence n - 4 interior sections, so its
        # class count equals the word count at length n - 4
        p = poset_from_string(versal_string(5))
        counts = {n: enumerate_interval_classes(p, n).count for n in range(2, 10)}
        assert counts == {n: word_count(max(0, n - 4)) for n in range(2, 10)}
        assert [counts[n] for n in range(2, 10)] == [1, 1, 1, 2, 3, 5, 8, 13]
        for n in range(6, 10):
            assert counts[n] == counts[n - 1] + counts[n - 2]


def test_every_interval_with_word_atoms_is_a_word_interval():
    # the paper's classification, by exhaustion: the search finds every
    # class of bounded binomial poset with atoms (1, 1, 2, ..., 2), and
    # each is one of the length-n intervals of a versal word poset
    p = poset_from_string(versal_string(5))
    for n in range(3, 10):
        res = enumerate_intervals((1, 1) + (2,) * (n - 2))
        assert res.verdict == "found", n
        searched = {canonical_form(q) for q in res.classes}
        census = {c.certificate for c in enumerate_interval_classes(p, n).classes}
        assert searched == census, n
        assert len(searched) == count_valid_words(max(0, n - 4)), n


def test_criterion_04_level_widths_match_the_closed_form():
    with criterion(4):
        cases = [poset_from_string(w) for L in (1, 2, 3) for w in valid_words(L)]
        cases.append(poset_from_string("121121"))
        cases += [
            debruijn_poset(m, n, m + 4) for m in (1, 2, 3) for n in (1, 2, 3)
        ]
        for p in cases:
            rep = atomic_numbers(p)
            assert rep.ok
            seq = AtomicSequence(rep.atoms.head, rep.atoms.head[-1])
            for i, width in enumerate(p.widths):
                assert Fraction(width) == predicted_rank_size(seq, i)
            assert max(p.widths) == sup_rank_size(seq)


def test_criterion_05_chain_counts_follow_the_factorial_law():
    with criterion(5):
        doubling = [poset_from_string(w) for w in ("1", "2", "12", "121")]
        others = [
            debruijn_poset(2, 2, 5),
            stripped_boolean_interval(4, 2),
            m_interval(4),
            divisible_poset(AtomicSequence((1, 2, 4)), 4),
        ]
        for p in doubling + others:
            rep = verify_binomial(p)
            assert rep.ok
            for d, got in rep.counts.items():
                assert got == rep.atoms.B(d)
        for p in doubling:
            counts = verify_binomial(p).counts
            assert all(counts[d] == max(1, 2 ** (d - 2)) for d in counts)


def test_criterion_06_glued_lattices_and_their_atom_classes():
    with criterion(6):
        for n in range(2, 6):
            for k in range(1, 4):
                p = stripped_boolean_interval(n, k)
                rep = verify_binomial(p)
                assert rep.ok
                assert rep.atoms.head == tuple(range(1, n)) + (k * n,)
        # the atom relation needs rank 2 below the top, so height-2
        # intervals stay out of the class-size claim
        for n in range(3, 6):
            for k in range(1, 4):
                r = check_R_equivalence(stripped_boolean_interval(n, k))
                assert r.ok and r.k == k, (n, k)
                assert all(len(cls) == n for cls in r.classes)


def test_criterion_07_no_rank_five_poset_repeats_four():
    with criterion(7):
        res = extension_search(
            stripped_boolean_interval(4, 1), (1, 2, 3, 4, 4), extra_ranks=1
        )
        assert res.verdict == "exhausted"
        assert not res.classes


def test_criterion_08_the_matching_complement_never_extends():
    with criterion(8):
        base = m_interval(3)
        admissible = [a for a in range(4, 13) if check_compatibility((1, 3, 4, a)).ok]
        # independent count: W(4,2) = 12a/9, so exactly the multiples of 3
        assert admissible == [a for a in range(4, 13) if a % 3 == 0] == [6, 9, 12]
        for a in admissible:
            res = extension_search(base, (1, 3, 4, a), extra_ranks=1)
            assert res.verdict == "exhausted", a


def test_criterion_09_growth_condition_verdicts():
    with criterion(9):
        assert check_compatibility((1, 2, 3, 4, 4)).ok
        rep = check_compatibility((1, 2, 3, 3))
        assert not rep.ok and rep.witness == (2, 2)
        assert check_compatibility("1,2,3,4,4,6...", horizon=12).ok


def test_criterion_10_unique_interval_with_atoms_1_3_4():
    with criterion(10):
        res = enumerate_intervals((1, 3, 4))
        assert res.verdict == "found"
        assert len(res.classes) == 1
        assert canonical_form(res.classes[0]) == canonical_form(m_interval(3))
