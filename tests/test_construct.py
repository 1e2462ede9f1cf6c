import hashlib

import pytest

from binposet.classify import phi
from binposet.construct import (
    debruijn_poset,
    divisible_poset,
    m_interval,
    poset_from_string,
    stripped_boolean_interval,
    valid_words,
)
from binposet.core import (
    AtomicSequence,
    PosetError,
    count_maximal_chains,
    interval,
    poset_to_json,
    verify_binomial,
)
from binposet.iso import are_isomorphic
from conftest import brute_chain_count


def measured_atoms(p) -> tuple[int, ...]:
    rep = verify_binomial(p)
    assert rep.ok, rep.detail
    return rep.atoms.head


class TestPosetFromString:
    def test_widths(self):
        p = poset_from_string("121")
        assert p.widths == (1, 2, 4, 4, 4, 4)

    def test_atom_counts(self):
        assert measured_atoms(poset_from_string("12")) == (1, 1, 2, 2)

    @pytest.mark.parametrize("word", [w for n in (1, 2, 3) for w in valid_words(n)])
    def test_realizes_its_word(self, word):
        assert phi(poset_from_string(word)) == word

    def test_rejects_adjacent_twos(self):
        with pytest.raises(PosetError, match="adjacent"):
            poset_from_string("122")

    def test_rejects_foreign_letters(self):
        with pytest.raises(PosetError, match="letters"):
            poset_from_string("3")

    def test_height_must_match_word(self):
        with pytest.raises(PosetError, match="height"):
            poset_from_string("11", height=7)
        assert poset_from_string("11", height=4).height == 4

    def test_distinct_words_distinct_diagrams(self):
        ws = [w for w in valid_words(3)]
        ps = [poset_from_string(w) for w in ws]
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                assert not are_isomorphic(ps[i], ps[j]), (ws[i], ws[j])


class TestDebruijn:
    def test_atom_counts(self):
        assert measured_atoms(debruijn_poset(2, 3, 5)) == (1, 1, 3, 3, 3)

    def test_widths_saturate_at_window(self):
        p = debruijn_poset(2, 3, 4)
        assert p.widths == (1, 3, 9, 9, 9)

    def test_matches_the_all_ones_word(self):
        assert are_isomorphic(debruijn_poset(2, 2, 5), poset_from_string("111"))

    def test_single_letter_is_a_chain(self):
        p = debruijn_poset(3, 1, 5)
        assert p.widths == (1,) * 6

    def test_window_zero_is_a_chain(self):
        assert debruijn_poset(0, 4, 3).widths == (1, 1, 1, 1)

    def test_chain_counts(self):
        p = debruijn_poset(1, 3, 3)
        seq = AtomicSequence((1, 3), tail=3)
        top = p.levels[-1][0]
        assert count_maximal_chains(interval(p, "0:0", top)) == seq.B(3)

    def test_bad_arguments(self):
        with pytest.raises(PosetError):
            debruijn_poset(-1, 2, 3)
        with pytest.raises(PosetError):
            debruijn_poset(1, 0, 3)


class TestStrippedBoolean:
    def test_single_copy_is_the_subset_lattice(self, cube):
        assert are_isomorphic(stripped_boolean_interval(3, 1), cube)

    def test_atom_counts(self):
        assert measured_atoms(stripped_boolean_interval(3, 2)) == (1, 2, 6)
        assert measured_atoms(stripped_boolean_interval(4, 3)) == (1, 2, 3, 12)

    def test_widths(self):
        assert stripped_boolean_interval(3, 2).widths == (1, 6, 6, 1)

    def test_chain_count_scales_with_copies(self):
        p = stripped_boolean_interval(3, 2)
        assert brute_chain_count(p.levels, p.covers, "0:0", "3:0") == 12

    def test_two_atom_case(self):
        assert measured_atoms(stripped_boolean_interval(2, 3)) == (1, 6)

    def test_bad_arguments(self):
        with pytest.raises(PosetError):
            stripped_boolean_interval(1, 2)
        with pytest.raises(PosetError):
            stripped_boolean_interval(3, 0)


class TestMInterval:
    def test_atom_counts(self):
        assert measured_atoms(m_interval(3)) == (1, 3, 4)

    def test_widths(self):
        assert m_interval(4).widths == (1, 5, 5, 1)

    def test_degenerate_case_is_the_diamond_stack(self):
        # m = 1 gives (1, 1, 2): the four-element two-path interval
        p = m_interval(1)
        assert measured_atoms(p) == (1, 1, 2)

    def test_chain_count(self):
        p = m_interval(3)
        want = AtomicSequence((1, 3, 4)).B(3)
        assert brute_chain_count(p.levels, p.covers, "0:0", "3:0") == want


class TestDivisible:
    def test_atom_counts(self):
        assert measured_atoms(divisible_poset((1, 2, 6), 4)) == (1, 2, 6, 6)

    def test_accepts_tailed_sequences(self):
        p = divisible_poset(AtomicSequence((1, 2), tail=4), 4)
        assert measured_atoms(p) == (1, 2, 4, 4)

    def test_string_atoms_are_parsed(self):
        assert divisible_poset("1,2,4", 3) == divisible_poset((1, 2, 4), 3)
        assert divisible_poset("1,2...", 3) == divisible_poset(AtomicSequence((1,), 2), 3)

    def test_divisibility_required(self):
        with pytest.raises(PosetError, match="multiple"):
            divisible_poset((1, 2, 3), 3)

    def test_specializes_to_the_shift_register(self):
        assert are_isomorphic(divisible_poset((1, 3), 4), debruijn_poset(1, 3, 4))

    def test_all_ones_is_a_chain(self):
        assert divisible_poset((1, 1, 1), 3).widths == (1, 1, 1, 1)

    def test_height_zero(self):
        assert divisible_poset((1, 2), 0).widths == (1,)

    def test_chain_counts(self):
        p = divisible_poset((1, 2, 4), 4)
        seq = AtomicSequence((1, 2, 4), tail=4)
        top = p.levels[-1][0]
        assert brute_chain_count(p.levels, p.covers, "0:0", top) == seq.B(4)


def construction_corpus():
    """Every builder over small arguments, in a fixed order."""
    for length in range(9):
        for word in valid_words(length):
            yield poset_from_string(word)
    for m in range(4):
        for n in range(1, 4):
            for h in range(6):
                yield debruijn_poset(m, n, h)
    for n in range(2, 6):
        for k in range(1, 4):
            yield stripped_boolean_interval(n, k)
    for m in range(1, 8):
        yield m_interval(m)
    heads = [(1,), (1, 2), (1, 2, 4), (1, 2, 4, 8), (1, 1, 2), (1, 3, 6), (1, 2, 2, 4), "1,2,4..."]
    for s in heads:
        for h in range(6):
            yield divisible_poset(s, h)


def test_construction_bytes_are_pinned():
    # ids, level order and cover sets of every builder, byte for byte: a
    # rewrite of a builder must reproduce its output exactly
    digest = hashlib.sha256()
    count = 0
    for p in construction_corpus():
        digest.update(poset_to_json(p).encode())
        count += 1
    assert count == 281
    assert digest.hexdigest() == (
        "386735f5883f7d208ce6e39629dad50f8639daaa05c3f8c606a2751ddd2e49f5"
    )
