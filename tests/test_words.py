"""Word layer checks against brute-force rotation and counting oracles."""

from __future__ import annotations

import math
import random
from itertools import product

import numpy as np
import pytest

from jsrkit import config, words
from jsrkit.errors import BudgetError, InputError


def _all_rotations(w):
    return [w[k:] + w[:k] for k in range(len(w))]


def _canonical_oracle(w):
    return min(_all_rotations(w))


def _primitive_oracle(w):
    # w is a proper power iff it repeats with period n/k for some divisor k > 1
    n = len(w)
    for k in range(2, n + 1):
        if n % k == 0:
            block = w[: n // k]
            if block * k == w:
                return False
    return True


def _euler_phi(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def _necklace_oracle(r, n):
    return [w for w in product(range(1, r + 1), repeat=n) if w == _canonical_oracle(w)]


def _necklace_count_oracle(r, n):
    # Burnside: (1/n) * sum over divisors d of phi(d) * r^(n/d)
    return sum(_euler_phi(d) * r ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def test_parse_and_format_round_trip():
    assert words.parse_word("1,2,2") == (1, 2, 2)
    assert words.format_word((1, 2, 2)) == "1,2,2"
    assert words.parse_word(" 2 , 1 ") == (2, 1)
    with pytest.raises(InputError):
        words.parse_word("")
    with pytest.raises(InputError):
        words.parse_word("1,0,2")
    with pytest.raises(InputError):
        words.parse_word("1,x")


def test_canonical_rotation_examples():
    assert words.canonical_rotation((2, 1, 2)) == (1, 2, 2)
    assert words.canonical_rotation((1, 1, 1)) == (1, 1, 1)
    assert words.canonical_rotation((3, 1, 2)) == (1, 2, 3)


def test_canonical_rotation_random_vs_bruteforce():
    rnd = random.Random(101)
    for _ in range(10_000):
        r = rnd.randint(1, 3)
        n = rnd.randint(1, 12)
        w = tuple(rnd.randint(1, r) for _ in range(n))
        assert words.canonical_rotation(w) == _canonical_oracle(w)


def test_canonical_rotation_invariants():
    rnd = random.Random(102)
    for _ in range(500):
        n = rnd.randint(1, 10)
        w = tuple(rnd.randint(1, 3) for _ in range(n))
        c = words.canonical_rotation(w)
        assert words.canonical_rotation(c) == c
        k = rnd.randrange(n)
        assert words.canonical_rotation(w[k:] + w[:k]) == c


def test_rotation_equivalent():
    assert words.rotation_equivalent((1, 2), (2, 1))
    assert not words.rotation_equivalent((1, 2), (1, 1))
    assert not words.rotation_equivalent((1, 2), (1, 2, 1))
    rnd = random.Random(103)
    for _ in range(1000):
        n = rnd.randint(1, 8)
        z = tuple(rnd.randint(1, 2) for _ in range(n))
        w = tuple(rnd.randint(1, 2) for _ in range(n))
        assert words.rotation_equivalent(z, w) == (z in _all_rotations(w))


def test_primitivity_examples():
    assert words.is_primitive((1, 2, 2))
    assert not words.is_primitive((1, 2, 1, 2))
    assert words.is_primitive((1,))
    assert not words.is_primitive((2, 2))


def test_primitivity_exhaustive_vs_divisor_oracle():
    for n in range(1, 11):
        for w in product((1, 2), repeat=n):
            assert words.is_primitive(w) == _primitive_oracle(w)


def test_primitivity_rotation_invariant():
    rnd = random.Random(104)
    for _ in range(500):
        n = rnd.randint(1, 10)
        w = tuple(rnd.randint(1, 2) for _ in range(n))
        k = rnd.randrange(n)
        assert words.is_primitive(w) == words.is_primitive(w[k:] + w[:k])


def test_power():
    assert words.power((1, 2), 3) == (1, 2, 1, 2, 1, 2)
    assert words.power((1,), 1) == (1,)
    assert not words.is_primitive(words.power((1, 2), 2))
    with pytest.raises(InputError):
        words.power((1, 2), 0)


def test_enumerate_words_lex_order_and_count():
    got = list(words.enumerate_words(2, 3))
    assert len(got) == 8
    assert got[0] == (1, 1, 1)
    assert got[-1] == (2, 2, 2)
    assert got == sorted(got)


def test_enumerate_necklaces_small():
    got = list(words.enumerate_necklaces(2, 3))
    assert got == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    assert len(list(words.enumerate_necklaces(3, 4))) == 24


def test_necklace_counts_match_burnside():
    for r in (1, 2, 3):
        for n in range(1, 11):
            got = sum(1 for _ in words.enumerate_necklaces(r, n))
            assert got == _necklace_count_oracle(r, n), (r, n)


def test_necklace_representatives_are_canonical_and_complete():
    for r, n in ((2, 5), (3, 4)):
        reps = list(words.enumerate_necklaces(r, n))
        assert all(words.canonical_rotation(w) == w for w in reps)
        seen = {words.canonical_rotation(w) for w in words.enumerate_words(r, n)}
        assert set(reps) == seen
    # same words in the same order as the brute filter: bounds keeps the first witness on ties
    for r, lengths in ((1, range(1, 11)), (2, range(1, 11)), (3, range(1, 11)), (4, range(1, 7))):
        for n in lengths:
            got = list(words.enumerate_necklaces(r, n))
            assert got == _necklace_oracle(r, n), (r, n)
            assert all(type(letter) is int for w in got for letter in w), (r, n)


def test_listings_over_wide_alphabets_equal_the_oracle():
    # letters of one byte up to r = 255, of two bytes past it
    for r in (255, 256, 300):
        assert list(words.enumerate_words(r, 2)) == list(product(range(1, r + 1), repeat=2)), r
        assert list(words.enumerate_necklaces(r, 2)) == _necklace_oracle(r, 2), r


def test_necklaces_decoded_in_slices_keep_order(monkeypatch):
    # a 64-byte cap decodes the words below one prefix at a time, for every listing
    monkeypatch.setattr(config, "BLOCK_BYTES", 64)
    for r, n in ((1, 4), (2, 7), (3, 5)):
        every = list(product(range(1, r + 1), repeat=n))
        assert list(words.enumerate_necklaces(r, n)) == _necklace_oracle(r, n), (r, n)
        assert list(words.enumerate_words(r, n)) == every, (r, n)
        for necklaces in (False, True):
            want = [w for w in (_necklace_oracle(r, n) if necklaces else every) if _primitive_oracle(w)]
            blocks = list(words.word_blocks(r, n, necklaces=necklaces, primitive_only=True))
            assert all(len(digits) for digits in blocks), (r, n, necklaces)
            assert [w for digits in blocks for w in words._words_at(digits)] == want, (r, n, necklaces)


def test_validate_word_takes_integer_letters_only():
    got = words.validate_word((1, np.int64(2), np.uint8(3)), 3)
    assert got == (1, 2, 3) and all(type(letter) is int for letter in got)
    assert words.validate_word(np.array([2, 1])) == (2, 1)
    # a float, bool or text letter is refused, never truncated to an integer
    for bad in ((1.9, 2.5), (1.0,), (True, 2), (np.float64(2.0),), (np.bool_(True),), ("1", "2"), "1,2", 3, None):
        with pytest.raises(InputError, match="integer letters"):
            words.validate_word(bad)


def _is_lyndon(w):
    return all(w < rot for rot in _all_rotations(w)[1:])


def test_necklace_children_keep_pre_necklaces_with_their_fkm_periods():
    # walked from the empty word over every word, a row's period is the length
    # of its longest Lyndon prefix when it is a pre-necklace (no suffix below
    # the prefix of the same length), and 0 when it is not; _necklaces marks
    # at each length k < n the pre-necklaces, which hold every necklace
    # prefix, and at n the necklaces
    strict = set()
    for r in (1, 2, 3):
        for n in range(1, 8):
            necklaces = set(_necklace_oracle(r, n))
            digits, periods = np.zeros((1, 0), dtype=np.uint8), np.ones(1, dtype=np.int64)
            for k in range(1, n + 1):
                digits, periods = words.necklace_children(digits, periods, r)
                every = words._words_at(digits)
                assert every == list(product(range(1, r + 1), repeat=k)), (r, n, k)
                pre = [all(w[s:] >= w[:k - s] for s in range(1, k)) for w in every]
                assert periods.tolist() == [
                    max(j for j in range(1, k + 1) if _is_lyndon(w[:j])) if is_pre else 0
                    for w, is_pre in zip(every, pre)
                ], (r, n, k)
                marked = {w for w, mark in zip(every, words._necklaces(periods, k, n).tolist()) if mark}
                if k == n:
                    assert marked == necklaces, (r, n)
                    continue
                prefixes = {w[:k] for w in necklaces}
                assert marked == {w for w, is_pre in zip(every, pre) if is_pre} and prefixes <= marked, (r, n, k)
                if prefixes < marked:
                    strict.add((r, n, k))
    assert (2, 5, 4) in strict


def test_budget_errors():
    with pytest.raises(BudgetError):
        list(words.enumerate_words(2, 10, budget=100))
    with pytest.raises(BudgetError):
        list(words.enumerate_necklaces(10, 10, budget=1000))
    with pytest.raises(InputError):
        list(words.enumerate_words(0, 3))
    # checked once, when the enumeration is created, before any word is produced
    with pytest.raises(BudgetError):
        words.enumerate_necklaces(2, 10, budget=100)
