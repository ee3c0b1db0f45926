"""Word layer checks against brute-force rotation and counting oracles."""

from __future__ import annotations

import math
import random
from itertools import product

import numpy as np
import pytest

from jsrkit import words
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
    for r in (1, 2, 3):
        for n in range(1, 11):
            brute = [w for w in product(range(1, r + 1), repeat=n) if w == _canonical_oracle(w)]
            assert list(words.enumerate_necklaces(r, n)) == brute, (r, n)


def test_word_index_is_lexicographic_position():
    for r, n in ((1, 3), (2, 4), (3, 3)):
        for i, w in enumerate(product(range(1, r + 1), repeat=n)):
            assert words.word_index(w, r) == i
            assert words.word_at(i, r, n) == w


def test_necklace_prefixes_keep_every_necklace_prefix():
    for r in (1, 2, 3):
        for n in range(1, 8):
            necklaces = set(words.enumerate_necklaces(r, n))
            for k in range(1, n + 1):
                every = list(product(range(1, r + 1), repeat=k))
                codes = np.array([words.word_index(w, r) for w in every], dtype=np.int64)
                mask = words.necklace_prefixes(codes, r, k, n)
                kept = {w for w, keep in zip(every, mask.tolist()) if keep}
                assert {w[:k] for w in necklaces} <= kept, (r, n, k)
                if k == n:
                    assert kept == necklaces, (r, n)


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
