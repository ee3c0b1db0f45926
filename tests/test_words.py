"""Word layer checks against brute-force rotation and counting oracles."""

from __future__ import annotations

import math
import random
from itertools import product

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


def test_walk_words_state_and_prune():
    def step(state, letter):
        return (state or ()) + (letter,)

    # the state of each word is built letter by letter along its prefixes
    walked = list(words.walk_words(3, 4, step=step))
    assert [w for w, _ in walked] == list(product((1, 2, 3), repeat=4))
    assert all(w == state for w, state in walked)
    # pruning at the prefix (2, 1) drops exactly the words below it
    asked = []

    def prune(state, k):
        asked.append((state, k))
        return state == (2, 1)

    got = [w for w, _ in words.walk_words(3, 4, step=step, prune=prune)]
    assert got == [w for w in product((1, 2, 3), repeat=4) if w[:2] != (2, 1)]
    assert all(len(state) == k and 0 < k < 4 for state, k in asked)
    assert ((2, 1, 1), 3) not in asked


def test_budget_errors():
    with pytest.raises(BudgetError):
        list(words.enumerate_words(2, 10, budget=100))
    with pytest.raises(BudgetError):
        list(words.enumerate_necklaces(10, 10, budget=1000))
    with pytest.raises(InputError):
        list(words.enumerate_words(0, 3))
    # checked once, when the walk is created, before any word is produced
    with pytest.raises(BudgetError):
        words.walk_words(2, 10, necklaces=True, budget=100)
