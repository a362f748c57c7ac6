"""Permutation primitives: composition convention, cycle notation, parsing."""

import random

import pytest

from omsr.errors import ParseError
from omsr.perms import (compose, from_cycle_string, identity, inverse, is_bijection,
                        orbit_partition, pad)
from oracles import cycles, to_cycle_string


def test_identity():
    assert identity(4) == (0, 1, 2, 3)
    assert identity(0) == ()


def test_compose_applies_left_first():
    # (x)(p o q) = q(p(x))
    p = (1, 2, 0)  # 0->1->2->0
    q = (0, 2, 1)
    assert compose(p, q) == tuple(q[p[x]] for x in range(3))


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        p = list(range(9))
        rng.shuffle(p)
        p = tuple(p)
        assert compose(p, inverse(p)) == identity(9)
        assert compose(inverse(p), p) == identity(9)


def test_is_bijection():
    assert is_bijection((2, 0, 1))
    assert not is_bijection((0, 0, 1))
    assert not is_bijection((0, 3, 1))


def test_cycles_and_string():
    p = (1, 0, 3, 4, 2, 5)
    assert cycles(p) == [(0, 1), (2, 3, 4)]
    assert to_cycle_string(p) == "(0 1)(2 3 4)"
    assert to_cycle_string(identity(3)) == "()"


def test_from_cycle_string_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        p = list(range(8))
        rng.shuffle(p)
        p = tuple(p)
        assert pad(from_cycle_string(to_cycle_string(p)), 8) == p


def test_from_cycle_string_examples():
    assert pad(from_cycle_string("(0 1 2)"), 4) == (1, 2, 0, 3)
    assert from_cycle_string("(0 1)(2 3)") == (1, 0, 3, 2)
    assert pad(from_cycle_string("()"), 2) == (0, 1)


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as info:
        from_cycle_string("(0 1 x)")
    assert info.value.line == 1
    assert info.value.col is not None


def test_parse_error_repeated_point():
    with pytest.raises(ParseError):
        from_cycle_string("(0 1)(1 2)")


def test_pad():
    assert pad((1, 0), 4) == (1, 0, 2, 3)


def test_orbit_partition():
    gens = [(1, 0, 2, 3), (0, 1, 3, 2)]
    parts = orbit_partition(gens, 4)
    assert sorted(sorted(p) for p in parts) == [[0, 1], [2, 3]]
    assert orbit_partition([], 3) == [[0], [1], [2]]
