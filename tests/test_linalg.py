"""Tests for exact GF(2)/GF(3) vector and echelon arithmetic."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comatroid.errors import UnsupportedFieldError
from comatroid.linalg import (
    Echelon,
    check_field,
    gf_rank,
    is_invertible,
    mat_apply,
    normalize,
    random_invertible,
    vec_add,
    vec_scale,
)


def vectors(q, dim, max_count=8):
    return st.lists(
        st.tuples(*[st.integers(0, q - 1)] * dim),
        min_size=0,
        max_size=max_count,
    )


def test_check_field_rejects_others():
    assert check_field(2) == 2
    assert check_field(3) == 3
    with pytest.raises(UnsupportedFieldError):
        check_field(5)
    with pytest.raises(UnsupportedFieldError):
        check_field(4)


def test_normalize_zero_rejected():
    with pytest.raises(ValueError):
        normalize((0, 0, 0), 3)


@given(v=st.tuples(*[st.integers(0, 2)] * 4), s=st.integers(1, 2))
def test_normalize_scaling_invariant(v, s):
    if not any(v):
        return
    w = vec_scale(s, v, 3)
    assert normalize(v, 3) == normalize(w, 3)
    first = next(a for a in normalize(v, 3) if a)
    assert first == 1


@given(vs=vectors(3, 4))
def test_echelon_coords_reconstruct(vs):
    ech = Echelon(3)
    basis = [v for v in vs if ech.insert(v)]
    # the greedy basis is independent and spans every vector given
    assert gf_rank(basis, 3) == len(basis) == gf_rank(vs, 3)
    for v in vs:
        c = ech.coords(v)
        assert c is not None and len(c) == len(basis)
        acc = (0, 0, 0, 0)
        for coeff, w in zip(c, basis):
            acc = vec_add(acc, vec_scale(coeff, w, 3), 3)
        assert acc == v


@given(vs=vectors(2, 5, max_count=7))
def test_echelon_rank_matches_contains(vs):
    ech = Echelon(2)
    grew = [ech.insert(v) for v in vs]
    assert ech.rank == sum(grew)
    for v in vs:
        assert ech.contains(v)
    outside = []
    for v in [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 1, 1, 1)]:
        if not ech.contains(v):
            outside.append(v)
    if ech.rank == 5:
        assert not outside


@given(vs=vectors(3, 3, max_count=6))
def test_greedy_basis_is_independent_and_spanning(vs):
    ech = Echelon(3)
    chosen = [v for v in vs if ech.insert(v)]
    assert gf_rank(chosen, 3) == len(chosen) == gf_rank(vs, 3)


def test_random_invertible_and_apply():
    rng = random.Random(7)
    for q in (2, 3):
        mat = random_invertible(4, q, rng)
        assert is_invertible(mat, q)
        unit = (1, 0, 0, 0)
        col = mat_apply(mat, unit, q)
        assert col == tuple(row[0] for row in mat)
