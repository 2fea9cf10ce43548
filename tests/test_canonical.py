"""Tests for canonical keys under projective equivalence."""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from comatroid.canonical import (
    _code_sums,
    _CodeSums,
    _generator_images,
    _key_memo,
    apply_linear_map,
    canonical_key,
    orbit_of,
    point_permutation,
)
from comatroid.errors import ResourceLimitError
from comatroid.linalg import random_invertible, vec_add, vec_scale
from comatroid.matroid import EmbeddedMatroid, MatrixPresentation, embed
from comatroid.projective import iter_bits, point_space

from oracles import (
    CANONICAL_KEY_SHA256,
    brute_canonical_mask,
    brute_rank,
    generator_images_by_translation,
    orbit_by_generic_walk,
)


def circuit_presentation(k, q=2, shuffle_seed=None):
    cols = [tuple(1 if j == i else 0 for j in range(k - 1)) for i in range(k - 1)]
    cols.append(tuple(q - 1 for _ in range(k - 1)))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(cols)
    return MatrixPresentation(q, tuple(cols))


def test_column_order_invariance():
    keys = {canonical_key(embed(circuit_presentation(5, shuffle_seed=s))) for s in range(6)}
    assert len(keys) == 1


@settings(max_examples=50, deadline=None)
@given(mask=st.integers(1, (1 << 7) - 1), seed=st.integers(0, 10_000))
def test_invariance_under_linear_maps_gf2(mask, seed):
    space = point_space(3, 2)
    m = EmbeddedMatroid(space, mask)
    mat = random_invertible(3, 2, random.Random(seed))
    assert canonical_key(apply_linear_map(m, mat)) == canonical_key(m)


@settings(max_examples=50, deadline=None)
@given(mask=st.integers(1, (1 << 13) - 1), seed=st.integers(0, 10_000))
def test_invariance_under_linear_maps_gf3(mask, seed):
    space = point_space(3, 3)
    m = EmbeddedMatroid(space, mask)
    mat = random_invertible(3, 3, random.Random(seed))
    assert canonical_key(apply_linear_map(m, mat)) == canonical_key(m)


def test_distinguishes_u33_from_line_plus_point():
    space = point_space(3, 2)
    u33 = EmbeddedMatroid(space, space.mask_of([space.index[p] for p in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]))
    line = space.flats_of_rank(2)[0]
    off = next(i for i in range(space.n) if not (line >> i) & 1)
    lpp = EmbeddedMatroid(space, line | (1 << off))
    assert canonical_key(u33) != canonical_key(lpp)


def test_key_flattens_embedding():
    big = point_space(3, 2)
    line = big.flats_of_rank(2)[0]
    inside = EmbeddedMatroid(big, line)
    small = point_space(2, 2)
    flat = EmbeddedMatroid(small, small.full_mask)
    assert canonical_key(inside) == canonical_key(flat)


def test_canonical_key_is_reachable_image():
    """The key's mask is itself in the orbit: some map realizes it."""
    space = point_space(3, 2)
    m = EmbeddedMatroid(space, 0b1010101)
    _, _, img = canonical_key(m)
    realized = EmbeddedMatroid(space, img)
    assert canonical_key(realized) == canonical_key(m)


def test_rank_cap():
    space = point_space(7, 2)
    units = [space.index[tuple(1 if j == i else 0 for j in range(7))] for i in range(7)]
    m = EmbeddedMatroid(space, space.mask_of(units))
    assert m.rank == 7
    with pytest.raises(ResourceLimitError):
        canonical_key(m)


def _decode(space, code):
    """The vector a sum-table code stands for: s * point[p] at p * (q - 1) + s - 1."""
    if code == space.n * (space.q - 1):
        return (0,) * space.r
    p, s = divmod(code, space.q - 1)
    return vec_scale(s + 1, space.points[p], space.q)


@pytest.mark.parametrize("r,q", [(3, 3), (4, 3), (5, 2)])
def test_code_sum_rows_match_vec_add(r, q):
    space = point_space(r, q)
    sums = _CodeSums(r, q)
    codes = range(space.n * (q - 1) + 1)
    for a in codes:
        row = sums[a]
        assert [_decode(space, c) for c in row] == [
            vec_add(_decode(space, a), _decode(space, b), q) for b in codes]
    assert len(sums) == len(codes)


def test_keying_fills_only_rows_of_green_codes():
    # a key reads the rows of its green points' codes: two scalings each over GF(3)
    space = point_space(4, 3)
    green = space.mask_of(random.Random(7).sample(range(space.n), 7))
    _code_sums.cache_clear()
    _key_memo.pop((4, 3, green), None)
    canonical_key(EmbeddedMatroid(space, green))
    rows = _code_sums(4, 3)
    assert 0 < len(rows) <= 2 * 7
    assert {a // 2 for a in rows} <= set(iter_bits(green))


def test_point_permutation_is_permutation():
    space = point_space(3, 3)
    mat = random_invertible(3, 3, random.Random(3))
    perm = point_permutation(space, mat)
    assert sorted(perm) == list(range(space.n))


def test_isomorphic_circuits_of_different_presentations():
    a = embed(circuit_presentation(6))
    b = embed(circuit_presentation(6, shuffle_seed=11))
    assert canonical_key(a) == canonical_key(b)
    c = embed(circuit_presentation(5))
    assert canonical_key(a) != canonical_key(c)


def test_key_is_least_image_pg22():
    space = point_space(3, 2)
    for mask in range(1, 1 << space.n):
        members = [p for p in range(space.n) if (mask >> p) & 1]
        if brute_rank(space, members) == 3:
            got = canonical_key(EmbeddedMatroid(space, mask))[2]
            assert got == brute_canonical_mask(space, mask)


@settings(max_examples=40, deadline=None)
@given(mask=st.integers(1, (1 << 13) - 1))
def test_key_is_least_image_pg23(mask):
    space = point_space(3, 3)
    assume(brute_rank(space, [p for p in range(space.n) if (mask >> p) & 1]) == 3)
    assert canonical_key(EmbeddedMatroid(space, mask))[2] == brute_canonical_mask(space, mask)


def test_orbit_walk_partitions_like_keys_pg22():
    space = point_space(3, 2)
    seen = bytearray(1 << space.n)
    orbits = [orbit for mask in range(1 << space.n)
              if (orbit := orbit_of(space, mask, seen))]
    assert sorted(m for orbit in orbits for m in orbit) == list(range(1 << space.n))
    keys = [{canonical_key(EmbeddedMatroid(space, m)) for m in orbit} for orbit in orbits]
    assert all(len(k) == 1 for k in keys)
    assert len(set.union(*keys)) == len(orbits)


def test_orbit_walk_on_every_census_space():
    """The orbit of a frame, r unit vectors and their sum, holds its images
    under random linear maps, and its members share the frame's key."""
    rng = random.Random(5)
    for r, q in ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3)):
        space = point_space(r, q)
        frame = [tuple(int(i == j) for j in range(r)) for i in range(r)] + [(1,) * r]
        m = EmbeddedMatroid(space, space.mask_of(space.index[v] for v in frame))
        orbit = orbit_of(space, m.green_mask, Counter())
        members = set(orbit)
        assert len(members) == len(orbit)
        for _ in range(5):
            assert apply_linear_map(m, random_invertible(r, q, rng)).green_mask in members
        for mask in rng.sample(orbit, 5):
            assert canonical_key(EmbeddedMatroid(space, mask)) == canonical_key(m)


@pytest.mark.parametrize("r,q", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3)])
def test_generator_images_match_translation(r, q):
    """The byte tables built by doubling are the per-byte translate_mask build; a
    space of at most 8 points also gets the second table, [0]."""
    want = generator_images_by_translation(r, q)
    assert _generator_images(r, q) == tuple(t + ([0],) * (2 - len(t)) for t in want)


@pytest.mark.parametrize("r,q", [(3, 2), (4, 2), (2, 3), (3, 3)])
def test_orbit_walk_matches_generic_walk(r, q):
    """Walked from every mask in turn, orbit_of gives the orbits, each in the same
    order, that the walk reading every byte in one loop gives: the same partition."""
    space = point_space(r, q)
    seen, seen_ref = bytearray(1 << space.n), bytearray(1 << space.n)
    for mask in range(1 << space.n):
        mark = mask % 255 + 1
        assert orbit_of(space, mask, seen, mark) == orbit_by_generic_walk(space, mask, seen_ref, mark)
    assert seen == seen_ref


# (r, q, masks drawn) for the pinned key digest
KEY_SAMPLE = ((4, 2, 200), (3, 3, 200), (5, 2, 20), (4, 3, 30), (6, 2, 20))


def test_keys_match_pinned_digest():
    """Keys over a seeded sample hash as pinned: a change to any key shows."""
    _key_memo.clear()
    rng = random.Random(5)
    h = hashlib.sha256()
    for r, q, count in KEY_SAMPLE:
        space = point_space(r, q)
        for _ in range(count):
            mask = space.mask_of(rng.sample(range(space.n), rng.randint(1, min(space.n, 24))))
            key = canonical_key(EmbeddedMatroid(space, mask))
            h.update(f"{r} {q} {mask:x} {key}\n".encode())
    assert h.hexdigest() == CANONICAL_KEY_SHA256
