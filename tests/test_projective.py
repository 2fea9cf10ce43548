"""Tests for the projective point spaces, pinned against brute-force oracles."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comatroid import linalg
from comatroid.cli import _FILTERS
from comatroid.errors import ResourceLimitError, UnsupportedFieldError
from comatroid.matroid import EmbeddedMatroid
from comatroid.projective import TABLE_POINT_CAP, PointSpace, _submasks, bits, iter_bits, point_space

from oracles import (
    brute_components,
    brute_rank,
    brute_span_members,
    brute_vertical_connectivity,
    components_by_joins,
    contraction_map_by_elimination,
    duals_by_dot_products,
    flat_embedding_by_elimination,
    flats_by_joins,
    span_by_joins,
    tables_by_joins,
)


def masks(space, max_size=None):
    if max_size is None:
        return st.integers(0, (1 << space.n) - 1)
    return st.sets(st.integers(0, space.n - 1), max_size=max_size).map(space.mask_of)


# each oracle test checks a tabled space, then an untabled one; the span
# oracle enumerates over a basis, so its masks run to 20 points, while the
# circuit-based oracles need masks capped near 7 points to stay fast


@pytest.mark.parametrize("r,q", [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (1, 3), (2, 3), (3, 3)])
def test_point_counts(r, q):
    space = point_space(r, q)
    assert space.n == (q**r - 1) // (q - 1)
    assert len(set(space.points)) == space.n
    assert list(space.points) == sorted(space.points)
    for p in space.points:
        first = next(a for a in p if a)
        assert first == 1


def test_point_space_is_cached():
    assert point_space(3, 2) is point_space(3, 2)


def test_space_limits():
    with pytest.raises(ResourceLimitError):
        point_space(9, 2)
    with pytest.raises(UnsupportedFieldError):
        point_space(3, 5)
    # a negative rank is bad input, not a cap
    with pytest.raises(ValueError, match="nonnegative"):
        PointSpace(-1, 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_matches_brute_span_gf2(data):
    for space, cap in ((point_space(4, 2), None), (point_space(5, 2), 20)):
        mask = data.draw(masks(space, max_size=cap))
        idxs = list(iter_bits(mask))
        got = space.closure_mask(mask)
        assert set(iter_bits(got)) == brute_span_members(space, idxs)
        assert space.rank_of_mask(mask) == brute_rank(space, idxs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_matches_brute_span_gf3(data):
    for space, cap in ((point_space(3, 3), None), (point_space(4, 3), 20)):
        mask = data.draw(masks(space, max_size=cap))
        idxs = list(iter_bits(mask))
        got = space.closure_mask(mask)
        assert set(iter_bits(got)) == brute_span_members(space, idxs)
        assert space.rank_of_mask(mask) == brute_rank(space, idxs)


@pytest.mark.parametrize("r,q", [(5, 2), (4, 3)])
def test_join_of_two_points_is_their_line(r, q):
    # a fresh space, so every line row is filled here, in both orders of a pair
    space = PointSpace(r, q)
    for i in range(space.n):
        for x in range(space.n):
            if x != i:
                assert space._join(1 << i, x) == space.mask_of(brute_span_members(space, [i, x]))


def test_tabled_components_match_untabled_path():
    # PG(3,2) reads co-spans from its closure table; a hyperplane of PG(4,2)
    # is the same geometry, where co-spans are cut by dual rows
    big = point_space(5, 2)
    rng = random.Random(21)
    for hyperplane in big.flats_of_rank(4)[::6]:
        sub, mapping = big.flat_embedding(hyperplane)
        assert sub._closure_table is not None and big._closure_table is None
        back = {j: i for i, j in mapping.items()}
        for _ in range(60):
            mask = rng.randrange(1 << sub.n)
            want = sorted(big.translate_mask(b, back) for b in sub.components_mask(mask))
            assert sorted(big.components_mask(big.translate_mask(mask, back))) == want


@pytest.mark.parametrize("r,q", [(r, 2) for r in range(8)] + [(r, 3) for r in range(7)])
def test_dual_hyperplanes_match_dot_products(r, q):
    space = PointSpace(r, q)
    assert space.dual_hyperplanes() == duals_by_dot_products(space)


def _dense_and_sparse_masks(space, rng):
    """Masks of every density for the untabled reference tests: the full set, n - 1
    points, 25 points or more, dense parts of a hyperplane and of two skew flats (the
    rank below r and disconnected), and 1 to 8 random points. The flats are spanned
    by joins from random bases."""
    full, n, r = space.full_mask, space.n, space.r
    out = [full] + [full ^ (1 << p) for p in rng.sample(range(n), 4)]
    out += [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(8)]
    out += [space.mask_of(rng.sample(range(n), rng.randint(25, n - 2))) for _ in range(8)]
    for _ in range(12):
        basis, span = [], 0
        while span != full:
            p = rng.choice([p for p in range(n) if not span >> p & 1])
            basis.append(p)
            span = span_by_joins(space, span | 1 << p)
        k = rng.randint(1, r - 1)
        f1, f2 = (span_by_joins(space, space.mask_of(part)) for part in (basis[:k], basis[k:]))
        hyperplane = span_by_joins(space, space.mask_of(basis[1:]))
        out += [f1 & rng.getrandbits(n) | f2 & rng.getrandbits(n), f1 | f2 ^ (f2 & -f2),
                hyperplane ^ (hyperplane & -hyperplane), hyperplane & rng.getrandbits(n) | 1 << basis[1]]
    out += [space.mask_of(rng.sample(range(n), rng.randint(1, 8))) for _ in range(16)]
    return out


@pytest.mark.parametrize("r,q", [(5, 2), (6, 2), (7, 2), (4, 3), (5, 3), (6, 3)])
def test_untabled_closure_and_components_match_joins(r, q):
    # fresh spaces: the reference fills its line rows, the tested space answers from
    # no memo filled elsewhere
    ref, space = PointSpace(r, q), PointSpace(r, q)
    assert space._closure_table is None
    rank_of_size = {(q**k - 1) // (q - 1): k for k in range(r + 1)}
    for mask in _dense_and_sparse_masks(ref, random.Random(r * 10 + q)):
        span = span_by_joins(ref, mask)
        assert space.closure_mask(mask) == span
        assert space.rank_of_mask(mask) == rank_of_size[span.bit_count()]
        assert space.components_mask(mask) == components_by_joins(ref, mask)


@pytest.mark.parametrize("r,q", [(5, 2), (4, 3)])
def test_untabled_closure_and_components_fill_no_line(r, q):
    # closure, rank and components of an untabled space read dual rows only: after
    # a few hundred calls no row of lines (or of their sums) has been allocated
    space = PointSpace(r, q)
    rng = random.Random(r + q)
    for _ in range(150):
        mask = space.mask_of(rng.sample(range(space.n), rng.randint(1, space.n)))
        space.closure_mask(mask), space.rank_of_mask(mask ^ 1), space.components_mask(mask)
    assert space._closure_table is None and len(space._components_memo) > 100
    assert space._lines == [None] * space.n
    assert space._sums == [None] * space.n


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_closure_is_a_closure_operator(data):
    space = point_space(3, 2)
    m1 = data.draw(masks(space))
    m2 = data.draw(masks(space))
    c1 = space.closure_mask(m1)
    assert c1 & m1 == m1
    assert space.closure_mask(c1) == c1
    if m1 & m2 == m1:
        assert c1 & space.closure_mask(m2) == c1


@pytest.mark.parametrize(
    "r,q",
    [(3, 2), (4, 2), (2, 3), (3, 3), (5, 2)],
)
def test_flat_counts_match_gaussian_binomials(r, q):
    space = point_space(r, q)
    for k in range(r + 1):
        # ordered independent k-tuples of GF(q)^r, over the ordered bases of one subspace
        tuples = bases = 1
        for i in range(k):
            tuples *= q**r - q**i
            bases *= q**k - q**i
        flats = space.flats_of_rank(k)
        assert len(flats) == tuples // bases
        expected_size = (q**k - 1) // (q - 1)
        for m in flats[: min(len(flats), 40)]:
            assert bin(m).count("1") == expected_size
            assert space.closure_mask(m) == m
            assert space.rank_of_mask(m) == k


@pytest.mark.parametrize("r,q", [(r, 2) for r in range(7)] + [(r, 3) for r in range(6)])
def test_flats_of_rank_match_join_oracle(r, q):
    # fresh spaces, top level first, so that both halves of an untabled space
    # build their levels cold; a tabled one has read every level for its tables
    levels = flats_by_joins(PointSpace(r, q))
    space = PointSpace(r, q)
    assert space.flats_of_rank(r) == levels[r]
    # the top flat is dual to the empty flat, so it builds no dual hyperplanes
    if space.n > TABLE_POINT_CAP:
        assert space._duals is None
    for k in range(r - 1, -1, -1):
        assert space.flats_of_rank(k) == levels[k]


def test_flats_of_pg32_total():
    space = point_space(3, 2)
    total = sum(len(space.flats_of_rank(k)) for k in range(4))
    assert total == 1 + 7 + 7 + 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_components_match_brute(data):
    for space, cap in ((point_space(4, 2), 8), (point_space(5, 2), 7)):
        mask = data.draw(masks(space, max_size=cap))
        idxs = list(iter_bits(mask))
        got = sorted(tuple(iter_bits(b)) for b in space.components_mask(mask))
        assert got == brute_components(space, idxs)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_components_match_brute_gf3(data):
    for space, cap in ((point_space(3, 3), 6), (point_space(4, 3), 7)):
        mask = data.draw(masks(space, max_size=cap))
        idxs = list(iter_bits(mask))
        got = sorted(tuple(iter_bits(b)) for b in space.components_mask(mask))
        assert got == brute_components(space, idxs)


def test_components_line_plus_point():
    space = point_space(3, 2)
    line = space.flats_of_rank(2)[0]
    off = next(i for i in range(space.n) if not (line >> i) & 1)
    blocks = space.components_mask(line | (1 << off))
    assert sorted(bin(b).count("1") for b in blocks) == [1, 3]


# every tabled space, rank 0 and 1 included; fresh spaces, so that components_mask
# fills no memo of the shared ones
@pytest.mark.parametrize("r,q", [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (0, 3), (1, 3), (2, 3), (3, 3)])
def test_connected_table_matches_components(r, q):
    """The table read off complementary flat pairs against components_mask, on
    every mask: 1 exactly where the restriction has at most one component."""
    space = PointSpace(r, q)
    want = bytes(len(space.components_mask(m)) <= 1 for m in range(1 << space.n))
    assert space._connected_table == want


@pytest.mark.parametrize("r,q", [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (0, 3), (1, 3), (2, 3), (3, 3)])
def test_tables_match_join_oracle(r, q):
    """The closure and rank tables read off the flats against a join per mask,
    on every mask of every tabled space."""
    space = PointSpace(r, q)
    assert space.n <= TABLE_POINT_CAP
    cl, rk = tables_by_joins(space)
    assert space._closure_table == cl
    assert space._rank_table == rk


@pytest.mark.parametrize("r,q", [(4, 2), (3, 3), (3, 2), (2, 3)])
def test_connected_spanning_table_matches_components(r, q):
    space = PointSpace(r, q)
    want = bytes(space.rank_of_mask(m) == r and len(space.components_mask(m)) == 1
                 for m in range(1 << space.n))
    assert space.connected_spanning_table() == want


def test_point_space_has_no_cached_property():
    # A cached_property writes straight into the instance __dict__. On CPython
    # 3.11 the interpreter then builds that dict and drops its specialised path
    # for every later attribute load on the instance: a rank_of_mask +
    # closure_mask pair on PG(3,2) went from 180 to 340 ns (2 cores) once
    # hyperplane_incidence, then a cached_property, had been read.
    assert not [name for name, attr in vars(PointSpace).items()
                if isinstance(attr, functools.cached_property)]
    space = PointSpace(3, 2)
    names = list(vars(space))
    space.hyperplane_pairs(0), space.hyperplane_traces(1), space.is_connected_mask(3)
    space.connected_spanning_table()
    # the hyperplanes are the first level above rank r/2, ANDed from the dual list
    assert space._duals is not None
    assert list(vars(space)) == names


def test_is_connected_mask_returns_bool():
    """A bytearray entry is an int: the tabled path must still hand out a bool,
    which M.is_connected() and the CLI's connected filter pass on."""
    for space in (point_space(3, 2), point_space(5, 2)):
        line = space.flats_of_rank(2)[0]
        for mask in (0, 1, line, line | (1 << (line ^ space.full_mask).bit_length() - 1)):
            M = EmbeddedMatroid(space, mask)
            got = (space.is_connected_mask(mask), M.is_connected(), _FILTERS["connected"](M))
            assert [type(x) for x in got] == [bool] * 3
            assert len(set(got)) == 1


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_vertical_connectivity_matches_brute(data):
    space = point_space(3, 2)
    mask = data.draw(masks(space, max_size=7))
    idxs = list(iter_bits(mask))
    assert space.vertical_connectivity_mask(mask) == brute_vertical_connectivity(space, idxs)


def test_vertical_connectivity_known_values():
    space = point_space(3, 2)
    assert space.vertical_connectivity_mask(0) == 0
    assert space.vertical_connectivity_mask(space.full_mask) == 3
    triangle = space.flats_of_rank(2)[0]
    assert space.vertical_connectivity_mask(triangle) == 2
    e0, e1, e2 = (1 << space.index[p] for p in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert space.vertical_connectivity_mask(e0 | e1 | e2) == 1
    off = next(i for i in range(space.n) if not (triangle >> i) & 1)
    assert space.vertical_connectivity_mask(triangle | (1 << off)) == 1


def test_flat_embedding_preserves_rank():
    space = point_space(4, 2)
    for fmask in space.flats_of_rank(3)[:10]:
        sub, mapping = space.flat_embedding(fmask)
        assert sub.r == 3
        assert sorted(mapping.values()) == list(range(sub.n))
        members = tuple(iter_bits(fmask))
        for cut in range(1, len(members), 2):
            part = space.mask_of(members[:cut])
            image = space.translate_mask(part, mapping)
            assert space.rank_of_mask(part) == sub.rank_of_mask(image)


def test_flat_embedding_matches_elimination(monkeypatch):
    # every flat of PG(r-1, 2), r <= 6, and of PG(r-1, 3), r <= 5; over GF(3)
    # the flats of rank 3 and more need the scalars the walk tracks; and the
    # contraction map of every point of the same spaces, built from embeddings
    cases = {}
    contractions = {}
    for q, top in [(2, 6), (3, 5)]:
        for r in range(1, top + 1):
            space = point_space(r, q)
            flats = [f for k in range(r + 1) for f in space.flats_of_rank(k)]
            cases[r, q] = [(f, flat_embedding_by_elimination(space, f)) for f in flats]
            for fmask, want in cases[r, q]:
                assert space.flat_embedding(fmask) == want
            contractions[r, q] = [contraction_map_by_elimination(space, e) for e in range(space.n)]
            assert [space.contraction_map(e) for e in range(space.n)] == contractions[r, q]
    assert sum(map(len, cases.values())) == 6201
    assert sum(map(len, contractions.values())) == 299

    def no_elimination(self, vec):
        raise AssertionError("the geometry ran Gaussian elimination")

    # fresh spaces, so that no memo or filled row comes from the shared ones
    monkeypatch.setattr(linalg.Echelon, "insert", no_elimination)
    for (r, q), pairs in cases.items():
        space = PointSpace(r, q)
        for fmask, (want_sub, want_map) in pairs:
            sub, mapping = space.flat_embedding(fmask)
            assert sub is want_sub
            assert mapping == want_map
        space = PointSpace(r, q)
        for e, (want_sub, want_map) in enumerate(contractions[r, q]):
            sub, mapping = space.contraction_map(e)
            assert sub is want_sub
            assert mapping == want_map


@pytest.mark.parametrize("r,q", [(3, 2), (4, 2), (3, 3), (4, 3)])
def test_flat_embedding_rejects_non_flats(r, q):
    space = PointSpace(r, q)
    line = space.flats_of_rank(2)[0]
    # a line minus a point has no flat's size; a line with one point moved
    # off it has a line's size but spans a plane
    low = line & -line
    off = next(1 << i for i in range(space.n) if not (line >> i) & 1)
    for mask in (line ^ low, line ^ low | off):
        with pytest.raises(ValueError, match="not a flat"):
            space.flat_embedding(mask)
        assert mask not in space._embeddings
    assert space.flat_embedding(line) == flat_embedding_by_elimination(space, line)


@pytest.mark.parametrize("r,q", [(1, 2), (2, 3), (3, 2), (5, 2), (4, 3), (6, 2), (5, 3),
                                 (7, 2), (6, 3)])
def test_hyperplane_traces_match_embeddings(r, q):
    space = point_space(r, q)
    hyperplanes = space.flats_of_rank(r - 1)
    want = [[] for _ in range(space.n)]
    for h, hmask in enumerate(hyperplanes):
        for p, image in space.flat_embedding(hmask)[1].items():
            want[p].append((h, 1 << image))
    on_each = (q ** (r - 1) - 1) // (q - 1)
    for p in range(space.n):
        pairs = space.hyperplane_pairs(p)
        assert len(pairs) == on_each
        assert pairs == tuple(want[p])
    rng = random.Random(r * 10 + q)
    for m in [0, space.full_mask] + [rng.getrandbits(space.n) for _ in range(20)]:
        traces = space.hyperplane_traces(m)
        assert len(traces) == len(hyperplanes)
        for hmask, trace in zip(hyperplanes, traces):
            assert trace == space.translate_mask(m & hmask, space.flat_embedding(hmask)[1])


@pytest.mark.parametrize("r,q", [(3, 2), (3, 3)])
def test_contraction_map_fibers(r, q):
    space = point_space(r, q)
    for e in range(space.n):
        sub, mapping = space.contraction_map(e)
        assert sub.r == r - 1
        images = [m for i, m in enumerate(mapping) if i != e]
        assert mapping[e] is None
        assert set(images) == set(range(sub.n))
        for im in set(images):
            assert images.count(im) == q


def test_bits_match_iter_bits():
    """bits reads the low two bytes from tables and the rest from iter_bits; both
    give the set bits in increasing order, across each byte boundary."""
    rng = random.Random(28)
    edges = [0, 1, 255, 256, 2**16 - 1, 2**16, 2**16 + 1, 2**24 + 2**8, 2**130 - 1]
    for m in edges + [rng.getrandbits(rng.randint(1, 130)) for _ in range(2000)]:
        assert bits(m) == tuple(iter_bits(m)), m
        assert type(bits(m)) is tuple


def test_submasks_match_product():
    """The submasks built by doubling are the old product of per-point choices."""
    rng = random.Random(5)
    for m in [1, 2**14, 0b1011, 2**15 - 1] + [rng.getrandbits(15) or 1 for _ in range(40)]:
        want = [sum(c) for c in itertools.product(*((0, 1 << i) for i in iter_bits(m)))][1:]
        got = _submasks(m)
        assert len(got) == len(want) and sorted(got) == sorted(want), m
