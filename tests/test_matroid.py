"""Tests for embedded matroid operations, pinned against brute-force oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comatroid.errors import ResourceLimitError, SimplicityError
from comatroid.matroid import BRUTE_FORCE_CAP, EmbeddedMatroid, MatrixPresentation, embed
from comatroid.projective import point_space, popcount

from oracles import (
    brute_cocircuit_min_size,
    brute_rank,
    brute_series_classes,
)

K33_COLUMNS = (
    (1, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 1),
    (0, 1, 0, 1, 0, 0),
    (0, 1, 0, 0, 1, 0),
    (0, 1, 0, 0, 0, 1),
    (0, 0, 1, 1, 0, 0),
    (0, 0, 1, 0, 1, 0),
    (0, 0, 1, 0, 0, 1),
)

K23_COLUMNS = (
    (1, 0, 1, 0, 0),
    (1, 0, 0, 1, 0),
    (1, 0, 0, 0, 1),
    (0, 1, 1, 0, 0),
    (0, 1, 0, 1, 0),
    (0, 1, 0, 0, 1),
)


def circuit_presentation(k, q=2):
    cols = []
    for i in range(k - 1):
        cols.append(tuple(1 if j == i else 0 for j in range(k - 1)))
    cols.append(tuple((q - 1) % q for _ in range(k - 1)))
    return MatrixPresentation(q, tuple(cols))


def parallel_u34_u34():
    """Two 4-circuits glued at a shared basepoint, as an explicit rank-5 matrix."""
    p = (1, 0, 0, 0, 0)
    x2 = (0, 1, 0, 0, 0)
    x3 = (0, 0, 1, 0, 0)
    x4 = (1, 1, 1, 0, 0)
    y2 = (0, 0, 0, 1, 0)
    y3 = (0, 0, 0, 0, 1)
    y4 = (1, 0, 0, 1, 1)
    return MatrixPresentation(
        2, (p, x2, x3, x4, y2, y3, y4), labels=("p", "x2", "x3", "x4", "y2", "y3", "y4")
    )


def full_geometry(r, q):
    space = point_space(r, q)
    return EmbeddedMatroid(space, space.full_mask)


def test_embed_identity():
    m = embed(MatrixPresentation(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert m.space.r == 3
    assert m.n == 3
    assert m.rank == 3


def test_embed_k33():
    m = embed(MatrixPresentation(2, K33_COLUMNS))
    assert m.space.r == 5
    assert m.n == 9
    assert m.rank == 5


def test_embed_rejects_bad_columns():
    with pytest.raises(SimplicityError):
        embed(MatrixPresentation(2, ((1, 0), (0, 0))))
    with pytest.raises(SimplicityError):
        embed(MatrixPresentation(3, ((1, 2), (2, 1))))
    with pytest.raises(ValueError):
        MatrixPresentation(2, ((1, 0), (0, 1, 1)))


def test_rank_examples():
    m = embed(circuit_presentation(5))
    assert m.rank == 4
    assert m.n == 5


def test_components_examples():
    m = embed(MatrixPresentation(2, ((1, 0), (0, 1))))
    assert len(m.components_of()) == 2
    geometry = full_geometry(3, 2)
    line = geometry.space.flats_of_rank(2)[0]
    assert len(EmbeddedMatroid(geometry.space, line).components_of()) == 1


def test_components_line_plus_point():
    space = point_space(3, 2)
    line = space.flats_of_rank(2)[0]
    off = next(i for i in range(space.n) if not (line >> i) & 1)
    m = EmbeddedMatroid(space, line | (1 << off))
    sizes = sorted(len(b) for b in m.components_of())
    assert sizes == [1, 3]
    red = EmbeddedMatroid(space, m.red_mask)
    assert red.rank == 3 and red.n == 3
    assert len(red.components_of()) == 3


def test_vertical_connectivity_exceptional_pair():
    space = point_space(3, 2)
    line = space.flats_of_rank(2)[0]
    off = next(i for i in range(space.n) if not (line >> i) & 1)
    g = EmbeddedMatroid(space, line | (1 << off))
    r = EmbeddedMatroid(space, g.red_mask)
    assert g.vertical_connectivity() + r.vertical_connectivity() == 2
    assert full_geometry(3, 2).vertical_connectivity() == 3


def test_vertical_connectivity_cap():
    space = point_space(5, 2)
    assert EmbeddedMatroid(space, (1 << BRUTE_FORCE_CAP) - 1).vertical_connectivity() >= 1
    with pytest.raises(ResourceLimitError, match="capped at 16 elements, got 17"):
        EmbeddedMatroid(space, (1 << 17) - 1).vertical_connectivity()


def test_cocircuits_min_size_examples():
    triangle = embed(circuit_presentation(3))
    assert triangle.cocircuits_min_size() == 2
    k33 = embed(MatrixPresentation(2, K33_COLUMNS))
    assert k33.cocircuits_min_size() == 3
    assert full_geometry(3, 2).cocircuits_min_size() == 4
    assert k33.cocircuits_min_size() == brute_cocircuit_min_size(k33.space, k33.elements)


def test_series_classes_examples():
    c5 = embed(circuit_presentation(5))
    assert [len(b) for b in c5.series_classes()] == [5]
    geometry = full_geometry(3, 2)
    assert [len(b) for b in geometry.series_classes()] == [1] * 7
    m = embed(parallel_u34_u34())
    got = m.series_classes()
    assert sorted(len(b) for b in got) == [1, 3, 3]
    assert sorted(got) == brute_series_classes(m.space, m.elements)
    basepoint = m.label_to_index["p"]
    assert (basepoint,) in got


def test_complement_of_empty_is_geometry():
    empty = EmbeddedMatroid(point_space(0, 2), 0)
    full = empty.complement(3)
    assert full.space.r == 3
    assert full.green_mask == full.space.full_mask


def test_complement_k23():
    m = embed(MatrixPresentation(2, K23_COLUMNS))
    assert m.rank == 4
    c = m.complement(4)
    assert c.space.r == 4
    assert c.n == 15 - 6


@settings(max_examples=60, deadline=None)
@given(mask=st.integers(1, (1 << 7) - 1))
def test_complement_involution_when_ranks_agree(mask):
    space = point_space(3, 2)
    m = EmbeddedMatroid(space, mask)
    c = m.complement(m.rank)
    if c.rank != m.rank:
        return
    assert c.complement(c.rank).green_mask == m.to_span().green_mask


def test_complement_rank_guard():
    m = embed(circuit_presentation(4))
    with pytest.raises(ValueError):
        m.complement(2)


def test_direct_sum_examples():
    u11 = embed(MatrixPresentation(2, ((1,),)))
    two = u11.direct_sum(u11)
    assert two.n == 2 and two.rank == 2
    triangle = embed(circuit_presentation(3))
    m = triangle.direct_sum(u11)
    assert m.space.r == 3 and m.n == 4 and m.rank == 3
    assert sorted(len(b) for b in m.components_of()) == [1, 3]
    fano_plus = full_geometry(3, 2).direct_sum(u11)
    assert fano_plus.n == 8 and fano_plus.rank == 4
    assert len(fano_plus.components_of()) == 2


def test_direct_sum_rejects_mixed_fields():
    with pytest.raises(ValueError):
        embed(MatrixPresentation(2, ((1,),))).direct_sum(embed(MatrixPresentation(3, ((1,),))))


def test_si_contract_circuit():
    c4 = embed(circuit_presentation(4))
    got = c4.si_contract(c4.elements[0])
    assert got.space.r == 2
    assert got.n == 3
    assert got.rank == 2
    assert got.green_mask == got.space.full_mask


def test_si_contract_geometry():
    g = full_geometry(3, 2)
    got = g.si_contract(0)
    assert got.space.r == 2
    assert got.green_mask == got.space.full_mask
    g3 = full_geometry(3, 3)
    got3 = g3.si_contract(5)
    assert got3.space.r == 2
    assert got3.green_mask == got3.space.full_mask


def test_si_contract_non_spanning_input():
    space = point_space(3, 2)
    line = space.flats_of_rank(2)[0]
    m = EmbeddedMatroid(space, line)
    got = m.si_contract(m.elements[0])
    assert got.space.r == 1 and got.n == 1


def test_si_contract_rank_one():
    m = embed(MatrixPresentation(2, ((1,),)))
    got = m.si_contract(m.elements[0])
    assert got.space.r == 0 and got.n == 0


def test_connected_hyperplanes_simple_cases():
    geometry = full_geometry(3, 2)
    assert len(geometry.connected_hyperplanes()) == 7
    c5 = embed(circuit_presentation(5))
    assert c5.connected_hyperplanes() == ()
    k33 = embed(MatrixPresentation(2, K33_COLUMNS))
    assert len(k33.connected_hyperplanes()) == 6


def test_labels_survive_embedding():
    m = embed(parallel_u34_u34())
    assert set(m.label_to_index) == {"p", "x2", "x3", "x4", "y2", "y3", "y4"}
    mask = m.mask_of_labels(["p", "x2", "x3", "x4"])
    assert m.space.rank_of_mask(mask) == 3


@settings(max_examples=40, deadline=None)
@given(mask=st.integers(1, (1 << 13) - 1))
def test_rank_against_oracle_gf3(mask):
    space = point_space(3, 3)
    if popcount(mask) > 6:
        return
    m = EmbeddedMatroid(space, mask)
    assert m.rank == brute_rank(space, m.elements)
