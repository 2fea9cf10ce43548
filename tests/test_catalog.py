"""Tests for the construction catalog and its bundled matrices."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comatroid.canonical import canonical_key
from comatroid.catalog import (
    catalog_names,
    circuit,
    circuit_with_u24,
    four_hyperplane_family,
    graph_cycle_matroid,
    named,
    parallel_connection,
    two_sum,
)
from comatroid.errors import CatalogError, ResourceLimitError, SimplicityError
from comatroid.matroid import MatrixPresentation, embed
from comatroid.projective import iter_bits, popcount

from oracles import brute_circuits

K4_EDGES = tuple(itertools.combinations((1, 2, 3, 4), 2))


def label_set(m, mask):
    by_index = {i: name for name, i in m.labels}
    return {by_index[i] for i in m.elements if (mask >> i) & 1}


def connected_hyperplane_label_sets(m):
    return [label_set(m, h) for h in m.connected_hyperplanes()]


# ------------------------------------------------------------------ circuits


@given(k=st.integers(3, 7), q=st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_circuit_is_uniform_k_minus_1_k(k, q):
    m = embed(circuit(k, q))
    assert m.n == k
    assert m.rank == k - 1
    assert m.is_connected()
    assert brute_circuits(m.space, m.elements) == [m.elements]


def test_circuit_rejects_small_sizes():
    for k in (-1, 0, 1, 2):
        with pytest.raises(ValueError):
            circuit(k, 2)


# ------------------------------------------------------------- cycle matroids


def test_cycle_matroid_of_k4():
    for q in (2, 3):
        m = embed(graph_cycle_matroid(K4_EDGES, q))
        assert (m.n, m.rank) == (6, 3)
        assert m.is_connected()
        assert sum(len(c) == 3 for c in brute_circuits(m.space, m.elements)) == 4


def test_cycle_matroid_rejects_loops_and_parallel_edges():
    with pytest.raises(SimplicityError):
        graph_cycle_matroid([(1, 1)], 2)
    with pytest.raises(SimplicityError):
        graph_cycle_matroid([(1, 2), (2, 1)], 2)


def test_cycle_matroid_labels_follow_edges():
    pres = graph_cycle_matroid([("u", "v"), ("v", "w")], 2)
    assert pres.labels == ("uv", "vw")


# ---------------------------------------------------------------- connections


@given(
    a=st.integers(3, 5),
    b=st.integers(3, 5),
    q=st.sampled_from([2, 3]),
    pa=st.integers(0, 5),
    pb=st.integers(0, 5),
)
@settings(max_examples=25, deadline=None)
def test_two_sum_of_circuits_is_a_circuit(a, b, q, pa, pb):
    got = embed(two_sum(circuit(a, q), pa % a, circuit(b, q), pb % b))
    # a connected matroid of corank one is the circuit on its ground set
    assert got.n == a + b - 2
    assert got.rank == got.n - 1
    assert got.is_connected()


def test_two_sum_of_triangles_matches_four_circuit():
    for q in (2, 3):
        got = embed(two_sum(circuit(3, q), 1, circuit(3, q), 2))
        assert canonical_key(got) == canonical_key(embed(circuit(4, q)))


def test_connection_sizes_and_ranks():
    p = parallel_connection(circuit(4, 2), 0, circuit(3, 2), 0)
    assert (len(p.columns), embed(p).rank) == (6, 4)
    s = two_sum(circuit(4, 2), 0, circuit(3, 2), 0)
    assert (len(s.columns), embed(s).rank) == (5, 4)


def test_parallel_connection_of_triangles_is_k4_minus_edge():
    k4e = graph_cycle_matroid([(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)], 2)
    p = parallel_connection(circuit(3, 2), 0, circuit(3, 2), 0)
    assert canonical_key(embed(p)) == canonical_key(embed(k4e))


def test_connection_rejects_coloop_basepoint():
    free = MatrixPresentation(2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        parallel_connection(free, 0, circuit(3, 2), 0)
    with pytest.raises(ValueError):
        two_sum(circuit(3, 2), 0, free, 1)


def test_connection_rejects_mixed_fields():
    with pytest.raises(ValueError):
        parallel_connection(circuit(3, 2), 0, circuit(3, 3), 0)


def test_connection_resolves_labeled_basepoints():
    tri = graph_cycle_matroid([(1, 2), (2, 3), (1, 3)], 3)
    p = parallel_connection(tri, "12", tri, "23")
    m = embed(p)
    assert (m.n, m.rank) == (5, 3)
    with pytest.raises(ValueError):
        parallel_connection(tri, "99", tri, "12")


# ------------------------------------------------------- circuits with U(2,4)


@given(k=st.integers(3, 6), data=st.data())
@settings(max_examples=30, deadline=None)
def test_circuit_with_u24_size_and_rank(k, data):
    D = data.draw(st.sets(st.integers(0, k - 1), max_size=3))
    m = embed(circuit_with_u24(k, D))
    assert m.q == 3
    assert m.n == k + 2 * len(D)
    assert m.rank == k - 1 + len(D)
    assert m.is_connected()


def test_circuit_with_u24_empty_d_is_the_circuit():
    key = canonical_key(embed(circuit_with_u24(4, ())))
    assert key == canonical_key(embed(circuit(4, 3)))


def test_circuit_with_u24_rejects_bad_positions():
    with pytest.raises(ValueError):
        circuit_with_u24(4, {4})
    with pytest.raises(ValueError):
        circuit_with_u24(4, {-1})


def test_family_member_shares_signature_with_parallel_triangles():
    fam = embed(circuit_with_u24(3, {0}))
    par = embed(named("P(U23,U23)"))
    assert (fam.n, fam.rank) == (par.n, par.rank) == (5, 3)
    assert canonical_key(fam) != canonical_key(par)
    assert canonical_key(fam) == canonical_key(embed(named("U24+2U23")))


# -------------------------------------------------------------- named catalog


def test_catalog_names_all_build():
    for name in catalog_names():
        m = embed(named(name))
        assert m.n > 0


def test_catalog_sizes_and_ranks():
    expected = {
        "Delta5": (2, 13, 5),
        "T12/e": (2, 11, 5),
        "M5,12a": (2, 12, 5),
        "M5,12b": (2, 12, 5),
        "M5,13": (2, 13, 5),
        "K33": (2, 9, 5),
        "m2-1": (2, 12, 5),
        "m2-2": (2, 12, 5),
        "extra-1": (2, 12, 5),
        "extra-2": (2, 12, 5),
        "f77": (2, 13, 5),
        "F7": (2, 7, 3),
        "M(K4)": (3, 6, 3),
        "W3": (3, 6, 3),
        "AG(2,3)\\e": (3, 8, 3),
        "P(U34,U34)": (2, 7, 5),
        "P(U23,U23)": (3, 5, 3),
        "P(U24,U23)": (3, 6, 3),
        "U24+2U23": (3, 5, 3),
        "R6": (3, 6, 3),
        "P(F7,U23)": (2, 9, 4),
    }
    assert set(expected) == set(catalog_names())
    for name, (q, n, rank) in expected.items():
        m = embed(named(name))
        assert (m.q, m.n, m.rank) == (q, n, rank), name


def test_named_patterns_and_aliases():
    assert canonical_key(embed(named("PG(2,2)"))) == canonical_key(embed(named("F7")))
    assert canonical_key(embed(named("U(3,4)"))) == canonical_key(embed(circuit(4, 2)))
    assert canonical_key(embed(named("C(5,3)"))) == canonical_key(embed(circuit(5, 3)))
    assert canonical_key(embed(named("M(K3,3)"))) == canonical_key(embed(named("K33")))
    assert canonical_key(embed(named("U24+2U24"))) == canonical_key(embed(named("R6")))
    ag = embed(named("AG(2,3)"))
    assert (ag.q, ag.n, ag.rank) == (3, 9, 3)
    pg = embed(named("PG(3,2)"))
    assert (pg.n, pg.rank) == (15, 4)


def test_named_unknown_raises():
    with pytest.raises(CatalogError):
        named("no such matroid")
    with pytest.raises(CatalogError):
        named("U(3,9)")


def test_named_m_k4_matches_incidence_build():
    got = canonical_key(embed(named("M(K4)")))
    assert got == canonical_key(embed(graph_cycle_matroid(K4_EDGES, 3)))


def test_rank3_six_element_ternary_entries_are_distinct():
    names = ["R6", "M(K4)", "W3", "P(U24,U23)"]
    keys = {name: canonical_key(embed(named(name))) for name in names}
    assert len(set(keys.values())) == len(names)


def test_whirl_lines_differ_from_m_k4():
    w = embed(named("W3"))
    long_lines = [f for f in w.space.flats_of_rank(2) if popcount(f & w.green_mask) == 3]
    assert len(long_lines) == 3


# ------------------------------------------------- named hyperplane structure


def test_delta5_contains_named_connected_hyperplane():
    m = embed(named("Delta5"))
    assert {"e", "j", "k", "l", "m"} in connected_hyperplane_label_sets(m)


def test_t12e_contains_named_connected_hyperplane():
    m = embed(named("T12/e"))
    assert {"f", "g", "h", "i", "j"} in connected_hyperplane_label_sets(m)


def test_m5_12_pair_contains_named_connected_hyperplane():
    for name in ("M5,12a", "M5,12b"):
        m = embed(named(name))
        assert {"f", "g", "h", "i", "j", "l"} in connected_hyperplane_label_sets(m)


def test_m5_13_named_hyperplane_has_connected_rank4_complement():
    m = embed(named("M5,13"))
    want = {"a", "b", "d", "e", "f", "i", "j"}
    hits = [h for h in m.connected_hyperplanes() if label_set(m, h) == want]
    assert len(hits) == 1
    rest = m.restrict(iter_bits(hits[0]))
    comp = rest.complement()
    assert comp.rank == 4
    assert comp.is_connected()


def test_k33_has_six_connected_hyperplanes():
    m = embed(named("K33"))
    assert len(m.connected_hyperplanes()) == 6


def test_f77_has_27_connected_hyperplanes():
    m = embed(named("f77"))
    assert len(m.connected_hyperplanes()) == 27


def test_scan_seeds_extend_the_k33_columns():
    base = set(named("K33").columns)
    for name in ("m2-1", "m2-2", "extra-1", "extra-2", "f77"):
        assert base <= set(named(name).columns), name


# ------------------------------------------------------ structural identities


def test_p_u34_u34_is_six_cycle_with_chord():
    cyc = graph_cycle_matroid(
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)], 2)
    assert canonical_key(embed(cyc)) == canonical_key(embed(named("P(U34,U34)")))


def test_k23_complement_is_parallel_connection_of_fano_and_triangle():
    k23 = graph_cycle_matroid(
        [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)], 2)
    comp = embed(k23).complement()
    assert canonical_key(comp) == canonical_key(embed(named("P(F7,U23)")))


# --------------------------------------------------- four-hyperplane family


def test_four_hyperplane_family_small_members():
    for n in (1, 2):
        m = embed(four_hyperplane_family(n))
        assert m.n == 5 * n + 8
        assert m.rank == 2 * n + 3
        assert len(m.connected_hyperplanes()) == 4
        assert m.cocircuits_min_size() >= 4


def test_four_hyperplane_family_large_members_presentation_only():
    for n in (3, 4):
        pres = four_hyperplane_family(n)
        assert len(pres.columns) == 5 * n + 8


def test_four_hyperplane_family_bounds():
    with pytest.raises(ValueError):
        four_hyperplane_family(0)
    with pytest.raises(ResourceLimitError):
        four_hyperplane_family(5)
