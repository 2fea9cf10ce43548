"""Tests for the minimal census, the hyperplane scan, and coloring enumeration."""

import hashlib
import random
from collections import Counter

import pytest

from comatroid import census
from comatroid.canonical import canonical_key, orbit_of
from comatroid.catalog import circuit, circuit_with_u24, named
from comatroid.census import (
    enumerate_colorings,
    format_key,
    hyperplane_scan,
    minimal_non_comatroids,
)
from comatroid.decide import (
    decide_flat_criterion,
    decide_forbidden_flats,
    decide_recursive,
)
from comatroid.errors import ResourceLimitError
from comatroid.matroid import EmbeddedMatroid, embed
from comatroid.projective import PointSpace, iter_bits, point_space

from oracles import (
    CENSUS_TSV_SHA256,
    minimal_by_proper_flats,
    rank5_gluing_keys,
    scan_by_combinations,
)


def rebuild(space, cls):
    return EmbeddedMatroid(space, sum(1 << p for p in cls.members))


@pytest.fixture(scope="module")
def exhaustive():
    """The censuses of PG(4,2) and PG(3,3), the two that take seconds."""
    return {rq: minimal_non_comatroids(*rq) for rq in ((5, 2), (4, 3))}


def test_binary_rank4_census_shape():
    rep = minimal_non_comatroids(4, 2)
    assert rep.scanned == 2555
    assert len(rep.classes) == 12
    assert len({c.key for c in rep.classes}) == 12
    small = [c for c in rep.classes if c.size <= 7]
    assert sorted(c.size for c in small) == [5, 6, 6, 7, 7, 7]
    labels = {c.label for c in small}
    assert "M(C5)" in labels and "M(K2,3)" in labels
    assert all(c.label.startswith("M(") for c in small)
    assert all(c.rank == 4 for c in rep.classes)


def test_binary_rank4_census_complement_pairs():
    rep = minimal_non_comatroids(4, 2)
    space = point_space(4, 2)
    keys = {c.key for c in rep.classes}
    pairs = set()
    for c in rep.classes:
        ckey = canonical_key(rebuild(space, c).complement())
        assert ckey in keys
        pairs.add(frozenset((c.key, ckey)))
    assert len(pairs) == 6


def test_binary_rank4_census_members_are_minimal():
    rep = minimal_non_comatroids(4, 2)
    space = point_space(4, 2)
    for c in rep.classes:
        m = rebuild(space, c)
        for decide in (decide_recursive, decide_flat_criterion,
                       decide_forbidden_flats):
            assert not decide(m).is_comatroid
        # every proper flat of a rank-4 member is its trace on a proper flat of PG(3,2)
        proper = {f & m.green_mask for k in range(space.r) for f in space.flats_of_rank(k)}
        for x in proper:
            assert decide_flat_criterion(EmbeddedMatroid(space, x)).is_comatroid


def test_census_membership_matches_definition(exhaustive):
    """A spanning set next to a small census class, one point swapped, and
    its complement are minimal by deciding every proper flat restriction iff
    the set's class is in the census."""
    for (r, q), seed in (((5, 2), 71), ((4, 3), 72)):
        space = point_space(r, q)
        classes = exhaustive[(r, q)].classes
        keys = {c.key for c in classes}
        rng = random.Random(seed)
        found = Counter()
        for c in classes:
            if 2 * c.size > space.n:
                continue
            outside = [p for p in range(space.n) if p not in c.members]
            for _ in range(15):
                green = space.mask_of(c.members) ^ (1 << rng.choice(c.members))
                green |= 1 << rng.choice(outside)
                if space.rank_of_mask(green) != r:
                    continue
                inside = canonical_key(EmbeddedMatroid(space, green)) in keys
                assert minimal_by_proper_flats(space, green) == inside
                assert minimal_by_proper_flats(space, space.full_mask ^ green) == inside
                found[inside] += 1
        assert found[True] > 0 and found[False] > 10, (r, q, found)


def test_exhaustive_census_members_are_minimal(exhaustive):
    for (r, q), rep in exhaustive.items():
        space = point_space(r, q)
        for c in rep.classes:
            assert c.rank == r
            assert minimal_by_proper_flats(space, space.mask_of(c.members)), (r, q, c.size)


def test_ternary_rank3_census():
    rep = minimal_non_comatroids(3, 3)
    assert rep.scanned == 3069
    assert len(rep.classes) == 14
    named_half = [c for c in rep.classes if not c.label.startswith("complement")]
    assert sorted(c.label for c in named_half) == sorted(
        ("U(3,4)", "P(U23,U23)", "U24+2U23", "U24+2U24",
         "P(U24,U23)", "M(K4)", "W3"))
    assert all(c.label for c in rep.classes)
    space = point_space(3, 3)
    keys = {c.key for c in rep.classes}
    for c in rep.classes:
        assert canonical_key(rebuild(space, c).complement()) in keys


def test_census_orbits_cover_every_minimal_mask():
    # the full-rank minimal masks that a scan of every coloring finds
    for (r, q), count in (((4, 2), 15456), ((3, 3), 6240)):
        space = point_space(r, q)
        seen = bytearray(1 << space.n)
        rep = minimal_non_comatroids(r, q)
        assert sum(len(orbit_of(space, space.mask_of(c.members), seen))
                   for c in rep.classes) == count


def test_binary_rank3_census_empty():
    rep = minimal_non_comatroids(3, 2)
    assert rep.classes == ()


def test_ternary_rank4_census(exhaustive):
    rep = exhaustive[(4, 3)]
    assert rep.scanned == 824056
    assert [c.size for c in rep.classes] == [5, 6, 7, 33, 34, 35]
    family = {canonical_key(embed(circuit_with_u24(k, range(d)))): (k, d)
              for k, d in ((5, 0), (4, 1), (3, 2))}
    small, large = rep.classes[:3], rep.classes[3:]
    assert {c.key for c in small} == set(family)
    for c in small:
        k, d = family[c.key]
        assert c.label == f"circuit with U(2,4) family (k={k}, d={d})"
    assert [c.label for c in large] == [f"complement of {c.label}" for c in reversed(small)]


def test_unsupported_census_parameters():
    for r, q in ((6, 2), (5, 3), (3, 5), (2, 2)):
        with pytest.raises(ValueError, match=r"\(r, q\) in .*\(5, 2\)"):
            minimal_non_comatroids(r, q)


def test_census_determinism(exhaustive):
    a = minimal_non_comatroids(3, 3)
    b = minimal_non_comatroids(3, 3)
    assert a.to_tsv() == b.to_tsv()
    assert a == b
    for (r, q), digest in CENSUS_TSV_SHA256.items():
        rep = exhaustive[(r, q)] if (r, q) in exhaustive else minimal_non_comatroids(r, q)
        tsv = rep.to_tsv()
        assert hashlib.sha256(tsv.encode()).hexdigest() == digest, (r, q)


def test_tsv_shape(exhaustive):
    rep = exhaustive[(4, 3)]
    lines = rep.to_tsv().strip().split("\n")
    assert lines[0] == "key\tsize\trank\tlabel\tmembers"
    assert len(lines) == 7
    for line in lines[1:]:
        key, size, rank, label, members = line.split("\t")
        assert key.startswith("3:4:")
        assert int(size) == len(members.split(","))


def test_format_key():
    assert format_key(None) == "-"
    assert format_key((2, 4, 255)) == "2:4:ff"


def test_f77_scan_records_seed_counts():
    scan = hyperplane_scan(embed(named("f77")), 0)
    assert scan.seed_i == 27
    assert scan.seed_j is None
    assert scan.survivors == ()
    assert scan.scanned == 1
    assert scan.j_computed == 0
    # the seed record is read off the scan tables; it must match a direct count
    m = embed(named("m2-1")).to_span()
    scan = hyperplane_scan(m, 0)
    assert (scan.seed_i, scan.seed_j) == (16, 30)
    assert scan.seed_i == len(m.connected_hyperplanes())
    assert scan.seed_j == len(m.complement().connected_hyperplanes())
    assert scan.scanned == 1
    assert scan.j_computed == 1


def test_seed_scan_small_depth():
    scan = hyperplane_scan(embed(named("m2-1")), 4)
    assert scan.scanned == sum(
        _binom(19, s) for s in range(5))
    assert scan.survivors == ()
    # the two-stage short-circuit: j only ever computed after i passes
    assert 0 < scan.j_computed < scan.scanned


def _binom(n, k):
    import math

    return math.comb(n, k)


# j_computed at max_extra=6, taken from the scan before the depth-first search
SCAN_J_COMPUTED_DEPTH6 = {"m2-1": 2398, "m2-2": 3596, "extra-1": 3746, "extra-2": 2713}


def test_scan_seeds_pinned_counts():
    assert tuple(SCAN_J_COMPUTED_DEPTH6) == census.SCAN_SEEDS
    for name, j_computed in SCAN_J_COMPUTED_DEPTH6.items():
        scan = hyperplane_scan(embed(named(name)), 6)
        assert scan.scanned == sum(_binom(19, s) for s in range(7)), name
        assert scan.survivors == (), name
        assert scan.j_computed == j_computed, name


def test_scan_counts_match_direct_counts(monkeypatch):
    """With both bounds out of reach every extension survives, so each (i, j)
    the tables give can be checked against a count on the extension itself."""
    monkeypatch.setattr(census, "GREEN_HYPERPLANE_BOUND", 32)
    monkeypatch.setattr(census, "TOTAL_HYPERPLANE_BOUND", 63)
    for name, expected in (("m2-1", 191), ("f77", 172)):
        m = embed(named(name)).to_span()
        scan = hyperplane_scan(m, 2)
        assert scan.scanned == scan.j_computed == len(scan.survivors) == expected
        for extra, i, j in scan.survivors:
            ext = EmbeddedMatroid(m.space, m.green_mask | m.space.mask_of(extra))
            assert i == len(ext.connected_hyperplanes()), (name, extra)
            assert j == len(ext.complement().connected_hyperplanes()), (name, extra)


def test_connected_spanning_is_monotone():
    """Adding a point never disconnects or unspans a connected spanning set,
    the premise that lets the scan skip every subtree whose green count
    reached the bound. Checked on every mask of PG(3,2), the space each
    hyperplane trace of the scan lives in, and of PG(2,3)."""
    for r, q in ((4, 2), (3, 3)):
        space = point_space(r, q)
        good = bytearray(space.rank_of_mask(x) == r and space.is_connected_mask(x)
                         for x in range(1 << space.n))
        for x in range(1 << space.n):
            if good[x]:
                for p in range(space.n):
                    assert good[x | (1 << p)], (space, x, p)


def test_scan_fills_no_components_memo(monkeypatch):
    """The scan takes PG(3,2)'s connected and spanning table whole, and the
    space's build reads its connected table off the flats, so no trace goes
    through components_mask: filled one trace at a time, the table left 6,570
    entries in its memo on m2-1."""
    assert PointSpace(4, 2)._components_memo == {}
    hs = point_space(4, 2)
    monkeypatch.setattr(hs, "_components_memo", {})
    scan = hyperplane_scan(embed(named("m2-1")), 10)
    assert scan.scanned == 354522
    assert hs._components_memo == {}


def test_pruned_scan_matches_combinations(monkeypatch):
    """scanned, j_computed and the survivors must match a walk over every
    extension. At the default bounds f77's seed is already past the green
    bound, so its whole scan is one closed-form count at the root. With the
    bounds raised, some extensions survive and some subtrees are still
    skipped, and the search must be called fewer times than there are
    extensions."""
    for name, depths in (("extra-1", (0, 1, 3)), ("f77", (0, 1, 3)), ("m2-1", (6,))):
        seed = embed(named(name))
        for max_extra in depths:
            scan = hyperplane_scan(seed, max_extra)
            assert (scan.scanned, scan.j_computed, scan.survivors) == (
                scan_by_combinations(seed, max_extra)), (name, max_extra)
    monkeypatch.setattr(census, "GREEN_HYPERPLANE_BOUND", 29)
    monkeypatch.setattr(census, "TOTAL_HYPERPLANE_BOUND", 44)
    descend = census._descend
    calls = [0]

    def counting_descend(*args):
        calls[0] += 1
        return descend(*args)

    monkeypatch.setattr(census, "_descend", counting_descend)
    for name in ("m2-1", "extra-1"):
        seed = embed(named(name))
        scanned, j_computed, survivors = scan_by_combinations(seed, 6)
        assert survivors and j_computed < scanned, name
        calls[0] = 0
        scan = hyperplane_scan(seed, 6)
        assert (scan.scanned, scan.j_computed, scan.survivors) == (
            scanned, j_computed, survivors), name
        assert calls[0] < scan.scanned, name


def test_green_side_off_a_hyperplane_never_needs_j():
    """Holding the 16 points off a hyperplane H makes every other hyperplane's
    green trace an AG(3,2) plus points of its span, so i >= 30 and the scan
    never computes j for an extension whose red side lies inside H."""
    space = point_space(5, 2)
    rng = random.Random(4)
    for hmask in space.flats_of_rank(4):
        inside = list(iter_bits(hmask))
        off = space.full_mask ^ hmask
        greens = [off] + [off | space.mask_of(rng.sample(inside, rng.randint(1, 14)))
                          for _ in range(3)]
        for green in greens:
            count = len(EmbeddedMatroid(space, green).connected_hyperplanes())
            assert count >= 30 > census.GREEN_HYPERPLANE_BOUND


def test_scan_rejects_bad_seed():
    with pytest.raises(ValueError):
        hyperplane_scan(embed(circuit(4, 2)), 2)
    with pytest.raises(ValueError):
        hyperplane_scan(embed(named("f77")), 30)
    with pytest.raises(ValueError):
        hyperplane_scan(embed(named("m2-1")), -1)


def test_rank5_cross_check(exhaustive):
    rep = exhaustive[(5, 2)]
    assert rep.scanned == 192438
    assert [c.size for c in rep.classes] == [6, 7, 24, 25]
    assert [c.label for c in rep.classes] == [
        "C(6,2)", "P(U34,U34)", "complement of P(U34,U34)", "complement of C(6,2)"]
    keys = {c.key for c in rep.classes}
    glued = rank5_gluing_keys()
    assert len(glued) == 2 and glued <= keys
    named_sides = [embed(circuit(6, 2)), embed(named("P(U34,U34)"))]
    assert {canonical_key(m) for m in named_sides} == glued
    assert {canonical_key(m.complement()) for m in named_sides} == keys - glued


def test_rank5_census_orbits_hold_every_minimal_coloring(exhaustive):
    # twice the 152,768 minimal colorings with point 0 green that a search
    # with no symmetry reduction found; a coloring or its complement has it
    space = point_space(5, 2)
    seen = Counter()
    assert sum(len(orbit_of(space, space.mask_of(c.members), seen))
               for c in exhaustive[(5, 2)].classes) == 305536


def test_enumerate_no_rank3_binary_split():
    # no coloring of the rank-3 binary space has both sides connected spanning
    space = point_space(3, 2)
    rep = enumerate_colorings(
        space,
        lambda m: (m.rank == 3 and m.is_connected()
                   and space.rank_of_mask(space.full_mask & ~m.green_mask) == 3
                   and space.is_connected_mask(space.full_mask & ~m.green_mask)),
        dedup=False)
    assert rep.classes == ()
    assert rep.scanned == 128


def test_enumerate_large_green_sets_connected():
    # nine or more points of the rank-4 binary space force a connected
    # spanning restriction
    space = point_space(4, 2)
    rep = enumerate_colorings(
        space,
        lambda m: m.n >= 9 and (m.rank < 4 or not m.is_connected()),
        dedup=False)
    assert rep.classes == ()


def test_enumerate_dedup_and_sampling():
    space = point_space(3, 2)
    rep = enumerate_colorings(space, lambda m: m.n == 1, dedup=True)
    assert len(rep.classes) == 1
    raw = enumerate_colorings(space, lambda m: m.n == 1, dedup=False)
    assert len(raw.classes) == 7
    assert all(c.key is None for c in raw.classes)

    big = point_space(5, 2)
    with pytest.raises(ResourceLimitError):
        enumerate_colorings(big, lambda m: True, dedup=False)
    a = enumerate_colorings(big, lambda m: m.n <= 3, dedup=False,
                            samples=500, seed=9)
    b = enumerate_colorings(big, lambda m: m.n <= 3, dedup=False,
                            samples=500, seed=9)
    assert a.classes == b.classes


def test_negative_samples_rejected():
    # a negative count drew no coloring and reported an empty sample as a result
    with pytest.raises(ValueError, match="samples must be at least 0, got -5"):
        enumerate_colorings(point_space(3, 2), lambda m: True, dedup=False, samples=-5)
    assert enumerate_colorings(point_space(3, 2), lambda m: True, dedup=False,
                               samples=0).scanned == 0


def test_dedup_capped_on_large_spaces():
    # an orbit walk in PG(4,2) can visit about ten million masks
    with pytest.raises(ResourceLimitError, match="deduplication capped"):
        enumerate_colorings(point_space(5, 2), lambda m: True, dedup=True,
                            samples=10)
