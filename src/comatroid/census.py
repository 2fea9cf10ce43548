"""Exhaustive and targeted searches over green colorings of small geometries.

The minimal census finds the non-comatroids whose restrictions to proper flats
are all comatroids: it walks the coloring orbits of PG(2,2), PG(3,2) or
PG(2,3) once each and scans the flats of each orbit's least mask once, for
the full space as its only flat that violates the flat criterion.
The hyperplane scan runs the extension algorithm over a rank-5 binary seed;
the coloring enumerator underpins the exhaustive property checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .canonical import canonical_key, orbit_of
from .catalog import (
    FIVE_VERTEX_GRAPHS,
    TERNARY_RANK3_MINIMAL,
    circuit,
    circuit_with_u24,
    graph_cycle_matroid,
    named,
    parallel_connection,
    two_sum,
)
from .decide import _violating_flats
from .errors import ResourceLimitError
from .matroid import EmbeddedMatroid, MatrixPresentation, embed
from .projective import TABLE_POINT_CAP, PointSpace, iter_bits, point_space, popcount

# Catalog seeds of the rank-5 binary hyperplane scan.
SCAN_SEEDS = ("m2-1", "m2-2", "extra-1", "extra-2")


@dataclass(frozen=True)
class CensusClass:
    """One isomorphism class: key, a representative green set, and a label."""

    key: tuple
    members: tuple[int, ...]
    size: int
    rank: int
    label: str


@dataclass(frozen=True)
class CensusReport:
    """Classes found by a census, with scan statistics."""

    q: int
    r: int
    description: str
    classes: tuple[CensusClass, ...]
    scanned: int
    seconds: float = field(compare=False)

    def to_tsv(self) -> str:
        """Deterministic tab-separated table, one row per class."""
        lines = ["key\tsize\trank\tlabel\tmembers"]
        for c in self.classes:
            lines.append("\t".join((
                format_key(c.key),
                str(c.size),
                str(c.rank),
                c.label or "-",
                ",".join(map(str, c.members)),
            )))
        return "\n".join(lines) + "\n"


def format_key(key: tuple | None) -> str:
    if key is None:
        return "-"
    q, r, mask = key
    return f"{q}:{r}:{mask:x}"


# ------------------------------------------------------------ minimal census

def _is_minimal_non_comatroid(space: PointSpace, green: int) -> bool:
    """Not a comatroid, yet every restriction to a proper flat is one.

    For green spanning space this holds iff the full space is green's only
    violating flat, the only flat F at which r(F ∩ G) = r(F − G) with both
    sides connected. Such an F is spanned by its green part: the points of F
    off a proper subspace of F span F, so if either side had rank below r(F)
    the other would have rank r(F). A restriction to a proper flat is a
    comatroid iff no violating flat lies in its span, since the condition at
    a flat reads only that flat's coloring. So a violating F below the full
    space makes the restriction to F, which spans F, fail at its own top flat;
    and if the full space is the only violating flat, green fails and no
    proper restriction does. No flat below FLAT_VIOLATION_FLOOR violates, so
    _violating_flats, which starts there, yields every violating flat.
    """
    flats = _violating_flats(space, green)
    return next(flats, None) == space.full_mask and next(flats, None) is None


def _exhaustive_minimal(r: int, q: int) -> tuple[list[int], int]:
    """Orbit-least masks of full-rank minimal non-comatroids, and colorings scanned.

    Rank and minimality do not change under a linear map, so each orbit is
    decided once, at its least mask: masks are met in increasing order, and
    orbit_of walks an orbit there and gives nothing for its other masks.
    """
    space = point_space(r, q)
    seen = bytearray(1 << space.n)
    out = [green for green in range(1 << space.n)
           if orbit_of(space, green, seen)
           and space.rank_of_mask(green) == r
           and _is_minimal_non_comatroid(space, green)]
    return out, 1 << space.n


def _dedup_classes(space: PointSpace, masks, labeler) -> tuple[CensusClass, ...]:
    # Classes are grouped by walking generator orbits, and canonical_key runs
    # once per class, on the least hit of its orbit, not once per hit: a
    # coloring filter can pass every mask of an orbit, and a cold canonical
    # key costs milliseconds.
    seen = bytearray(1 << space.n)
    classes = []
    for green in sorted(masks):
        if not orbit_of(space, green, seen):
            continue
        key = canonical_key(EmbeddedMatroid(space, green))
        size = popcount(green)
        rank = space.rank_of_mask(green)
        classes.append(CensusClass(
            key, tuple(iter_bits(green)), size, rank, labeler(key, green)))
    classes.sort(key=lambda c: (c.size, c.key))
    return tuple(classes)


def _class_names(labelled) -> dict[tuple, str]:
    """Labels by class key for (label, matroid) pairs, each complement included.

    A complement takes the label "complement of <label>" unless its class
    carries a label of its own.
    """
    out = {}
    for label, m in labelled:
        out[canonical_key(m)] = label
        out.setdefault(canonical_key(m.complement()), f"complement of {label}")
    return out


def minimal_non_comatroids(r: int, q: int) -> CensusReport:
    """Classify minimal non-comatroids of rank r over GF(q), up to equivalence."""
    t0 = time.perf_counter()
    if (q, r) in ((2, 3), (2, 4), (3, 3)):
        if q == 2:
            labelled = ((name, embed(graph_cycle_matroid(edges, 2)))
                        for name, edges in FIVE_VERTEX_GRAPHS.items())
        else:
            labelled = ((label, embed(named(name)))
                        for label, name in TERNARY_RANK3_MINIMAL.items())
        names = _class_names(labelled)
        masks, scanned = _exhaustive_minimal(r, q)
        classes = _dedup_classes(point_space(r, q), masks,
                                 lambda key, green: names.get(key, ""))
        return CensusReport(q, r, "minimal non-comatroids, exhaustive",
                            classes, scanned, time.perf_counter() - t0)
    if (q, r) == (3, 4):
        return _restricted_ternary_rank4(t0)
    raise ValueError(f"census supports (q,r) in (2,3), (2,4), (3,3), (3,4); got ({q},{r})")


def _restricted_ternary_rank4(t0: float) -> CensusReport:
    """Rank-4 ternary scan over the circuit-with-U(2,4) family members only."""
    classes = []
    scanned = 0
    for k, d in ((5, 0), (4, 1), (3, 2)):
        m = embed(circuit_with_u24(k, range(d))).to_span()
        scanned += 1
        if not _is_minimal_non_comatroid(m.space, m.green_mask):
            continue
        key = canonical_key(m)
        label = f"circuit with U(2,4) family (k={k}, d={d})"
        classes.append(CensusClass(
            key, tuple(iter_bits(m.green_mask)), m.n, m.rank, label))
    classes.sort(key=lambda c: (c.size, c.key))
    return CensusReport(3, 4, "minimal non-comatroids, family-restricted",
                        tuple(classes), scanned, time.perf_counter() - t0)


# ------------------------------------------------------------ hyperplane scan

GREEN_HYPERPLANE_BOUND = 26
TOTAL_HYPERPLANE_BOUND = 32


@dataclass(frozen=True)
class ExtensionScan:
    """Survivors of the two-threshold hyperplane count over seed extensions."""

    seed_members: tuple[int, ...]
    max_extra: int
    seed_i: int
    seed_j: int | None
    survivors: tuple[tuple[tuple[int, ...], int, int], ...]
    scanned: int
    j_computed: int

    def to_tsv(self) -> str:
        lines = ["extra\ti\tj"]
        for extra, i, j in self.survivors:
            lines.append("\t".join((",".join(map(str, extra)) or "-",
                                    str(i), str(j))))
        return "\n".join(lines) + "\n"


def _connected_spanning(hs: PointSpace, cs: bytearray, x: int) -> bool:
    """Fill entry x of the scan table: 1 if x is connected and spans hs."""
    got = cs[x] = hs.rank_of_mask(x) == hs.r and hs.is_connected_mask(x)
    return got


@lru_cache(maxsize=None)
def _subtree_size(points: int, budget: int) -> int:
    """Nodes of a search subtree: its root plus each way to add at most budget
    of the given number of later spare points."""
    return sum(math.comb(points, d) for d in range(budget + 1))


def _descend(steps, hs: PointSpace, cs: bytearray, spare: int, start: int,
             budget: int, smask: int, idx: list[int], i: int, found: list) -> None:
    """Record extension smask, then those adding up to budget more spare points.

    Points are added in increasing order, numbered start or more. idx holds
    smask's green trace on each hyperplane as a mask of hs, the PG(3,2) every
    hyperplane re-embeds onto, and i its green count; cs is the scan table
    over hs's masks, 2 marking an entry not yet filled, and every entry of idx
    is filled. A child ORs its point's bit into the traces of that point's
    hyperplanes, on its own copy of idx, filling each new trace's entry, and
    moves i by the change of each entry, so returning leaves the parent's
    state as it was. found collects [scanned, j_computed, survivors].

    The red side's trace on a hyperplane is the rest of it, hs.full_mask ^ x
    for green trace x, so j is read off the same table. It counts hyperplanes
    of the whole space, which is right only when the red side spans it, and
    it does whenever j is asked for. Were the red side inside one hyperplane
    H, the green side would hold the 16 points off H. Every other hyperplane
    H' meets those in an AG(3,2), which is connected and spans H', so its
    green trace, that AG(3,2) plus points of its span, is connected and
    spanning too. Then i >= 30 > GREEN_HYPERPLANE_BOUND, for the seed as for
    any extension, and j is never computed.

    The green count never falls as points are added: if the green trace x of
    a hyperplane H is connected and spans H, any point p of H lies in cl(x),
    and as no point is a loop p lies on a circuit with x, so x + p is
    connected and spanning too. Once i reaches GREEN_HYPERPLANE_BOUND no
    extension below the node asks for j or survives, and the subtree, the
    node included, is counted as scanned in closed form,
    sum_{d=0}^{budget} C(spare - start, d), without being walked.
    """
    if i >= GREEN_HYPERPLANE_BOUND:
        found[0] += _subtree_size(spare - start, budget)
        return
    found[0] += 1
    found[1] += 1
    full = hs.full_mask
    j = 0
    for x in idx:
        y = full ^ x
        got = cs[y]
        if got == 2:
            got = _connected_spanning(hs, cs, y)
        j += got
    if i + j < TOTAL_HYPERPLANE_BOUND:
        found[2].append((smask, i, j))
    if budget:
        for k in range(start, spare):
            child = idx.copy()
            ci = i
            for h, bit in steps[k]:
                x = child[h]
                y = x | bit
                got = cs[y]
                if got == 2:
                    got = _connected_spanning(hs, cs, y)
                ci += got - cs[x]
                child[h] = y
            _descend(steps, hs, cs, spare, k + 1, budget - 1,
                     smask | (1 << k), child, ci, found)


def hyperplane_scan(seed: EmbeddedMatroid, max_extra: int,
                    jobs: int = 1) -> ExtensionScan:
    """Count connected hyperplanes of every bounded extension of a rank-5 seed.

    An extension survives when its green hyperplane count i stays below 26
    and, with the complement's count j, i + j stays below 32; j is skipped
    whenever i alone already disqualifies the extension. Every hyperplane
    re-embeds by flat_embedding onto the one PG(3,2), where each side's trace
    is a mask: the green trace of seed + S is the seed's trace plus S's, and
    the red trace is the rest of the hyperplane. So both counts read one
    table over PG(3,2)'s masks, a local of this call, whose entry says
    whether a trace is connected and spans; entries are filled on first read.
    The seed's trace and each spare point's bit are translated once per
    hyperplane. The extensions are then walked by a depth-first search from
    the seed that adds spare points in increasing order and updates i point
    by point; the seed record is the search root's. The table is monotone: a
    connected spanning trace stays so when a point of its hyperplane joins
    it, as that point lies in its closure and is no loop. So i never falls
    along a branch, and a node with i >= 26 stands for its whole subtree: the
    search adds sum_{d=0}^{b} C(s, d) to scanned, for s spare points after
    the node's last and a budget of b more points, and does not walk it.
    Survivors are sorted by size, then by mask.
    jobs is unused; it is kept only because the benchmark still passes it.
    """
    m = seed.to_span()
    if m.q != 2 or m.space.r != 5:
        raise ValueError("hyperplane scan requires a seed spanning PG(4,2)")
    space = m.space
    green0 = m.green_mask
    ext = tuple(p for p in range(space.n) if not (green0 >> p) & 1)
    if not 0 <= max_extra <= len(ext):
        raise ValueError(f"max_extra {max_extra} outside 0..{len(ext)} spare points")
    hs = point_space(space.r - 1, 2)
    cs = bytearray(b"\x02") * (1 << hs.n)
    # each spare point's (hyperplane, bit of hs) pairs
    steps = [[] for _ in ext]
    idx = []
    for h, hmask in enumerate(space.flats_of_rank(space.r - 1)):
        _, mapping = space.flat_embedding(hmask)
        x = space.translate_mask(green0 & hmask, mapping)
        _connected_spanning(hs, cs, x)
        idx.append(x)
        for k, p in enumerate(ext):
            if (hmask >> p) & 1:
                steps[k].append((h, 1 << mapping[p]))
    seed_i = sum(cs[x] for x in idx)
    found = [0, 0, []]
    _descend(steps, hs, cs, len(ext), 0, max_extra, 0, idx, seed_i, found)
    scanned, j_computed, survivors = found
    seed_j = None
    if seed_i < GREEN_HYPERPLANE_BOUND:
        seed_j = sum(cs[hs.full_mask ^ x] for x in idx)
    survivors.sort(key=lambda rec: (popcount(rec[0]), rec[0]))
    return ExtensionScan(
        m.elements, max_extra, seed_i, seed_j,
        tuple((tuple(ext[k] for k in iter_bits(smask)), i, j)
              for smask, i, j in survivors),
        scanned, j_computed)


# --------------------------------------------------- rank-5 binary cross-check

def _connected_spanning_classes(r: int, q: int, max_size: int):
    """Orbit representatives of connected spanning colorings, one per class."""
    space = point_space(r, q)
    seen = bytearray(1 << space.n)
    reps = []
    for green in range(1, 1 << space.n):
        if seen[green] or popcount(green) > max_size:
            continue
        if space.rank_of_mask(green) != r or not space.is_connected_mask(green):
            continue
        orbit_of(space, green, seen)
        reps.append(green)
    return space, reps


# Largest part glued to a circuit in the rank-5 gluing search.
RANK5_MAX_PART_SIZE = 9


def rank5_binary_minimal_classes() -> tuple[CensusClass, ...]:
    """Minimal rank-5 non-comatroids among gluings of a circuit to a small part.

    A rank-5 minimal non-comatroid with a series pair splits as a two-sum or
    parallel connection of a circuit with a smaller connected matroid, so the
    candidate space runs over circuits glued to every connected spanning class
    of the complementary rank.
    """
    found: dict[tuple, int] = {}
    big = point_space(5, 2)
    for k in (3, 4, 5):
        part_rank = 7 - k
        space, reps = _connected_spanning_classes(part_rank, 2, RANK5_MAX_PART_SIZE)
        ck = circuit(k, 2)
        for green in reps:
            members = tuple(iter_bits(green))
            part = MatrixPresentation(
                2, tuple(space.points[i] for i in members))
            for b in range(len(members)):
                for glue in (two_sum, parallel_connection):
                    cand = embed(glue(part, b, ck, 0)).to_span()
                    if cand.rank != 5 or not _is_minimal_non_comatroid(
                            cand.space, cand.green_mask):
                        continue
                    key = canonical_key(cand)
                    if key not in found:
                        found[key] = cand.green_mask
    classes = []
    for key, green in found.items():
        classes.append(CensusClass(
            key, tuple(iter_bits(green)), popcount(green),
            big.rank_of_mask(green), ""))
    classes.sort(key=lambda c: (c.size, c.key))
    return tuple(classes)


# -------------------------------------------------------- coloring enumerator

def enumerate_colorings(space: PointSpace, filter, dedup: bool,
                        samples: int | None = None, seed: int = 0) -> CensusReport:
    """Colorings passing a predicate, exhaustively or by seeded sampling."""
    t0 = time.perf_counter()
    # both are capped alike: an orbit in PG(4,2) alone can hold ten million masks
    if space.n > TABLE_POINT_CAP and (samples is None or dedup):
        what = "exhaustive enumeration" if samples is None else "deduplication"
        raise ResourceLimitError(
            f"{what} capped at {TABLE_POINT_CAP} points, space has {space.n}")
    if samples is None:
        candidates = range(1 << space.n)
        scanned = 1 << space.n
        description = "colorings, exhaustive"
    else:
        import random

        rng = random.Random(seed)
        candidates = sorted({rng.randrange(1 << space.n) for _ in range(samples)})
        scanned = len(candidates)
        description = f"colorings, sampled (seed={seed})"
    hits = [green for green in candidates
            if filter(EmbeddedMatroid(space, green))]
    if dedup:
        classes = _dedup_classes(space, hits, lambda key, green: "")
    else:
        classes = tuple(
            CensusClass(None, tuple(iter_bits(green)), popcount(green),
                        space.rank_of_mask(green), "")
            for green in hits)
    return CensusReport(space.q, space.r, description, classes,
                        scanned, time.perf_counter() - t0)
