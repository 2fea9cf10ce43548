"""Exhaustive and targeted searches over green colorings of small geometries.

The minimal census finds the non-comatroids whose restrictions to proper flats
are all comatroids, in PG(2,2), PG(3,2), PG(4,2), PG(2,3) and PG(3,3), by one
depth-first search over the colorings whose hyperplanes all pass the flat
criterion.
The hyperplane scan runs the extension algorithm over a rank-5 binary seed;
the coloring enumerator underpins the exhaustive property checks.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .canonical import canonical_key, orbit_of
from .catalog import (
    FIVE_VERTEX_GRAPHS,
    TERNARY_RANK3_MINIMAL,
    circuit_with_u24,
    graph_cycle_matroid,
    named,
)
from .decide import FLAT_VIOLATION_FLOOR
from .errors import ResourceLimitError
from .matroid import EmbeddedMatroid, embed
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

def _color(steps, cs: bytes, n: int, k: int, green: int,
           gt: list[int], rt: list[int], found: list) -> None:
    """Color point k of steps, then each later one, green or red, depth first.

    steps[k] holds the point's bit and its (hyperplane, bit of hs) pairs, hs
    being the PG(r-2, q) every hyperplane re-embeds onto; gt and rt hold the
    green and red traces on each hyperplane as masks of hs, and cs is hs's
    connected_spanning_table. A child updates a copy of one side's traces and
    is cut once a hyperplane of its point has both traces connected and
    spanning, which they stay as points join (see _descend). found collects
    [nodes, leaves]: a leaf is a full coloring each side of which has two or
    more of the n points off every hyperplane, or it would not span or would
    have a coloop.
    """
    found[0] += 1
    if k == len(steps):
        size = popcount(green)
        if (max(map(int.bit_count, gt)) <= size - 2
                and max(map(int.bit_count, rt)) <= n - size - 2):
            found[1].append(green)
        return
    bit_k, pairs = steps[k]
    for to_green in (True, False):
        mine, other = (gt, rt) if to_green else (rt, gt)
        child = mine.copy()
        for h, bit in pairs:
            y = child[h] | bit
            child[h] = y
            if cs[y] and cs[other[h]]:
                break
        else:
            if to_green:
                _color(steps, cs, n, k + 1, green | bit_k, child, rt, found)
            else:
                _color(steps, cs, n, k + 1, green, gt, child, found)


def _search_minimal(space: PointSpace) -> tuple[list[int], int]:
    """The leaves and the node count of a search over the colorings of space.

    H0, the first hyperplane, is colored first, by the least mask of each
    complement pair of orbits of its own space's masks: its stabiliser
    induces all of GL on it, and minimality is closed under complements. A
    start whose two traces on H0 are connected and spanning is dropped; the
    traces on any other hyperplane lie in a flat of rank r - 2 and cannot
    span it. _color then colors the other points, reading each point's
    (hyperplane, bit) pairs, cut once here by PointSpace.hyperplane_pairs,
    and the start's traces from space's one packed hyperplane incidence.
    """
    hs = point_space(space.r - 1, space.q)
    cs = hs.connected_spanning_table()
    h0 = space.flats_of_rank(space.r - 1)[0]
    points_of_h0 = {i: p for p, i in space.flat_embedding(h0)[1].items()}
    steps = [(1 << p, space.hyperplane_pairs(p)) for p in range(space.n) if not (h0 >> p) & 1]
    seen = bytearray(1 << hs.n)
    found = [0, []]
    for x in range(1 << hs.n):
        if not orbit_of(hs, x, seen):
            continue
        orbit_of(hs, hs.full_mask ^ x, seen)
        if cs[x] and cs[hs.full_mask ^ x]:
            continue
        green = space.translate_mask(x, points_of_h0)
        gt, rt = (space.hyperplane_traces(side) for side in (green, h0 ^ green))
        _color(steps, cs, space.n, 0, green, gt, rt, found)
    return found[1], found[0]


def _class_names(r: int, q: int) -> dict[tuple, str]:
    """Labels by class key of the named minimal non-comatroids of rank r over GF(q)."""
    if q == 2:
        labelled = [(name, graph_cycle_matroid(edges, 2))
                    for name, edges in FIVE_VERTEX_GRAPHS.items()]
        labelled += [(name, named(name)) for name in ("C(6,2)", "P(U34,U34)")]
    else:
        labelled = [(label, named(name)) for label, name in TERNARY_RANK3_MINIMAL.items()]
        labelled += [(f"circuit with U(2,4) family (k={k}, d={d})", circuit_with_u24(k, range(d)))
                     for k, d in ((5, 0), (4, 1), (3, 2))]
    matroids = [(label, embed(pres)) for label, pres in labelled]
    return {canonical_key(m): label for label, m in matroids if m.rank == r}


def minimal_non_comatroids(r: int, q: int) -> CensusReport:
    """Classify minimal non-comatroids of rank r over GF(q), up to equivalence.

    A green set G spanning the space, with complement R, is minimal iff the
    full space is its only violating flat F, one where r(F ∩ G) = r(F − G)
    with both sides connected. Both sides span such an F, as the points of F off a
    proper subspace span F. The condition at a flat reads only its coloring,
    so a violating F below the full space makes the restriction to F fail at
    its top flat, and if there is none, no proper restriction fails. No flat
    below FLAT_VIOLATION_FLOOR violates, and for the (r, q) served every flat
    of rank r - 2 lies below it. So G is minimal iff G and R both span and are
    connected, and no hyperplane H has G ∩ H and R ∩ H both connected and
    spanning H.

    _search_minimal gives the colorings that meet the second condition, up
    to equivalence and complements; each new one that meets the first has
    its orbit walked, whose least mask represents its class, and the
    complement of whose greatest represents the complement class; each class
    is keyed once by canonical_key. scanned counts the search's nodes.
    """
    if q not in FLAT_VIOLATION_FLOOR or not 3 <= r <= FLAT_VIOLATION_FLOOR[q] + 1:
        raise ValueError("census supports (r, q) in (3, 2), (4, 2), (5, 2), (3, 3), "
                         f"(4, 3); got ({r}, {q})")
    t0 = time.perf_counter()
    space = point_space(r, q)
    leaves, nodes = _search_minimal(space)
    full = space.full_mask
    names = _class_names(r, q)
    seen = Counter()
    classes = set()
    for green in leaves:
        if seen[green] or seen[full ^ green]:
            continue
        if not all(space.is_connected_mask(x) and space.rank_of_mask(x) == r
                   for x in (green, full ^ green)):
            continue
        orbit = orbit_of(space, green, seen)
        pair = [(canonical_key(EmbeddedMatroid(space, rep)), rep)
                for rep in (min(orbit), full ^ max(orbit))]
        for (key, rep), (mate, _) in (pair, pair[::-1]):
            label = names.get(key) or (
                f"complement of {names[mate]}" if mate in names else "")
            classes.add(CensusClass(key, tuple(iter_bits(rep)), popcount(rep), r, label))
    classes = sorted(classes, key=lambda c: (c.size, c.key))
    return CensusReport(q, r, "minimal non-comatroids, exhaustive",
                        tuple(classes), nodes, time.perf_counter() - t0)


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


# unbounded but finite: points and budget are at most PG(4,2)'s 31 points, so at
# most 32 * 32 entries
@lru_cache(maxsize=None)
def _subtree_size(points: int, budget: int) -> int:
    """Nodes of a search subtree: its root plus each way to add at most budget
    of the given number of later spare points."""
    return sum(math.comb(points, d) for d in range(budget + 1))


def _descend(steps, hs: PointSpace, cs: bytes, spare: int, start: int,
             budget: int, smask: int, idx: list[int], i: int, found: list) -> None:
    """Record extension smask, then those adding up to budget more spare points.

    Points are added in increasing order, numbered start or more. idx holds
    smask's green trace on each hyperplane as a mask of hs, the PG(3,2) every
    hyperplane re-embeds onto, and i its green count; cs is hs's
    connected_spanning_table. A child ORs its point's bit into the traces of
    that point's hyperplanes, on its own copy of idx, and moves i by the
    change of each trace's entry, so returning leaves the parent's state as
    it was. found collects [scanned, j_computed, survivors].

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
        j += cs[full ^ x]
    if i + j < TOTAL_HYPERPLANE_BOUND:
        found[2].append((smask, i, j))
    if budget:
        for k in range(start, spare):
            child = idx.copy()
            ci = i
            for h, bit in steps[k]:
                x = child[h]
                y = x | bit
                ci += cs[y] - cs[x]
                child[h] = y
            _descend(steps, hs, cs, spare, k + 1, budget - 1,
                     smask | (1 << k), child, ci, found)


def hyperplane_scan(seed: EmbeddedMatroid, max_extra: int,
                    jobs: int = 1) -> ExtensionScan:
    """Count connected hyperplanes of every bounded extension of a rank-5 seed.

    An extension survives when its green hyperplane count i stays below 26
    and, with the complement's count j, i + j stays below 32; j is skipped
    whenever i alone already disqualifies the extension. Every hyperplane
    is read in the one PG(3,2), where each side's trace is a mask: the green
    trace of seed + S is the seed's trace plus S's, and the red trace is the
    rest of the hyperplane. So both counts read one table over PG(3,2)'s
    masks, its connected_spanning_table, whose entry says whether a trace is
    connected and spans; it is taken whole from PG(3,2)'s rank and connected
    tables. The seed's traces and each spare point's (hyperplane, bit) pairs
    (hyperplane_pairs, cut once) come from the one hyperplane incidence. The
    extensions are walked by a depth-first search from the seed that adds
    spare points in increasing order and updates i point by point; the seed
    record is the search root's. The table is monotone: a connected spanning
    trace stays so when a point of its hyperplane joins it, as that point
    lies in its closure and is no loop. So i never falls along a branch, and
    a node with i >= 26 stands for its whole subtree: the search adds
    sum_{d=0}^{b} C(s, d) to scanned, for s spare points after the node's
    last and a budget of b more points, and does not walk it.
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
    cs = hs.connected_spanning_table()
    steps = [space.hyperplane_pairs(p) for p in ext]
    idx = space.hyperplane_traces(green0)
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


# -------------------------------------------------------- coloring enumerator

def enumerate_colorings(space: PointSpace, filter, dedup: bool,
                        samples: int | None = None, seed: int = 0) -> CensusReport:
    """Colorings passing a predicate, exhaustively or by seeded sampling."""
    t0 = time.perf_counter()
    if samples is not None and samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
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
        # one class per orbit, keyed once, at its least hit: a filter can pass
        # every mask of an orbit, and a cold canonical key costs milliseconds
        seen = bytearray(1 << space.n)
        hits = [green for green in hits if orbit_of(space, green, seen)]
    classes = [CensusClass(canonical_key(EmbeddedMatroid(space, green)) if dedup else None,
                           tuple(iter_bits(green)), popcount(green),
                           space.rank_of_mask(green), "")
               for green in hits]
    if dedup:
        classes.sort(key=lambda c: (c.size, c.key))
    return CensusReport(space.q, space.r, description, tuple(classes),
                        scanned, time.perf_counter() - t0)
