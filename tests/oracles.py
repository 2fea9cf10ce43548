"""Independent brute-force references used to pin expected values in tests.

Everything here recomputes from first principles (coefficient enumeration
over coordinate vectors, textbook definitions) without touching the library's
own rank, closure, or connectivity machinery: `join` spans a flat and a point
from coordinates, and the `*_by_joins` references build on it. There are eleven
exceptions: `flat_embedding_by_elimination` and `contraction_map_by_elimination`
are the Gaussian-elimination embedding of a flat and projection along a point
that `PointSpace.flat_embedding` and `PointSpace.contraction_map` replaced, kept
as their references; `duals_by_dot_products` lists each point's dual hyperplane
by a dot product per pair of points, the reference for the bit-sliced
`PointSpace.dual_hyperplanes`; `violating_flats_ambient` and
`match_forbidden_ambient` are the two flat deciders' scans with every flat read
in the ambient space, the references
for the scans that read each hyperplane as its trace in PG(r-2, q);
`generator_images_by_translation` and `orbit_by_generic_walk` are the
per-byte translate_mask build of the orbit walk's generator tables and the walk
that reads every byte of a mask in one loop, the references for
`canonical._generator_images`, built by doubling, and `canonical.orbit_of`,
which reads the first two bytes inline; `forbidden_name_by_key` names
forbidden members by canonical keys, the mechanism the forbidden-flat orbit
tables stand in for;
`minimal_by_proper_flats` runs the flat criterion on every proper flat
restriction, the definition that the census's hyperplane search stands in
for; `rank5_gluing_keys`, a search over gluings of a circuit to a small part,
builds its candidates with the library and tests them with
`minimal_by_proper_flats`; and `scan_by_combinations` asks the library's rank
and connectivity of each hyperplane trace in PG(3,2), so that it checks the
scan's table and its pruned depth-first walk, not the geometry.
"""

import functools
import itertools

from comatroid import census
from comatroid.canonical import canonical_key, orbit_of
from comatroid.catalog import circuit, circuit_with_u24, parallel_connection, two_sum
from comatroid.decide import (
    FLAT_VIOLATION_FLOOR,
    _classify_flat,
    decide_flat_criterion,
    forbidden_catalog,
)
from comatroid.linalg import Echelon, normalize
from comatroid.matroid import EmbeddedMatroid, MatrixPresentation, embed
from comatroid.projective import iter_bits, point_space, popcount


def norm_point(v, q):
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    for s in range(1, q):
        w = tuple(s * a % q for a in v)
        first = next(a for a in w if a)
        if first == 1:
            return w
    raise AssertionError("unreachable for prime q")


def brute_span_members(space, idxs):
    """Point indices in the linear span, by enumerating coefficients over a greedy basis.

    The span is kept as the set of every coefficient combination of the basis
    so far; a point joins the basis when its vector is not yet in that set, so
    at most q^r vectors are ever enumerated, however many points are given.
    """
    q = space.q
    span = {(0,) * space.r}
    for i in idxs:
        w = space.points[i]
        if w not in span:
            span = {tuple((a + c * b) % q for a, b in zip(v, w)) for v in span for c in range(q)}
    return {space.index[norm_point(v, q)] for v in span if any(v)}


def brute_rank(space, idxs):
    """Rank from the span's point count, which must be (q^k - 1)/(q - 1)."""
    count = len(brute_span_members(space, idxs))
    k = 0
    total = 0
    while total != count:
        total = total * space.q + 1
        k += 1
        assert k <= space.r
    return k


def brute_dependent(space, idxs):
    """True iff some nontrivial coefficient combination of the points vanishes."""
    vecs = [space.points[i] for i in idxs]
    q, r = space.q, space.r
    for coeffs in itertools.product(range(q), repeat=len(vecs)):
        if not any(coeffs):
            continue
        v = tuple(sum(c * w[j] for c, w in zip(coeffs, vecs)) % q for j in range(r))
        if not any(v):
            return True
    return False


def brute_circuits(space, idxs):
    """All minimal dependent subsets, as sorted tuples."""
    idxs = sorted(idxs)
    out = []
    for size in range(1, len(idxs) + 1):
        for combo in itertools.combinations(idxs, size):
            if any(set(c) <= set(combo) for c in out):
                continue
            if brute_dependent(space, combo):
                out.append(combo)
    return out


def brute_components(space, idxs):
    """Blocks under 'some circuit contains both', the textbook definition."""
    idxs = sorted(idxs)
    blocks = {i: {i} for i in idxs}
    for circ in brute_circuits(space, idxs):
        merged = set()
        for i in circ:
            merged |= blocks[i]
        for i in merged:
            blocks[i] = merged
    seen = []
    for i in idxs:
        if blocks[i] not in seen:
            seen.append(blocks[i])
    return sorted(tuple(sorted(b)) for b in seen)


def brute_cocircuit_min_size(space, idxs):
    """Smallest set whose removal drops the rank."""
    idxs = sorted(idxs)
    rs = brute_rank(space, idxs)
    for size in range(1, len(idxs) + 1):
        for d in itertools.combinations(idxs, size):
            rest = [i for i in idxs if i not in d]
            if brute_rank(space, rest) < rs:
                return size
    raise AssertionError("nonempty sets always have a cocircuit")


def brute_series_classes(space, idxs):
    """Blocks under 'the pair is a minimal rank-dropping set'."""
    idxs = sorted(idxs)
    rs = brute_rank(space, idxs)
    blocks = {i: {i} for i in idxs}
    for e, f in itertools.combinations(idxs, 2):
        rest = [i for i in idxs if i not in (e, f)]
        if brute_rank(space, rest) >= rs:
            continue
        if brute_rank(space, rest + [e]) < rs or brute_rank(space, rest + [f]) < rs:
            continue
        merged = blocks[e] | blocks[f]
        for i in merged:
            blocks[i] = merged
    seen = []
    for i in idxs:
        if blocks[i] not in seen:
            seen.append(blocks[i])
    return sorted(tuple(sorted(b)) for b in seen)


def brute_vertical_connectivity(space, idxs):
    """Least k admitting a vertical k-separation, else the rank."""
    idxs = sorted(idxs)
    if not idxs:
        return 0
    rs = brute_rank(space, idxs)
    best = rs
    for size in range(1, len(idxs)):
        for a in itertools.combinations(idxs, size):
            b = [i for i in idxs if i not in a]
            ra, rb = brute_rank(space, a), brute_rank(space, b)
            if ra < rs and rb < rs:
                best = min(best, ra + rb - rs + 1)
    return best


def flat_embedding_by_elimination(space, flat_mask):
    """The (sub, mapping) of space.flat_embedding(flat_mask), by Gaussian elimination.

    The flat's points go into an echelon basis in index order, so its basis
    is the greedy one, and each point maps to its normalized coordinates on
    that basis.
    """
    members = list(iter_bits(flat_mask))
    ech = Echelon(space.q)
    for i in members:
        ech.insert(space.points[i])
    sub = point_space(ech.rank, space.q)
    return sub, {i: sub.index[normalize(ech.coords(space.points[i]), space.q)] for i in members}


def contraction_map_by_elimination(space, e):
    """The (sub, mapping) of space.contraction_map(e), by Gaussian elimination.

    Point e and then every point in index order go into an echelon basis, so its
    basis is the greedy one grown from e; each point p != e maps to its
    normalized coordinates on that basis with the coordinate on e dropped.
    """
    sub = point_space(space.r - 1, space.q)
    ech = Echelon(space.q)
    for i in [e, *range(space.n)]:
        ech.insert(space.points[i])
    return sub, [None if i == e else sub.index[normalize(ech.coords(space.points[i])[1:], space.q)]
                 for i in range(space.n)]


@functools.lru_cache(maxsize=None)
def _line(space, i, x):
    """The mask of the line through points i != x: x and the normalized i + c*x for
    c = 0..q-1."""
    u, v, q = space.points[i], space.points[x], space.q
    line = 1 << x
    for c in range(q):
        line |= 1 << space.index[norm_point(tuple((a + c * b) % q for a, b in zip(u, v)), q)]
    return line


def join(space, flat, x):
    """The flat spanned by a flat and a point x outside it: x and every line through x
    and a point of the flat."""
    new = flat | 1 << x
    for i in iter_bits(flat):
        new |= _line(space, i, x)
    return new


def tables_by_joins(space):
    """(closure, rank) per mask of space, each mask's closure the join of its
    lowest point with the closure of the rest."""
    cl = [0] * (1 << space.n)
    rk = bytearray(1 << space.n)
    for mask in range(1, 1 << space.n):
        low = mask & -mask
        x = low.bit_length() - 1
        c = cl[mask ^ low]
        if not (c >> x) & 1:
            c = join(space, c, x)
        cl[mask] = c
        rk[mask] = space._rank_of_size[popcount(c)]
    return cl, rk


def flats_by_joins(space):
    """Per rank k = 0..r, the sorted masks of the flats of rank k: each level is
    every flat of the level below joined with every point outside it."""
    levels = [(0,)]
    for _ in range(space.r):
        levels.append(tuple(sorted({join(space, f, p) for f in levels[-1]
                                    for p in range(space.n) if not (f >> p) & 1})))
    return levels


def duals_by_dot_products(space):
    """Per point v, the mask of the points p with v . p = 0 mod q."""
    pts, q = space.points, space.q
    return [space.mask_of(i for i, p in enumerate(pts) if sum(a * b for a, b in zip(v, p)) % q == 0)
            for v in pts]


def span_by_joins(space, mask):
    """The closure of mask, one join per rank, each with the lowest point of mask
    that the flat so far misses."""
    flat = 0
    rest = mask
    while rest:
        flat = join(space, flat, (rest & -rest).bit_length() - 1)
        rest &= ~flat
    return flat


def components_by_joins(space, mask):
    """Sorted components of the restriction to mask: a greedy basis B grown by joins,
    and each basis point b with the points of mask off span_by_joins(B - b) in one
    component, the blocks that share a point merged."""
    basis = span = 0
    left = mask
    while left:
        low = left & -left
        basis |= low
        span = join(space, span, low.bit_length() - 1)
        left &= ~span
    blocks = []
    for b in iter_bits(basis):
        block = mask & ~span_by_joins(space, basis ^ (1 << b))
        merged = [other for other in blocks if other & block]
        blocks = [other for other in blocks if not other & block] + [block | sum(merged)]
    return tuple(sorted(blocks))


def violating_flats_ambient(space, green):
    """decide._violating_flats with every flat F read in space: F ∩ G and F − G
    are ambient masks, asked of space's own rank and components."""
    rank = space.rank_of_mask
    connected = space.is_connected_mask
    for frank in range(space.r, FLAT_VIOLATION_FLOOR[space.q] - 1, -1):
        for fmask in space.flats_of_rank(frank):
            x = fmask & green
            y = fmask & ~green
            if rank(x) == rank(y) and connected(x) and connected(y):
                yield fmask


def match_forbidden_ambient(space, green):
    """decide._match_forbidden with every flat F read in space: F ∩ G is an
    ambient mask, tested by space's closure and classified in space."""
    for frank in range(space.r, FLAT_VIOLATION_FLOOR[space.q] - 1, -1):
        for fmask in space.flats_of_rank(frank):
            x = fmask & green
            if x == 0 or space.closure_mask(x) != fmask:
                continue
            name = _classify_flat(space, x, frank)
            if name is not None:
                return (tuple(iter_bits(x)), name)
    return None


@functools.lru_cache(maxsize=None)
def generator_images_by_translation(r, q):
    """Per generator of canonical._generator_images, the images of each byte of a mask,
    one translate_mask per byte value: table k maps the masks of points 8k to 8k + 7."""
    space = point_space(r, q)
    maps = [lambda v: v[1:] + v[:1], lambda v: ((v[0] + v[1]) % q,) + v[1:]]
    if q > 2:
        maps.append(lambda v: ((2 * v[0]) % q,) + v[1:])
    chunks = [(s, 1 << min(space.n - s, 8)) for s in range(0, space.n, 8)]
    perms = [[space.index[normalize(f(v), q)] for v in space.points] for f in maps]
    return tuple(tuple([space.translate_mask(b << s, perm) for b in range(size)]
                       for s, size in chunks) for perm in perms)


def orbit_by_generic_walk(space, green, seen, mark=1):
    """canonical.orbit_of with every byte of a mask read in one loop over the tables
    of generator_images_by_translation: the masks of green's orbit, each marked in
    seen, or [] when green is marked already."""
    if seen[green]:
        return []
    gens = generator_images_by_translation(space.r, space.q)
    seen[green] = mark
    orbit = [green]
    for mask in orbit:
        for tables in gens:
            image = 0
            rest = mask
            for table in tables:
                image |= table[rest & 255]
                rest >>= 8
            if not seen[image]:
                seen[image] = mark
                orbit.append(image)
    return orbit


def _mat_vec(mat, v, q):
    return tuple(sum(a * b for a, b in zip(row, v)) % q for row in mat)


@functools.lru_cache(maxsize=None)
def _brute_point_permutations(space):
    """The point permutations induced by all of GL(r, q), each once.

    Scalar multiples of a matrix induce the same permutation, so only
    matrices whose first nonzero entry is 1 are tried. A matrix is
    invertible iff it sends no point to zero and no two points to one point.
    """
    q, r = space.q, space.r
    perms = []
    for flat in itertools.product(range(q), repeat=r * r):
        if not any(flat) or norm_point(flat, q) != flat:
            continue
        mat = [flat[i * r:(i + 1) * r] for i in range(r)]
        images = [_mat_vec(mat, p, q) for p in space.points]
        if not all(any(v) for v in images):
            continue
        perm = tuple(space.index[norm_point(v, q)] for v in images)
        if len(set(perm)) == space.n:
            perms.append(perm)
    return tuple(perms)


def _precedes(a, b):
    """True iff the lowest bit where a and b differ is set in a."""
    i = 0
    while (a >> i) & 1 == (b >> i) & 1:
        i += 1
    return bool((a >> i) & 1)


def brute_canonical_mask(space, green):
    """Least image of a green mask over all of GL(r, q).

    A mask precedes another when the lowest differing bit belongs to it.
    """
    best = None
    for perm in _brute_point_permutations(space):
        img = sum(1 << perm[p] for p in range(space.n) if (green >> p) & 1)
        if best is None or (img != best and _precedes(img, best)):
            best = img
    return best


def forbidden_name_by_key(m):
    """The forbidden member m is, named by comparing canonical keys, or None.

    Candidates are the spanning circuit of m's size (from six points over
    GF(2), four over GF(3)), over GF(3) the circuit-with-U(2,4) member of
    m's rank and size when there is one (it needs d <= k), and every fixed
    catalog entry, tried in that order.
    """
    m = m.to_span()
    q, r, size = m.q, m.rank, m.n
    key = canonical_key(m)
    if size == r + 1 and size >= (6 if q == 2 else 4):
        if key == canonical_key(embed(circuit(size, q))):
            return f"circuit of size {size}"
    k, d = 2 * (r + 1) - size, size - r - 1
    if q == 3 and k >= 3 and 1 <= d <= k:
        if key == canonical_key(embed(circuit_with_u24(k, range(d)))):
            return f"circuit with U(2,4) family (k={k}, d={d})"
    for name, _, _, entry_key in forbidden_catalog(q):
        if key == entry_key:
            return name
    return None


def rank5_gluing_keys(max_part_size=9):
    """Canonical keys of the rank-5 binary minimal non-comatroids that glue a
    circuit to a part of at most max_part_size points.

    A rank-5 minimal non-comatroid with a series pair splits as a two-sum or
    parallel connection of a circuit with a smaller connected matroid, so the
    candidates run over the circuits of size k = 3, 4, 5 glued at each point
    to one connected spanning set of each class of PG(5 - k, 2). Each
    candidate of rank 5 is tested with minimal_by_proper_flats.
    """
    found = set()
    for k in (3, 4, 5):
        part_rank = 7 - k
        space = point_space(part_rank, 2)
        seen = bytearray(1 << space.n)
        for green in range(1, 1 << space.n):
            if (seen[green] or popcount(green) > max_part_size
                    or space.rank_of_mask(green) != part_rank
                    or not space.is_connected_mask(green)):
                continue
            orbit_of(space, green, seen)
            members = tuple(iter_bits(green))
            part = MatrixPresentation(2, tuple(space.points[i] for i in members))
            for b in range(len(members)):
                for glue in (two_sum, parallel_connection):
                    cand = embed(glue(part, b, circuit(k, 2), 0)).to_span()
                    if cand.rank == 5 and minimal_by_proper_flats(cand.space, cand.green_mask):
                        found.add(canonical_key(cand))
    return found


def minimal_by_proper_flats(space, green):
    """Not a comatroid, yet every restriction to a proper flat is one.

    The flat criterion decides green and then each distinct trace of green on
    a proper flat of space, other than green itself.
    """
    def is_comatroid(mask):
        return decide_flat_criterion(EmbeddedMatroid(space, mask)).is_comatroid
    proper = {f & green for k in range(space.r) for f in space.flats_of_rank(k)}
    proper.discard(green)
    return not is_comatroid(green) and all(is_comatroid(x) for x in proper)


class _ConnectedSpanning(dict):
    """Whether a mask of one space is connected and spans it, asked once per mask.

    Every hyperplane of PG(4,2) maps onto the one PG(3,2), so one instance
    serves all of a scan's traces.
    """

    def __init__(self, space):
        super().__init__()
        self.space = space

    def __missing__(self, x):
        got = self[x] = (self.space.rank_of_mask(x) == self.space.r
                         and self.space.is_connected_mask(x))
        return got


def scan_by_combinations(seed, max_extra):
    """(scanned, j_computed, survivors) of hyperplane_scan, extension by extension.

    Every set of at most max_extra spare points is taken from
    itertools.combinations, and its green and red traces on each hyperplane
    are rebuilt from scratch in the PG(3,2) that flat_embedding maps the
    hyperplane onto: the seed's traces with the set's points added to the
    green side and taken off the red side. Whether a trace is connected and
    spans is asked of that PG(3,2) once per distinct trace. The red traces
    are built, and j counted, exactly when i is below the green bound. Both
    bounds are read at call time. Survivors come out in hyperplane_scan's
    form and order: by size, then by the mask whose bit k stands for the
    k-th spare point.
    """
    m = seed.to_span()
    space, green0 = m.space, m.green_mask
    ext = tuple(p for p in range(space.n) if not (green0 >> p) & 1)
    green_seed, red_seed = [], []
    # each spare point's (hyperplane, bit) pairs
    contributions = [[] for _ in ext]
    for h, hmask in enumerate(space.flats_of_rank(space.r - 1)):
        hspace, mapping = space.flat_embedding(hmask)
        green_seed.append(sum(1 << mapping[p] for p in mapping if green0 >> p & 1))
        red_seed.append(sum(1 << mapping[p] for p in mapping if not green0 >> p & 1))
        for k, p in enumerate(ext):
            if p in mapping:
                contributions[k].append((h, 1 << mapping[p]))
    verdicts = _ConnectedSpanning(hspace)
    scanned = j_computed = 0
    survivors = []
    for size in range(max_extra + 1):
        for combo in itertools.combinations(range(len(ext)), size):
            green = green_seed.copy()
            for k in combo:
                for h, bit in contributions[k]:
                    green[h] |= bit
            scanned += 1
            i = sum(map(verdicts.__getitem__, green))
            if i >= census.GREEN_HYPERPLANE_BOUND:
                continue
            j_computed += 1
            red = red_seed.copy()
            for k in combo:
                for h, bit in contributions[k]:
                    red[h] &= ~bit
            j = sum(map(verdicts.__getitem__, red))
            if i + j < census.TOTAL_HYPERPLANE_BOUND:
                survivors.append((size, sum(1 << k for k in combo), combo, i, j))
    survivors.sort()
    return scanned, j_computed, tuple(
        (tuple(ext[k] for k in combo), i, j) for _, _, combo, i, j in survivors)


# SHA-256 of minimal_non_comatroids(r, q).to_tsv(), pinned so any change to the
# census output, including row order and labels, shows in tier-1
CENSUS_TSV_SHA256 = {
    (4, 2): "266b8b825d74e41cd9ef187327c4712055c7d2644ef126b63a89929aba627afa",
    (3, 3): "5d9502d62e236bbf7ef67effbed07cd490c56907c3ba6d57f85d06905a4b6c85",
    (5, 2): "e633791a3452dc689df4c17b77c0de8bac237a3334d04c523c1e9174b4064558",
    (4, 3): "5209412839a3fabca90846a43011708e95ddc07acbeac7e3dac59b9feb6d0bb2",
}

# SHA-256 of canonical keys over the seeded sample that
# tests/test_canonical.py draws; changing it is a change of specification,
# since census labels and forbidden-flat matches compare these keys
CANONICAL_KEY_SHA256 = "3207f62abfa92b51c59f5f4df3bb7834ba4daa5c36d6e4cda5a13945e97cec23"

# SHA-256 of decide_forbidden_flats verdicts and certificates (witness side,
# members and entry name) over every coloring of PG(3,2) and PG(2,3), one line
# per coloring as tests/test_decide.py writes it
FORBIDDEN_FLAT_SHA256 = "fcd104faf53e4cbd047f9a90c3d38d5adcf97ed65592d3c5813815b99f7229f2"

# SHA-256 of the entries of forbidden_catalog(q), q = 2 then 3, one repr per
# line as tests/test_decide.py writes them
FORBIDDEN_LIST_SHA256 = "e20acbf9bfc5e3e179cabccaec8785dbe4a809620fa9fb11a485d3c13b57fa63"

# SHA-256 of the Verdict reprs of all three deciders over the seeded masks of
# PG(4,2), PG(3,3), PG(5,2) and PG(4,3), and of decide_flat_criterion over every
# coloring of PG(3,2) and PG(2,3), one line per verdict as tests/test_decide.py
# writes it
VERDICT_SHA256 = "24526e9b5b39fa72ac89e7d5da699aebe10dfa2fdcfe489e0466e7974f62914f"
