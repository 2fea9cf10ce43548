"""Projective geometries PG(r-1, q) over GF(2) and GF(3).

Points are normalized coordinate tuples (first nonzero coordinate 1) in
lexicographic order, addressed by index. Point sets are int bitmasks over
those indices. Each point's dual row, the mask of its dual hyperplane, is
bit-sliced from the coordinates, and the dual rows are the one incidence
mechanism: every flat is the meet of the dual rows of the reduced echelon basis
of its orthogonal complement, so each flat of a level is built exactly once, and
on untabled spaces closure, rank and components come from passes over a mask's
rows: the dot product is nondegenerate, so a span is its orthogonal's orthogonal.
The embedding of a flat onto its own geometry reads each point at the pivots of
the flat's reduced echelon basis, and the contraction along a point reads where
each line through it meets a hyperplane missing it.
Spaces with at most 15 points read closure, rank and connectivity from tables
over every mask instead, all read off their flats when the space is built.
The one hyperplane incidence packs each point's images under the hyperplanes'
embeddings into one int, a field per hyperplane, ORed up to 32-bit fields into a
table per byte of a mask: a mask's traces are one read per byte, cut into fields
by one cast, and a point's (hyperplane, bit) pairs are its int's bits. Lazy tables
live in attributes set in __init__, never in a cached_property, whose write to the
instance __dict__ makes CPython 3.11 drop the fast path of every later attribute
load on the instance. Coordinates are read only where the dual rows are built, where
an echelon row is named, where a flat's points are read at its pivots and where a
contraction sums two points; no step eliminates.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from operator import itemgetter

from .errors import ResourceLimitError
from .linalg import check_field, normalize

MAX_SPACE_RANK = 8
# Largest space that carries closure, rank and connected tables, and whose
# colorings are enumerated or tabled whole.
TABLE_POINT_CAP = 15
_FIELD_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}  # memoryview formats of padded field widths
# Most entries a memo that grows with its inputs may hold (see remember). No benchmark
# workload reaches it: the largest, sweep's, hold about 8k entries.
MEMO_CAP = 1 << 16


def remember(memo: dict, key, value):
    """Store value under key in memo, emptied first if it holds MEMO_CAP entries, and
    return value. Called on a miss only, so a hit stays one dict.get."""
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


# per byte value, the indices of its set bits as bits 0-7 and as bits 8-15
_BYTE_BITS = [tuple(iter_bits(b)) for b in range(256)]
_SECOND_BYTE_BITS = [tuple(i + 8 for i in t) for t in _BYTE_BITS]


def bits(mask: int) -> tuple[int, ...]:
    """The indices of mask's set bits in increasing order, tuple(iter_bits(mask)): the low
    two bytes read from per-byte tables, any higher bits from iter_bits."""
    low = _BYTE_BITS[mask & 255] + _SECOND_BYTE_BITS[mask >> 8 & 255]
    return low + tuple(iter_bits(mask >> 16 << 16)) if mask >> 16 else low


def subset_ors(values) -> list[int]:
    """Entry b is the OR of values[j] over the set bits j of b, built by doubling."""
    table = [0]
    for v in values:
        table += [u | v for u in table]
    return table


def _submasks(mask: int) -> list[int]:
    """The nonempty submasks of mask."""
    return subset_ors([1 << i for i in iter_bits(mask)])[1:]


class PointSpace:
    """The point set of PG(r-1, q) with closure and rank machinery."""

    def __init__(self, r: int, q: int):
        check_field(q)
        if r < 0:
            raise ValueError(f"projective rank must be nonnegative, got {r}")
        if r > MAX_SPACE_RANK:
            raise ResourceLimitError(f"projective rank {r} outside supported range 0..{MAX_SPACE_RANK}")
        self.r = r
        self.q = q
        pts = []
        for vec in itertools.product(range(q), repeat=r):
            if any(vec) and vec[next(i for i, a in enumerate(vec) if a)] == 1:
                pts.append(vec)
        # itertools.product yields tuples in lexicographic order already
        self.points: tuple[tuple[int, ...], ...] = tuple(pts)
        self.n = len(pts)
        self.index: dict[tuple[int, ...], int] = {p: i for i, p in enumerate(pts)}
        self.full_mask = (1 << self.n) - 1
        # a rank-k flat has (q^k - 1)/(q - 1) points
        self._rank_of_size = {(q**k - 1) // (q - 1): k for k in range(r + 1)}
        self._closure_table: list[int] | None = None
        self._rank_table: bytearray | None = None
        self._connected_table: bytearray | None = None
        self._connected_spanning: bytes | None = None
        self._duals: list[int] | None = None
        self._packed_incidence: tuple[int, tuple[int, ...], list | None] | None = None
        # memos that grow with the masks asked about, each capped by remember; each
        # comment gives what dropping the memo cost (2 cores, Python 3.11.7):
        # mixed rank-5 and rank-6 decisions ran about 4.3x slower
        self._closure_memo: dict[int, int] = {}
        # sweep read 10% fewer items/s with it skipped on tabled spaces
        self._components_memo: dict[int, tuple[int, ...]] = {}
        # comatroid verify took 5.46 s CPU against 3.55 s (medians of 6 pairs)
        self._vc_memo: dict[int, int] = {}
        # sweep read 32% fewer items/s and decide-mix p50 rose 0.090 -> 0.113 ms (3 of 3 pairs)
        self._embeddings: dict[int, tuple["PointSpace", dict[int, int]]] = {}
        # bounded by its r + 1 levels
        self._flats_by_rank: dict[int, tuple[int, ...]] = {}
        if self.n <= TABLE_POINT_CAP:
            self._build_tables()

    def __repr__(self):
        return f"PG({self.r - 1},{self.q})"

    # ------------------------------------------------------------------ spans

    def _span(self, mask: int) -> int:
        """The closure of mask, (mask^⊥)^⊥; the second pass stops at a basis of mask^⊥."""
        perp, basis = self._dual_pass(mask, self.r)
        return self._dual_pass(perp, self.r - popcount(basis))[0]

    def _dual_pass(self, mask: int, rank: int) -> tuple[int, int]:
        """(perp, basis): the AND of the dual rows of mask's points, the points orthogonal
        to mask (all for mask 0), and mask's greedy basis. A point joins the basis and cuts
        perp exactly when it is not orthogonal to all of perp, i.e. lies outside the span of
        the points before it. The pass stops once the basis has `rank` points."""
        duals = self._duals or self.dual_hyperplanes()
        perp, basis = self.full_mask, 0
        while mask and rank:
            low = mask & -mask
            meet = perp & duals[low.bit_length() - 1]
            if meet != perp:
                perp, basis, rank = meet, basis | low, rank - 1
            mask ^= low
        return perp, basis

    # ----------------------------------------------------------------- tables

    def _build_tables(self):
        """Closure, rank and connected tables over every mask, read off the flats.

        Each flat of rank r - 1 down to 1 is written, with its rank, over its
        submasks, so a mask ends holding the last flat written over it, its
        least flat: its closure. Masks in no proper flat keep the whole space.

        The connected table starts at all ones, and each complementary pair of
        flats F1, F2 (skew, ranks k <= r/2 and r - k) zeroes every mask inside
        F1 ∪ F2 that meets both. These are exactly the disconnected masks. If
        (A, B) separates X, r(A) + r(B) = r(X) = r(cl A ∨ cl B), so by
        modularity cl A ∧ cl B is empty: the closures are skew, and growing one
        by points off their join extends them to a complementary pair.
        Conversely X ∩ F1 and X ∩ F2 span skew flats, so their ranks add up to
        r(X) and they separate X.
        """
        r, size = self.r, 1 << self.n
        cl = [self.full_mask] * size
        rk = bytearray([r]) * size
        subs = {}
        for k in range(r - 1, 0, -1):
            for f in self.flats_of_rank(k):
                subs[f] = _submasks(f)
                for s in subs[f]:
                    cl[s] = f
                    rk[s] = k
        cl[0] = rk[0] = 0
        connected = bytearray(b"\x01") * size
        for k in range(1, r // 2 + 1):
            uppers = self.flats_of_rank(r - k)
            for f1 in self.flats_of_rank(k):
                for f2 in uppers:
                    # a pair of equal ranks is met twice; take it once
                    if f1 & f2 or (2 * k == r and f2 < f1):
                        continue
                    for s1 in subs[f1]:
                        for s2 in subs[f2]:
                            connected[s1 | s2] = 0
        self._closure_table = cl
        self._rank_table = rk
        self._connected_table = connected

    # ------------------------------------------------------------ rank/closure

    def rank_of_mask(self, mask: int) -> int:
        if self._rank_table is not None:
            return self._rank_table[mask]
        return self._rank_of_size[popcount(self.closure_mask(mask))]

    def closure_mask(self, mask: int) -> int:
        if self._closure_table is not None:
            return self._closure_table[mask]
        got = self._closure_memo.get(mask)
        if got is None:
            got = remember(self._closure_memo, mask, self._span(mask))
        return got

    def mask_of(self, members) -> int:
        m = 0
        for i in members:
            m |= 1 << i
        return m

    # ------------------------------------------------------------------ flats

    def flats_of_rank(self, k: int) -> tuple[int, ...]:
        """Masks of all projective flats of rank k, sorted.

        A flat of rank k is the orthogonal complement of one subspace of rank
        r - k, and the meet of the dual rows of any basis of it. Each subspace
        has exactly one basis in reduced row echelon form: pivot columns
        p_1 < ... < p_{r-k}, row j 1 at p_j, 0 before p_j and at the other
        pivots, free elsewhere. Such a row is a normalized point vector, so the
        walk over pivot sets and free entries builds each flat exactly once. The
        empty flat and the whole space are read off directly: the top level
        builds no dual rows.
        """
        if not 0 <= k <= self.r:
            return ()
        got = self._flats_by_rank.get(k)
        if got is not None:
            return got
        if k in (0, self.r):
            got = (self.full_mask if k else 0,)
        else:
            r, duals, flats = self.r, self.dual_hyperplanes(), []
            for pivots in itertools.combinations(range(r), r - k):
                meets = [self.full_mask]
                for p in pivots:
                    entries = [(1,) if j == p else (0,) if j < p or j in pivots else range(self.q)
                               for j in range(r)]
                    rows = [duals[self.index[row]] for row in itertools.product(*entries)]
                    meets = [m & d for m in meets for d in rows]
                flats += meets
            got = tuple(sorted(flats))
        self._flats_by_rank[k] = got
        return got

    def dual_hyperplanes(self) -> list[int]:
        """Per point x, the mask of its dual hyperplane, the points p with x . p = 0, all
        built on the first call, bit-sliced from the masks of the points whose coordinate i
        is 1 (ones) or 2 (twos): over GF(2), x . p is the XOR of ones[i] over x's support;
        over GF(3) it is carried mod 3 in three masks s0, s1, s2, one per value."""
        if self._duals is None:
            full, pts = self.full_mask, self.points
            ones, twos = ([self.mask_of(j for j, p in enumerate(pts) if p[i] == c) for i in range(self.r)]
                          for c in (1, 2))
            zeros = [full & ~(t1 | t2) for t1, t2 in zip(ones, twos)]
            rows = []
            for x in pts:
                s0, s1, s2 = full, 0, 0
                for a, t0, t1, t2 in zip(x, zeros, ones, twos):
                    if self.q == 2:
                        s0 ^= t1 if a else 0
                    elif a:
                        # t0, t1, t2: the masks of the points whose term a * p_i is 0, 1, 2
                        t1, t2 = (t1, t2) if a == 1 else (t2, t1)
                        s0, s1, s2 = (s0 & t0 | s2 & t1 | s1 & t2, s1 & t0 | s0 & t1 | s2 & t2,
                                      s2 & t0 | s1 & t1 | s0 & t2)
                rows.append(s0)
            self._duals = rows
        return self._duals

    # ------------------------------------------------------------- components

    def components_mask(self, mask: int) -> tuple[int, ...]:
        """Connected components of the restriction to mask, as masks.

        Elements share a component exactly when they are linked through
        fundamental circuits of a greedy basis B of the restriction: each basis
        point is the lowest point of the mask outside the span of those before
        it. Basis point b lies in the circuit of y exactly when y is outside
        span(B - b), so b, together with the points of the mask outside that
        co-span, lies in one component.
        """
        got = self._components_memo.get(mask)
        if got is not None:
            return got
        table = self._closure_table
        if table is None:
            basis = self._dual_pass(mask, self.r)[1]
        else:
            basis, left = 0, mask
            while left:
                basis |= left & -left
                left &= ~table[basis]
        blocks: list[int] = []
        for b in iter_bits(basis):
            # a tabled space reads each co-span; elsewhere mask lies in span(B), which meets
            # the dual row of any h orthogonal to B - b but not to b in span(B - b)
            others = basis ^ (1 << b)
            if table is None:
                h = self._dual_pass(others, self.r)[0] & ~self._duals[b]
                block = mask & ~self._duals[(h & -h).bit_length() - 1]
            else:
                block = mask & ~table[others]
            rest = []
            for other in blocks:
                if other & block:
                    block |= other
                else:
                    rest.append(other)
            rest.append(block)
            blocks = rest
        return remember(self._components_memo, mask, tuple(sorted(blocks)))

    def is_connected_mask(self, mask: int) -> bool:
        """Whether the restriction to mask is connected; tabled spaces read a table."""
        if self._connected_table is None:
            return len(self.components_mask(mask)) <= 1
        return self._connected_table[mask] == 1

    def connected_spanning_table(self) -> bytes | None:
        """Per mask of a tabled space, 1 if the restriction to it is connected and
        spans the space, else 0: the rank table's spanning entries ANDed with the
        connected table, whole, built on the first call. None on an untabled space."""
        if self._connected_spanning is None and self._rank_table is not None:
            spans = self._rank_table.translate(bytes(v == self.r for v in range(256)))
            both = int.from_bytes(spans, "little") & int.from_bytes(self._connected_table, "little")
            self._connected_spanning = both.to_bytes(len(spans), "little")
        return self._connected_spanning

    # ------------------------------------------------- vertical connectivity

    def vertical_connectivity_mask(self, mask: int) -> int:
        """Least k admitting a vertical k-separation of the restriction, else its rank."""
        if mask == 0:
            return 0
        got = self._vc_memo.get(mask)
        if got is not None:
            return got
        rank = self.rank_of_mask
        rs = rank(mask)
        best = rs
        low = mask & -mask
        rest = mask ^ low
        sub = rest
        # only partitions with both sides non-spanning admit a vertical separation
        while True:
            a = sub | low
            if a != mask:
                ra = rank(a)
                if ra < rs:
                    rb = rank(mask ^ a)
                    if rb < rs:
                        cand = ra + rb - rs + 1
                        if cand < best:
                            best = cand
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return remember(self._vc_memo, mask, best)

    # ------------------------------------------------------------ embeddings

    def flat_embedding(self, flat_mask: int) -> tuple["PointSpace", dict[int, int]]:
        """Re-coordinatization of a projective flat onto its own geometry.

        Returns the small space PG(k-1, q) and the index map defined on every
        point of the flat. The flat's reduced row echelon basis has as pivots
        the lead positions of its points (where their first nonzero entry, 1,
        sits), and a point's coordinates on that
        basis are its entries at the pivots. The flat's greedy basis b_1..b_k,
        each the lowest point of the flat outside the span of those before it,
        is that basis read from the last pivot back, so the map sends b_j to the
        unit point e_j by reading each point at the pivots in decreasing order.

        Raises ValueError if flat_mask is not a flat: a mask with k pivots has
        rank at least k, and is a flat exactly when it has a rank-k flat's size
        and a greedy basis of no more than k points.
        """
        got = self._embeddings.get(flat_mask)
        if got is not None:
            return got
        if flat_mask >> self.n:
            raise ValueError(f"mask {flat_mask:#x} is not a flat of {self!r}: it has bits past its points")
        points, q = self.points, self.q
        members = bits(flat_mask)
        pivots = sorted({points[i].index(1) for i in members}, reverse=True)
        k = len(pivots)
        if self._rank_of_size.get(len(members)) != k or popcount(self._dual_pass(flat_mask, k + 1)[1]) != k:
            raise ValueError(f"mask {flat_mask:#x} is not a flat of {self!r}")
        sub = point_space(k, q)
        # itemgetter of one position gives the entry, not a tuple; a rank-1 flat's point reads (1,)
        read = itemgetter(*pivots) if k > 1 else lambda point: (1,)
        mapping = {i: sub.index[normalize(read(points[i]), q)] for i in members}
        return remember(self._embeddings, flat_mask, (sub, mapping))

    def _pack_incidence(self) -> tuple[int, tuple[int, ...], list[list[int]] | None]:
        """(width, packed, tables): the space's one hyperplane incidence. Per point p,
        one int whose field h of `width` bits (8, 16, 32 or 64 where that fits), for
        hyperplane h of flats_of_rank(r - 1) through p, holds the bit of p's image under
        flat_embedding of h. tables[k][b] ORs the ints of the points in b, byte k of a
        mask, up to 32-bit fields; None above, where they take 4 MB (PG(4,3)) and more."""
        # a hyperplane has (n - 1) / q points; PG(0, q)'s empty one gets one bit
        size = max(1, (self.n - 1) // self.q)
        width = next((w for w in _FIELD_FORMATS if size <= w), size)
        packed = [0] * self.n
        for h, hmask in enumerate(self.flats_of_rank(self.r - 1)):
            for p, image in self.flat_embedding(hmask)[1].items():
                packed[p] |= 1 << (h * width + image)
        tables = [subset_ors(packed[low:low + 8]) for low in range(0, self.n, 8)] if width <= 32 else None
        self._packed_incidence = width, tuple(packed), tables
        return self._packed_incidence

    def hyperplane_pairs(self, p: int) -> tuple[tuple[int, int], ...]:
        """The (h, 1 << image) pairs of the hyperplanes h through point p, in
        increasing h, cut from p's packed int (see _pack_incidence)."""
        width, packed, _ = self._packed_incidence or self._pack_incidence()
        return tuple((b // width, 1 << b % width) for b in iter_bits(packed[p]))

    def hyperplane_traces(self, mask: int) -> list[int]:
        """The trace of mask on each hyperplane H, in the order of flats_of_rank(r - 1):
        translate_mask(mask & H, flat_embedding(H)[1]), a mask of point_space(r - 1, q),
        cut from the OR of the packed ints of mask's points (see _pack_incidence), read
        a byte of mask at a time where there are tables and cut by one cast if padded.
        """
        width, packed, tables = self._packed_incidence or self._pack_incidence()
        acc = 0
        for table in tables or ():
            acc |= table[mask & 255]
            mask >>= 8
        while mask:
            low = mask & -mask
            acc |= packed[low.bit_length() - 1]
            mask ^= low
        # by duality there are as many hyperplanes as points
        if width in _FIELD_FORMATS:
            data = acc.to_bytes(self.n * width // 8, sys.byteorder)
            return memoryview(data).cast(_FIELD_FORMATS[width]).tolist()
        field = (1 << width) - 1
        return [(acc >> shift) & field for shift in range(0, self.n * width, width)]

    def translate_mask(self, mask: int, mapping: dict[int, int]) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << mapping[i]
        return out

    def spanned(self, mask: int) -> tuple["PointSpace", int]:
        """The point set mask re-embedded in its own span: (space, mask) spans space.

        Gives (self, mask) back when mask already spans this space.
        """
        span = self.closure_mask(mask)
        if span == self.full_mask:
            return self, mask
        sub, mapping = self.flat_embedding(span)
        return sub, self.translate_mask(mask, mapping)

    def contraction_map(self, e: int) -> tuple["PointSpace", list[int | None]]:
        """Projection of the whole space along point e onto PG(r-2, q).

        The greedy basis grown from e (each next point the lowest outside the
        span so far) is read as in _dual_pass: the points, in index order, that
        cut the meet of dual rows started at e's. Without e it spans a
        hyperplane H missing e. Each point p != e goes to the image under
        flat_embedding(H) of the point where the line through e and p meets H:
        the one normalized p + c*e, for c = 0..q-1, that lies in H (c = 0 when
        p lies in H itself). The embedding's greedy basis of H is that basis
        without e, so the image drops p's coordinate on e: for spanning
        restrictions it realizes contraction of e.
        """
        duals = self.dual_hyperplanes()
        perp, basis = duals[e], 0
        for x in range(self.n):
            if perp & duals[x] != perp:
                perp, basis = perp & duals[x], basis | 1 << x
        hyperplane = self._span(basis)
        sub, embedding = self.flat_embedding(hyperplane)
        q, v = self.q, self.points[e]
        mapping: list[int | None] = [None] * self.n
        for p, u in enumerate(self.points):
            if p != e:
                meets = (self.index[normalize(tuple((a + c * b) % q for a, b in zip(u, v)), q)] for c in range(1, q))
                mapping[p] = embedding[p if hyperplane >> p & 1 else next(y for y in meets if hyperplane >> y & 1)]
        return sub, mapping


# unbounded but finite: one space per r = 0..MAX_SPACE_RANK and q = 2, 3
@lru_cache(maxsize=None)
def point_space(r: int, q: int) -> PointSpace:
    """Shared PointSpace instance for PG(r-1, q)."""
    return PointSpace(r, q)
