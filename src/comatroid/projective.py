"""Projective geometries PG(r-1, q) over GF(2) and GF(3).

Points are normalized coordinate tuples (first nonzero coordinate 1) in
lexicographic order, addressed by index. Point sets are int bitmasks over
those indices. Joining a point to a flat adds the point and the rest of each
line through it and a point of the flat. The lines are read from per-point rows
that are filled one line at a time as joins need them; an entry holds the
line's other points as a mask and, for the embeddings, labelled by the sums of
the two point vectors that they are multiples of. Joins serve the embedding of
a flat onto its own geometry, the flats up to rank r/2 and the contraction
along a point. Each point's dual row, the mask of its dual hyperplane, is
bit-sliced from the coordinates. The flats above r/2 are meets of dual rows, and
on untabled spaces closure, rank and components come from passes over a mask's
rows: the dot product is nondegenerate, so a span is its orthogonal's orthogonal.
Spaces with at most 15 points read closure, rank and connectivity from tables
over every mask instead, all read off their flats when the space is built.
The one hyperplane incidence packs each point's images under the hyperplanes'
embeddings into one int, a field per hyperplane, ORed up to 32-bit fields into a
table per byte of a mask: a mask's traces are one read per byte, cut into fields
by one cast, and a point's (hyperplane, bit) pairs are its int's bits. Lazy tables
live in attributes set in __init__, never in a cached_property, whose write to the
instance __dict__ makes CPython 3.11 drop the fast path of every later attribute
load on the instance. Coordinates are read only where a line is filled and where
the dual rows are built; no step eliminates.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache

from .errors import ResourceLimitError
from .linalg import check_field, vec_scale

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
        # memos that grow with the masks asked about, each capped by remember
        self._closure_memo: dict[int, int] = {}
        self._components_memo: dict[int, tuple[int, ...]] = {}
        self._vc_memo: dict[int, int] = {}
        self._embeddings: dict[int, tuple["PointSpace", dict[int, int]]] = {}
        # bounded by its r + 1 levels
        self._flats_by_rank: dict[int, tuple[int, ...]] = {}
        self._lines: list[list[int] | None] = [None] * self.n
        self._sums: list[list[tuple[int, ...] | None] | None] = [None] * self.n
        if self.n <= TABLE_POINT_CAP:
            self._build_tables()

    def __repr__(self):
        return f"PG({self.r - 1},{self.q})"

    # ------------------------------------------------------------------ lines

    def _join(self, flat: int, x: int) -> int:
        """The flat spanned by a flat and a point x outside it.

        Row x of `_lines`, allocated on the first join with x, holds at i the
        mask of the other points on the line through i and x, filled by
        `_fill_line` on first use; a line has at least three points, so 0
        marks an entry not yet filled. Rows are never filled ahead of use:
        that is O(n^2) work and memory up front, most of it never read.
        """
        row = self._lines[x]
        if row is None:
            row = self._new_rows(x)
        new = flat | (1 << x)
        rest = flat
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            extra = row[i]
            if not extra:
                extra = self._fill_line(i, x)
            new |= extra
            rest ^= low
        return new

    def _new_rows(self, x: int) -> list[int]:
        self._sums[x] = [None] * self.n
        row = self._lines[x] = [0] * self.n
        return row

    def _fill_line(self, i: int, x: int) -> int:
        """Fill entry i of row x in `_lines` and `_sums`; returns the `_lines` mask.

        The `_sums` entry labels the other points y of the line through i and
        x by c = 1..q-1 in one flat tuple: at 2c - 2 and 2c - 1 it holds y and
        nu with v_i + c*v_x = nu*v_y for the point vectors v.
        """
        u, v = self.points[i], self.points[x]
        if self.q == 2:
            sums = (self.index[tuple(a ^ b for a, b in zip(u, v))], 1)
        else:
            sums = ()
            for w in (tuple((a + b) % 3 for a, b in zip(u, v)),
                      tuple((a - b) % 3 for a, b in zip(u, v))):
                nu = next(filter(None, w))
                # nu is 1 or 2, its own inverse
                sums += (self.index[w if nu == 1 else vec_scale(2, w, 3)], nu)
        extra = sum(1 << y for y in sums[::2])
        self._lines[x][i] = extra
        self._sums[x][i] = sums
        return extra

    def _line_sums(self, i: int, x: int) -> tuple[int, ...]:
        """The `_sums` entry of the line through i and x, filled if need be."""
        if self._sums[x] is None:
            self._new_rows(x)
        if self._sums[x][i] is None:
            self._fill_line(i, x)
        return self._sums[x][i]

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

        Up to rank r/2, flats of rank k - 1 are joined with the points above
        their highest: a flat is the join of its highest point with any of its
        hyperplanes missing that point, whose points all lie below it. Above
        r/2, the dual rows of a basis of each flat of rank r - k are ANDed: the
        orthogonal complement is a bijection from the flats of rank r - k onto
        those of rank k, and a span's complement is its points' complements' meet.
        The top flat is the whole space.
        """
        if not 0 <= k <= self.r:
            return ()
        got = self._flats_by_rank.get(k)
        if got is not None:
            return got
        if k in (0, self.r):
            got = (self.full_mask if k else 0,)
        elif 2 * k <= self.r:
            got = tuple(sorted({
                self._join(f, p)
                for f in self.flats_of_rank(k - 1)
                for p in range(f.bit_length(), self.n)
            }))
        else:
            got = tuple(sorted(self._dual_pass(g, self.r - k)[0] for g in self.flats_of_rank(self.r - k)))
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
        point of the flat. The map sends the flat's greedy basis b_1..b_k, each
        the lowest point of the flat outside the span of those before it, to
        the unit points e_1..e_k, and is built by the joins of that span with
        no coordinates: each point y that joins with b_j has
        v_i + c*v_{b_j} = nu*v_y for one earlier point i and one c in 1..q-1
        (read from `_sums`), and goes to img(i) + mu_i*c*e_j, read from the
        small space's own row for e_j. Here the coordinates of v_i on the
        basis are mu_i times img(i): mu is 1 on the basis and mu_y = nu*mu_i,
        as every unit of GF(2) and GF(3) is its own inverse. Over GF(2) every
        mu is 1; over GF(3) dropping it sends points of flats of rank 3 and
        more to the wrong image.

        Raises ValueError if flat_mask is not a flat.
        """
        got = self._embeddings.get(flat_mask)
        if got is not None:
            return got
        q = self.q
        # a mask of no flat's size walks no step and fails the check below
        k = self._rank_of_size.get(popcount(flat_mask), 0)
        sub = point_space(k, q)
        mapping: dict[int, int] = {}
        mu: dict[int, int] = {}
        flat = 0
        rest = flat_mask
        for j in range(k):
            # fewer than k steps span fewer points than flat_mask has, so rest is not empty
            x = (rest & -rest).bit_length() - 1
            e = sub.index[(0,) * j + (1,) + (0,) * (k - 1 - j)]
            new = 1 << x
            for i in iter_bits(flat):
                m = mu[i]
                image = sub._line_sums(mapping[i], e)
                for c, (y, nu) in enumerate(zip(*[iter(self._line_sums(i, x))] * 2), 1):
                    mapping[y] = image[2 * (m * c % q) - 2]
                    mu[y] = nu * m % q
                    new |= 1 << y
            mapping[x] = e
            mu[x] = 1
            flat |= new
            rest &= ~flat
        if flat != flat_mask:
            raise ValueError(f"mask {flat_mask:#x} is not a flat of {self!r}")
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
        span so far) spans, without e, a hyperplane H missing e. Each point
        p != e goes to the image under flat_embedding(H) of the point where
        the line through e and p meets H, which is p itself when p lies in H.
        The embedding's greedy basis of H is that basis without e, so the
        image drops p's coordinate on e: for spanning restrictions it realizes
        contraction of e.
        """
        flat, basis = 1 << e, 0
        while flat != self.full_mask:
            rest = self.full_mask & ~flat
            x = (rest & -rest).bit_length() - 1
            basis |= 1 << x
            flat = self._join(flat, x)
        hyperplane = self._span(basis)
        sub, embedding = self.flat_embedding(hyperplane)
        # the line is joined from p's side, so only row e of `_lines` is filled
        return sub, [None if p == e else embedding[(self._join(1 << p, e) & hyperplane).bit_length() - 1]
                     for p in range(self.n)]


# unbounded but finite: one space per r = 0..MAX_SPACE_RANK and q = 2, 3
@lru_cache(maxsize=None)
def point_space(r: int, q: int) -> PointSpace:
    """Shared PointSpace instance for PG(r-1, q)."""
    return PointSpace(r, q)
