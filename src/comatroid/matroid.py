"""Simple GF(q)-representable matroids embedded as green point sets in PG(r-1, q).

An EmbeddedMatroid is a projective geometry together with a green subset; the
red points are the rest. All matroid operations (rank, flats, connectivity,
complements, direct sums, simplified contraction) are derived from the ambient
geometry, so every matroid here is automatically simple and loopless.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import ResourceLimitError, SimplicityError
from .linalg import Echelon, check_field, normalize
from .projective import PointSpace, iter_bits, point_space, popcount

# Most elements whose vertical connectivity is found by trying every partition:
# on PG(4,2), 18 elements take about 1.3 s and leave 136k closures memoised.
BRUTE_FORCE_CAP = 16


@dataclass(frozen=True)
class MatrixPresentation:
    """A GF(q) matrix given column by column, with optional column labels."""

    q: int
    columns: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        check_field(self.q)
        object.__setattr__(self, "columns", tuple(tuple(c) for c in self.columns))
        if self.columns:
            m = len(self.columns[0])
            if any(len(c) != m for c in self.columns):
                raise ValueError("columns must share a common length")
        if any(a % self.q != a for c in self.columns for a in c):
            raise ValueError(f"matrix entries must lie in 0..{self.q - 1}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != len(self.columns):
                raise ValueError("label count must match column count")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("duplicate column labels")

    @property
    def rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0


@dataclass(frozen=True)
class EmbeddedMatroid:
    """A green point subset of PG(r-1, q); red is the complement point set."""

    space: PointSpace
    green_mask: int
    labels: tuple[tuple[str, int], ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.green_mask & ~self.space.full_mask:
            raise ValueError("green set contains indices outside the space")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            for _, i in self.labels:
                if not (self.green_mask >> i) & 1:
                    raise ValueError("label attached to a non-green point")

    # ------------------------------------------------------------- basic views

    @property
    def q(self) -> int:
        return self.space.q

    @property
    def n(self) -> int:
        return popcount(self.green_mask)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.green_mask))

    @property
    def red_mask(self) -> int:
        return self.space.full_mask & ~self.green_mask

    @property
    def rank(self) -> int:
        return self.space.rank_of_mask(self.green_mask)

    @property
    def span_mask(self) -> int:
        return self.space.closure_mask(self.green_mask)

    @property
    def is_spanning(self) -> bool:
        return self.rank == self.space.r

    @property
    def label_to_index(self) -> dict[str, int]:
        return dict(self.labels or ())

    def mask_of_labels(self, names) -> int:
        index = self.label_to_index
        return self.space.mask_of(index[name] for name in names)

    def _subset_mask(self, S) -> int:
        m = 0
        for i in S:
            if not 0 <= i < self.space.n:
                raise ValueError(f"point {i} outside 0..{self.space.n - 1} of {self.space!r}")
            m |= 1 << i
        if m & ~self.green_mask:
            raise ValueError("subset contains non-green points")
        return m

    def __repr__(self):
        return f"EmbeddedMatroid({self.space!r}, n={self.n}, rank={self.rank})"

    # ------------------------------------------------------------------ flats

    def _span_flats_of_rank(self, j: int):
        """Ambient masks of the rank-j projective flats of the green span."""
        if self.is_spanning:
            yield from self.space.flats_of_rank(j)
            return
        sub, mapping = self.space.flat_embedding(self.span_mask)
        back = {v: k for k, v in mapping.items()}
        for fmask in sub.flats_of_rank(j):
            yield sub.translate_mask(fmask, back)

    def hyperplane_masks(self) -> tuple[int, ...]:
        """Masks of the rank-(r-1) flats of the matroid, in ambient coordinates."""
        k = self.rank
        if k == 0:
            return ()
        seen = set()
        for fmask in self._span_flats_of_rank(k - 1):
            inter = fmask & self.green_mask
            if self.space.rank_of_mask(inter) == k - 1:
                seen.add(inter)
        return tuple(sorted(seen))

    def connected_hyperplanes(self) -> tuple[int, ...]:
        """The masks of hyperplane_masks() whose restriction is connected, in its order.

        Empty and single-point restrictions count as connected.
        """
        return tuple(h for h in self.hyperplane_masks() if self.space.is_connected_mask(h))

    # ------------------------------------------------------------ connectivity

    def components_of(self) -> tuple[tuple[int, ...], ...]:
        """Connected components, coloops as singletons."""
        return tuple(tuple(iter_bits(b)) for b in self.space.components_mask(self.green_mask))

    def is_connected(self) -> bool:
        return self.space.is_connected_mask(self.green_mask)

    def vertical_connectivity(self) -> int:
        """Least k admitting a vertical k-separation, else the rank."""
        if self.n > BRUTE_FORCE_CAP:
            raise ResourceLimitError(f"vertical connectivity capped at {BRUTE_FORCE_CAP} elements, got {self.n}")
        return self.space.vertical_connectivity_mask(self.green_mask)

    # -------------------------------------------------------------- cocircuits

    def cocircuits_min_size(self) -> int:
        """Minimum cocircuit size, via complements of hyperplane flats."""
        if not self.green_mask:
            raise ValueError("the empty matroid has no cocircuits")
        best = self.n
        for h in self.hyperplane_masks():
            best = min(best, self.n - popcount(h))
        return best

    def series_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition of the ground set by the relation 'together in a 2-cocircuit'."""
        idxs = list(self.elements)
        parent = {i: i for i in idxs}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        k = self.rank
        for e, f in itertools.combinations(idxs, 2):
            rest = self.green_mask ^ (1 << e) ^ (1 << f)
            if self.space.rank_of_mask(rest) != k - 1:
                continue
            if self.space.closure_mask(rest) & self.green_mask != rest:
                continue
            re, rf = find(e), find(f)
            if re != rf:
                parent[re] = rf
        blocks: dict[int, list[int]] = {}
        for i in idxs:
            blocks.setdefault(find(i), []).append(i)
        return tuple(sorted(tuple(b) for b in blocks.values()))

    # ------------------------------------------------------------- embeddings

    def to_span(self) -> "EmbeddedMatroid":
        """The same matroid re-embedded so that its green set spans the space."""
        if self.is_spanning:
            return self
        sub, mapping = self.space.flat_embedding(self.span_mask)
        green = self.space.translate_mask(self.green_mask, mapping)
        labels = None
        if self.labels is not None:
            labels = tuple((name, mapping[i]) for name, i in self.labels)
        return EmbeddedMatroid(sub, green, labels)

    def _padded_to(self, t: int) -> "EmbeddedMatroid":
        """Span re-embedding padded with zero coordinates up to t rows."""
        m = self.to_span()
        if t == m.space.r:
            return m
        target = point_space(t, self.q)
        pad = (0,) * (t - m.space.r)
        remap = {i: target.index[p + pad] for i, p in enumerate(m.space.points)}
        green = m.space.translate_mask(m.green_mask, remap)
        labels = None
        if m.labels is not None:
            labels = tuple((name, remap[i]) for name, i in m.labels)
        return EmbeddedMatroid(target, green, labels)

    def complement(self, t: int | None = None) -> "EmbeddedMatroid":
        """The (GF(q), t)-complement: the red side of a rank-t embedding.

        With t equal to the ambient rank of a spanning matroid the embedding is
        left untouched, so complementation is an exact involution there.
        """
        k = self.rank
        if t is None:
            t = k
        if t < k:
            raise ValueError(f"complement rank {t} below matroid rank {k}")
        if t == self.space.r and self.is_spanning:
            return EmbeddedMatroid(self.space, self.red_mask)
        m = self._padded_to(t)
        return EmbeddedMatroid(m.space, m.red_mask)

    def direct_sum(self, other: "EmbeddedMatroid") -> "EmbeddedMatroid":
        """Block-diagonal embedding of the direct sum in PG(r1+r2-1, q)."""
        if self.q != other.q:
            raise ValueError("direct sum requires matching field orders")
        a = self.to_span()
        b = other.to_span()
        target = point_space(a.space.r + b.space.r, self.q)
        zeros_a = (0,) * b.space.r
        zeros_b = (0,) * a.space.r
        green = 0
        for i in iter_bits(a.green_mask):
            green |= 1 << target.index[a.space.points[i] + zeros_a]
        for i in iter_bits(b.green_mask):
            green |= 1 << target.index[zeros_b + b.space.points[i]]
        return EmbeddedMatroid(target, green)

    def restrict(self, S) -> "EmbeddedMatroid":
        """Restriction to a green subset, kept in the ambient space."""
        mask = self._subset_mask(S)
        labels = None
        if self.labels is not None:
            labels = tuple((name, i) for name, i in self.labels if (mask >> i) & 1)
        return EmbeddedMatroid(self.space, mask, labels)

    def si_contract(self, e: int) -> "EmbeddedMatroid":
        """Simplification of the contraction by e, embedded in PG(r-2, q)."""
        self._subset_mask([e])
        m = self
        if not self.is_spanning:
            _, emb = self.space.flat_embedding(self.span_mask)
            m = self.to_span()
            e = emb[e]
        if m.space.r == 1:
            return EmbeddedMatroid(point_space(0, self.q), 0)
        sub, mapping = m.space.contraction_map(e)
        return EmbeddedMatroid(sub, m.space.translate_mask(m.green_mask & ~(1 << e), mapping))


def _trim_rows(pres: MatrixPresentation) -> MatrixPresentation:
    """Re-coordinatize onto a column basis so row count equals rank."""
    ech = Echelon(pres.q)
    for c in pres.columns:
        ech.insert(c)
    if ech.rank == pres.rows:
        return pres
    return MatrixPresentation(pres.q, tuple(ech.coords(c) for c in pres.columns),
                              pres.labels)


def embed(pres: MatrixPresentation) -> EmbeddedMatroid:
    """Embed a matrix presentation into PG(rank-1, q) as a green point set.

    The columns are re-coordinatized over a basis of the column space, so the
    ambient rank always equals the rank of the matrix.
    """
    if not pres.columns:
        return EmbeddedMatroid(point_space(0, pres.q), 0)
    if any(not any(c) for c in pres.columns):
        raise SimplicityError("zero column in presentation")
    pres = _trim_rows(pres)
    space = point_space(pres.rows, pres.q)
    green = 0
    labels = []
    for pos, c in enumerate(pres.columns):
        p = space.index[normalize(c, pres.q)]
        if (green >> p) & 1:
            raise SimplicityError(f"columns {pos} and an earlier column are projectively equal")
        green |= 1 << p
        if pres.labels is not None:
            labels.append((pres.labels[pos], p))
    return EmbeddedMatroid(space, green, tuple(labels) if pres.labels is not None else None)

