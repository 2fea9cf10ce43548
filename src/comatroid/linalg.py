"""Exact linear algebra over GF(2) and GF(3) on coordinate tuples."""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import UnsupportedFieldError

SUPPORTED_FIELDS = (2, 3)

Vec = tuple[int, ...]


def check_field(q: int) -> int:
    if q not in SUPPORTED_FIELDS:
        raise UnsupportedFieldError(f"field order must be 2 or 3, got {q!r}")
    return q


def vec_add(u: Vec, v: Vec, q: int) -> Vec:
    return tuple((a + b) % q for a, b in zip(u, v))


def vec_scale(c: int, u: Vec, q: int) -> Vec:
    return tuple((c * a) % q for a in u)


def normalize(u: Vec, q: int) -> Vec:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    for a in u:
        if a:
            if a == 1:
                return u
            # over GF(3) the only other unit is 2, its own inverse
            return vec_scale(2, u, q)
    raise ValueError("cannot normalize the zero vector")


def is_zero(u: Vec) -> bool:
    return not any(u)


class Echelon:
    """Row-style echelon basis over GF(q) supporting membership and coordinates.

    The basis is the vectors whose insert() returned True. Rows are
    kept reduced with recorded combinations of that basis, so coords()
    returns the expression of a vector in terms of it.
    """

    def __init__(self, q: int):
        self.q = check_field(q)
        self.rows: list[Vec] = []
        self.combos: list[Vec] = []  # combo[i][j]: coefficient of basis vector j in row i
        self.pivots: list[int] = []

    def _reduce(self, vec: Vec, combo: Vec) -> tuple[Vec, Vec]:
        q = self.q
        for row, rcombo, p in zip(self.rows, self.combos, self.pivots):
            c = vec[p]
            if c:
                k = q - c  # vec + k*row zeroes the pivot since row[p] == 1
                vec = tuple((a + k * b) % q for a, b in zip(vec, row))
                combo = tuple((a + k * b) % q for a, b in zip(combo, rcombo))
        return vec, combo

    def insert(self, vec: Vec) -> bool:
        """Insert a vector; returns True if it enlarged the span and joined the basis."""
        vec, combo = self._reduce(vec, (0,) * self.rank)
        if is_zero(vec):
            return False
        combo += (1,)
        p = next(i for i, a in enumerate(vec) if a)
        if vec[p] != 1:
            inv = 2  # only for GF(3)
            vec = vec_scale(inv, vec, self.q)
            combo = vec_scale(inv, combo, self.q)
        self.combos = [c + (0,) for c in self.combos]
        self.rows.append(vec)
        self.combos.append(combo)
        self.pivots.append(p)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec: Vec) -> bool:
        red, _ = self._reduce(vec, (0,) * self.rank)
        return is_zero(red)

    def coords(self, vec: Vec) -> Vec | None:
        """Coefficients on the basis vectors producing vec, or None."""
        red, combo = self._reduce(vec, (0,) * self.rank)
        if not is_zero(red):
            return None
        return tuple((self.q - c) % self.q for c in combo)


def gf_rank(vectors: Iterable[Vec], q: int) -> int:
    ech = Echelon(q)
    for v in vectors:
        ech.insert(v)
    return ech.rank


def mat_apply(mat: Sequence[Vec], vec: Vec, q: int) -> Vec:
    return tuple(sum(a * b for a, b in zip(row, vec)) % q for row in mat)


def is_invertible(mat: Sequence[Vec], q: int) -> bool:
    return gf_rank(mat, q) == len(mat)


def random_invertible(r: int, q: int, rng) -> list[Vec]:
    """Uniformly random invertible r x r matrix over GF(q), by rejection."""
    while True:
        mat = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(r)]
        if is_invertible(mat, q):
            return mat
