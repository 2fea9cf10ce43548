"""Canonical keys for embedded matroids up to projective equivalence.

Over GF(2) and GF(3) a simple representable matroid determines its projective
embedding up to an invertible linear map, so projective equivalence of green
point sets is the right notion of isomorphism here. The canonical key is the
minimal image of the green set over all such maps, under the order that
compares membership of low point indices first.

The search walks ordered green bases and maps them onto the reversed standard
basis. Points whose support lies in the last j coordinates occupy a contiguous
run of low indices, so each basis choice determines the image on a full prefix
of the point order, which the search compares against the best known image to
prune early.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from .errors import ResourceLimitError
from .linalg import mat_apply, normalize, vec_add, vec_scale
from .matroid import EmbeddedMatroid
from .projective import PointSpace, iter_bits, point_space, popcount

MAX_CANONICAL_RANK = 6
CACHE_DIR_VAR = "COMATROID_CACHE_DIR"
# Part of every disk-cache file name: raise it whenever the key's order or
# search changes, so files written by an older version are never read.
CACHE_VERSION = 1

_key_memo: dict[tuple[int, int, int], tuple] = {}


def _cache_path(r: int, q: int, green: int) -> Path | None:
    root = os.environ.get(CACHE_DIR_VAR)
    if not root:
        return None
    return Path(root) / f"v{CACHE_VERSION}-{q}-{r}-{green:x}.key"


def _cache_read(path: Path | None, space: PointSpace, green: int) -> int | None:
    """The cached key mask of a spanning green set, unless it cannot be one.

    A key is the image of the green set under an invertible map, so it has
    the same size, lies in the same space and spans it.
    """
    if path is None:
        return None
    try:
        best = int(path.read_text().strip(), 16)
    except (OSError, ValueError):
        return None
    if (not 0 <= best <= space.full_mask or popcount(best) != popcount(green)
            or space.rank_of_mask(best) != space.r):
        return None
    return best


def _cache_write(path: Path | None, best: int) -> None:
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        tmp.write_text(f"{best:x}\n")
        tmp.replace(path)
    except OSError:
        pass


@lru_cache(maxsize=None)
def _flag_table(r: int, q: int):
    """Per-point decomposition against the reversed-standard-basis flag.

    Entry i is (start, c, low): point i equals t_level + c * point[low], where
    t_level is the flag vector at the point's level and start is the first
    index of that level; low is None when the residual vanishes.
    """
    space = point_space(r, q)
    sizes = [((q**j - 1) // (q - 1)) for j in range(r + 1)]
    table = []
    for i, v in enumerate(space.points):
        pos = next(a for a in range(r) if v[a])
        level = r - pos
        start = sizes[level - 1]
        u = (0,) * pos + (0,) + v[pos + 1 :]
        if not any(u):
            table.append((start, 0, None))
        else:
            c = next(a for a in u if a)
            table.append((start, c, space.index[normalize(u, q)]))
    return tuple(table), tuple(sizes)


def canonical_key(M: EmbeddedMatroid) -> tuple:
    """Key equal for two matroids iff a linear map carries one green set to the other."""
    m = M.to_span()
    space = m.space
    r, q = space.r, space.q
    if r > MAX_CANONICAL_RANK:
        raise ResourceLimitError(f"canonical form capped at rank {MAX_CANONICAL_RANK}, got {r}")
    memo_key = (r, q, m.green_mask)
    got = _key_memo.get(memo_key)
    if got is not None:
        return got
    if r == 0:
        result = (q, 0, 0)
        _key_memo[memo_key] = result
        return result
    disk = _cache_path(r, q, m.green_mask)
    cached = _cache_read(disk, space, m.green_mask)
    if cached is not None:
        result = (q, r, cached)
        _key_memo[memo_key] = result
        return result
    table, sizes = _flag_table(r, q)
    green = m.green_mask
    members = list(iter_bits(green))
    pts = space.points
    index = space.index
    best: list[int | None] = [None]

    def extend(depth, img, pre_vec, pre_pts):
        start, stop = sizes[depth - 1], sizes[depth]
        # a global scalar does not move points, so the first scaling is fixed
        scalars = (1,) if q == 2 or depth == 1 else tuple(range(1, q))
        for g in members:
            if g in pre_pts:
                continue
            for d in scalars:
                if best[0] is None:
                    ahead = True
                else:
                    diff = (img ^ best[0]) & ((1 << start) - 1)
                    if diff and not img & (diff & -diff):
                        return
                    ahead = bool(diff)
                vec_g = pts[g] if d == 1 else vec_scale(d, pts[g], q)
                new_vec = list(pre_vec)
                new_pts = set(pre_pts)
                grown = img
                for i in range(start, stop):
                    _, c, low = table[i]
                    w = vec_g if low is None else vec_add(vec_g, vec_scale(c, pre_vec[low], q), q)
                    p = index[normalize(w, q)]
                    new_vec.append(w)
                    new_pts.add(p)
                    if (green >> p) & 1:
                        grown |= 1 << i
                        if not ahead and not (best[0] >> i) & 1:
                            ahead = True
                    elif not ahead and (best[0] >> i) & 1:
                        break
                else:
                    if depth == r:
                        if best[0] is None or _mask_less(grown, best[0]):
                            best[0] = grown
                    else:
                        extend(depth + 1, grown, new_vec, new_pts)

    extend(1, 0, [], set())
    result = (q, r, best[0])
    _key_memo[memo_key] = result
    _cache_write(disk, best[0])
    return result


def _mask_less(a: int, b: int) -> bool:
    """True iff a precedes b: the lowest differing bit belongs to a."""
    d = a ^ b
    if not d:
        return False
    return bool(a & (d & -d))


def point_permutation(space: PointSpace, mat) -> tuple[int, ...]:
    """The permutation an invertible matrix induces on the point indices."""
    return tuple(
        space.index[normalize(mat_apply(mat, p, space.q), space.q)] for p in space.points
    )


def apply_linear_map(M: EmbeddedMatroid, mat) -> EmbeddedMatroid:
    """The image of the green set under an invertible matrix on the ambient space."""
    perm = point_permutation(M.space, mat)
    return EmbeddedMatroid(M.space, M.space.translate_mask(M.green_mask, perm))


def is_isomorphic(M: EmbeddedMatroid, N: EmbeddedMatroid) -> bool:
    """Projective equivalence test via canonical keys, with cheap-invariant shortcuts."""
    if M.q != N.q or M.rank != N.rank or M.n != N.n:
        return False
    return canonical_key(M) == canonical_key(N)
