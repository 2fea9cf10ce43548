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

The search never touches coordinates. A nonzero vector s * point[p] is coded
as the integer p * (q - 1) + s - 1, so scaling by c is code ^ (c - 1), and
a per-space table of sums gives the code of the sum of two coded vectors.
Its rows are filled from vec_add one at a time, the first time a key reads
them: a key reads only the rows of its green points' codes, each fetched once
per choice of basis image and scaling. Each flag position then costs one read
of that row: its image is the new basis image plus a scaled image of a lower
flag point, and its point is code // (q - 1).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ResourceLimitError
from .linalg import mat_apply, normalize, vec_add, vec_scale
from .matroid import EmbeddedMatroid
from .projective import PointSpace, iter_bits, point_space, remember, subset_ors

MAX_CANONICAL_RANK = 6

# (r, q, green) of a spanning green set -> its key, capped by remember; without it
# comatroid verify took 4.71 s CPU against 3.27 s (medians of 3 pairs, 2 cores, Python
# 3.11.7), while sweep and decide-mix did not move past host noise
_key_memo: dict[tuple[int, int, int], tuple] = {}


# unbounded but finite: one table per r = 1..MAX_CANONICAL_RANK and q = 2, 3
@lru_cache(maxsize=None)
def _flag_table(r: int, q: int):
    """Per-level decomposition of the points against the reversed-standard-basis flag.

    Entry depth - 1 is (prefix, steps): prefix masks the points of the lower
    levels, and steps lists (i, 1 << i, slot, flip) for each point i of the
    level. Point i equals t_level + c * point[low], where t_level is the flag
    vector of the level; slot is low and flip is c - 1, or slot is n and flip
    0 when the residual vanishes, n being the slot of the zero vector.
    """
    space = point_space(r, q)
    sizes = [((q**j - 1) // (q - 1)) for j in range(r + 1)]
    levels = []
    for depth in range(1, r + 1):
        steps = []
        for i in range(sizes[depth - 1], sizes[depth]):
            v = space.points[i]
            u = (0,) * (r - depth + 1) + v[r - depth + 1 :]
            if not any(u):
                steps.append((i, 1 << i, space.n, 0))
            else:
                c = next(a for a in u if a)
                steps.append((i, 1 << i, space.index[normalize(u, q)], c - 1))
        levels.append(((1 << sizes[depth - 1]) - 1, tuple(steps)))
    return tuple(levels)


class _CodeSums(dict):
    """Sums of coded vectors, one row per code filled the first time it is read:
    row a holds at b the code of vec(a) + vec(b).

    Code p * (q - 1) + s - 1 stands for s * point[p], and code N = n * (q - 1)
    for the zero vector. A key reads only the rows of its green points' codes,
    so PG(5,3), with 729 codes and 531,441 sums, is never filled whole.
    """

    def __init__(self, r: int, q: int):
        super().__init__()
        space = point_space(r, q)
        self.q = q
        self.vecs = [vec_scale(s, p, q) for p in space.points for s in range(1, q)]
        self.vecs.append((0,) * r)
        self.code = {v: c for c, v in enumerate(self.vecs)}

    def __missing__(self, a: int) -> list[int]:
        va, code, q = self.vecs[a], self.code, self.q
        row = self[a] = [code[vec_add(va, b, q)] for b in self.vecs]
        return row


# one shared table per space: unbounded but finite, r = 1..MAX_CANONICAL_RANK and q = 2, 3
_code_sums = lru_cache(maxsize=None)(_CodeSums)


def canonical_key(M: EmbeddedMatroid) -> tuple:
    """Key equal for two matroids iff a linear map carries one green set to the other."""
    space, green = M.space.spanned(M.green_mask)
    r, q = space.r, space.q
    if r > MAX_CANONICAL_RANK:
        raise ResourceLimitError(f"canonical form capped at rank {MAX_CANONICAL_RANK}, got {r}")
    if r == 0:
        return (q, 0, 0)
    memo_key = (r, q, green)
    got = _key_memo.get(memo_key)
    if got is not None:
        return got
    levels = _flag_table(r, q)
    sums = _code_sums(r, q)
    width = q - 1
    zero = space.n * width  # the code of the zero vector
    # the point bit of each code's point if it is green, else 0
    green_bit = [green & (1 << (c // width)) for c in range(zero + 1)]
    members = list(iter_bits(green))
    best: list[int | None] = [None]

    # codes[i] codes the image of flag point i on the current search path;
    # a level reads only the slots of lower levels, so one list serves all
    codes = [0] * space.n + [zero]

    def extend(depth, img, span_green):
        prefix, steps = levels[depth - 1]
        # a global scalar does not move points, so the first scaling is fixed
        flips = (0,) if q == 2 or depth == 1 else (0, 1)
        for g in members:
            if (span_green >> g) & 1:
                continue
            for flip_g in flips:
                b = best[0]
                if b is None:
                    ahead = True
                else:
                    diff = (img ^ b) & prefix
                    if diff and not img & (diff & -diff):
                        return
                    ahead = bool(diff)
                row = sums[g * width + flip_g]
                new_span = span_green
                grown = img
                for i, ibit, slot, flip in steps:
                    w = row[codes[slot] ^ flip]
                    codes[i] = w
                    bit = green_bit[w]
                    if bit:
                        grown |= ibit
                        new_span |= bit
                        if not ahead and not b & ibit:
                            ahead = True
                    elif not ahead and b & ibit:
                        break
                else:
                    if depth == r:
                        if b is None or _mask_less(grown, b):
                            best[0] = grown
                    else:
                        extend(depth + 1, grown, new_span)

    extend(1, 0, 0)
    return remember(_key_memo, memo_key, (q, r, best[0]))


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


# unbounded but finite: one entry per space, r = 0..MAX_SPACE_RANK and q = 2, 3
@lru_cache(maxsize=None)
def _generator_images(r: int, q: int) -> tuple[tuple[list[int], ...], ...]:
    """Per generator of the linear group, the images of each byte of a mask.

    The generators, the cyclic coordinate shift, the transvection v0 += v1
    and over GF(3) the scaling of v0, generate GL(r, q): the shift conjugates
    the transvection to every v_i += v_(i+1), whose commutators give every
    v_i += v_j. Table k maps the masks of points 8k to 8k + 7, and a mask's
    image is the union of table k at its byte k. Tables are built by doubling,
    and a space of at most 8 points gets a second one, [0], for orbit_of.
    """
    space = point_space(r, q)
    maps = [
        lambda v: v[1:] + v[:1],
        lambda v: ((v[0] + v[1]) % q,) + v[1:],
    ]
    if q > 2:
        maps.append(lambda v: ((2 * v[0]) % q,) + v[1:])
    images = [[1 << space.index[normalize(f(v), q)] for v in space.points] for f in maps]
    return tuple(tuple(subset_ors(image[s:s + 8]) for s in range(0, max(space.n, 9), 8))
                 for image in images)


def orbit_of(space: PointSpace, green: int, seen, mark: int = 1) -> list[int]:
    """The masks of green's projective-equivalence orbit, each marked in seen.

    seen maps masks to marks, 0 for none: a bytearray over the space's masks
    or a dict whose missing keys read 0, such as a Counter. Every mask reached
    is set to mark and a marked one is not walked, so a walked orbit gives [].
    Each generator's image of a mask reads its first two bytes inline and loops
    only over the bytes above, which no tabled space has.
    """
    if seen[green]:
        return []
    gens = [(tables[0], tables[1], tables[2:]) for tables in _generator_images(space.r, space.q)]
    seen[green] = mark
    orbit = [green]
    for mask in orbit:
        low, mid, high = mask & 255, mask >> 8 & 255, mask >> 16
        for t0, t1, tables in gens:
            image = t0[low] | t1[mid]
            rest = high
            for table in tables:
                image |= table[rest & 255]
                rest >>= 8
            if not seen[image]:
                seen[image] = mark
                orbit.append(image)
    return orbit


def apply_linear_map(M: EmbeddedMatroid, mat) -> EmbeddedMatroid:
    """The image of the green set under an invertible matrix on the ambient space."""
    perm = point_permutation(M.space, mat)
    return EmbeddedMatroid(M.space, M.space.translate_mask(M.green_mask, perm))

