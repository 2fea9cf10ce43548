"""Named matroid constructions and the bundled matrix catalog."""

from __future__ import annotations

import itertools
import re
from importlib import resources
from typing import Callable

from .errors import CatalogError, ResourceLimitError, SimplicityError
from .formats import loads_presentation
from .linalg import gf_rank, normalize, vec_add, vec_scale
from .matroid import MatrixPresentation, _trim_rows
from .projective import point_space


def circuit(k: int, q: int) -> MatrixPresentation:
    """The k-element circuit over GF(q), presented as [I | all-ones]."""
    if k < 3:
        raise ValueError(f"circuit size must be at least 3, got {k}")
    r = k - 1
    cols = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    cols.append((1,) * r)
    return MatrixPresentation(q, tuple(cols))


def graph_cycle_matroid(edges, q: int) -> MatrixPresentation:
    """Cycle matroid of a simple graph via its (signed) incidence matrix."""
    edges = [tuple(e) for e in edges]
    seen = set()
    for u, v in edges:
        if u == v:
            raise SimplicityError(f"loop at vertex {u!r}")
        key = frozenset((u, v))
        if key in seen:
            raise SimplicityError(f"parallel edge {u!r}-{v!r}")
        seen.add(key)
    vertices = sorted({w for e in edges for w in e}, key=str)
    index = {w: i for i, w in enumerate(vertices)}
    cols = []
    labels = []
    for u, v in edges:
        col = [0] * len(vertices)
        a, b = sorted((index[u], index[v]))
        col[a] = 1
        col[b] = 1 if q == 2 else q - 1
        cols.append(tuple(col))
        labels.append(f"{u}{v}")
    return MatrixPresentation(q, tuple(cols), tuple(labels))


def _move_to_unit(columns, q, j, pos):
    """Row operations sending column j to the unit vector at row pos."""
    cols = [list(c) for c in columns]
    r = len(cols[0])
    target = cols[j]
    pivot = next((i for i in range(r) if target[i]), None)
    if pivot is None:
        raise SimplicityError("basepoint column is zero")
    if pivot != pos:
        for c in cols:
            c[pivot], c[pos] = c[pos], c[pivot]
    scale = pow(target[pos], -1, q)
    if scale != 1:
        for c in cols:
            c[pos] = (c[pos] * scale) % q
    for i in range(r):
        if i != pos and target[i]:
            f = q - target[i]
            for c in cols:
                c[i] = (c[i] + f * c[pos]) % q
    return [tuple(c) for c in cols]


def _basepoint_index(pres: MatrixPresentation, p) -> int:
    if isinstance(p, str):
        if pres.labels is None:
            raise ValueError(f"presentation has no labels to resolve {p!r}")
        try:
            return pres.labels.index(p)
        except ValueError:
            raise ValueError(f"no column labeled {p!r}") from None
    j = int(p)
    if not 0 <= j < len(pres.columns):
        raise ValueError(f"column index {j} out of range")
    return j


def _check_not_coloop(pres: MatrixPresentation, j: int) -> None:
    others = [c for i, c in enumerate(pres.columns) if i != j]
    if gf_rank(others, pres.q) < gf_rank(pres.columns, pres.q):
        raise ValueError("basepoint is a coloop")


def _glue(M1, p1, M2, p2, keep_basepoint):
    if M1.q != M2.q:
        raise ValueError(f"mixed fields GF({M1.q}) and GF({M2.q})")
    q = M1.q
    j1 = _basepoint_index(M1, p1)
    j2 = _basepoint_index(M2, p2)
    _check_not_coloop(M1, j1)
    _check_not_coloop(M2, j2)
    A = _trim_rows(M1)
    B = _trim_rows(M2)
    r1 = len(A.columns[0])
    r2 = len(B.columns[0])
    acols = _move_to_unit(A.columns, q, j1, r1 - 1)
    bcols = _move_to_unit(B.columns, q, j2, 0)
    pad1 = (0,) * (r2 - 1)
    pad2 = (0,) * (r1 - 1)
    cols = []
    labels = []
    for i, c in enumerate(acols):
        if i == j1 and not keep_basepoint:
            continue
        cols.append(c + pad1)
        if M1.labels is not None:
            labels.append(M1.labels[i])
    for i, c in enumerate(bcols):
        if i == j2:
            continue
        cols.append(pad2 + c)
        if M2.labels is not None:
            labels.append(M2.labels[i])
    if M1.labels is None or M2.labels is None or len(set(labels)) != len(labels):
        labels = None
    else:
        labels = tuple(labels)
    return MatrixPresentation(q, tuple(cols), labels)


def parallel_connection(M1, p1, M2, p2) -> MatrixPresentation:
    """Glue two presentations at a shared basepoint, keeping the basepoint."""
    return _glue(M1, p1, M2, p2, keep_basepoint=True)


def two_sum(M1, p1, M2, p2) -> MatrixPresentation:
    """Glue two presentations at a shared basepoint, deleting the basepoint."""
    return _glue(M1, p1, M2, p2, keep_basepoint=False)


def _u24() -> MatrixPresentation:
    return MatrixPresentation(3, ((1, 0), (0, 1), (1, 1), (1, 2)))


def circuit_with_u24(k: int, D) -> MatrixPresentation:
    """A k-circuit over GF(3) with a U(2,4) two-summed at each element of D."""
    D = sorted(set(D), reverse=True)
    if D and not 0 <= D[0] < k:
        raise ValueError(f"D must index circuit elements 0..{k - 1}")
    if D and D[-1] < 0:
        raise ValueError(f"D must index circuit elements 0..{k - 1}")
    out = circuit(k, 3)
    for d in D:
        out = two_sum(out, d, _u24(), 0)
    return out


def four_hyperplane_family(n: int) -> MatrixPresentation:
    """Ternary family with exactly four connected hyperplanes; 5n+8 elements."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > 4:
        raise ResourceLimitError(f"family cap is n <= 4, got {n}")

    def augmented_k4(tag):
        names = [f"{c}{tag}" for c in "abcd"]
        pres = graph_cycle_matroid(itertools.combinations(names, 2), 3)
        # fourth point of the line spanned by the triangle avoiding the
        # basepoint edge names[0]-names[1]
        tri = [f"{u}{v}" for u, v in itertools.combinations(names[1:], 2)]
        cols = {lab: normalize(pres.columns[pres.labels.index(lab)], 3)
                for lab in tri}
        u, v = cols[tri[0]], cols[tri[1]]
        line = {u, v, normalize(vec_add(u, v, 3), 3),
                normalize(vec_add(u, vec_scale(2, v, 3), 3), 3)}
        (extra,) = line - set(cols.values())
        return MatrixPresentation(
            3, pres.columns + (extra,), pres.labels + (f"q{tag}",))

    n1 = augmented_k4(1)
    n2 = augmented_k4(2)
    if n == 1:
        return parallel_connection(n1, "a1b1", n2, "a2b2")
    edges = []
    for i in range(1, n):
        edges.append((f"x{i}", f"x{i + 1}"))
        edges.append((f"y{i}", f"y{i + 1}"))
        edges.append((f"x{i}", f"y{i + 1}"))
        edges.append((f"x{i + 1}", f"y{i}"))
    for i in range(1, n + 1):
        edges.append((f"x{i}", f"y{i}"))
    ladder = graph_cycle_matroid(edges, 3)
    out = parallel_connection(n1, "a1b1", ladder, "x1y1")
    return parallel_connection(out, f"x{n}y{n}", n2, "a2b2")


def _figure(fname: str) -> MatrixPresentation:
    text = resources.files("comatroid").joinpath(
        f"data/figures/{fname}.mat").read_text(encoding="utf-8")
    return loads_presentation(text)


def _projective_columns(r: int, q: int) -> MatrixPresentation:
    space = point_space(r, q)
    return MatrixPresentation(q, space.points)


def _affine_geometry(r: int, q: int) -> MatrixPresentation:
    space = point_space(r, q)
    cols = tuple(p for p in space.points if p[0] == 1)
    return MatrixPresentation(q, cols)


def _ag23_minus_point() -> MatrixPresentation:
    pres = _affine_geometry(3, 3)
    return MatrixPresentation(3, pres.columns[:-1])


def _whirl3() -> MatrixPresentation:
    cols = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1))
    return MatrixPresentation(3, cols, ("s1", "s2", "s3", "r12", "r23", "r13"))


def _uniform(m: int, n: int) -> MatrixPresentation:
    if not 0 <= m <= n:
        raise CatalogError(f"U({m},{n}) is not a matroid")
    if m == n:
        return MatrixPresentation(
            2, tuple(tuple(1 if i == j else 0 for i in range(max(m, 1)))
                     for j in range(m)))
    if m == n - 1 and m >= 2:
        return circuit(n, 2)
    if (m, n) == (2, 3):
        return circuit(3, 2)
    if (m, n) == (2, 4):
        return _u24()
    raise CatalogError(f"U({m},{n}) has no simple GF(2) or GF(3) presentation here")


# bundled data files figures/<file>.mat
_FIGURES = {
    "Delta5": "delta5",  # rank-5 triangular Mobius matroid, reduced form
    "T12/e": "t12e",  # contraction of the 12-element sporadic matroid
    "M5,12a": "m5_12a",  # first 12-element rank-5 sporadic matroid
    "M5,12b": "m5_12b",  # second 12-element rank-5 sporadic matroid
    "M5,13": "m5_13",  # 13-element rank-5 sporadic matroid
    "K33": "k33",  # cycle matroid of K(3,3) from its incidence matrix
    "m2-1": "m2_1",  # first scan seed extending the K(3,3) incidence matrix
    "m2-2": "m2_2",  # second scan seed extending the K(3,3) incidence matrix
    "extra-1": "extra_1",  # third scan seed extending the K(3,3) incidence matrix
    "extra-2": "extra_2",  # fourth scan seed extending the K(3,3) incidence matrix
    "f77": "f77",  # 13-element extension of the K(3,3) incidence matrix
}

_K4_EDGES = tuple(itertools.combinations((1, 2, 3, 4), 2))

# name -> builder of each fixed catalog entry
REGISTRY: dict[str, Callable[[], MatrixPresentation]] = {
    **{name: (lambda f=fname: _figure(f)) for name, fname in _FIGURES.items()},
    # the Fano plane, all seven nonzero GF(2)^3 columns
    "F7": lambda: _projective_columns(3, 2),
    # cycle matroid of K4 over GF(3), signed incidence
    "M(K4)": lambda: graph_cycle_matroid(_K4_EDGES, 3),
    # rank-3 whirl: three spokes and an independent rim
    "W3": _whirl3,
    # ternary affine plane minus one point
    "AG(2,3)\\e": _ag23_minus_point,
    # parallel connection of two binary 4-circuits
    "P(U34,U34)": lambda: parallel_connection(circuit(4, 2), 0, circuit(4, 2), 0),
    # parallel connection of two ternary triangles
    "P(U23,U23)": lambda: parallel_connection(circuit(3, 3), 0, circuit(3, 3), 0),
    # parallel connection of U(2,4) and a triangle
    "P(U24,U23)": lambda: parallel_connection(_u24(), 0, circuit(3, 3), 0),
    # two-sum of U(2,4) and a triangle
    "U24+2U23": lambda: two_sum(_u24(), 0, circuit(3, 3), 0),
    # two-sum of two copies of U(2,4)
    "R6": lambda: two_sum(_u24(), 0, _u24(), 0),
    # parallel connection of the Fano plane and a binary triangle
    "P(F7,U23)": lambda: parallel_connection(_projective_columns(3, 2), 0, circuit(3, 2), 0),
}

_ALIASES = {
    "M(K3,3)": "K33",
    "U24+2U24": "R6",
    "PG(2,2)": "F7",
}

# The seven rank-3 ternary minimal non-comatroids: census label -> catalog name.
TERNARY_RANK3_MINIMAL = {
    "U(3,4)": "C(4,3)",
    "P(U23,U23)": "P(U23,U23)",
    "U24+2U23": "U24+2U23",
    "U24+2U24": "R6",
    "P(U24,U23)": "P(U24,U23)",
    "M(K4)": "M(K4)",
    "W3": "W3",
}

# The smaller side of each of the six complement pairs of rank-4 binary
# minimal non-comatroids, as the cycle matroid of a 5-vertex graph.
FIVE_VERTEX_GRAPHS = {
    "M(C5)": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1)),
    "M(house)": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)),
    "M(K2,3)": ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)),
    "M(gem)": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (1, 4)),
    "M(subdivided K4)": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (2, 4)),
    "M(K2,3)+e": ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (1, 2)),
}


def forbidden_fixed(q: int) -> list[tuple[str, MatrixPresentation]]:
    """(name, presentation) of each fixed forbidden-flat member over GF(q).

    Over GF(2): the six 5-vertex cycle matroids and the rank-5 P(U34,U34).
    Over GF(3): the members of TERNARY_RANK3_MINIMAL other than U(3,4) and
    U24+2U23, which belong to the circuit and circuit-with-U(2,4) families.
    Family members are recognised by their parameters when flats are
    matched, so they are not listed here.
    """
    if q == 2:
        graphs = [(name, graph_cycle_matroid(edges, 2))
                  for name, edges in FIVE_VERTEX_GRAPHS.items()]
        return graphs + [("P(U34,U34)", named("P(U34,U34)"))]
    return [(name, named(name))
            for name in ("P(U23,U23)", "R6", "P(U24,U23)", "M(K4)", "W3")]


_PATTERNS = (
    (re.compile(r"PG\((\d+),([23])\)\Z"),
     lambda m: _projective_columns(int(m.group(1)) + 1, int(m.group(2)))),
    (re.compile(r"AG\((\d+),([23])\)\Z"),
     lambda m: _affine_geometry(int(m.group(1)) + 1, int(m.group(2)))),
    (re.compile(r"U\((\d+),(\d+)\)\Z"),
     lambda m: _uniform(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"C\((\d+),([23])\)\Z"),
     lambda m: circuit(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"4H\((\d+)\)\Z"),
     lambda m: four_hyperplane_family(int(m.group(1)))),
)


def catalog_names() -> tuple[str, ...]:
    """Fixed catalog names, sorted; parametric patterns are separate."""
    return tuple(sorted(REGISTRY))


def named(name: str) -> MatrixPresentation:
    """Build a catalog matroid by name; patterns like PG(3,2) are accepted."""
    key = _ALIASES.get(name, name)
    if key in REGISTRY:
        return REGISTRY[key]()
    for pattern, build in _PATTERNS:
        m = pattern.match(key)
        if m:
            return build(m)
    raise CatalogError(f"unknown catalog name {name!r}")
