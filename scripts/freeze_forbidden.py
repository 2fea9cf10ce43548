"""Regenerate the bundled forbidden-flat catalog presentations.

The six binary entries are the cycle matroids of the minimal 5-vertex graphs
found by the rank-4 census; the five ternary entries are the fixed rank-3
non-comatroids. Family members (circuits, circuits with U(2,4)) carry no
data files: a circuit is recognised by its size, rank and connectivity at
decision time, and a circuit with U(2,4) is built from its parameters and
matched by its orbit table or canonical key.
"""

from __future__ import annotations

import pathlib

from comatroid.catalog import graph_cycle_matroid, named
from comatroid.census import FIVE_VERTEX_GRAPHS
from comatroid.formats import dumps
from comatroid.matroid import embed

TERNARY_FIXED = ("P(U23,U23)", "R6", "P(U24,U23)", "M(K4)", "W3")

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / (
    "src/comatroid/data/forbidden")


def forbidden_presentations():
    """(entry name, comment, embedded matroid) for every bundled entry."""
    out = []
    for name, edges in sorted(FIVE_VERTEX_GRAPHS.items()):
        text = " ".join(f"{u}{v}" for u, v in edges)
        out.append((name, f"cycle matroid, edges {text}",
                    embed(graph_cycle_matroid(edges, 2))))
    for name in TERNARY_FIXED:
        out.append((name, "fixed rank-3 ternary entry", embed(named(name))))
    return out


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, comment, m in forbidden_presentations():
        path = OUT_DIR / f"{name}.mat"
        path.write_text(f"# {comment}\n" + dumps(m), encoding="utf-8")
        print(f"wrote {path.name}: q={m.q} n={m.n} rank={m.rank}")


if __name__ == "__main__":
    main()
