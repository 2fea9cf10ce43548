"""Plain-text reading and writing of embedded matroids.

Matrix form: a header line ``q=<2|3> rows=<r>`` (optionally with
``labels=<comma-separated names>``), then one line per column as a string of
digits. Point-set form: a single line
``pg q=<q> rank=<r> green=<comma-separated point indices>`` referring to the
canonical lexicographic point order. Lines starting with ``#`` and blank
lines are ignored in both forms.
"""

from __future__ import annotations

from .errors import FormatError
from .matroid import EmbeddedMatroid, MatrixPresentation, embed
from .projective import point_space


def _parse_pairs(tokens, lineno, allowed):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise FormatError(f"expected key=value, got {tok!r}", line=lineno)
        key, _, value = tok.partition("=")
        if key not in allowed:
            raise FormatError(f"unknown key {key!r}", line=lineno)
        if key in out:
            raise FormatError(f"repeated key {key!r}", line=lineno)
        out[key] = value
    return out


def _parse_int(value, name, lineno):
    try:
        return int(value)
    except ValueError:
        raise FormatError(f"{name} must be an integer, got {value!r}", line=lineno) from None


def _content_lines(text):
    lines = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise FormatError("no content", line=1)
    return lines


def loads(text: str) -> EmbeddedMatroid:
    """Parse either text form into an embedded matroid."""
    lines = _content_lines(text)
    lineno, head = lines[0]
    tokens = head.split()
    if tokens[0] == "pg":
        if len(lines) > 1:
            raise FormatError("unexpected content after pg line", line=lines[1][0])
        pairs = _parse_pairs(tokens[1:], lineno, {"q", "rank", "green"})
        for need in ("q", "rank", "green"):
            if need not in pairs:
                raise FormatError(f"pg line is missing {need}=", line=lineno)
        q = _parse_int(pairs["q"], "q", lineno)
        rank = _parse_int(pairs["rank"], "rank", lineno)
        if q not in (2, 3):
            raise FormatError(f"q must be 2 or 3, got {q}", line=lineno)
        if rank < 0:
            raise FormatError(f"rank must be nonnegative, got {rank}", line=lineno)
        space = point_space(rank, q)
        green = 0
        if pairs["green"]:
            for part in pairs["green"].split(","):
                i = _parse_int(part, "green index", lineno)
                if not 0 <= i < space.n:
                    raise FormatError(f"point index {i} outside PG({rank - 1},{q})", line=lineno)
                if (green >> i) & 1:
                    raise FormatError(f"repeated point index {i}", line=lineno)
                green |= 1 << i
        return EmbeddedMatroid(space, green)

    return embed(_presentation_from_lines(lines))


def loads_presentation(text: str) -> MatrixPresentation:
    """Parse the matrix text form into a presentation without embedding."""
    lines = _content_lines(text)
    lineno, head = lines[0]
    if head.split()[0] == "pg":
        raise FormatError("pg form carries no matrix presentation", line=lineno)
    return _presentation_from_lines(lines)


def _presentation_from_lines(lines):
    lineno, head = lines[0]
    tokens = head.split()
    pairs = _parse_pairs(tokens, lineno, {"q", "rows", "labels"})
    for need in ("q", "rows"):
        if need not in pairs:
            raise FormatError(f"header is missing {need}=", line=lineno)
    q = _parse_int(pairs["q"], "q", lineno)
    rows = _parse_int(pairs["rows"], "rows", lineno)
    if q not in (2, 3):
        raise FormatError(f"q must be 2 or 3, got {q}", line=lineno)
    if rows < 0:
        raise FormatError(f"rows must be nonnegative, got {rows}", line=lineno)
    labels = None
    if "labels" in pairs:
        labels = tuple(name for name in pairs["labels"].split(",") if name)
    columns = []
    for lno, line in lines[1:]:
        if len(line) != rows:
            raise FormatError(f"column has {len(line)} digits, expected {rows}", line=lno)
        col = []
        for ch in line:
            if not ch.isdigit() or int(ch) >= q:
                raise FormatError(f"digit {ch!r} invalid over GF({q})", line=lno)
            col.append(int(ch))
        columns.append(tuple(col))
    if labels is not None and len(labels) != len(columns):
        raise FormatError(
            f"{len(labels)} labels for {len(columns)} columns", line=lineno
        )
    try:
        return MatrixPresentation(q, tuple(columns), labels)
    except ValueError as exc:
        raise FormatError(str(exc), line=lineno) from None


def dumps(M: EmbeddedMatroid, style: str = "matrix") -> str:
    """Serialize an embedded matroid in the requested text form."""
    if style == "pg":
        green = ",".join(str(i) for i in M.elements)
        return f"pg q={M.q} rank={M.space.r} green={green}\n"
    if style != "matrix":
        raise ValueError(f"unknown style {style!r}")
    head = f"q={M.q} rows={M.space.r}"
    members = M.elements
    if M.labels is not None and len(M.labels) == len(members):
        by_index = {i: name for name, i in M.labels}
        head += " labels=" + ",".join(by_index[i] for i in members)
    lines = [head]
    for i in members:
        lines.append("".join(str(a) for a in M.space.points[i]))
    return "\n".join(lines) + "\n"


def load_file(path) -> EmbeddedMatroid:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
