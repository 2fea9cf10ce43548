"""Command-line front door: deciders, censuses, catalog queries, verification."""

from __future__ import annotations

import argparse
import sys

from .catalog import catalog_names, named
from .census import enumerate_colorings, hyperplane_scan, minimal_non_comatroids
from .decide import decide_flat_criterion, decide_forbidden_flats, decide_recursive
from .errors import (
    CatalogError,
    FormatError,
    ResourceLimitError,
    SimplicityError,
    UnsupportedFieldError,
)
from .formats import dumps, load_file
from .matroid import BRUTE_FORCE_CAP, EmbeddedMatroid, embed
from .projective import iter_bits, point_space
from .verification import criterion_names, run_all

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

_DECIDERS = {
    "recursive": decide_recursive,
    "flats": decide_flat_criterion,
    "forbidden": decide_forbidden_flats,
}

_FILTERS = {
    "any": lambda M: True,
    "connected": lambda M: M.is_connected(),
    "spanning": lambda M: M.is_spanning,
    "connected-spanning": lambda M: M.is_spanning and M.is_connected(),
    "comatroid": lambda M: decide_recursive(M).is_comatroid,
    "non-comatroid": lambda M: not decide_recursive(M).is_comatroid,
}

CATALOG_PREFIX = "catalog:"


def _resolve(path: str) -> EmbeddedMatroid:
    """Load a matroid from a file path or a catalog:<name> pseudo-path."""
    if path.startswith(CATALOG_PREFIX):
        return embed(named(path[len(CATALOG_PREFIX):]))
    return load_file(path)


def _element_of(M: EmbeddedMatroid, token: str) -> int:
    by_label = M.label_to_index
    if token in by_label:
        return by_label[token]
    try:
        e = int(token)
    except ValueError:
        raise ValueError(f"unknown element {token!r}") from None
    if e < 0 or not (M.green_mask >> e) & 1:
        raise ValueError(f"element {e} is not a point of the matroid")
    return e


def _emit_matroid(M: EmbeddedMatroid, args, out) -> int:
    text = dumps(M, args.style)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


# ---------------------------------------------------------------- verb bodies


def _cmd_decide(args, out) -> int:
    M = _resolve(args.input)
    methods = tuple(_DECIDERS) if args.method == "all" else (args.method,)
    print("method\tverdict", file=out)
    all_true = True
    for name in methods:
        verdict = _DECIDERS[name](M)
        all_true &= verdict.is_comatroid
        print(f"{name}\t{'comatroid' if verdict.is_comatroid else 'non-comatroid'}",
              file=out)
        if args.certificate:
            print(f"# certificate[{name}]: {verdict.certificate!r}", file=out)
    return EXIT_OK if all_true else EXIT_FALSE


def _cmd_complement(args, out) -> int:
    M = _resolve(args.input)
    return _emit_matroid(M.complement(args.t), args, out)


def _cmd_contract(args, out) -> int:
    M = _resolve(args.input)
    return _emit_matroid(M.si_contract(_element_of(M, args.element)), args, out)


def _cmd_restrict(args, out) -> int:
    M = _resolve(args.input)
    if (args.members is None) == (args.labels is None):
        raise ValueError("restrict needs exactly one of --members or --labels")
    if args.members is not None:
        keep = [int(tok) for tok in args.members.split(",") if tok]
    else:
        names = [tok for tok in args.labels.split(",") if tok]
        for name in names:
            if name not in M.label_to_index:
                raise ValueError(f"unknown label {name!r}")
        keep = list(iter_bits(M.mask_of_labels(names)))
    return _emit_matroid(M.restrict(keep), args, out)


def _cmd_hyperplanes(args, out) -> int:
    M = _resolve(args.input)
    flats = M.connected_hyperplanes()
    if args.count:
        print(len(flats), file=out)
        return EXIT_OK
    print("size\tmembers", file=out)
    for members in sorted((tuple(iter_bits(h)) for h in flats), key=lambda f: (len(f), f)):
        print(f"{len(members)}\t{','.join(map(str, members))}", file=out)
    return EXIT_OK


def _cmd_catalog(args, out) -> int:
    if args.name is None:
        print("name\tq\tpoints\trank", file=out)
        for name in catalog_names():
            M = embed(named(name))
            print(f"{name}\t{M.q}\t{M.n}\t{M.rank}", file=out)
        return EXIT_OK
    out.write(dumps(embed(named(args.name)), args.style))
    return EXIT_OK


def _cmd_census_minimal(args, out) -> int:
    report = minimal_non_comatroids(args.rank, args.q)
    print(f"# minimal non-comatroids, q={report.q} r={report.r}, "
          f"scanned={report.scanned}", file=out)
    out.write(report.to_tsv())
    return EXIT_OK


def _cmd_census_scan(args, out) -> int:
    seed = _resolve(args.input)
    scan = hyperplane_scan(seed, max_extra=args.max_extra)
    print(f"# seed points: {','.join(str(i) for i in scan.seed_members)}", file=out)
    print(f"# seed record: i={scan.seed_i} j={scan.seed_j}", file=out)
    print(f"# scanned={scan.scanned} j_computed={scan.j_computed} "
          f"survivors={len(scan.survivors)}", file=out)
    out.write(scan.to_tsv())
    return EXIT_OK


def _cmd_census_colorings(args, out) -> int:
    space = point_space(args.rank, args.q)
    report = enumerate_colorings(space, _FILTERS[args.filter], dedup=args.dedup,
                                 samples=args.samples, seed=args.seed)
    print(f"# {report.description}, filter={args.filter}, "
          f"scanned={report.scanned}, classes={len(report.classes)}", file=out)
    out.write(report.to_tsv())
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    wanted = None
    if args.only:
        wanted = tuple(tok for tok in args.only.split(",") if tok)
        known = set(criterion_names())
        for name in wanted:
            if name not in known:
                raise ValueError(f"unknown criterion {name!r}; "
                                 f"known: {', '.join(sorted(known))}")
    results = run_all(names=wanted,
                      progress=lambda res: print(res.line(), file=out, flush=True))
    failed = [res.name for res in results if not res.passed]
    print(f"# {len(results) - len(failed)}/{len(results)} criteria passed", file=out)
    return EXIT_OK if not failed else EXIT_FALSE


def _cmd_info(args, out) -> int:
    M = _resolve(args.input)
    rows = [
        ("q", M.q),
        ("points", M.n),
        ("rank", M.rank),
        ("ambient-rank", M.space.r),
        ("spanning", "yes" if M.is_spanning else "no"),
        ("connected", "yes" if M.is_connected() else "no"),
        ("components", len(M.components_of())),
    ]
    if M.n:
        rows.append(("min-cocircuit", M.cocircuits_min_size()))
        rows.append(("connected-hyperplanes", len(M.connected_hyperplanes())))
    if 0 < M.n <= BRUTE_FORCE_CAP:
        rows.append(("vertical-connectivity", M.vertical_connectivity()))
    print("field\tvalue", file=out)
    for field, value in rows:
        print(f"{field}\t{value}", file=out)
    return EXIT_OK


# -------------------------------------------------------------------- parser


def _add_io_options(sub) -> None:
    sub.add_argument("--style", choices=("matrix", "pg"), default="matrix",
                     help="serialization form for matroid output")
    sub.add_argument("-o", "--output", default=None,
                     help="write matroid output to a file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comatroid",
        description="Embedded binary/ternary matroids: deciders, censuses, "
                    "catalog, verification. Inputs are matroid files or "
                    "catalog:<name> pseudo-paths.")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("decide", help="decide comatroid membership")
    p.add_argument("--method", choices=("recursive", "flats", "forbidden", "all"),
                   default="recursive")
    p.add_argument("--certificate", action="store_true",
                   help="also print each verdict's certificate")
    p.add_argument("input")
    p.set_defaults(func=_cmd_decide)

    p = subs.add_parser("complement", help="geometry complement at rank t")
    p.add_argument("-t", type=int, default=None,
                   help="complement rank (default: the matroid's rank)")
    p.add_argument("input")
    _add_io_options(p)
    p.set_defaults(func=_cmd_complement)

    p = subs.add_parser("contract", help="simplified single-element contraction")
    p.add_argument("-e", "--element", required=True,
                   help="element to contract, by label or point index")
    p.add_argument("input")
    _add_io_options(p)
    p.set_defaults(func=_cmd_contract)

    p = subs.add_parser("restrict", help="restriction to a subset of elements")
    p.add_argument("--members", default=None,
                   help="comma-separated point indices to keep")
    p.add_argument("--labels", default=None,
                   help="comma-separated element labels to keep")
    p.add_argument("input")
    _add_io_options(p)
    p.set_defaults(func=_cmd_restrict)

    p = subs.add_parser("hyperplanes", help="connected hyperplanes")
    p.add_argument("--count", action="store_true",
                   help="print only the number of connected hyperplanes")
    p.add_argument("input")
    p.set_defaults(func=_cmd_hyperplanes)

    p = subs.add_parser("catalog", help="list catalog entries or print one")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--style", choices=("matrix", "pg"), default="matrix")
    p.set_defaults(func=_cmd_catalog)

    p = subs.add_parser("census", help="exhaustive searches")
    csubs = p.add_subparsers(dest="census_verb", required=True)

    c = csubs.add_parser("minimal",
                         help="non-comatroids whose proper flats are all comatroids")
    c.add_argument("-r", "--rank", type=int, required=True)
    c.add_argument("-q", type=int, required=True)
    c.set_defaults(func=_cmd_census_minimal)

    c = csubs.add_parser("scan", help="hyperplane-count scan over seed extensions")
    c.add_argument("--max-extra", type=int, default=10)
    c.add_argument("input")
    c.set_defaults(func=_cmd_census_scan)

    c = csubs.add_parser("colorings", help="green subsets passing a named filter")
    c.add_argument("-r", "--rank", type=int, required=True)
    c.add_argument("-q", type=int, required=True)
    c.add_argument("--filter", choices=sorted(_FILTERS), default="any")
    c.add_argument("--dedup", action="store_true",
                   help="group hits into equivalence classes")
    c.add_argument("--samples", type=int, default=None,
                   help="sample this many colorings instead of enumerating")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_census_colorings)

    p = subs.add_parser("verify",
                        help="run the acceptance manifest (PASS/FAIL per item)")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion names to run")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("info", help="basic invariants of a matroid")
    p.add_argument("input")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args, sys.stdout)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (FormatError, CatalogError, SimplicityError, UnsupportedFieldError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
