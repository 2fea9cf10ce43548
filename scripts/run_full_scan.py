#!/usr/bin/env python3
"""Scan every seed matrix to full depth and report the survivor tables."""

from __future__ import annotations

import argparse
import os
import time

from comatroid.catalog import named
from comatroid.census import SCAN_SEEDS, hyperplane_scan
from comatroid.matroid import embed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-extra", type=int, default=10,
                    help="extension depth (default 10, the full desk scale)")
    ap.add_argument("--jobs", type=int, default=max(1, os.cpu_count() or 1))
    args = ap.parse_args()
    for name in SCAN_SEEDS:
        t0 = time.perf_counter()
        scan = hyperplane_scan(embed(named(name)), max_extra=args.max_extra,
                               jobs=args.jobs)
        print(f"{name}: scanned={scan.scanned} seed_i={scan.seed_i} "
              f"seed_j={scan.seed_j} j_computed={scan.j_computed} "
              f"survivors={len(scan.survivors)} "
              f"[{time.perf_counter() - t0:.1f}s]", flush=True)
        for members, i, j in scan.survivors:
            print(f"  extra={','.join(str(p) for p in members)} i={i} j={j}")


if __name__ == "__main__":
    main()
