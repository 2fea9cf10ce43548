"""Acceptance manifest re-deriving the package's reported computational results."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .canonical import apply_linear_map, canonical_key
from .catalog import (
    FIVE_VERTEX_GRAPHS,
    TERNARY_RANK3_MINIMAL,
    circuit,
    four_hyperplane_family,
    named,
)
from .census import SCAN_SEEDS, hyperplane_scan, minimal_non_comatroids
from .decide import decide_flat_criterion, decide_forbidden_flats, decide_recursive
from .matroid import EmbeddedMatroid, embed
from .linalg import random_invertible
from .projective import iter_bits, point_space, popcount

RNG_SEED = 20260815
COMPLEMENT_TRIALS = 1000
SAMPLED_RANK4_TERNARY = 120


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance check."""

    name: str
    passed: bool
    detail: str
    seconds: float = field(compare=False, default=0.0)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return f"{self.status} {self.name}: {self.detail} [{self.seconds:.1f}s]"


# ----------------------------------------------------------------- criteria


def _c_decider_agreement():
    parts = []
    ok = True
    for r, q in ((4, 2), (3, 3)):
        space = point_space(r, q)
        mismatches = comatroids = 0
        for m in range(1 << space.n):
            M = EmbeddedMatroid(space, m)
            a = decide_recursive(M).is_comatroid
            b = decide_flat_criterion(M).is_comatroid
            c = decide_forbidden_flats(M).is_comatroid
            if not a == b == c:
                mismatches += 1
            comatroids += a
        ok &= mismatches == 0
        parts.append(
            f"PG({r - 1},{q}): {1 << space.n} colorings, "
            f"{comatroids} comatroids, {mismatches} disagreements")
    return ok, "; ".join(parts)


def _c_circuit_law():
    rows = []
    ok = True
    for q, top in ((2, 8), (3, 7)):
        for k in range(3, top + 1):
            got = decide_recursive(embed(circuit(k, q))).is_comatroid
            ok &= got == (q + k <= 6)
            rows.append(f"C{k}/GF({q}):{'Y' if got else 'N'}")
    return ok, " ".join(rows)


def _complement_pairs(report):
    """Census classes grouped into unordered complement pairs."""
    space = point_space(report.r, report.q)
    by_key = {c.key: c for c in report.classes}
    pairs = set()
    for c in report.classes:
        M = EmbeddedMatroid(space, space.mask_of(c.members))
        mate = by_key.get(canonical_key(M.complement()))
        if mate is None:
            return None
        pairs.add(frozenset({c.key, mate.key}))
    return [sorted((by_key[k] for k in p), key=lambda c: (c.size, c.key))
            for p in pairs]


def _c_binary_rank4_census():
    report = minimal_non_comatroids(4, 2)
    pairs = _complement_pairs(report)
    graph_names = set(FIVE_VERTEX_GRAPHS)
    ok = len(report.classes) == 12 and pairs is not None and len(pairs) == 6
    small_labels = []
    if ok:
        for pair in pairs:
            small = pair[0]
            ok &= small.size <= 7 and small.label in graph_names
            small_labels.append(small.label)
        ok &= {"M(C5)", "M(K2,3)"} <= set(small_labels)
    detail = (f"{len(report.classes)} classes, "
              f"{0 if pairs is None else len(pairs)} complement pairs, "
              f"small sides: {', '.join(sorted(small_labels))}")
    return ok, detail


def _c_ternary_rank3_census():
    report = minimal_non_comatroids(3, 3)
    pairs = _complement_pairs(report)
    target_keys = {canonical_key(embed(named(name))): label
                   for label, name in TERNARY_RANK3_MINIMAL.items()}
    ok = (len(report.classes) == 14 and pairs is not None and len(pairs) == 7
          and len(target_keys) == 7)
    matched = []
    if ok:
        for pair in pairs:
            hits = [target_keys[c.key] for c in pair if c.key in target_keys]
            ok &= bool(hits)
            matched.extend(hits)
        ok &= set(matched) == set(TERNARY_RANK3_MINIMAL)
    detail = (f"{len(report.classes)} classes in "
              f"{0 if pairs is None else len(pairs)} pairs, matched: "
              f"{', '.join(sorted(set(matched)))}")
    return ok, detail


def _c_f77_hyperplanes():
    count = len(embed(named("f77")).connected_hyperplanes())
    return count == 27, f"f77 has {count} connected hyperplanes"


def _c_hyperplane_counts():
    k33 = len(embed(named("K33")).connected_hyperplanes())
    pg42 = len(embed(named("PG(4,2)")).hyperplane_masks())
    ok = k33 == 6 and pg42 == 31
    return ok, f"M(K3,3): {k33} connected hyperplanes; PG(4,2): {pg42} hyperplanes"


def _c_extension_scans():
    parts = []
    ok = True
    for name in SCAN_SEEDS:
        scan = hyperplane_scan(embed(named(name)), max_extra=10)
        spare = 31 - len(scan.seed_members)
        expected = sum(math.comb(spare, s) for s in range(11))
        ok &= scan.survivors == () and scan.scanned == expected
        parts.append(f"{name}: {scan.scanned} extensions, "
                     f"{len(scan.survivors)} survivors")
    return ok, "; ".join(parts)


def _c_hyperplane_spot_checks():
    cases = (
        ("Delta5", "ejklm"),
        ("T12/e", "fghij"),
        ("M5,12a", "fghijl"),
        ("M5,12b", "fghijl"),
        ("M5,13", "abdefij"),
    )
    parts = []
    ok = True
    for name, labels in cases:
        M = embed(named(name))
        want = M.mask_of_labels(labels)
        hit = want in M.connected_hyperplanes()
        ok &= hit
        parts.append(f"{name}:{{{','.join(labels)}}}={'Y' if hit else 'N'}")
    M = embed(named("M5,13"))
    want = M.mask_of_labels("abdefij")
    H = M.restrict(iter_bits(want))
    Hc = H.complement()
    side = Hc.is_connected() and Hc.rank == 4
    ok &= side
    parts.append(f"M5,13 hyperplane complement connected rank-4: {'Y' if side else 'N'}")
    return ok, "; ".join(parts)


def _is_exception_pair(space, green):
    """The green side is a 3-point basis and the red side a triangle plus a point."""
    full = (1 << space.n) - 1
    if popcount(green) != 3:
        green = full ^ green
    red = full ^ green
    if popcount(green) != 3 or space.rank_of_mask(green) != 3:
        return False
    if popcount(red) != 4 or space.rank_of_mask(red) != 3:
        return False
    if any(popcount(c) != 1 for c in space.components_mask(green)):
        return False
    comps = space.components_mask(red)
    if sorted(popcount(c) for c in comps) != [1, 3]:
        return False
    triangle = max(comps, key=popcount)
    return space.rank_of_mask(triangle) == 2


def _c_connectivity_sum():
    parts = []
    ok = True
    for r, q in ((3, 2), (4, 2), (3, 3)):
        space = point_space(r, q)
        vc = space.vertical_connectivity_mask
        full = (1 << space.n) - 1
        bad = [m for m in range(1 << space.n) if vc(m) + vc(full ^ m) < r]
        if (r, q) == (3, 2):
            shaped = all(_is_exception_pair(space, m) for m in bad)
            ok &= len(bad) == 56 and shaped
            parts.append(f"PG(2,2): {len(bad)} exceptional colorings, "
                         f"all of shape {{U(3,3), U(2,3)+U(1,1)}}: {shaped}")
        else:
            ok &= not bad
            parts.append(f"PG({r - 1},{q}): {len(bad)} failures")
    return ok, "; ".join(parts)


def _is_circuit_mask(space, m, k):
    if popcount(m) != k + 1:
        return False
    return all(space.rank_of_mask(m ^ (1 << e)) == k for e in iter_bits(m))


def _c_connected_hyperplane_guarantees():
    parts = []
    ok = True

    # binary rank <= 4: element trichotomy, then the cosimple double guarantee
    space = point_space(4, 2)
    conn = space.is_connected_mask
    corpus = tri_fail = cosimple = cosimple_fail = 0
    for m in range(1 << space.n):
        if popcount(m) < 2 or not conn(m):
            continue
        corpus += 1
        M = EmbeddedMatroid(space, m)
        k = M.rank
        hps = M.hyperplane_masks()
        chs = [h for h in hps if conn(h)]
        if not _is_circuit_mask(space, m, k):
            cover = 0
            for h in chs:
                cover |= h
            for e in iter_bits(m & ~cover):
                big = [c for c in M.series_classes()
                       if len(c) >= 3 and e not in c]
                if not big:
                    tri_fail += 1
                    break
        if min(popcount(m) - popcount(h) for h in hps) >= 3:
            cosimple += 1
            if len(chs) < 4 or any(
                    sum(1 for h in chs if h >> e & 1) < 2 for e in iter_bits(m)):
                cosimple_fail += 1
    ok &= tri_fail == 0 and cosimple_fail == 0
    parts.append(f"binary: {corpus} connected, {tri_fail} trichotomy failures; "
                 f"{cosimple} cosimple, {cosimple_fail} guarantee failures")

    # ternary rank <= 3, exhaustive: min cocircuit >= 4 forces two connected hyperplanes
    space3 = point_space(3, 3)
    conn3 = space3.is_connected_mask
    tern = tern_fail = 0
    for m in range(1 << space3.n):
        if popcount(m) < 2 or not conn3(m):
            continue
        M = EmbeddedMatroid(space3, m)
        hps = M.hyperplane_masks()
        if min(popcount(m) - popcount(h) for h in hps) < 4:
            continue
        tern += 1
        if sum(1 for h in hps if conn3(h)) < 2:
            tern_fail += 1
    ok &= tern_fail == 0
    parts.append(f"ternary rank<=3: {tern} in corpus, {tern_fail} failures")

    # ternary rank 4, sampled with a fixed seed
    sp4 = point_space(4, 3)
    rng = random.Random(RNG_SEED)
    accepted = samp_fail = attempts = 0
    while accepted < SAMPLED_RANK4_TERNARY and attempts < 50 * SAMPLED_RANK4_TERNARY:
        attempts += 1
        mask = sp4.mask_of(rng.sample(range(sp4.n), rng.randint(10, 34)))
        M = EmbeddedMatroid(sp4, mask)
        if M.rank != 4 or not M.is_connected() or M.cocircuits_min_size() < 4:
            continue
        accepted += 1
        if len(M.connected_hyperplanes()) < 2:
            samp_fail += 1
    ok &= accepted == SAMPLED_RANK4_TERNARY and samp_fail == 0
    parts.append(f"ternary rank-4 sampled: {accepted}, {samp_fail} failures")

    # the two smallest members of the four-hyperplane family
    fam_bits = []
    for n in (1, 2):
        M = embed(four_hyperplane_family(n))
        count = len(M.connected_hyperplanes())
        good = (M.n, M.rank, count) == (5 * n + 8, 2 * n + 3, 4)
        ok &= good
        fam_bits.append(f"n={n}: {M.n} elements rank {M.rank}, "
                        f"{count} connected hyperplanes")
    parts.append("family " + "; ".join(fam_bits))
    return ok, "; ".join(parts)


def _c_comatroid_closure():
    parts = []
    ok = True
    for r, q in ((4, 2), (3, 3)):
        space = point_space(r, q)
        sub = point_space(r - 1, q)
        # recursive verdicts: flat-criterion ones would pass the flat and
        # component checks by construction
        status = [decide_recursive(EmbeddedMatroid(space, m)).is_comatroid
                  for m in range(1 << space.n)]
        sub_status = [decide_recursive(EmbeddedMatroid(sub, m)).is_comatroid
                      for m in range(1 << sub.n)]
        flats = [f for k in range(space.r) for f in space.flats_of_rank(k)]
        contractions = [space.contraction_map(e)[1] for e in range(space.n)]
        comatroids = flat_bad = contr_bad = comp_bad = vconn_bad = 0
        vc = space.vertical_connectivity_mask
        for m in range(1 << space.n):
            if not status[m]:
                continue
            comatroids += 1
            for f in flats:
                x = m & f
                if x != m and not status[x]:
                    flat_bad += 1
            for e in iter_bits(m):
                img = space.translate_mask(m ^ (1 << e), contractions[e])
                if not sub_status[img]:
                    contr_bad += 1
            comps = space.components_mask(m)
            if len(comps) > 1:
                comp_bad += sum(1 for c in comps if not status[c])
            elif m:
                if vc(m) < space.rank_of_mask(m) - 1:
                    vconn_bad += 1
        ok &= flat_bad == contr_bad == comp_bad == vconn_bad == 0
        parts.append(
            f"PG({r - 1},{q}): {comatroids} comatroids; violations: "
            f"{flat_bad} flats, {contr_bad} contractions, "
            f"{comp_bad} components, {vconn_bad} connectivity")
    return ok, "; ".join(parts)


def _c_complement_well_defined():
    rng = random.Random(RNG_SEED)
    small = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))
    mismatches = 0
    for trial in range(COMPLEMENT_TRIALS):
        # every 25th trial exercises the rank-4 ternary geometry, where only
        # moderate complement sizes keep canonical forms affordable
        if trial % 25 == 0:
            r, q = 4, 3
            space = point_space(r, q)
            mask = space.mask_of(rng.sample(range(space.n), rng.randint(18, 36)))
        else:
            r, q = small[rng.randrange(len(small))]
            space = point_space(r, q)
            mask = rng.randrange(1, 1 << space.n)
        M = EmbeddedMatroid(space, mask)
        cap = 4 if q == 2 or r == 4 else 3
        t = rng.randint(M.rank, max(M.rank, cap))
        N = apply_linear_map(M, random_invertible(r, q, rng))
        if canonical_key(M.complement(t)) != canonical_key(N.complement(t)):
            mismatches += 1
    return mismatches == 0, (f"{COMPLEMENT_TRIALS} random (matroid, map, t) "
                             f"triples, {mismatches} complement mismatches")


_CRITERIA = (
    ("decider-agreement", _c_decider_agreement),
    ("circuit-law", _c_circuit_law),
    ("binary-rank4-census", _c_binary_rank4_census),
    ("ternary-rank3-census", _c_ternary_rank3_census),
    ("f77-connected-hyperplanes", _c_f77_hyperplanes),
    ("hyperplane-counts", _c_hyperplane_counts),
    ("extension-scans", _c_extension_scans),
    ("hyperplane-spot-checks", _c_hyperplane_spot_checks),
    ("connectivity-sum-exception", _c_connectivity_sum),
    ("connected-hyperplane-guarantees", _c_connected_hyperplane_guarantees),
    ("comatroid-closure", _c_comatroid_closure),
    ("complement-well-defined", _c_complement_well_defined),
)


def criterion_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _CRITERIA)


def run_criterion(name: str) -> CriterionResult:
    """Run one acceptance check by name."""
    funcs = dict(_CRITERIA)
    if name not in funcs:
        raise ValueError(f"unknown criterion {name!r}; known: {criterion_names()}")
    start = time.perf_counter()
    passed, detail = funcs[name]()
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


def run_all(names=None, progress=None) -> tuple[CriterionResult, ...]:
    """Run the acceptance manifest; progress receives each result as it lands."""
    out = []
    for name in names if names is not None else criterion_names():
        res = run_criterion(name)
        if progress is not None:
            progress(res)
        out.append(res)
    return tuple(out)
