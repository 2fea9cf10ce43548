"""The three benchmark workloads: set-up, timed work and correctness checks.

Each workload is a closed loop in one process: the next input is started only
after the previous one is finished. `setup` builds everything a user pays for
before the first answer (imports are already done by the caller); `work` runs
the timed part and returns a `Result`. Checks that need one item run inside the
loop; checks on totals and the output digest run after the timed region.

Program functions are looked up through their modules at call time, so the
tracer's patches (see tracing.py) are seen here too. Each `work` function
reads time from the `clock` it is given: a probed repetition passes one that
leaves out the speed probe's slices (see speed.py).
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

from comatroid import canonical, catalog, census, decide, linalg, matroid, projective

# --------------------------------------------------------------- expectations

SWEEP_SPACES = ((4, 2), (3, 3))
SWEEP_COMATROIDS = {(4, 2): 17312, (3, 3): 1952}
SWEEP_CENSUS_CLASSES = {(4, 2): 12, (3, 3): 14}

SCAN_SEEDS = ("m2-1", "m2-2", "extra-1", "extra-2")
SCAN_MAX_EXTRA = 10
# One process: the speed probe (speed.py) can only calibrate work that runs in
# the process it samples, and pool workers on both cores of a small host spread
# by 10% where the in-process scan spreads by 3%.
SCAN_JOBS = 1
SCAN_EXTENSIONS = 354522
SCAN_J_COMPUTED = {"m2-1": 2410, "m2-2": 3610, "extra-1": 3761, "extra-2": 2726}

MIX_INPUTS = 200
MIX_RANK_CAP = {2: 5, 3: 4}
# Positions, modulo 20, of the inputs built below the rank cap: the other 85%
# span the untabled PG(4,2) or PG(3,3).
MIX_LOW_RANK_SLOTS = (3, 10, 17)

DEFAULT_SEED = 0

# SHA-256 of each workload's outputs (see `Result.digest`). The sweep ignores
# the seed, the scan has one value per catalog seed, and decide-mix is pinned
# for the first part of the default seed's stream.
EXPECTED_DIGESTS = {
    "sweep": "3e4de27246fae0df8b9cf689158cdd7d966c121e4ec260b0017d617d9f72346d",
    "scan:m2-1": "d0d14ae5aac9d63d407bff72defd19ebc0baea6ec20a773bc2d58896bf2ed59d",
    "scan:m2-2": "ad90ba5a778a989bc388fd646e6f1df421b6a8af2852fc8d879a7d76cb09d960",
    "scan:extra-1": "21686ffafa325f989177bf10e1e17b729eabc245b14160ddd08d3b1735d0b396",
    "scan:extra-2": "992689089475aab73b191647f8102fc94f9892fd42b04c085cefd9b6e08c0aaa",
    "decide-mix:0:0": "c0862b4a24634be5e81f24a78491fa16b476e5402eaea2756a5880d491bdc8c4",
}


def scan_seed_name(seed: int) -> str:
    return SCAN_SEEDS[seed % len(SCAN_SEEDS)]


@dataclass
class Result:
    """What one repetition of a workload did and whether it was right."""

    items: int = 0
    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    digest: str = ""
    facts: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check_verdicts(self, flags: list[bool], replayed: list[bool], *where) -> None:
        """The deciders agree and replay accepts every verdict; `where` names the input."""
        if not flags[0] == flags[1] == flags[2]:
            self.fail(f"{' '.join(map(str, where))}: deciders disagree {flags}")
        if not all(replayed):
            self.fail(f"{' '.join(map(str, where))}: replay rejected {replayed}")

    def check_digest(self, key: str | None) -> None:
        """Count a mismatch against the pinned digest, when one is pinned."""
        want = EXPECTED_DIGESTS.get(key) if key else None
        if want and want != self.digest:
            self.fail(f"digest {self.digest} != pinned {want} ({key})")


def decide_and_replay(M: matroid.EmbeddedMatroid) -> tuple[list[bool], list[bool]]:
    """The three deciders' verdicts on M, and whether replay accepted each one."""
    verdicts = (decide.decide_recursive(M),
                decide.decide_flat_criterion(M),
                decide.decide_forbidden_flats(M))
    return ([v.is_comatroid for v in verdicts],
            [decide.verify_certificate(M, v) for v in verdicts])


# ---------------------------------------------------------------------- sweep

def setup_sweep(seed: int) -> dict:
    """Tables of the two exhaustively swept spaces and both forbidden catalogs."""
    spaces = [projective.point_space(r, q) for r, q in SWEEP_SPACES]
    for q in (2, 3):
        decide.forbidden_catalog(q)
    return {"spaces": spaces}


def work_sweep(state: dict, clock=time.perf_counter) -> Result:
    """Every coloring through all three deciders and replay, then both censuses."""
    res = Result()
    verdict_bits = []
    counts = {}
    start = clock()
    for space in state["spaces"]:
        bits = bytearray(1 << space.n)
        comatroids = disagreements = 0
        for mask in range(1 << space.n):
            flags, replayed = decide_and_replay(matroid.EmbeddedMatroid(space, mask))
            bits[mask] = flags[0] | flags[1] << 1 | flags[2] << 2
            comatroids += flags[0]
            disagreements += not flags[0] == flags[1] == flags[2]
            res.check_verdicts(flags, replayed, space, "mask", mask)
        verdict_bits.append(bytes(bits))
        counts[(space.r, space.q)] = (comatroids, disagreements)
    reports = [census.minimal_non_comatroids(r, q) for r, q in SWEEP_SPACES]
    res.seconds = clock() - start
    # one request is the whole sweep: one coloring's cost is bimodal by mask
    # order (the upper half of PG(3,2) mostly hits memos the lower half
    # filled), so a median over colorings or blocks of them jumps between modes
    res.latencies.append(res.seconds)
    res.items = sum(1 << s.n for s in state["spaces"])

    for (r, q), report in zip(SWEEP_SPACES, reports):
        comatroids, disagreements = counts[(r, q)]
        if comatroids != SWEEP_COMATROIDS[(r, q)]:
            res.fail(f"PG({r - 1},{q}): {comatroids} comatroids, "
                     f"expected {SWEEP_COMATROIDS[(r, q)]}")
        if len(report.classes) != SWEEP_CENSUS_CLASSES[(r, q)]:
            res.fail(f"census ({r},{q}): {len(report.classes)} classes, "
                     f"expected {SWEEP_CENSUS_CLASSES[(r, q)]}")
        res.facts[f"PG({r - 1},{q})"] = {
            "colorings": 1 << projective.point_space(r, q).n,
            "comatroids": comatroids, "disagreements": disagreements,
            "census_classes": len(report.classes)}
    h = hashlib.sha256()
    for bits in verdict_bits:
        h.update(bits)
    for report in reports:
        h.update(report.to_tsv().encode())
    res.digest = h.hexdigest()
    res.check_digest("sweep")
    return res


# ----------------------------------------------------------------------- scan

def setup_scan(seed: int) -> dict:
    name = scan_seed_name(seed)
    return {"name": name, "seed": matroid.embed(catalog.named(name))}


def work_scan(state: dict, max_extra: int = SCAN_MAX_EXTRA,
              clock=time.perf_counter) -> Result:
    """One bounded-extension hyperplane scan of a catalog seed over PG(4,2)."""
    res = Result()
    t0 = clock()
    scan = census.hyperplane_scan(state["seed"], max_extra=max_extra, jobs=SCAN_JOBS)
    res.seconds = clock() - t0
    res.latencies.append(res.seconds)
    res.items = scan.scanned
    name = state["name"]
    res.facts = {"catalog_seed": name, "max_extra": max_extra, "jobs": SCAN_JOBS,
                 "extensions": scan.scanned, "j_computed": scan.j_computed,
                 "survivors": len(scan.survivors),
                 "seed_i": scan.seed_i, "seed_j": scan.seed_j}
    h = hashlib.sha256()
    h.update(f"{scan.seed_i} {scan.seed_j} {scan.scanned} {scan.j_computed}\n".encode())
    h.update(scan.to_tsv().encode())
    res.digest = h.hexdigest()
    if max_extra != SCAN_MAX_EXTRA:
        return res  # the table-only probe of the traced run pins nothing
    if scan.scanned != SCAN_EXTENSIONS:
        res.fail(f"{name}: {scan.scanned} extensions, expected {SCAN_EXTENSIONS}")
    if scan.survivors:
        res.fail(f"{name}: {len(scan.survivors)} survivors, expected 0")
    if scan.j_computed != SCAN_J_COMPUTED[name]:
        res.fail(f"{name}: j_computed {scan.j_computed}, "
                 f"expected {SCAN_J_COMPUTED[name]}")
    res.check_digest(f"scan:{name}")
    return res


# ----------------------------------------------------------------- decide-mix

def _random_comatroid(rng: random.Random, q: int, r: int) -> matroid.EmbeddedMatroid:
    """A comatroid spanning PG(r-1, q), built from nothing by sums and complements.

    A complement taken at rank r of a matroid of lower rank always spans, and
    a direct sum of spanning parts spans, so the result has rank exactly r.
    """
    if r == 0:
        return matroid.EmbeddedMatroid(projective.point_space(0, q), 0)
    if r >= 2 and rng.random() < 0.5:
        r1 = rng.randint(1, r - 1)
        return _random_comatroid(rng, q, r1).direct_sum(_random_comatroid(rng, q, r - r1))
    return _random_comatroid(rng, q, rng.randint(0, r - 1)).complement(r)


def mix_inputs(seed: int, part: int):
    """Part `part` of the seeded input stream: MIX_INPUTS (matroid, flipped) pairs.

    Each part has its own generator, so a run that consumes parts 0..k sees
    the same inputs whatever k its speed allows. Inputs come in pairs and
    every other pair has one point flipped: half the stream is known
    comatroids and half is one-point changes of them. Fields alternate and the
    low-rank slots are fixed, so every part has the same mix of geometries and
    the seed varies only the matroids, maps and flipped points.
    """
    rng = random.Random(f"decide-mix:{seed}:{part}")
    out = []
    for i in range(MIX_INPUTS):
        q = (2, 3)[i % 2]
        cap = MIX_RANK_CAP[q]
        r = rng.randint(2, cap - 1) if i % 20 in MIX_LOW_RANK_SLOTS else cap
        M = _random_comatroid(rng, q, r)
        M = canonical.apply_linear_map(M, linalg.random_invertible(r, q, rng))
        flipped = (i // 2) % 2 == 1
        if flipped:
            M = matroid.EmbeddedMatroid(M.space, M.green_mask ^ (1 << rng.randrange(M.space.n)))
        out.append((M, flipped))
    return out


def setup_mix(seed: int, part: int = 0) -> dict:
    for q in (2, 3):
        decide.forbidden_catalog(q)
    return {"seed": seed, "part": part, "inputs": mix_inputs(seed, part)}


def work_mix(state: dict, clock=time.perf_counter) -> Result:
    """Each input through all three deciders and replay, timed one by one."""
    res = Result()
    all_flags = []
    start = clock()
    for k, (M, flipped) in enumerate(state["inputs"]):
        t0 = clock()
        flags, replayed = decide_and_replay(M)
        res.latencies.append(clock() - t0)
        all_flags.append(flags)
        res.check_verdicts(flags, replayed, "input", k)
        if not flipped and not flags[0]:
            res.fail(f"input {k}: unflipped input decided a non-comatroid")
    res.seconds = clock() - start
    res.items = len(state["inputs"])

    h = hashlib.sha256()
    for (M, _), flags in zip(state["inputs"], all_flags):
        h.update(f"{M.q} {M.space.r} {M.green_mask:x} {flags}\n".encode())
    res.digest = h.hexdigest()
    untabled = sum(M.rank == MIX_RANK_CAP[M.q] for M, _ in state["inputs"])
    res.facts = {"part": state["part"], "inputs": res.items,
                 "untabled_share": untabled / res.items,
                 "comatroid_share": sum(f[0] for f in all_flags) / res.items}
    res.check_digest(f"decide-mix:{state['seed']}:{state['part']}"
                     if state["seed"] == DEFAULT_SEED else None)
    return res
