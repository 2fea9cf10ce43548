"""Three independent deciders for GF(q)-comatroid membership.

A GF(q)-comatroid is built from the empty matroid by direct sums and
complements inside projective space. The recursive decider follows that
definition directly; the flat-criterion decider checks the equal-rank flat
condition; the forbidden-flat decider matches flats of the matroid and its
complement against a finite catalog plus unbounded families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .canonical import canonical_key, orbit_of
from .catalog import circuit_with_u24, forbidden_fixed
from .errors import ResourceLimitError
from .matroid import EmbeddedMatroid, embed
from .projective import TABLE_POINT_CAP, iter_bits, point_space, popcount

RECURSIVE_RANK_CAP = 7
FLAT_RANK_CAP = 6
# Lowest rank of a flat at which the flat criterion can fail, per field. The
# condition at a flat reads only the coloring of that flat, and no coloring of
# PG(k-1, 2) for k <= 3, or of PG(k-1, 3) for k <= 2, fails at its top flat:
# an enumeration of every coloring proves it (tests/test_decide.py). Both flat
# scans start here. A forbidden member is a minimal non-comatroid, so it fails
# the criterion and can fail it only at its own top flat, whose rank is the
# member's rank: no member lies below the floor.
FLAT_VIOLATION_FLOOR = {2: 4, 3: 3}
# Fewest points of a forbidden circuit: six over GF(2), four over GF(3)
_MIN_CIRCUIT = {2: 6, 3: 4}


@dataclass(frozen=True)
class Verdict:
    """A decision with the method that produced it and a replayable certificate."""

    is_comatroid: bool
    method: str
    certificate: tuple | None = None


# ---------------------------------------------------------------- recursive

_rec_memo: dict[tuple[int, int, int], tuple[bool, tuple]] = {}


def _decide_rec(m: EmbeddedMatroid) -> tuple[bool, tuple]:
    """Decision and trace for a matroid spanning its own space."""
    key = (m.space.r, m.q, m.green_mask)
    got = _rec_memo.get(key)
    if got is not None:
        return got
    if m.green_mask == 0:
        out = (True, ("empty",))
    else:
        comps = m.space.components_mask(m.green_mask)
        if len(comps) > 1:
            children = []
            ok = True
            for c in comps:
                sub = EmbeddedMatroid(m.space, c).to_span()
                good, cert = _decide_rec(sub)
                children.append((tuple(iter_bits(c)), cert))
                ok = ok and good
            out = (ok, ("components", tuple(children)))
        else:
            comp = m.complement()
            if comp.rank == m.rank and m.space.is_connected_mask(comp.green_mask):
                out = (False, ("blocked",))
            else:
                good, cert = _decide_rec(comp.to_span())
                out = (good, ("complement", cert))
    _rec_memo[key] = out
    return out


def decide_recursive(M: EmbeddedMatroid) -> Verdict:
    """Decide by unwinding complements and direct-sum components to the empty base."""
    if M.rank > RECURSIVE_RANK_CAP:
        raise ResourceLimitError(
            f"recursive decision capped at rank {RECURSIVE_RANK_CAP}, got {M.rank}")
    ok, cert = _decide_rec(M.to_span())
    return Verdict(ok, "recursive", cert)


# ------------------------------------------------------------ flat criterion

def decide_flat_criterion(M: EmbeddedMatroid) -> Verdict:
    """Decide via the equal-rank flat condition on the span of the matroid.

    The matroid passes iff it is empty or every projective flat F with
    r(F ∩ G) = r(F − G) has a disconnected restriction on at least one side.
    Flats below FLAT_VIOLATION_FLOOR never fail it, so they are not visited.
    """
    if M.rank > FLAT_RANK_CAP:
        raise ResourceLimitError(
            f"flat criterion capped at rank {FLAT_RANK_CAP}, got {M.rank}")
    m = M.to_span()
    if m.green_mask == 0:
        return Verdict(True, "flat-criterion")
    space = m.space
    green = m.green_mask
    rank = space.rank_of_mask
    connected = space.is_connected_mask
    # top rank first and levels streamed lazily: both sides spanning and
    # connected is the common failure, so most non-comatroids exit on the
    # full space before any lower level of the flat lattice is built
    for frank in range(space.r, FLAT_VIOLATION_FLOOR[space.q] - 1, -1):
        for fmask in space.flats_of_rank(frank):
            x = fmask & green
            y = fmask & ~green
            if rank(x) != rank(y):
                continue
            if connected(x) and connected(y):
                return Verdict(False, "flat-criterion",
                               ("violating-flat", tuple(iter_bits(fmask))))
    return Verdict(True, "flat-criterion")


# ---------------------------------------------------------- forbidden flats

@lru_cache(maxsize=None)
def forbidden_catalog(q: int) -> tuple[tuple[str, int, int, tuple], ...]:
    """Fixed forbidden-flat entries for GF(q) as sorted (name, rank, size, key).

    _classify_flat adds the circuit and circuit-with-U(2,4) families.
    """
    entries = []
    for name, pres in forbidden_fixed(q):
        m = embed(pres)
        entries.append((name, m.rank, m.n, canonical_key(m)))
    return tuple(sorted(entries))


@lru_cache(maxsize=None)
def _family_key(k: int, d: int) -> tuple:
    """Canonical key of the k-circuit with d two-summed copies of U(2,4)."""
    return canonical_key(embed(circuit_with_u24(k, range(d))))


@lru_cache(maxsize=None)
def _orbit_table(rank: int, q: int):
    """The forbidden members of rank `rank` as a lookup over every mask of PG(rank-1, q).

    Returns (table, names, sizes): table[mask] is 0 for no member and 1 + i
    for names[i], and sizes holds the members' sizes. Each member's orbit is
    walked from its canonical key, which lies in this same space; family
    members come first and then the entries of forbidden_catalog(q) in its
    sorted order, the order in which the key path of _classify_flat tries
    them, so a mask is named as it would be there. None above TABLE_POINT_CAP
    points: an orbit there can run to 10^5 masks and more.
    """
    space = point_space(rank, q)
    if space.n > TABLE_POINT_CAP:
        return None
    members = []
    if q == 3:
        for d in range(1, rank - 1):
            k = rank + 1 - d
            members.append((f"circuit with U(2,4) family (k={k}, d={d})", _family_key(k, d)))
    members += [(name, key) for name, r, _, key in forbidden_catalog(q) if r == rank]
    table = bytearray(1 << space.n)
    for i, (_, (_, _, mask)) in enumerate(members):
        orbit_of(space, mask, table, 1 + i)
    names = tuple(name for name, _ in members)
    sizes = frozenset(popcount(key[2]) for _, key in members)
    return table, names, sizes


def _classify_flat(space, x: int, rank: int) -> str | None:
    """Name of the forbidden member that the rank-`rank` green set x is, if any.

    The circuit test is cheapest and comes first. A rank whose geometry
    PG(rank-1, q) has an orbit table then reads it, after translating x into
    that geometry when x does not span the space; only members of higher rank
    need a canonical key, and only when a member has x's rank and size.
    """
    size = popcount(x)
    q = space.q
    if size == rank + 1 and size >= _MIN_CIRCUIT[q] and space.is_connected_mask(x):
        return f"circuit of size {size}"
    tabled = _orbit_table(rank, q)
    if tabled is not None:
        table, names, sizes = tabled
        if size not in sizes:
            return None
        if rank < space.r:
            _, mapping = space.flat_embedding(space.closure_mask(x))
            x = space.translate_mask(x, mapping)
        hit = table[x]
        return names[hit - 1] if hit else None
    if q == 3:
        ksig = 2 * (rank + 1) - size
        dsig = size - rank - 1
        if ksig >= 3 and dsig >= 1 and space.is_connected_mask(x):
            if canonical_key(EmbeddedMatroid(space, x)) == _family_key(ksig, dsig):
                return f"circuit with U(2,4) family (k={ksig}, d={dsig})"
    key = None
    for name, r, n, entry_key in forbidden_catalog(q):
        if (r, n) != (rank, size):
            continue
        if key is None:
            key = canonical_key(EmbeddedMatroid(space, x))
        if key == entry_key:
            return name
    return None


def _match_forbidden(side: EmbeddedMatroid):
    """First (flat members, entry name) match on one side, or None.

    A forbidden member has rank FLAT_VIOLATION_FLOOR[q] or more (see there),
    so only flats of those ranks are scanned; each matroid flat is visited
    once, at its own closure.
    """
    if side.green_mask == 0:
        return None
    m = side.to_span()
    space = m.space
    green = m.green_mask
    # top-rank flats first: circuits and family members sit at the span, so
    # dense non-members are rejected before the wide low-rank levels
    for frank in range(space.r, FLAT_VIOLATION_FLOOR[space.q] - 1, -1):
        for fmask in space.flats_of_rank(frank):
            x = fmask & green
            if x == 0 or space.closure_mask(x) != fmask:
                continue
            name = _classify_flat(space, x, frank)
            if name is not None:
                return (tuple(iter_bits(x)), name)
    return None


def decide_forbidden_flats(M: EmbeddedMatroid) -> Verdict:
    """Decide by scanning flats of M and of its complement for forbidden members."""
    if M.rank > FLAT_RANK_CAP:
        raise ResourceLimitError(
            f"forbidden-flat decision capped at rank {FLAT_RANK_CAP}, got {M.rank}")
    m = M.to_span()
    for side_name, side in (("M", m), ("M^c", m.complement())):
        hit = _match_forbidden(side)
        if hit is not None:
            return Verdict(False, "forbidden-flat", ("witness", side_name) + hit)
    return Verdict(True, "forbidden-flat")


# -------------------------------------------------------------------- replay

def verify_certificate(M: EmbeddedMatroid, verdict: Verdict) -> bool:
    """Replay a certificate against M, independently of the producing decider.

    Only a positive flat or forbidden scan ends without a witness; any other
    verdict without a certificate, and any malformed certificate, is rejected.
    The subtrees of a recursive trace are memoized in _replay_memo by the
    identity of their certificate object, not by its value, which cannot tell
    a forged 1.0 from a point index 1 (see _replay). The whole trace is looked
    up there too but not stored: top-level inputs rarely repeat, and their
    entries would only cost memory.
    """
    cert = verdict.certificate
    if cert is None:
        return verdict.is_comatroid and verdict.method in ("flat-criterion", "forbidden-flat")
    m = M.to_span()
    space = m.space
    match verdict.method, cert:
        case "recursive", _:
            try:
                return _replay(m, cert, store=False) == verdict.is_comatroid
            except _ReplayError:
                return False
        case "flat-criterion", ("violating-flat", members):
            fmask = _members_mask(space, members)
            if fmask is None or space.closure_mask(fmask) != fmask:
                return False
            x = fmask & m.green_mask
            y = fmask & ~m.green_mask
            return (space.rank_of_mask(x) == space.rank_of_mask(y)
                    and space.is_connected_mask(x)
                    and space.is_connected_mask(y)
                    and not verdict.is_comatroid)
        case "forbidden-flat", ("witness", "M" | "M^c" as side_name, members, entry):
            side = m if side_name == "M" else m.complement().to_span()
            x = _members_mask(side.space, members)
            if x is None or side.space.closure_mask(x) & side.green_mask != x:
                return False
            hit = _classify_flat(side.space, x, side.space.rank_of_mask(x))
            return hit == entry and not verdict.is_comatroid
    return False


def _members_mask(space, members) -> int | None:
    """Mask of a certificate's point list, or None unless it is a plain tuple of
    plain ints naming points of space (no subclass can change what it reads as)."""
    if not (type(members) is tuple
            and all(type(i) is int and 0 <= i < space.n for i in members)):
        return None
    return space.mask_of(members)


class _ReplayError(Exception):
    pass


# (r, q, green_mask) of a spanning sub-matroid -> (certificate, result), where
# result is True or False as replayed, or None for a rejected certificate
_replay_memo: dict[tuple[int, int, int], tuple[object, bool | None]] = {}


def _replay(m: EmbeddedMatroid, cert, store: bool = True) -> bool:
    """_replay_rec through _replay_memo; raises _ReplayError when cert is rejected.

    A hit needs the stored certificate to be the very object replayed, not an
    equal one: == and hash cannot tell 1.0 from 1, so a value key would let a
    trace whose member lists hold floats borrow the verdict of the genuine
    trace. Certificates are built of plain tuples only (_replay_rec checks
    this), so an object replays the same way every time, and the memo keeps it
    alive, so its identity is never reused.
    """
    key = (m.space.r, m.q, m.green_mask)
    got = _replay_memo.get(key)
    if got is not None and got[0] is cert:
        out = got[1]
    else:
        try:
            out = _replay_rec(m, cert)
        except _ReplayError:
            out = None
        if store:
            _replay_memo[key] = (cert, out)
    if out is None:
        raise _ReplayError
    return out


def _replay_rec(m: EmbeddedMatroid, cert) -> bool:
    """Replay one step of a recursive trace on the spanning matroid m.

    Each subtree goes through _replay_memo, which hits only on the same
    certificate object, never on an equal one (see _replay), so a subtree
    shared by many traces (the deciders share them through _rec_memo) is
    walked once per sub-matroid. Raises _ReplayError on any step that does
    not hold.
    """
    if type(cert) is not tuple:
        raise _ReplayError
    match cert:
        case ("empty",):
            if m.green_mask != 0:
                raise _ReplayError
            return True
        case ("blocked",):
            comp = m.complement()
            if not (m.is_connected() and comp.rank == m.rank
                    and m.space.is_connected_mask(comp.green_mask)):
                raise _ReplayError
            return False
        case ("components", children):
            comps = m.space.components_mask(m.green_mask)
            if type(children) is not tuple or len(comps) < 2 or len(comps) != len(children):
                raise _ReplayError
            ok = True
            for c, child in zip(comps, children):
                match child:
                    case (members, sub_cert) if (type(child) is tuple
                                                 and _members_mask(m.space, members) == c):
                        ok = _replay(EmbeddedMatroid(m.space, c).to_span(), sub_cert) and ok
                    case _:
                        raise _ReplayError
            return ok
        case ("complement", sub_cert):
            comp = m.complement()
            if not m.is_connected():
                raise _ReplayError
            if comp.rank == m.rank and m.space.is_connected_mask(comp.green_mask):
                raise _ReplayError
            return _replay(comp.to_span(), sub_cert)
    raise _ReplayError
