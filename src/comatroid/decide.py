"""Three independent deciders for GF(q)-comatroid membership.

A GF(q)-comatroid is built from the empty matroid by direct sums and
complements inside projective space. The recursive decider follows that
definition directly; the flat-criterion decider checks the equal-rank flat
condition; the forbidden-flat decider matches flats of the matroid and its
complement against a finite catalog plus unbounded families.

The deciders and the replay take an EmbeddedMatroid at the door and work on
(space, green) pairs inside: green is a mask spanning space, a complement is
space.full_mask ^ green, and a component or a flat's green set is moved into
its own span by PointSpace.spanned. Both flat scans walk one level plan per
(r, q) (_plans): the hyperplanes read as traces in PG(r-2, q), the other levels
in the space itself, and a level of tabled geometries one table byte per flat.
Forbidden members are held in one table per (rank, q) (_member_table): their
masks, sizes and hyperplane profiles, the orbit table of a tabled rank, and
their canonical keys, filled on first read. A flat's green set is screened by
the sizes and, where no orbit table names it, by the profiles before it is
given a canonical key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .canonical import canonical_key, orbit_of
from .catalog import circuit, circuit_with_u24, forbidden_fixed
from .errors import ResourceLimitError
from .matroid import EmbeddedMatroid, embed
from .projective import TABLE_POINT_CAP, bits, point_space, popcount, remember

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
# The one type a certificate's point index may have: no subclass of int
_INT = frozenset((int,))


@dataclass(frozen=True)
class Verdict:
    """A decision with the method that produced it and a replayable certificate."""

    is_comatroid: bool
    method: str
    certificate: tuple | None = None


# the flat deciders' certificate-less positives, each one object shared by every call
_FLAT_POSITIVE = Verdict(True, "flat-criterion")
_FORBIDDEN_POSITIVE = Verdict(True, "forbidden-flat")

# ---------------------------------------------------------------- recursive

# (r, q, green) of a spanning green set reached by a nested call -> (decision, trace);
# without its stores sweep read 25% fewer items/s (2 cores, Python 3.11.7)
_rec_memo: dict[tuple[int, int, int], tuple[bool, tuple]] = {}


def _decide_rec(space, green: int, store: bool = True) -> tuple[bool, tuple]:
    """Decision and trace for a green set spanning space, through _rec_memo; stored
    there only if store (see decide_recursive)."""
    key = (space.r, space.q, green)
    got = _rec_memo.get(key)
    if got is not None:
        return got
    if green == 0:
        out = (True, ("empty",))
    elif not space.is_connected_mask(green):
        # tested first: a tabled space reads its connected table, so only the
        # disconnected sets it decides enter _components_memo
        children = []
        ok = True
        for c in space.components_mask(green):
            good, cert = _decide_rec(*space.spanned(c))
            children.append((bits(c), cert))
            ok = ok and good
        out = (ok, ("components", tuple(children)))
    else:
        red = space.full_mask ^ green
        if space.rank_of_mask(red) == space.r and space.is_connected_mask(red):
            out = (False, ("blocked",))
        else:
            good, cert = _decide_rec(*space.spanned(red))
            out = (good, ("complement", cert))
    return remember(_rec_memo, key, out) if store else out


def decide_recursive(M: EmbeddedMatroid) -> Verdict:
    """Decide by unwinding complements and direct-sum components to the empty base.

    Every sub-matroid the unwinding reaches is memoized in _rec_memo, and its
    trace is shared by every trace that reaches it again. M itself is looked up
    there but not stored: top-level inputs rarely repeat, and their entries
    would only cost memory (the rule verify_certificate keeps for _replay_memo).
    """
    ok, cert = _decide_rec(*M.space.spanned(M.green_mask), store=False)
    return Verdict(ok, "recursive", cert)


# ------------------------------------------------------------ flat criterion

class _Plans(dict):
    """(r, q) -> (rank, s, cs) per flat level of PG(r-1, q), rank r down to FLAT_VIOLATION_FLOOR[q],
    built on first use: the hyperplanes read as traces in s = PG(r-2, q), with cs its
    connected_spanning_table(); the top flat and lower levels (s, cs None) in the scanned
    space itself, as a space per level would hold its own memos. A tabled space has one level."""

    def __missing__(self, key: tuple[int, int]) -> tuple[tuple, ...]:
        r, q = key
        plan = self[key] = tuple(
            (k, point_space(k, q), point_space(k, q).connected_spanning_table()) if k == r - 1
            else (k, None, None) for k in range(r, FLAT_VIOLATION_FLOOR[q] - 1, -1))
        return plan


_plans = _Plans()


def _violating_flats(space, green: int):
    """The flats F of space, from FLAT_VIOLATION_FLOOR up, at which the green set
    fails the flat criterion: r(F ∩ G) = r(F − G) and both sides connected.

    Walks _plans top rank first, fetching a level's flats on reaching it: most
    non-comatroids fail at the full space, before a lower level is built. xs holds
    each F ∩ G as a mask of s. A tabled s reads both sides in cs: they cover F, so one
    in a hyperplane of F leaves the other spanning, and equal ranks mean both span.
    """
    for frank, s, cs in _plans[space.r, space.q]:
        if s is None:
            s, cs = space, space.connected_spanning_table()
            if cs is not None:
                if cs[green] and cs[space.full_mask ^ green]:
                    yield space.full_mask
                continue
        flats = space.flats_of_rank(frank)
        xs = map(green.__and__, flats) if s is space else space.hyperplane_traces(green)
        if cs is not None:
            for fmask, x in zip(flats, xs):
                if cs[x] and cs[s.full_mask ^ x]:
                    yield fmask
            continue
        for fmask, x in zip(flats, xs):
            y = (s.full_mask if frank == s.r else fmask) ^ x
            if (s.rank_of_mask(x) == s.rank_of_mask(y)
                    and s.is_connected_mask(x) and s.is_connected_mask(y)):
                yield fmask


def decide_flat_criterion(M: EmbeddedMatroid) -> Verdict:
    """Decide via the equal-rank flat condition on the span of the matroid.

    The matroid passes iff it is empty or every projective flat F with
    r(F ∩ G) = r(F − G) has a disconnected restriction on at least one side.
    Flats below FLAT_VIOLATION_FLOOR never fail it, so they are not visited.
    """
    if M.space.r > FLAT_RANK_CAP and M.rank > FLAT_RANK_CAP:
        raise ResourceLimitError(f"flat criterion capped at rank {FLAT_RANK_CAP}, got {M.rank}")
    for fmask in _violating_flats(*M.space.spanned(M.green_mask)):
        return Verdict(False, "flat-criterion", ("violating-flat", bits(fmask)))
    return _FLAT_POSITIVE


# ---------------------------------------------------------- forbidden flats

# unbounded but finite: one entry per field q = 2, 3
@lru_cache(maxsize=None)
def forbidden_catalog(q: int) -> tuple[tuple[str, int, int, tuple], ...]:
    """Fixed forbidden-flat entries for GF(q) as sorted (name, rank, size, key).

    _MemberTable adds the circuit-with-U(2,4) family; _classify_flat tests circuits.
    """
    entries = []
    for name, pres in forbidden_fixed(q):
        m = embed(pres)
        entries.append((name, m.rank, m.n, canonical_key(m)))
    return tuple(sorted(entries))


def _hyperplane_profile(space, x: int) -> tuple[int, ...]:
    """Sorted |x ∩ H| over the hyperplanes H of space, read off its dual rows: a linear
    map carries hyperplanes onto hyperplanes, so equivalent spanning sets share it."""
    return tuple(sorted([(x & h).bit_count() for h in space.dual_hyperplanes()]))


class _MemberTable:
    """The forbidden members of rank `rank` over GF(q) other than circuits, built on
    first use (_member_table): the one place that lists, screens, tables and keys them.

    members holds (name, mask, keyed), each member listed once with mask spanning
    point_space(rank, q). First the circuit-with-U(2,4) family over GF(3),
    embedded unkeyed: a k-circuit with d copies of U(2,4) two-summed on has rank
    k + d - 1, and d of its k elements carry a copy, so k + d = rank + 1 with
    1 <= d <= k and k >= 3. Then the entries of forbidden_catalog(q) of that rank,
    in its sorted order, each as its key's mask (keyed). sizes and profiles are
    the members' sizes and hyperplane profiles, the screens a flat passes first.

    Where PG(rank-1, q) has at most TABLE_POINT_CAP points, orbits is (table,
    names) over every mask of it: table[mask] is 0 for no member and 1 + i for
    names[i]. Each member's orbit is walked from its mask, which lies in this
    same space, in the order of members; an orbit already walked marks nothing
    more, so a mask is named as the first equal key of keys() would name it, and
    no member is keyed. The spanning circuits of _MIN_CIRCUIT[q] points or more,
    frames, come last. Above the cap orbits is None: an orbit there can run to
    10^5 masks.
    """

    def __init__(self, rank: int, q: int):
        space = point_space(rank, q)
        self.rank, self.q = rank, q
        members = []
        if q == 3:
            for d in range(1, min((rank + 1) // 2, rank - 2) + 1):
                k = rank + 1 - d
                members.append((f"circuit with U(2,4) family (k={k}, d={d})",
                                embed(circuit_with_u24(k, range(d))).green_mask, False))
        members += [(name, key[2], True) for name, r, _, key in forbidden_catalog(q) if r == rank]
        self.members = tuple(members)
        self.sizes = frozenset(popcount(mask) for _, mask, _ in members)
        self.profiles = frozenset(_hyperplane_profile(space, mask) for _, mask, _ in members)
        self.orbits = None
        if space.n <= TABLE_POINT_CAP:
            tabled = self.members
            if rank + 1 >= _MIN_CIRCUIT[q]:
                tabled += ((f"circuit of size {rank + 1}", embed(circuit(rank + 1, q)).green_mask, False),)
            table = bytearray(1 << space.n)
            for i, (_, mask, _) in enumerate(tabled):
                orbit_of(space, mask, table, 1 + i)
            self.orbits = table, tuple(name for name, _, _ in tabled)
        self._keys = None

    def keys(self) -> dict[tuple, str]:
        """The members as {canonical key: name}, filled on the first read; a key
        listed twice keeps its first name. Only here is a family member keyed."""
        if self._keys is None:
            space = point_space(self.rank, self.q)
            self._keys = {}
            for name, mask, keyed in self.members:
                key = (self.q, self.rank, mask) if keyed else canonical_key(EmbeddedMatroid(space, mask))
                self._keys.setdefault(key, name)
        return self._keys


# one shared member table per (rank, q): unbounded but finite, as a flat's rank runs
# over 0..MAX_SPACE_RANK (8), so at most 18 tables
_member_table = lru_cache(maxsize=None)(_MemberTable)


def _classify_flat(space, x: int, rank: int) -> str | None:
    """Name of the forbidden member that the rank-`rank` green set x is, if any.

    The circuit test is cheapest and comes first. Then x must have the size
    of a member of its rank. A rank whose geometry PG(rank-1, q) has an orbit
    table reads it at x moved into its own span. Elsewhere x must be
    connected, as every member is minimal, and moved into its own span it must
    have the hyperplane profile of a member; only then is it looked up by
    canonical key. The profile only screens: the key alone names x.
    """
    size = popcount(x)
    q = space.q
    if size == rank + 1 and size >= _MIN_CIRCUIT[q] and space.is_connected_mask(x):
        return f"circuit of size {size}"
    members = _member_table(rank, q)
    if size not in members.sizes:
        return None
    if members.orbits is not None:
        table, names = members.orbits
        hit = table[space.spanned(x)[1]]
        return names[hit - 1] if hit else None
    if not space.is_connected_mask(x):
        return None
    sub, x = space.spanned(x)
    if _hyperplane_profile(sub, x) not in members.profiles:
        return None
    return members.keys().get(canonical_key(EmbeddedMatroid(sub, x)))


def _match_forbidden(space, green: int):
    """First (flat members, entry name) match for a green set spanning space, or None.

    Walks _plans as _violating_flats does: no member lies below FLAT_VIOLATION_FLOOR,
    and circuits and family members sit at the span, so dense non-members are
    rejected before the wide low ranks. Each matroid flat is visited once, at its
    closure, where x = F ∩ G has the rank of F (a hyperplane's trace is space.spanned's
    mask). A tabled s names x in its orbit table, fetched at the first read.
    """
    for frank, s, cs in _plans[space.r, space.q]:
        if s is None:
            s, cs = space, space.connected_spanning_table()
            if cs is not None:
                table, names = _member_table(frank, space.q).orbits
                return (bits(green), names[table[green] - 1]) if table[green] else None
        flats = space.flats_of_rank(frank)
        xs = map(green.__and__, flats) if s is space else space.hyperplane_traces(green)
        if cs is not None:
            table, names = _member_table(frank, s.q).orbits
            for fmask, x in zip(flats, xs):
                if table[x]:
                    return (bits(fmask & green), names[table[x] - 1])
            continue
        for fmask, x in zip(flats, xs):
            if x and s.rank_of_mask(x) == frank:
                name = _classify_flat(s, x, frank)
                if name is not None:
                    return (bits(fmask & green), name)
    return None


def decide_forbidden_flats(M: EmbeddedMatroid) -> Verdict:
    """Decide by scanning flats of M and of its complement for forbidden members."""
    if M.space.r > FLAT_RANK_CAP and M.rank > FLAT_RANK_CAP:
        raise ResourceLimitError(
            f"forbidden-flat decision capped at rank {FLAT_RANK_CAP}, got {M.rank}")
    space, green = M.space.spanned(M.green_mask)
    for side_name, side in (("M", green), ("M^c", space.full_mask ^ green)):
        hit = _match_forbidden(*space.spanned(side))
        if hit is not None:
            return Verdict(False, "forbidden-flat", ("witness", side_name) + hit)
    return _FORBIDDEN_POSITIVE


# -------------------------------------------------------------------- replay

def verify_certificate(M: EmbeddedMatroid, verdict: Verdict) -> bool:
    """Replay a certificate against M, independently of the producing decider.

    Only a positive flat or forbidden scan ends without a witness; any other
    verdict without a certificate, and any malformed certificate, is rejected.
    The subtrees of a recursive trace are memoized in _replay_memo by the
    identity of their certificate object, not by its value, which cannot tell
    a forged 1.0 from a point index 1 (see _replay). The whole trace is looked
    up there too but not stored: top-level inputs rarely repeat, and their
    entries would only cost memory. decide_recursive stores in _rec_memo by the
    same rule, so the subtrees replayed here are the objects held there.
    """
    cert = verdict.certificate
    if cert is None:
        return verdict.is_comatroid and verdict.method in ("flat-criterion", "forbidden-flat")
    space, green = M.space.spanned(M.green_mask)
    match verdict.method, cert:
        case "recursive", _:
            try:
                return _replay(space, green, cert, store=False) == verdict.is_comatroid
            except _ReplayError:
                return False
        case "flat-criterion", ("violating-flat", members):
            fmask = _members_mask(space, members)
            if (fmask is None or space.closure_mask(fmask) != fmask
                    or space.rank_of_mask(fmask) < FLAT_VIOLATION_FLOOR[space.q]):
                return False
            x, y = fmask & green, fmask & ~green
            return (not verdict.is_comatroid and space.rank_of_mask(x) == space.rank_of_mask(y)
                    and space.is_connected_mask(x) and space.is_connected_mask(y))
        case "forbidden-flat", ("witness", "M" | "M^c" as side_name, members, entry):
            if side_name == "M^c":
                space, green = space.spanned(space.full_mask ^ green)
            x = _members_mask(space, members)
            if x is None or space.closure_mask(x) & green != x:
                return False
            hit = _classify_flat(space, x, space.rank_of_mask(x))
            return type(entry) is str and hit == entry and not verdict.is_comatroid
    return False


def _members_mask(space, members) -> int | None:
    """Mask of a certificate's point list, or None unless it is a plain tuple of
    plain ints naming points of space (no subclass can change what it reads as).
    Each check is one pass in C: the members' types, then their least and greatest."""
    if not (type(members) is tuple and _INT.issuperset(map(type, members))
            and (not members or 0 <= min(members) and max(members) < space.n)):
        return None
    return space.mask_of(members)


class _ReplayError(Exception):
    pass


# (r, q, green) of a spanning green set -> (certificate, result), where result
# is True or False as replayed, or None for a rejected certificate; without it sweep
# read 13% fewer items/s (2 cores, Python 3.11.7)
_replay_memo: dict[tuple[int, int, int], tuple[object, bool | None]] = {}


def _replay(space, green: int, cert, store: bool = True) -> bool:
    """_replay_rec through _replay_memo; raises _ReplayError when cert is rejected.

    A hit needs the stored certificate to be the very object replayed, not an
    equal one: == and hash cannot tell 1.0 from 1, so a value key would let a
    trace whose member lists hold floats borrow the verdict of the genuine
    trace. Certificates are built of plain tuples only (_replay_rec checks
    this), so an object replays the same way every time, and an entry keeps its
    certificate alive, so that identity is not reused while the entry is held;
    emptying a full memo (remember) drops both together.
    """
    key = (space.r, space.q, green)
    got = _replay_memo.get(key)
    if got is not None and got[0] is cert:
        out = got[1]
    else:
        try:
            out = _replay_rec(space, green, cert)
        except _ReplayError:
            out = None
        if store:
            remember(_replay_memo, key, (cert, out))
    if out is None:
        raise _ReplayError
    return out


def _replay_rec(space, green: int, cert) -> bool:
    """Replay one step of a recursive trace on a green set spanning space.

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
            if green != 0:
                raise _ReplayError
            return True
        case ("blocked",):
            red = space.full_mask ^ green
            if not (space.is_connected_mask(green) and space.rank_of_mask(red) == space.r
                    and space.is_connected_mask(red)):
                raise _ReplayError
            return False
        case ("components", children):
            comps = space.components_mask(green)
            if type(children) is not tuple or len(comps) < 2 or len(comps) != len(children):
                raise _ReplayError
            ok = True
            for c, child in zip(comps, children):
                match child:
                    case (members, sub_cert) if (type(child) is tuple
                                                 and _members_mask(space, members) == c):
                        ok = _replay(*space.spanned(c), sub_cert) and ok
                    case _:
                        raise _ReplayError
            return ok
        case ("complement", sub_cert):
            red = space.full_mask ^ green
            if not space.is_connected_mask(green):
                raise _ReplayError
            if space.rank_of_mask(red) == space.r and space.is_connected_mask(red):
                raise _ReplayError
            return _replay(*space.spanned(red), sub_cert)
    raise _ReplayError
