"""Tests for the three membership deciders and their certificates."""

import hashlib
import random
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comatroid import canonical, decide, projective
from comatroid.canonical import apply_linear_map, canonical_key
from comatroid.catalog import (
    FIVE_VERTEX_GRAPHS,
    catalog_names,
    circuit,
    circuit_with_u24,
    forbidden_fixed,
    graph_cycle_matroid,
    named,
)
from comatroid.decide import (
    FLAT_VIOLATION_FLOOR,
    Verdict,
    _classify_flat,
    _member_table,
    decide_flat_criterion,
    decide_forbidden_flats,
    decide_recursive,
    forbidden_catalog,
    verify_certificate,
)
from comatroid.errors import ResourceLimitError
from comatroid.linalg import random_invertible
from comatroid.matroid import EmbeddedMatroid, embed
from comatroid.projective import MAX_SPACE_RANK, PointSpace, iter_bits, point_space, popcount

from oracles import (
    FORBIDDEN_FLAT_SHA256,
    FORBIDDEN_LIST_SHA256,
    VERDICT_SHA256,
    forbidden_name_by_key,
    match_forbidden_ambient,
    violating_flats_ambient,
)

DECIDERS = (decide_recursive, decide_flat_criterion, decide_forbidden_flats)


def threeway(m):
    verdicts = [d(m) for d in DECIDERS]
    assert len({v.is_comatroid for v in verdicts}) == 1, (
        [(v.method, v.is_comatroid) for v in verdicts])
    return verdicts[0].is_comatroid


def test_empty_matroid_is_comatroid():
    m = EmbeddedMatroid(point_space(3, 2), 0)
    for decide in DECIDERS:
        v = decide(m)
        assert v.is_comatroid
        assert verify_certificate(m, v)


def test_full_projective_spaces_are_comatroids():
    for r, q in ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)):
        space = point_space(r, q)
        assert threeway(EmbeddedMatroid(space, space.full_mask))


@given(st.integers(min_value=3, max_value=7), st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_circuit_law(k, q):
    # a k-circuit over GF(q) is a comatroid exactly when q + k <= 6
    m = embed(circuit(k, q))
    if m.rank > 6:
        assert decide_recursive(m).is_comatroid == (q + k <= 6)
    else:
        assert threeway(m) == (q + k <= 6)


def test_eight_circuit_by_recursion():
    m = embed(circuit(8, 2))
    assert m.rank == 7
    assert not decide_recursive(m).is_comatroid
    with pytest.raises(ResourceLimitError):
        decide_flat_criterion(m)
    with pytest.raises(ResourceLimitError):
        decide_forbidden_flats(m)


def test_rank_cap_on_recursion():
    m = embed(circuit(9, 2))
    with pytest.raises(ResourceLimitError):
        decide_recursive(m)


def test_exhaustive_rank3_binary_with_replay():
    space = point_space(3, 2)
    comatroids = 0
    for green in range(1 << space.n):
        m = EmbeddedMatroid(space, green)
        verdicts = [d(m) for d in DECIDERS]
        assert len({v.is_comatroid for v in verdicts}) == 1
        comatroids += verdicts[0].is_comatroid
        for v in verdicts:
            assert verify_certificate(m, v)
    # every rank-<=3 binary matroid is a comatroid
    assert comatroids == 1 << space.n


def _random_masks(space, count, seed):
    rng = random.Random(seed)
    return [rng.randrange(1 << space.n) for _ in range(count)]


def test_random_agreement_rank4_binary():
    space = point_space(4, 2)
    for green in _random_masks(space, 300, 11):
        threeway(EmbeddedMatroid(space, green))


def test_random_agreement_rank3_ternary():
    space = point_space(3, 3)
    for green in _random_masks(space, 300, 12):
        threeway(EmbeddedMatroid(space, green))


def test_random_agreement_rank5_binary():
    space = point_space(5, 2)
    for green in _random_masks(space, 60, 13):
        threeway(EmbeddedMatroid(space, green))


def test_catalog_matroids_agree():
    for name in catalog_names():
        m = embed(named(name))
        if m.rank <= 6:
            threeway(m)


def test_known_non_comatroids():
    for name in ("P(U34,U34)", "M(K4)", "W3", "R6", "P(U24,U23)",
                 "P(U23,U23)", "U24+2U23"):
        m = embed(named(name))
        assert not threeway(m), name


def test_known_comatroids():
    # F7 is rank-3 binary; AG(2,3)\e is a ternary comatroid example
    assert threeway(embed(named("F7")))
    assert threeway(embed(named("PG(2,2)")))


def test_six_circuit_flat_certificate():
    m = embed(circuit(6, 2))
    v = decide_flat_criterion(m)
    assert not v.is_comatroid
    kind, flat = v.certificate
    assert kind == "violating-flat"
    span = m.to_span()
    assert set(flat) == set(iter_bits(span.space.full_mask))
    assert verify_certificate(m, v)


def test_blocked_recursion_certificate():
    m = embed(circuit(6, 2))
    v = decide_recursive(m)
    assert not v.is_comatroid
    assert verify_certificate(m, v)


def test_forbidden_witness_names():
    v = decide_forbidden_flats(embed(circuit(6, 2)))
    assert not v.is_comatroid
    assert v.certificate[3] == "circuit of size 6"

    v = decide_forbidden_flats(embed(named("M(K4)")))
    assert v.certificate[3] == "M(K4)"

    v = decide_forbidden_flats(embed(circuit_with_u24(3, (0,))))
    assert v.certificate[3] == "circuit with U(2,4) family (k=3, d=1)"

    v = decide_forbidden_flats(embed(named("P(U34,U34)")))
    assert v.certificate[3] == "P(U34,U34)"


def test_forbidden_witness_on_complement_side():
    # the complement of a 6-circuit has the circuit on its complement side
    m = embed(circuit(6, 2)).complement()
    v = decide_forbidden_flats(m)
    assert not v.is_comatroid
    assert v.certificate[1] == "M^c"
    assert verify_certificate(m, v)


def assert_rejected_cold_and_warm(m, verdict):
    """Replay rejects verdict with an empty replay memo, and again once the
    memo holds m with its genuine recursive trace."""
    decide._replay_memo.clear()
    assert not verify_certificate(m, verdict)
    decide._replay(*m.space.spanned(m.green_mask), decide_recursive(m).certificate)
    assert not verify_certificate(m, verdict)


def test_tampered_certificates_fail():
    m = embed(circuit(6, 2))
    v = decide_flat_criterion(m)
    bad = type(v)(v.is_comatroid, v.method, ("violating-flat", (0, 1)))
    assert_rejected_cold_and_warm(m, bad)

    w = decide_forbidden_flats(m)
    kind, side, members, entry = w.certificate
    bad = type(w)(w.is_comatroid, w.method, (kind, side, members, "M(C5)"))
    assert_rejected_cold_and_warm(m, bad)


class _Str(str):
    """A name that claims to equal every other."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        return True


def test_replay_rejects_witness_names_that_are_no_plain_str():
    # hit == entry would ask the subclass first, so any genuine witness could carry it
    for m in (embed(circuit(5, 2)), embed(circuit(6, 2))):
        w = decide_forbidden_flats(m)
        kind, side, members, entry = w.certificate
        assert verify_certificate(m, w)
        forged = (kind, side, members, _Str("no such member"))
        assert_rejected_cold_and_warm(m, Verdict(False, w.method, forged))


@pytest.mark.parametrize("verdict", [
    Verdict(False, "flat-criterion", None),
    Verdict(False, "forbidden-flat", None),
    Verdict(True, "no-such-method", None),
    Verdict(False, "recursive", None),
], ids=["negative-flat", "negative-forbidden", "unknown-method", "recursive"])
def test_verdicts_without_certificate_fail(verdict):
    assert_rejected_cold_and_warm(embed(circuit(6, 2)), verdict)


@pytest.mark.parametrize("verdict", [
    Verdict(False, "forbidden-flat", ("witness",)),
    Verdict(False, "flat-criterion", ("violating-flat",)),
    Verdict(False, "flat-criterion", ("violating-flat", (99,))),
    Verdict(False, "recursive", ("complement",)),
], ids=["short-witness", "short-flat", "point-outside-space", "short-trace"])
def test_malformed_certificates_fail(verdict):
    assert_rejected_cold_and_warm(embed(circuit(6, 2)), verdict)


def _float_members(cert):
    """cert with every member tuple of its components steps rewritten as floats."""
    match cert:
        case ("components", children):
            return ("components", tuple((tuple(map(float, members)), _float_members(sub))
                                        for members, sub in children))
        case ("complement", sub):
            return ("complement", _float_members(sub))
    return cert


def test_replay_memo_rejects_value_equal_forgery():
    m = EmbeddedMatroid(point_space(4, 2), 31)
    v = decide_recursive(m)
    assert v.certificate[0] == "complement"
    assert verify_certificate(m, v)
    # the trace's member tuples all sit below its top-level complement step
    forged = _float_members(v.certificate)
    # 1.0 == 1 and both hash alike, so only the objects' identity tells the
    # forged subtree from the genuine one that the replay above memoized
    assert forged == v.certificate and hash(forged[1]) == hash(v.certificate[1])
    assert not verify_certificate(m, Verdict(v.is_comatroid, v.method, forged))


def test_replay_rejects_certificates_not_built_of_tuples():
    # a list could change after it was memoized, so replay takes tuples only
    m = EmbeddedMatroid(point_space(4, 2), 31)
    v = decide_recursive(m)
    listed = ("complement", list(v.certificate[1]))
    assert_rejected_cold_and_warm(m, Verdict(v.is_comatroid, v.method, listed))


class _Int(int):
    pass


class _Tuple(tuple):
    pass


def _swap(members, old, new):
    return tuple(new if i == old else i for i in members)


# Each way a certificate's point list must not read: an index that is no plain int
# (True, 1.0 and an int subclass all equal the point 1), out of range (-1 stands for
# the last point n - 1 in Python's indexing, n lies past it), or a list that is no
# plain tuple. Each takes the point list and the space's point count n.
MEMBER_FORGERIES = {
    "True": lambda members, n: _swap(members, 1, True),
    "float": lambda members, n: _swap(members, 1, 1.0),
    "int-subclass": lambda members, n: _swap(members, 1, _Int(1)),
    "minus-one": lambda members, n: _swap(members, n - 1, -1),
    "n": lambda members, n: members + (n,),
    "list": lambda members, n: list(members),
    "tuple-subclass": lambda members, n: _Tuple(members),
}


def _forge_members(verdict, forge, n):
    """verdict with forge applied to every point list of its certificate: the flat of a
    flat-criterion verdict, the witness of a forbidden-flat one, or each component of
    the recursive trace's top components step."""
    match verdict.certificate:
        case ("violating-flat", members):
            cert = ("violating-flat", forge(members, n))
        case ("witness", side, members, entry):
            cert = ("witness", side, forge(members, n), entry)
        case ("components", children):
            cert = ("components", tuple((forge(members, n), sub) for members, sub in children))
    return Verdict(verdict.is_comatroid, verdict.method, cert)


# the 5-circuit of the tabled PG(3,2), the 6-circuit of the untabled PG(4,2), and the
# direct sum of a point with a 4-circuit through points 1 and 14 in PG(3,2): every
# certificate names points 1 and n - 1
FORGERY_CASES = {
    "flat-tabled": (embed(circuit(5, 2)), decide_flat_criterion),
    "flat-untabled": (embed(circuit(6, 2)), decide_flat_criterion),
    "witness-tabled": (embed(circuit(5, 2)), decide_forbidden_flats),
    "witness-untabled": (embed(circuit(6, 2)), decide_forbidden_flats),
    "components": (EmbeddedMatroid(point_space(4, 2), 0b100000010010011), decide_recursive),
}


@pytest.mark.parametrize("forgery", MEMBER_FORGERIES)
@pytest.mark.parametrize("case", FORGERY_CASES)
def test_replay_rejects_forged_point_lists(case, forgery):
    m, decider = FORGERY_CASES[case]
    v = decider(m)
    n = m.space.n
    # the certificate names points 1 and n - 1, so every forgery changes it
    named = []
    _forge_members(v, lambda members, n: named.extend(members) or members, n)
    assert {1, n - 1} <= set(named)
    assert verify_certificate(m, v)
    assert_rejected_cold_and_warm(m, _forge_members(v, MEMBER_FORGERIES[forgery], n))


def test_empty_point_list_reads_as_the_empty_mask():
    for m, _ in FORGERY_CASES.values():
        assert decide._members_mask(m.space, ()) == 0


# Comatroids by decide_recursive: five points of the tabled PG(3,2), two points of
# the tabled PG(2,3) and a line of the untabled PG(4,2)
HOLE_INPUTS = {
    "pg32-31": EmbeddedMatroid(point_space(4, 2), 31),
    "pg23-5": EmbeddedMatroid(point_space(3, 3), 5),
    "pg42-7": EmbeddedMatroid(point_space(5, 2), 7),
}

# Negative verdicts whose certificate names no violation: the empty flat, which lies
# below FLAT_VIOLATION_FLOOR like every flat that cannot fail the criterion, and
# witnesses whose entry None names no forbidden member
HOLE_FORGERIES = {
    "empty-flat": Verdict(False, "flat-criterion", ("violating-flat", ())),
    "empty-witness": Verdict(False, "forbidden-flat", ("witness", "M", (), None)),
    "empty-complement-witness": Verdict(False, "forbidden-flat", ("witness", "M^c", (), None)),
    "point-witness": Verdict(False, "forbidden-flat", ("witness", "M", (0,), None)),
}


@pytest.mark.parametrize("forgery", HOLE_FORGERIES)
@pytest.mark.parametrize("case", HOLE_INPUTS)
def test_replay_rejects_negatives_naming_no_violation(case, forgery):
    m = HOLE_INPUTS[case]
    assert decide_recursive(m).is_comatroid
    assert_rejected_cold_and_warm(m, HOLE_FORGERIES[forgery])


def _rewrite_deepest(cert, rewrite):
    """cert with its deepest step that rewrite(step) changes replaced, or None."""
    match cert:
        case ("components", children):
            for i, (members, sub) in enumerate(children):
                new = _rewrite_deepest(sub, rewrite)
                if new is not None:
                    return ("components", children[:i] + ((members, new),) + children[i + 1:])
        case ("complement", sub):
            new = _rewrite_deepest(sub, rewrite)
            if new is not None:
                return ("complement", new)
    return rewrite(cert)


def _swap_first_children(step):
    match step:
        case ("components", (first, second, *rest)):
            return ("components", (second, first, *rest))
    return None


def _block_complement(step):
    return ("blocked",) if step[0] == "complement" else None


def test_replay_memo_warm_equals_cold(monkeypatch):
    """Replay gives the same answer with the memo warm as with it emptied
    before each verdict, on genuine and tampered recursive traces."""
    replayed = set()
    calls = [0]
    replay_rec = decide._replay_rec

    def counted(space, green, cert):
        replayed.add((space.r, space.q, green))
        calls[0] += 1
        return replay_rec(space, green, cert)

    monkeypatch.setattr(decide, "_replay_rec", counted)
    pg23 = point_space(3, 3)
    inputs = [EmbeddedMatroid(pg23, mask) for mask in range(1 << pg23.n)]
    for r, q, count, seed in ((4, 2, 300, 61), (5, 2, 60, 62), (4, 3, 30, 63)):
        space = point_space(r, q)
        inputs += [EmbeddedMatroid(space, mask) for mask in _seeded_masks(space, count, seed)]
    cases = []
    for m in inputs:
        v = decide_recursive(m)
        cases.append((m, v, "genuine"))
        cases.append((m, Verdict(not v.is_comatroid, v.method, v.certificate), "flipped"))
        for kind, rewrite in (("swapped", _swap_first_children), ("blocked", _block_complement)):
            bad = _rewrite_deepest(v.certificate, rewrite)
            if bad is not None:
                cases.append((m, Verdict(v.is_comatroid, v.method, bad), kind))
    assert len({kind for _, _, kind in cases}) == 4

    decide._replay_memo.clear()
    warm = [verify_certificate(m, v) for m, v, _ in cases]
    warm_calls = calls[0]
    # one entry per replayed sub-matroid at most: the memo is keyed by matroid
    assert set(decide._replay_memo) <= replayed
    cold = []
    for m, v, _ in cases:
        decide._replay_memo.clear()
        cold.append(verify_certificate(m, v))
    assert warm == cold == [kind == "genuine" for _, _, kind in cases]
    assert warm_calls < calls[0] - warm_calls


def _capped_memos():
    """Every memo that remember caps: the process-wide ones, and those of each shared
    space the inputs below reach."""
    spaces = [point_space(r, q) for q in (2, 3) for r in range(6)]
    return [decide._rec_memo, decide._replay_memo, canonical._key_memo] + [
        memo for s in spaces
        for memo in (s._closure_memo, s._components_memo, s._vc_memo, s._embeddings)]


def test_memo_cap_never_changes_an_answer(monkeypatch):
    """With MEMO_CAP at 1 and at 8, the three deciders and their replays answer as
    uncapped on every coloring of PG(2,3), a stride of PG(3,2) (with canonical keys and
    vertical connectivity there) and seeded spanning comatroids of PG(4,2) and PG(3,3)
    with their one-point flips; and no memo holds more than the cap after any input."""
    pg23, pg32 = point_space(3, 3), point_space(4, 2)
    inputs = [(EmbeddedMatroid(pg23, mask), False) for mask in range(1 << pg23.n)]
    inputs += [(EmbeddedMatroid(pg32, mask), True) for mask in range(0, 1 << pg32.n, 61)]
    for r, q, seed in ((5, 2, 71), (4, 3, 72)):
        rng = random.Random(seed)
        for _ in range(40):
            m = apply_linear_map(_spanning_comatroid(rng, q, r), random_invertible(r, q, rng))
            inputs += [(m, False),
                       (EmbeddedMatroid(m.space, m.green_mask ^ (1 << rng.randrange(m.space.n))), False)]

    def answers(cap):
        for memo in _capped_memos():
            memo.clear()
        out = []
        for m, keyed in inputs:
            verdicts = [decider(m) for decider in DECIDERS]
            answer = repr((verdicts, [verify_certificate(m, v) for v in verdicts]))
            if keyed:
                answer += repr((canonical_key(m), pg32.vertical_connectivity_mask(m.green_mask)))
            out.append(answer)
            if cap is not None:
                assert max(map(len, _capped_memos())) <= cap
        return out

    uncapped = answers(None)
    for cap in (1, 8):
        monkeypatch.setattr(projective, "MEMO_CAP", cap)
        assert answers(cap) == uncapped


def _nested_keys(space, green, cert):
    """The _rec_memo keys of the sub-matroids a recursive trace on (space, green) reaches."""
    match cert:
        case ("components", children):
            subs = [(space.spanned(space.mask_of(members)), sub) for members, sub in children]
        case ("complement", sub):
            subs = [(space.spanned(space.full_mask ^ green), sub)]
        case _:
            subs = []
    for (s, g), sub in subs:
        yield (s.r, s.q, g)
        yield from _nested_keys(s, g, sub)


def test_recursive_stores_nested_decisions_only():
    """decide_recursive stores the sub-matroids its unwinding reaches, not its input:
    the input's key is absent from _rec_memo, the nested keys are present, and a
    second call gives an equal verdict. An input first reached as a nested sub-matroid
    is still read from the memo when it is decided at the top."""
    pg32 = point_space(4, 2)
    # a green set whose red side spans and is disconnected, so the red side is nested
    m = EmbeddedMatroid(pg32, pg32.full_mask ^ embed(circuit(3, 2)).direct_sum(
        embed(circuit(3, 2))).green_mask)
    red = pg32.full_mask ^ m.green_mask
    assert pg32.rank_of_mask(red) == 4 and not pg32.is_connected_mask(red)
    decide._rec_memo.clear()
    v = decide_recursive(m)
    nested = set(_nested_keys(pg32, m.green_mask, v.certificate))
    assert (4, 2, red) in nested and (4, 2, m.green_mask) not in nested
    assert set(decide._rec_memo) == nested
    assert decide_recursive(m) == v
    assert (4, 2, m.green_mask) not in decide._rec_memo
    # the red side was stored as nested: deciding it reads that entry, trace and all
    assert decide_recursive(EmbeddedMatroid(pg32, red)).certificate is v.certificate[1]


def test_deciders_and_replay_build_no_embedded_matroid(monkeypatch):
    """Past their entry points the deciders and the replay work on masks: with
    the member tables built and the decision memos empty, deciding and
    replaying every coloring of PG(2,3) and a slice of PG(3,2) builds no
    EmbeddedMatroid."""
    for r, q in ((4, 2), (3, 3)):
        _member_table(r, q)
    decide._rec_memo.clear()
    decide._replay_memo.clear()
    pg23, pg32 = point_space(3, 3), point_space(4, 2)
    inputs = [EmbeddedMatroid(pg23, mask) for mask in range(1 << pg23.n)]
    inputs += [EmbeddedMatroid(pg32, mask) for mask in range(0, 1 << pg32.n, 61)]
    built = [0]
    post_init = EmbeddedMatroid.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(EmbeddedMatroid, "__post_init__", counted)
    for m in inputs:
        for decider in DECIDERS:
            assert verify_certificate(m, decider(m))
    assert built[0] == 0


def test_rank6_ternary_size_without_family_member():
    # 11 points of rank 6 read as the family signature k=3, d=4, but a
    # 3-circuit has no 4 elements to carry U(2,4)s: no member has that size,
    # and neither the orbit index nor the key oracle may ask for one
    space = point_space(6, 3)
    x = space.mask_of((32, 60, 68, 107, 130, 194, 230, 241, 253, 291, 333))
    assert space.rank_of_mask(x) == 6
    assert _classify_flat(space, x, 6) is None
    assert forbidden_name_by_key(EmbeddedMatroid(space, x)) is None
    assert set(_member_table(6, 3).keys().values()) == {
        f"circuit with U(2,4) family (k={k}, d={d})" for k, d in ((6, 1), (5, 2), (4, 3))}


def test_forbidden_catalog_shape():
    for q in (2, 3):
        cat = forbidden_catalog(q)
        assert len(cat) == (7 if q == 2 else 5)
        for name, rank, size, key in cat:
            assert rank >= 3
            assert size >= 5
            assert key[0] == q


def test_forbidden_lists_match_pinned_digest():
    # the catalog entries, 7 over GF(2) and 5 over GF(3)
    h = hashlib.sha256()
    for q in (2, 3):
        for entry in forbidden_catalog(q):
            h.update(f"{entry!r}\n".encode())
    assert h.hexdigest() == FORBIDDEN_LIST_SHA256


# Orbit sizes of the tabled forbidden members: |PGL(r, q)| over each stabilizer
ORBIT_SIZES = {
    (4, 2): {"M(C5)": 168, "M(K2,3)": 420, "M(K2,3)+e": 420, "M(gem)": 2520,
             "M(house)": 1680, "M(subdivided K4)": 2520},
    (3, 3): {"M(K4)": 234, "P(U23,U23)": 702, "P(U24,U23)": 468, "R6": 78,
             "W3": 936, "circuit with U(2,4) family (k=3, d=1)": 468,
             "circuit of size 4": 234},
}


def test_orbit_table_sizes():
    for (r, q), want in ORBIT_SIZES.items():
        table, names = _member_table(r, q).orbits
        counts = Counter(table)
        assert {names[i - 1]: c for i, c in counts.items() if i} == want


@pytest.mark.parametrize("r,q", [(3, 2), (4, 2), (2, 3), (3, 3)])
def test_whole_space_level_tables_match_per_flat_tests(r, q):
    """A flat level whose flats are the whole of a tabled space is read one
    byte per flat: both sides' connected_spanning_table entries for the flat
    criterion, the orbit table for the forbidden scan. On every mask the
    tables, and both scans of the space, which read only its top level when
    it is at most FLAT_VIOLATION_FLOOR, agree with the per-flat tests: ranks
    and components, and the key oracle on spanning masks of a size some
    member or spanning circuit has. _classify_flat names every spanning mask
    as the key oracle does."""
    space = point_space(r, q)
    assert r <= FLAT_VIOLATION_FLOOR[q]
    rank, connected, full = space.rank_of_mask, space.is_connected_mask, space.full_mask
    cs = space.connected_spanning_table()
    table, names = _member_table(r, q).orbits
    sizes = _member_table(r, q).sizes | ({r + 1} if r + 1 >= (6 if q == 2 else 4) else set())
    named_count = Counter()
    for x in range(1 << space.n):
        y = full ^ x
        fails = rank(x) == rank(y) and connected(x) and connected(y)
        assert bool(cs[x] and cs[y]) == fails, x
        assert list(decide._violating_flats(space, x)) == ([full] if fails else []), x
        want = None
        if rank(x) == r:
            if popcount(x) in sizes:
                want = forbidden_name_by_key(EmbeddedMatroid(space, x))
            assert _classify_flat(space, x, r) == want, x
        assert (names[table[x] - 1] if table[x] else None) == want, x
        hit = decide._match_forbidden(space, x)
        assert hit == (None if want is None else (tuple(iter_bits(x)), want)), x
        named_count[want] += 1
    assert {k: v for k, v in named_count.items() if k} == ORBIT_SIZES.get((r, q), {})


def test_orbit_tables_match_key_oracle_through_translation():
    # flats below the span are read through flat_embedding into PG(k-1, q)
    for r, q, k, seed in ((5, 2, 4, 31), (4, 3, 3, 32)):
        space = point_space(r, q)
        rng = random.Random(seed)
        hits = 0
        for _ in range(30):
            green = rng.randrange(1 << space.n)
            for fmask in space.flats_of_rank(k):
                x = fmask & green
                if space.closure_mask(x) != fmask:
                    continue
                got = _classify_flat(space, x, k)
                assert got == forbidden_name_by_key(EmbeddedMatroid(space, x))
                hits += got is not None
        assert hits > 0


def test_member_masks_sizes_and_profiles_match_keys():
    # sizes and hyperplane profiles are read from the member masks, unkeyed;
    # both must agree with the canonical keys the untabled lookup compares
    for q, ranks in ((2, (4, 5, 6)), (3, (3, 4, 5, 6))):
        for rank in ranks:
            members = _member_table(rank, q)
            keys = members.keys()
            assert members.sizes == {popcount(k[2]) for k in keys}
            space = point_space(rank, q)
            for key in keys:
                assert decide._hyperplane_profile(space, key[2]) in members.profiles


def test_profile_gate_matches_key_oracle_on_untabled_spaces():
    # seeded connected masks of every member size (circuits included), and
    # random linear images of each member: the gate must pass every member
    for r, q, seed in ((5, 2, 41), (4, 3, 42)):
        space = point_space(r, q)
        rng = random.Random(seed)
        sizes = sorted(_member_table(r, q).sizes | {r + 1})
        masks = [space.mask_of(rng.sample(range(space.n), rng.choice(sizes)))
                 for _ in range(150)]
        masks = [x for x in masks if space.is_connected_mask(x)]
        for mask in _member_table(r, q).keys():
            for _ in range(5):
                m = apply_linear_map(EmbeddedMatroid(space, mask[2]),
                                     random_invertible(r, q, rng))
                masks.append(m.green_mask)
        named_count = Counter()
        for x in masks:
            got = _classify_flat(space, x, space.rank_of_mask(x))
            assert got == forbidden_name_by_key(EmbeddedMatroid(space, x)), x
            named_count[got] += 1
        assert set(_member_table(r, q).keys().values()) <= set(named_count)
        # a member on a flat below the span is screened in the flat's own span
        big = point_space(r + 1, q)
        for key, name in _member_table(r, q).keys().items():
            x = big.mask_of(big.index[space.points[i] + (0,)] for i in iter_bits(key[2]))
            assert _classify_flat(big, x, r) == name


# The circuit-with-U(2,4) family members (k, d) of each untabled ternary rank
FAMILY = {4: ((4, 1), (3, 2)), 5: ((5, 1), (4, 2), (3, 3))}


def test_member_keys_stay_lazy(monkeypatch):
    """A member table keys its members only when a flat passes the size,
    connectivity and profile screens of an untabled rank, and then keys just
    the family members, as the catalog entries carry their keys; a tabled
    rank keys nothing, so neither does deciding every coloring of PG(2,3)."""
    for q in (2, 3):
        forbidden_catalog(q)  # keys the catalog entries, once per process
    keyed = []
    key = decide.canonical_key
    monkeypatch.setattr(decide, "canonical_key",
                        lambda m: keyed.append(m.green_mask) or key(m))
    decide._member_table.cache_clear()
    rng = random.Random(43)
    for r, family in FAMILY.items():
        space = point_space(r, 3)
        masks = [embed(circuit_with_u24(k, range(d))).green_mask for k, d in family]
        sizes = set(map(popcount, masks))
        profiles = {decide._hyperplane_profile(space, x) for x in masks}

        def spanning(size, want):
            while True:
                x = space.mask_of(rng.sample(range(space.n), size))
                if space.rank_of_mask(x) == r and want(x):
                    return x

        # a full line beside a spanning set of a complementary flat
        rest = point_space(r - 2, 3)
        other = next(x for x in range(1 << rest.n)
                     if popcount(x) == min(sizes) - 4 and rest.rank_of_mask(x) == r - 2)
        line = EmbeddedMatroid(point_space(2, 3), point_space(2, 3).full_mask)
        disconnected = line.direct_sum(EmbeddedMatroid(rest, other)).green_mask
        assert not space.is_connected_mask(disconnected)
        screened = spanning(min(sizes), lambda x: space.is_connected_mask(x)
                            and decide._hyperplane_profile(space, x) not in profiles)
        for x in (spanning(max(sizes) + 1, lambda x: True), disconnected, screened):
            assert _classify_flat(space, x, r) is None
        assert keyed == []
        (k, d), member = family[0], masks[0]
        image = apply_linear_map(EmbeddedMatroid(space, member), random_invertible(r, 3, rng))
        name = f"circuit with U(2,4) family (k={k}, d={d})"
        assert _classify_flat(space, image.green_mask, r) == name
        assert keyed == masks + [image.green_mask]
        keyed.clear()
        assert _classify_flat(space, member, r) == name
        assert keyed == [member]
        keyed.clear()
    decide._member_table.cache_clear()
    decide._rec_memo.clear()
    decide._replay_memo.clear()
    pg23 = point_space(3, 3)
    for mask in range(1 << pg23.n):
        m = EmbeddedMatroid(pg23, mask)
        for decider in DECIDERS:
            assert verify_certificate(m, decider(m))
    assert keyed == []


def test_forbidden_verdicts_match_pinned_digest():
    """Verdicts and certificates over all colorings of PG(3,2), PG(2,3) hash as pinned."""
    h = hashlib.sha256()
    for r, q in ((4, 2), (3, 3)):
        space = point_space(r, q)
        for mask in range(1 << space.n):
            v = decide_forbidden_flats(EmbeddedMatroid(space, mask))
            line = f"{q} {r} {mask:x} {v.is_comatroid}"
            if v.certificate is None:
                line += " -"
            else:
                _, side, members, name = v.certificate
                line += f" {side} {','.join(map(str, members))} {name}"
            h.update(f"{line}\n".encode())
    assert h.hexdigest() == FORBIDDEN_FLAT_SHA256


def _seeded_masks(space, count, seed):
    """Masks of every density: a uniform size, then a uniform subset of that size."""
    rng = random.Random(seed)
    return [space.mask_of(rng.sample(range(space.n), rng.randint(0, space.n)))
            for _ in range(count)]


def test_verdicts_match_pinned_digest():
    """All three deciders' verdicts over seeded untabled masks, and the flat
    criterion's over every coloring of PG(3,2) and PG(2,3), hash as pinned."""
    h = hashlib.sha256()
    for r, q, count, seed in ((5, 2, 300, 51), (4, 3, 300, 52), (6, 2, 30, 53), (5, 3, 15, 54)):
        space = point_space(r, q)
        for mask in _seeded_masks(space, count, seed):
            m = EmbeddedMatroid(space, mask)
            for decide in DECIDERS:
                h.update(f"{r} {q} {mask:x} {decide(m)!r}\n".encode())
    for r, q in ((4, 2), (3, 3)):
        space = point_space(r, q)
        for mask in range(1 << space.n):
            v = decide_flat_criterion(EmbeddedMatroid(space, mask))
            h.update(f"{r} {q} {mask:x} {v!r}\n".encode())
    assert h.hexdigest() == VERDICT_SHA256


# Colorings of PG(k-1, q) that fail the flat criterion at their top flat, for
# every k up to the field's floor
TOP_FLAT_FAILURES = {(1, 2): 0, (2, 2): 0, (3, 2): 0, (4, 2): 15456,
                     (1, 3): 0, (2, 3): 0, (3, 3): 6240}


def test_flat_violation_floor_by_enumeration():
    # the condition at a flat reads only the flat's coloring, so a rank with
    # no failing coloring of its whole geometry has no failing flat anywhere
    for (k, q), want in TOP_FLAT_FAILURES.items():
        space = point_space(k, q)
        rank, connected = space.rank_of_mask, space.is_connected_mask
        full = space.full_mask
        failing = sum(1 for g in range(1 << space.n)
                      if rank(g) == rank(full ^ g) and connected(g) and connected(full ^ g))
        assert failing == want, (k, q)
    for q in (2, 3):
        assert FLAT_VIOLATION_FLOOR[q] == min(
            k for (k, fq), failing in TOP_FLAT_FAILURES.items() if fq == q and failing)


def test_forbidden_floor_is_the_least_member_rank():
    # _match_forbidden scans from FLAT_VIOLATION_FLOOR: no member lies below it
    for q in (2, 3):
        floor = FLAT_VIOLATION_FLOOR[q]
        # catalog entries reach down to the floor and no further
        assert min(rank for _, rank, _, _ in forbidden_catalog(q)) == floor
        for k in range(1, floor):
            assert _member_table(k, q).orbits[1] == (), (k, q)
        assert embed(circuit(6 if q == 2 else 4, q)).rank >= floor
    # the least circuit-with-U(2,4) member sits at the GF(3) floor
    assert embed(circuit_with_u24(3, (0,))).rank == 3


def test_witness_on_hyperplane_replays():
    # M(house) plus a coloop spans PG(4,2); its witness is a hyperplane's trace
    house = embed(graph_cycle_matroid(FIVE_VERTEX_GRAPHS["M(house)"], 2))
    m = house.direct_sum(EmbeddedMatroid(point_space(1, 2), 1))
    v = decide_forbidden_flats(m)
    kind, side, members, entry = v.certificate
    assert (side, entry) == ("M", "M(house)")
    space = m.to_span().space
    assert (space.r, space.rank_of_mask(space.mask_of(members))) == (5, 4)
    assert verify_certificate(m, v)
    forged = Verdict(False, "forbidden-flat", (kind, side, members, "M(gem)"))
    assert_rejected_cold_and_warm(m, forged)


def test_fixed_entries_fail_and_flats_pass():
    for name, pres in forbidden_fixed(2) + forbidden_fixed(3):
        m = embed(pres).to_span()
        space = m.space
        assert not decide_flat_criterion(m).is_comatroid, name
        # m spans its space, so its proper flats are its traces on proper flats
        proper = {f & m.green_mask for k in range(space.r) for f in space.flats_of_rank(k)}
        for x in proper:
            assert decide_flat_criterion(EmbeddedMatroid(space, x)).is_comatroid, (name, x)


def test_direct_sum_of_comatroids():
    c3 = embed(circuit(3, 2))
    c4 = embed(circuit(4, 2))
    m = c3.direct_sum(c4)
    assert threeway(m)
    v = decide_recursive(m)
    assert v.certificate[0] == "components"
    assert verify_certificate(m, v)


def test_disconnected_with_bad_component():
    point = EmbeddedMatroid(point_space(1, 2), 1)
    c6 = embed(circuit(6, 2))
    assert not threeway(point.direct_sum(c6))


def _random_comatroid(rng, q, max_rank=5, ops=6):
    m = EmbeddedMatroid(point_space(1, q), 0)
    for _ in range(ops):
        choice = rng.random()
        if choice < 0.5:
            t = rng.randint(max(m.rank, 1), min(max_rank, m.rank + 2))
            m = m.complement(t)
        else:
            k = rng.randint(3, 4)
            other = embed(circuit(k, q)) if q + k <= 6 else EmbeddedMatroid(
                point_space(1, q), 1)
            if m.rank + other.rank <= max_rank:
                m = m.direct_sum(other)
        if m.rank >= max_rank:
            break
    return m


def test_constructed_comatroids_are_sound():
    rng = random.Random(5)
    for q in (2, 3):
        for _ in range(25):
            m = _random_comatroid(rng, q)
            if m.rank <= 6:
                assert threeway(m)


def test_tabled_hyperplane_levels_make_no_per_flat_calls(monkeypatch):
    """The two flat scans read the hyperplanes of PG(4,2) and PG(3,3), traces
    in PG(3,2) and PG(2,3), from tables alone: deciding comatroids of those
    spaces makes no _classify_flat and no rank_of_mask call on the traces'
    spaces, while the untabled top level still makes both."""
    rng = random.Random(26)
    inputs = []
    for q, rank in ((2, 5), (3, 4)):
        while sum(m.q == q for m in inputs) < 6:
            m = _random_comatroid(rng, q, max_rank=rank)
            if m.rank == rank:
                inputs.append(apply_linear_map(m.to_span(), random_invertible(rank, q, rng)))
    scans = (decide_flat_criterion, decide_forbidden_flats)
    for m in inputs:  # builds every table the scans read
        assert all(scan(m).is_comatroid for scan in scans)
    classified, ranked = Counter(), Counter()
    classify, rank_of_mask = decide._classify_flat, PointSpace.rank_of_mask

    def counted_classify(space, x, rank):
        classified[space.r, space.q] += 1
        return classify(space, x, rank)

    def counted_rank(self, mask):
        ranked[self.r, self.q] += 1
        return rank_of_mask(self, mask)

    monkeypatch.setattr(decide, "_classify_flat", counted_classify)
    monkeypatch.setattr(PointSpace, "rank_of_mask", counted_rank)
    for m in inputs:
        assert all(scan(m).is_comatroid for scan in scans)
    for tabled in ((4, 2), (3, 3)):
        assert classified[tabled] == ranked[tabled] == 0, tabled
    for untabled in ((5, 2), (4, 3)):
        assert classified[untabled] and ranked[untabled], untabled


def _comatroid_sample(space, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        green = rng.randrange(1 << space.n)
        m = EmbeddedMatroid(space, green)
        if decide_flat_criterion(m).is_comatroid:
            out.append(m)
    return out


def test_closure_under_flats_and_minors():
    # flat-restrictions, simplified contractions, and components of comatroids
    # stay comatroids
    for space, count, seed in ((point_space(3, 3), 40, 3),
                               (point_space(4, 2), 40, 4)):
        for m in _comatroid_sample(space, count, seed):
            for x in {f & m.green_mask for k in range(space.r) for f in space.flats_of_rank(k)}:
                assert decide_flat_criterion(EmbeddedMatroid(space, x)).is_comatroid
            for e in m.elements:
                assert decide_flat_criterion(m.si_contract(e)).is_comatroid
            for comp in space.components_mask(m.green_mask):
                assert decide_flat_criterion(
                    EmbeddedMatroid(space, comp)).is_comatroid


def test_connected_comatroids_vertically_connected():
    # a connected comatroid of rank r <= 4 admits no vertical (r-2)-separation
    space = point_space(3, 2)
    checked = 0
    for green in range(1 << space.n):
        m = EmbeddedMatroid(space, green)
        if m.rank != 3 or not m.is_connected():
            continue
        if decide_flat_criterion(m).is_comatroid:
            assert space.vertical_connectivity_mask(green) >= 2
            checked += 1
    assert checked > 0
    big = point_space(4, 2)
    for m in _comatroid_sample(big, 40, 9):
        if m.rank == 4 and m.is_connected():
            assert big.vertical_connectivity_mask(m.green_mask) >= 3


def test_binary_p_u23_u23_is_a_comatroid():
    # the same gluing pattern that is forbidden over GF(3) is fine over GF(2)
    from comatroid.catalog import parallel_connection

    u23 = circuit(3, 2)
    m = embed(parallel_connection(u23, 0, u23, 0))
    assert threeway(m)


def test_verdict_methods():
    m = embed(circuit(4, 2))
    assert decide_recursive(m).method == "recursive"
    assert decide_flat_criterion(m).method == "flat-criterion"
    assert decide_forbidden_flats(m).method == "forbidden-flat"


def test_flat_positives_are_shared_frozen_verdicts():
    comatroids = (embed(circuit(4, 2)), EmbeddedMatroid(point_space(3, 3), 5))
    for decider in (decide_flat_criterion, decide_forbidden_flats):
        first, second = map(decider, comatroids)
        assert first is second and first == Verdict(True, first.method)
        with pytest.raises(FrozenInstanceError):
            first.is_comatroid = False
        assert all(verify_certificate(m, first) for m in comatroids)


def test_caps_read_the_matroid_rank_inside_a_larger_space():
    """A rank-6 matroid in PG(7,2) is decided by all three deciders; a rank-7 one
    by the recursion alone, the flat scans raising with their messages."""
    big = point_space(8, 2)
    six = EmbeddedMatroid(big, embed(circuit(7, 2)).green_mask)
    seven = EmbeddedMatroid(big, embed(circuit(8, 2)).green_mask)
    assert (six.rank, seven.rank) == (6, 7)
    for decider in DECIDERS:
        v = decider(six)
        assert not v.is_comatroid and verify_certificate(six, v)
    assert not decide_recursive(seven).is_comatroid
    for decider, what in ((decide_flat_criterion, "flat criterion"),
                          (decide_forbidden_flats, "forbidden-flat decision")):
        with pytest.raises(ResourceLimitError, match=f"^{what} capped at rank 6, got 7$"):
            decider(seven)


@pytest.mark.parametrize("q", [2, 3])
def test_level_plans(q):
    """Per (r, q) the plan lists the ranks r down to FLAT_VIOLATION_FLOOR[q]; only the
    hyperplanes carry a space, PG(r-2, q), with its connected_spanning_table."""
    for r in range(MAX_SPACE_RANK + 1):
        plan = decide._plans[r, q]
        assert [k for k, _, _ in plan] == list(range(r, FLAT_VIOLATION_FLOOR[q] - 1, -1))
        for k, s, cs in plan:
            if k == r - 1:
                assert s is point_space(k, q) and cs is s.connected_spanning_table()
            else:
                assert s is cs is None
    assert len(decide._plans) <= 2 * (MAX_SPACE_RANK + 1)


def test_flat_scans_read_a_space_built_outside_point_space(monkeypatch):
    """A 7-circuit in a fresh PointSpace(6, 2) is scanned in that instance: only its
    top level is built, the shared point_space(6, 2) builds no flats, and verdicts and
    certificates equal those on the shared instance."""
    shared = point_space(6, 2)
    monkeypatch.setattr(shared, "_flats_by_rank", {})
    on_shared = embed(circuit(7, 2))
    assert on_shared.space is shared
    fresh = EmbeddedMatroid(PointSpace(6, 2), on_shared.green_mask)
    scans = (decide_flat_criterion, decide_forbidden_flats)
    verdicts = [scan(fresh) for scan in scans]
    assert set(fresh.space._flats_by_rank) == {6}
    assert shared._flats_by_rank == {}
    assert verdicts == [scan(on_shared) for scan in scans]
    assert all(not v.is_comatroid and verify_certificate(fresh, v) for v in verdicts)


def _spanning_comatroid(rng, q, r):
    """A comatroid spanning PG(r-1, q), built from nothing by sums and complements."""
    if r == 0:
        return EmbeddedMatroid(point_space(0, q), 0)
    if r >= 2 and rng.random() < 0.5:
        r1 = rng.randint(1, r - 1)
        return _spanning_comatroid(rng, q, r1).direct_sum(_spanning_comatroid(rng, q, r - r1))
    return _spanning_comatroid(rng, q, rng.randint(0, r - 1)).complement(r)


def test_traced_flat_scans_match_ambient_references(monkeypatch):
    """Both flat deciders read hyperplanes as traces in PG(r-2, q); their verdicts,
    certificates included, equal those of the scans reading every flat in the
    ambient space, on seeded comatroids moved by a random map and their
    one-point flips. At PG(5,2) and PG(4,3) traced and ambient levels mix."""
    inputs = []
    for r, q, count, seed in ((5, 2, 100, 61), (4, 3, 100, 62), (6, 2, 3, 63), (5, 3, 3, 64)):
        rng = random.Random(seed)
        for _ in range(count):
            m = apply_linear_map(_spanning_comatroid(rng, q, r), random_invertible(r, q, rng))
            inputs += [m, EmbeddedMatroid(m.space, m.green_mask ^ (1 << rng.randrange(m.space.n)))]
    traced = [(decide_flat_criterion(m), decide_forbidden_flats(m)) for m in inputs]
    monkeypatch.setattr(decide, "_violating_flats", violating_flats_ambient)
    monkeypatch.setattr(decide, "_match_forbidden", match_forbidden_ambient)
    ambient = [(decide_flat_criterion(m), decide_forbidden_flats(m)) for m in inputs]
    assert traced == ambient
    # the witnesses reach the traced level in both deciders
    on_hyperplanes = Counter()
    for m, verdicts in zip(inputs, traced):
        space = m.to_span().space
        for v in verdicts:
            match v.certificate:
                case ("violating-flat", members) | ("witness", "M", members, _):
                    if space.rank_of_mask(space.mask_of(members)) == space.r - 1:
                        on_hyperplanes[v.method] += 1
    assert min(on_hyperplanes[d] for d in ("flat-criterion", "forbidden-flat")) > 0, on_hyperplanes
