"""Command-line behavior: verbs, exit codes, round-trips."""

import pytest

from comatroid.canonical import _key_memo, canonical_key
from comatroid.catalog import catalog_names, named
from comatroid.census import hyperplane_scan
from comatroid.cli import main
from comatroid.decide import (
    decide_flat_criterion,
    decide_forbidden_flats,
    decide_recursive,
    verify_certificate,
)
from comatroid.formats import dumps, loads
from comatroid.matroid import BRUTE_FORCE_CAP, EmbeddedMatroid, MatrixPresentation, embed
from comatroid.projective import point_space


def run(*argv):
    return main(list(argv))


def test_decide_example_all_methods(capsys):
    assert run("decide", "--method", "all", "catalog:P(U34,U34)") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "method\tverdict"
    assert [line.split("\t")[1] for line in out[1:]] == ["non-comatroid"] * 3


def test_hyperplane_count_example(capsys):
    assert run("hyperplanes", "--count", "catalog:f77") == 0
    assert capsys.readouterr().out.strip() == "27"


def test_projective_geometry_is_comatroid():
    assert run("decide", "catalog:PG(3,2)") == 0


def test_catalog_round_trip_both_styles():
    for name in catalog_names():
        M = embed(named(name))
        assert loads(dumps(M, "matrix")) == M
        again = loads(dumps(M, "pg"))
        assert (again.space, again.green_mask) == (M.space, M.green_mask)


def test_catalog_listing_is_sorted_tsv(capsys):
    assert run("catalog") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name\tq\tpoints\trank"
    names = [line.split("\t")[0] for line in lines[1:]]
    assert names == sorted(names) and len(names) == len(catalog_names())


def test_complement_to_file(tmp_path, capsys):
    target = tmp_path / "out.mat"
    assert run("complement", "-t", "3", "catalog:U(2,3)", "-o", str(target)) == 0
    assert capsys.readouterr().out == ""
    M = loads(target.read_text())
    assert (M.q, M.n, M.rank) == (2, 4, 3)


def test_contract_label_matches_index(capsys):
    assert run("contract", "-e", "s1", "catalog:W3") == 0
    by_label = capsys.readouterr().out
    M = embed(named("W3"))
    e = M.label_to_index["s1"]
    assert run("contract", "-e", str(e), "catalog:W3") == 0
    assert capsys.readouterr().out == by_label


def test_restrict_selector_required():
    assert run("restrict", "catalog:W3") == 2
    assert run("restrict", "--members", "0,1", "--labels", "s1,s2", "catalog:W3") == 2


def test_restrict_members_outside_space(capsys):
    for member in ("-1", "7"):
        assert run("restrict", "--members", f"0,{member}", "catalog:F7") == 2
        assert f"point {member} outside 0..6 of PG(2,2)" in capsys.readouterr().err


def test_restrict_by_labels(capsys):
    assert run("restrict", "--labels", "f,g,h,i,j", "catalog:T12/e",
               "--style", "pg") == 0
    M = loads(capsys.readouterr().out)
    assert (M.n, M.rank) == (5, 4)


def test_restrict_unknown_label(capsys):
    assert run("restrict", "--labels", "fghij", "catalog:T12/e") == 2
    assert "unknown label 'fghij'" in capsys.readouterr().err


def test_malformed_file_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("q=2 rows=3\n0012\n")
    assert run("decide", str(bad)) == 2
    assert "line 2" in capsys.readouterr().err


def test_unknown_names_and_verbs_are_usage_errors(capsys):
    assert run("catalog", "no-such-name") == 2
    assert run("decide", "catalog:no-such-name") == 2
    assert run("no-such-verb") == 2
    capsys.readouterr()


def test_rank_cap_is_resource_exit(capsys):
    assert run("decide", "--method", "flats", "catalog:PG(6,2)") == 3
    assert "rank" in capsys.readouterr().err
    # rank 9 is past every PointSpace, so even the recursion stops there
    assert run("decide", "--method", "recursive", "catalog:C(10,2)") == 3
    assert "rank" in capsys.readouterr().err


def test_census_minimal_tsv(capsys):
    assert run("census", "minimal", "-r", "3", "-q", "3") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("#") and "scanned=3069" in lines[0]
    assert lines[1] == "key\tsize\trank\tlabel\tmembers"
    assert len(lines) == 16


def test_census_minimal_rank5(capsys):
    assert run("census", "minimal", "-r", "5", "-q", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# minimal non-comatroids, q=2 r=5, scanned=192438"
    assert lines[1] == "key\tsize\trank\tlabel\tmembers"
    assert [line.split("\t")[1] for line in lines[2:]] == ["6", "7", "24", "25"]


def test_census_colorings_sampling_is_seeded(capsys):
    args = ("census", "colorings", "-r", "3", "-q", "3", "--filter",
            "connected-spanning", "--samples", "50", "--seed", "9")
    assert run(*args) == 0
    first = capsys.readouterr().out
    assert run(*args) == 0
    assert capsys.readouterr().out == first
    assert run(*args[:-1], "10") == 0
    assert capsys.readouterr().out != first


def test_census_colorings_negative_samples(capsys):
    assert run("census", "colorings", "-r", "3", "-q", "2", "--samples", "-5") == 2
    captured = capsys.readouterr()
    assert "samples must be at least 0" in captured.err
    assert captured.out == ""


def test_census_colorings_negative_rank(capsys):
    # a negative rank is a usage error (exit 2), not a resource cap (exit 3)
    assert run("census", "colorings", "-r", "-1", "-q", "2") == 2
    captured = capsys.readouterr()
    assert "nonnegative" in captured.err
    assert captured.out == ""


def test_census_scan_matches_library(capsys):
    assert run("census", "scan", "--max-extra", "1", "catalog:extra-1") == 0
    out = capsys.readouterr().out
    scan = hyperplane_scan(embed(named("extra-1")), max_extra=1)
    assert f"i={scan.seed_i} j={scan.seed_j}" in out
    assert f"scanned={scan.scanned}" in out
    assert out.strip().splitlines()[-1] == "extra\ti\tj"


def test_jobs_flag_is_gone():
    assert run("census", "scan", "--jobs", "1", "--max-extra", "0", "catalog:m2-1") == 2
    assert run("verify", "--jobs", "1", "--only", "circuit-law") == 2


def test_verify_subset_passes(capsys):
    assert run("verify", "--only", "circuit-law,hyperplane-spot-checks") == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 2
    assert lines[-1] == "# 2/2 criteria passed"


def test_verify_rejects_unknown_criterion(capsys):
    assert run("verify", "--only", "no-such-check") == 2
    assert "unknown criterion" in capsys.readouterr().err


def test_info_fields(capsys):
    assert run("info", "catalog:K33") == 0
    rows = dict(line.split("\t") for line in capsys.readouterr().out.splitlines()[1:])
    assert rows["q"] == "2" and rows["points"] == "9" and rows["rank"] == "5"
    assert rows["connected"] == "yes" and rows["connected-hyperplanes"] == "6"


def test_info_vertical_connectivity_cap(tmp_path, capsys):
    # info prints the row up to the library's cap and omits it above
    assert BRUTE_FORCE_CAP == 16
    for n, shown in ((16, True), (17, False)):
        target = tmp_path / f"first{n}.mat"
        target.write_text(dumps(EmbeddedMatroid(point_space(5, 2), (1 << n) - 1), "pg"))
        assert run("info", str(target)) == 0
        rows = dict(line.split("\t") for line in capsys.readouterr().out.splitlines()[1:])
        assert rows["points"] == str(n)
        assert ("vertical-connectivity" in rows) is shown


def test_hyperplanes_listing_sorted(capsys):
    assert run("hyperplanes", "catalog:M(K4)") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "size\tmembers"
    sizes = [int(line.split("\t")[0]) for line in lines[1:]]
    assert sizes == sorted(sizes)


def test_stray_key_file_changes_no_verdict(tmp_path, monkeypatch):
    """A forged key file under COMATROID_CACHE_DIR is neither read nor written.

    T+T+pt (two binary triangles and a point) is a comatroid. The planted file
    holds the key mask of P(U34,U34), a 7-point rank-5 set like T+T+pt, under
    the name an on-disk key cache would look up for T+T+pt.
    """
    e = [tuple(int(i == j) for i in range(5)) for j in range(5)]
    cols = (e[0], e[1], (1, 1, 0, 0, 0), e[2], e[3], (0, 0, 1, 1, 0), e[4])
    M = embed(MatrixPresentation(2, cols)).to_span()
    fresh = canonical_key(M)
    forged = canonical_key(embed(named("P(U34,U34)")))[2]
    monkeypatch.setenv("COMATROID_CACHE_DIR", str(tmp_path))
    planted = tmp_path / f"v1-2-5-{M.green_mask:x}.key"
    planted.write_text(f"{forged:x}\n")
    _key_memo.clear()
    for decide in (decide_recursive, decide_flat_criterion, decide_forbidden_flats):
        verdict = decide(M)
        assert verdict.is_comatroid, verdict
        assert verify_certificate(M, verdict)
    assert canonical_key(M) == fresh
    assert list(tmp_path.iterdir()) == [planted]
