"""One test per acceptance criterion; each prints its PASS/FAIL line."""

from comatroid.verification import run_criterion


def _check(name):
    result = run_criterion(name)
    print(result.line())
    assert result.passed, result.line()


def test_01_decider_agreement():
    _check("decider-agreement")


def test_02_circuit_law():
    _check("circuit-law")


def test_03_binary_rank4_census():
    _check("binary-rank4-census")


def test_04_ternary_rank3_census():
    _check("ternary-rank3-census")


def test_05_f77_connected_hyperplanes():
    _check("f77-connected-hyperplanes")


def test_06_hyperplane_counts():
    _check("hyperplane-counts")


def test_07_extension_scans():
    _check("extension-scans")


def test_08_hyperplane_spot_checks():
    _check("hyperplane-spot-checks")


def test_09_connectivity_sum_exception():
    _check("connectivity-sum-exception")


def test_10_connected_hyperplane_guarantees():
    _check("connected-hyperplane-guarantees")


def test_11_comatroid_closure():
    _check("comatroid-closure")


def test_12_complement_well_defined():
    _check("complement-well-defined")
