"""One test per acceptance criterion; each prints its PASS/FAIL line."""

import os

import pytest

from comatroid.verification import run_criterion


@pytest.fixture(scope="module")
def jobs():
    return min(4, os.cpu_count() or 1)


def _check(jobs, name):
    result = run_criterion(name, jobs)
    print(result.line())
    assert result.passed, result.line()


def test_01_decider_agreement(jobs):
    _check(jobs, "decider-agreement")


def test_02_circuit_law(jobs):
    _check(jobs, "circuit-law")


def test_03_binary_rank4_census(jobs):
    _check(jobs, "binary-rank4-census")


def test_04_ternary_rank3_census(jobs):
    _check(jobs, "ternary-rank3-census")


def test_05_f77_connected_hyperplanes(jobs):
    _check(jobs, "f77-connected-hyperplanes")


def test_06_hyperplane_counts(jobs):
    _check(jobs, "hyperplane-counts")


def test_07_extension_scans(jobs):
    _check(jobs, "extension-scans")


def test_08_hyperplane_spot_checks(jobs):
    _check(jobs, "hyperplane-spot-checks")


def test_09_connectivity_sum_exception(jobs):
    _check(jobs, "connectivity-sum-exception")


def test_10_connected_hyperplane_guarantees(jobs):
    _check(jobs, "connected-hyperplane-guarantees")


def test_11_comatroid_closure(jobs):
    _check(jobs, "comatroid-closure")


def test_12_complement_well_defined(jobs):
    _check(jobs, "complement-well-defined")
