"""Tests for the invariant-suite runner and its CLI command."""

import bccanon.selftest
from bccanon.cli import run_command
from bccanon.selftest import run_selftest


def test_all_invariants_pass():
    results = run_selftest(orders=(3, 5), trials=4)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    names = {r.name for r in results}
    # one result per invariant family
    assert {
        "csd_round_trip",
        "csd_corner_unitarity",
        "csd_cos2_plus_sin2",
        "csd_cos_vs_block_svd",
        "self_adjoint_closure",
        "recover_round_trip",
        "recover_row_op_invariance",
        "rank_equality",
        "rank_bounds",
        "rank_corner_block_vs_svd",
        "rank_m_route_vs_svd",
        "canonical_reconstruction",
        "canonical_row_space",
        "even_reconstruction",
        "even_trichotomy",
        "even_separated_support",
    } <= names


def test_cli_selftest_exit_zero():
    report, code = run_command(["selftest", "--orders", "3,5", "--trials", "3"])
    assert code == 0
    assert report.verdict == "pass"
    assert report.metrics["checks_passed"] == report.metrics["checks_total"]


def test_cli_selftest_bad_orders_usage_error():
    _, code = run_command(["selftest", "--orders", "3,five"])
    assert code == 2


def test_even_orders_given_are_built(monkeypatch):
    built = set()
    generate = bccanon.selftest.generate_random_pair

    def recording(spec, *args, **kwargs):
        built.add(spec.m)
        return generate(spec, *args, **kwargs)

    monkeypatch.setattr(bccanon.selftest, "generate_random_pair", recording)
    results = run_selftest(orders=(64,), trials=1)
    assert built == {2, 4, 6, 64}
    assert all(r.passed for r in results)


def test_cli_selftest_order_zero_usage_error():
    report, code = run_command(["selftest", "--orders", "0"])
    assert code == 2
    assert report.verdict == "error: even order must be at least 2, got 0"


def test_no_odd_order_runs_no_odd_check():
    results = run_selftest(orders=(64,), trials=1)
    assert {r.name for r in results} == {"even_reconstruction", "even_trichotomy", "even_separated_support"}
    report, code = run_command(["selftest", "--orders", "64", "--trials", "1"])
    assert code == 0
    assert report.metrics["checks_total"] == report.metrics["checks_passed"] == 3
