"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bccanon
from bccanon.matio import write_matrix_file

import cases
import tracing
from child import library_op
from compare import verdict
from stats import tail

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_time_is_span_minus_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["c", 5.5, 7.0, 0],  # overlaps b: the covered part counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0, 2.0, 1.0, 1.0, 1.5])


def test_layer_totals_sum_self_time_and_calls_per_layer():
    spans = [
        ["forms.recover_W", 0.0, 4.0, -1],
        ["forms._recover_coupling", 1.0, 3.0, 0],
        ["numpy.linalg.svd", 1.5, 2.0, 1],
    ]
    totals = tracing.layer_totals(spans)
    assert totals["forms.recover"] == pytest.approx([3.5, 2])
    assert totals["kernel.svd"] == pytest.approx([0.5, 1])
    assert totals["csd.decompose"] == [0.0, 0]


def test_tail_needs_ten_samples_beyond_and_lies_above_the_median():
    assert tail(range(19)) is None
    value, percentile, count = tail(range(100))
    assert (value, percentile, count) == (89, 90.0, 100)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0]
    faster = [x * 0.8 for x in base]
    assert verdict(base, faster, "lower", 0.1) == ("gain", 10)
    assert verdict(base, faster, "lower", 0.1, more_failed=True) == ("no gain: more failed", 10)
    assert verdict(faster, base, "lower", 0.1)[0] == "regression"
    assert verdict(base, [x * 1.05 for x in base], "lower", 0.1)[0] == "within bound"
    noisy = [60.0, 140.0] * 5
    assert verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert verdict([0.0] * 10, [0.0] * 10, "lower", None) == ("within bound", 0)


@pytest.fixture(scope="module")
def sample_cases():
    rng = np.random.default_rng(7)
    return [cases.library_case(rng, m) for m in (3, 4, 5, 8, 9)]


def _outputs(case):
    report, form, _, _ = library_op(bccanon, case.A, case.B)
    arrays = [form.W, form.cs.u1, form.cs.u2, form.cs.v1, form.cs.v2, form.cs.cos, form.cs.sin]
    arrays += [form.Q1, form.Q2, form.core] if case.m % 2 else [form.U]
    return report, form.classification, arrays, cases.check_library_op(case, report, form)


def test_traced_and_untraced_runs_give_identical_results(sample_cases):
    plain = [_outputs(case) for case in sample_cases]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        traced = [_outputs(case) for case in sample_cases]
    finally:
        tracer.recording = False
        tracer.uninstall()
    for (report, cls, arrays, problems), (t_report, t_cls, t_arrays, t_problems) in zip(plain, traced):
        assert problems == [] and t_problems == []
        assert report == t_report and cls is t_cls
        assert all(np.array_equal(x, y) for x, y in zip(arrays, t_arrays))
    names = {span[0] for span in tracer.spans}
    assert {"forms.check_self_adjoint", "csd.cs_decompose", "structure.eigenbasis", "numpy.linalg.svd"} <= names


def test_wrappers_reach_every_lookup_site_and_are_removed():
    original, svd = bccanon.csd.cs_decompose, np.linalg.svd
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (bccanon, bccanon.forms, bccanon.csd):
            assert module.cs_decompose.__wrapped__ is original
        assert np.linalg.svd.__wrapped__ is svd
    finally:
        tracer.uninstall()
    for module in (bccanon, bccanon.forms, bccanon.csd):
        assert module.cs_decompose is original
    assert np.linalg.svd is svd


def test_oracle_rejects_a_wrong_answer(sample_cases):
    case = sample_cases[2]
    report, form, _, _ = library_op(bccanon, case.A, case.B)
    wrong_k = cases.LibraryCase(m=case.m, k=(case.k + 1) % 3, A=case.A, B=case.B,
                                W0=case.W0, reference=case.reference)
    assert cases.check_library_op(wrong_k, report, form)
    shifted = cases.LibraryCase(m=case.m, k=case.k, A=case.A, B=case.B,
                                W0=case.W0, reference=case.reference + 1e-6)
    assert any("reconstruction" in p for p in cases.check_library_op(shifted, report, form))


def test_traced_cli_child_prints_the_same_report(tmp_path):
    pair = bccanon.generate_random_pair(bccanon.OrderSpec.from_order(5), 3, target_unit_cosines=1)
    for name, matrix in (("A", pair.A), ("B", pair.B)):
        write_matrix_file(str(tmp_path / f"{name}.json"), matrix)
    argv = ["classify", str(tmp_path / "A.json"), str(tmp_path / "B.json"), "--format", "json"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bccanon.__file__)))
    plain = subprocess.run([sys.executable, "-m", "bccanon.cli", *argv], capture_output=True, env=env, timeout=120)
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "cli", str(spans_path), "--", *argv],
                            capture_output=True, env=env, timeout=120)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    record = json.loads(spans_path.read_text())
    assert record["import_s"] > 0
    roots = [span for span in record["spans"] if span[3] == -1]
    assert [span[0] for span in roots] == ["cli.main"]
    problems = cases.check_classify(cases.CliCase(m=5, k=1, seed=3), 0, traced.stdout)
    assert problems == []



def test_traced_run_gives_every_per_layer_metric(tmp_path):
    import workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        names = [metric["name"] for metric in json.load(handle)["per_layer"]]
    result = workloads.run("tiny-stream", 1, 0.2, True, str(tmp_path / "work"))
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(names) <= set(result["layers"])
    assert result["layers"]["kernel.svd_calls"]["value"] > 0
