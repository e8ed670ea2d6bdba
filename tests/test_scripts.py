"""Smoke tests for the scripts under scripts/, which import the public API."""

import importlib.util
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np

from bccanon import BoundaryPair, OrderSpec, generate_random_pair, haar_unitary
from bccanon.matio import parse_matrix_file, write_matrix_file

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_smoke(tmp_path):
    script = load_script("output_digest")
    inputs = tmp_path / "inputs"
    runs = script.digest(str(inputs), grid=((5, 2),))
    scaled = [f"scaled-m5-s{label}" for label in script.SCALES]
    names = ["dirichlet", "ill-mixed-m5", "m5-k2", "mixed-m5", "repeated-row-m5", *scaled, "stepped-mixed-m5",
             "w_identity"]
    assert sorted(p.name for p in inputs.iterdir()) == names
    expected = {f"generate {g} {fmt}" for g in ("m5-k2", *script.GENERATE_ERRORS) for fmt in ("json", "text")}
    expected |= {f"{c} {i} {fmt}" for c in ("check", "classify", "canon") for i in names for fmt in ("json", "text")}
    expected |= {f"{c} mixed-m5 --tol {script.TIGHT_TOL} {fmt}" for c in ("check", "classify", "canon")
                 for fmt in ("json", "text")}
    expected |= {f"check {e} {fmt}" for e in script.PARSE_ERRORS for fmt in ("json", "text")}
    expected |= {f"selftest {s} {fmt}" for s in script.SELFTESTS for fmt in ("json", "text")}
    assert set(runs) == expected
    assert {"check not-utf8 json", "check not-utf8 text", "check deep-nesting json"} <= expected
    # --tol reaches only the pair commands: generate rejects it, selftest runs without it.
    assert {"generate tol json", "selftest orders-2,64-trials-1 text"} <= expected
    assert not any("--tol" in argv for argv in script.SELFTESTS.values())
    errors = {f"generate {g} {fmt}" for g in script.GENERATE_ERRORS for fmt in ("json", "text")}
    errors |= {f"check {e} {fmt}" for e in script.PARSE_ERRORS for fmt in ("json", "text")}
    assert all(runs[name]["exit"] == 2 and runs[name]["files"] == {} for name in errors)
    # rank (A : B) = 4 on the repeated-row copy: check reports the criterion, classify and canon fail.
    repeated = {f"{c} repeated-row-m5 {fmt}" for c in ("check", "classify", "canon") for fmt in ("json", "text")}
    assert all(runs[name]["exit"] == (1 if name.startswith("check") else 3) for name in repeated)
    # Every entry of the copy at 1e-315 is subnormal: the pair commands refuse it as input.
    subnormal = {f"{c} scaled-m5-s1e-315 {fmt}" for c in ("check", "classify", "canon") for fmt in ("json", "text")}
    assert all(runs[name]["exit"] == 2 and runs[name]["files"] == {} for name in subnormal)
    passing = {name: run for name, run in runs.items() if name not in errors | repeated | subnormal}
    assert all(run["exit"] == 0 and len(run["stdout"]) == 64 for run in passing.values())
    assert set(runs["generate m5-k2 json"]["files"]) == {"A.json", "B.json"}
    assert {"Q1.json", "manifest.json"} <= set(runs["canon m5-k2 text"]["files"])
    assert {"U.json", "manifest.json"} <= set(runs["canon dirichlet json"]["files"])
    assert runs["check m5-k2 json"]["files"] == {}
    # The row-mixed copy is G (A : B) of the generated pair, G with singular values in [0.5, 2].
    ab, mixed = (np.hstack([parse_matrix_file(str(inputs / d / f"{x}.json")) for x in "AB"])
                 for d in ("m5-k2", "mixed-m5"))
    g = mixed @ np.linalg.pinv(ab)
    assert np.linalg.norm(g @ ab - mixed) < 1e-12
    sigma = np.linalg.svd(g, compute_uv=False)
    assert 0.5 <= sigma.min() and sigma.max() <= 2.0
    # The ill-mixed copy is G (A : B) with cond G = 1e8; the repeated-row copy's row 0 repeats row 1.
    ill, repeated_ab = (np.hstack([parse_matrix_file(str(inputs / d / f"{x}.json")) for x in "AB"])
                        for d in ("ill-mixed-m5", "repeated-row-m5"))
    sigma = np.linalg.svd(ill @ np.linalg.pinv(ab), compute_uv=False)
    assert abs(sigma.max() / sigma.min() / 1e8 - 1.0) < 1e-6
    assert np.array_equal(repeated_ab[0], ab[1]) and np.array_equal(repeated_ab[1:], ab[1:])
    # The generated input is the pair the digest's own generate run wrote.
    a_sha = script._sha((inputs / "m5-k2" / "A.json").read_bytes())
    assert runs["generate m5-k2 text"]["files"]["A.json"] == a_sha
    # A second run reuses the inputs and reads the same bytes.
    (inputs / "m5-k2" / "B.json").write_bytes((inputs / "dirichlet" / "B.json").read_bytes())
    script.make_inputs(str(inputs), grid=((5, 2),))
    assert (inputs / "m5-k2" / "B.json").read_bytes() == (inputs / "dirichlet" / "B.json").read_bytes()


def _write_pair(directory, a, b):
    directory.mkdir(parents=True)
    write_matrix_file(str(directory / "A.json"), a)
    write_matrix_file(str(directory / "B.json"), b)


def test_factor_meaning_smoke(tmp_path, monkeypatch, capsys):
    script = load_script("factor_meaning")
    inputs = tmp_path / "inputs"
    rng = np.random.default_rng(27)
    for m in (5, 6):  # row-mixed pairs of both parities
        pair = generate_random_pair(OrderSpec.from_order(m), m, target_unit_cosines=1)
        g = (haar_unitary(m, rng) * rng.uniform(0.3, 3.0, m)) @ haar_unitary(m, rng)
        _write_pair(inputs / f"mixed-m{m}", g @ pair.A, g @ pair.B)
    pair = BoundaryPair(A=pair.A[[1, *range(1, 6)]], B=pair.B[[1, *range(1, 6)]])  # rank (A : B) = 5
    _write_pair(inputs / "repeated-row-m6", pair.A, pair.B)
    assert script.main([str(inputs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "repeated-row-m6: exit 3, no factors"
    assert lines[3].startswith("worst of 2 factored inputs: ")
    for line in lines[:2]:
        figures = json.loads(line.split(": ", 1)[1])
        assert set(figures) == set(script.FIGURES)
        assert figures["angles"] <= script.ANGLE_TOL and figures["unitary"] <= 1e-14
        assert figures["cs"] <= 1e-14 and figures["factors"] <= 1e-14
    # A written sine moved by 1e-13 misses the angle bound, and the script exits 1.
    canon = script.canon

    def moved_sine(input_dir, name, out_dir):
        code = canon(input_dir, name, out_dir)
        if name == "mixed-m5":
            path = pathlib.Path(out_dir) / "S_diag.json"
            write_matrix_file(str(path), parse_matrix_file(str(path)) + 1e-13)
        return code

    monkeypatch.setattr(script, "canon", moved_sine)
    assert script.main([str(inputs)]) == 1
    figures = json.loads(capsys.readouterr().out.splitlines()[0].split(": ", 1)[1])
    assert 0.9e-13 < figures["angles"] < 1.1e-13


def _write_results(directory, pair_ms, failed, trace=0):
    """Synthetic cli-mix result files, one per seed, as perfbench/run.py writes them."""
    directory.mkdir(exist_ok=True)
    env = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "workload": "cli-mix", "seed": 0, "samples": {}}
    for seed, value in enumerate(pair_ms, start=1):
        figures = {
            "pair_p50_ms": {"value": value, "unit": "ms", "better": "lower"},
            "setup_s": {"value": 0.1, "unit": "s", "better": "lower"},
        }
        result = {"workload": "cli-mix", "seed": seed, "trace": trace, "env": dict(env, seed=seed),
                  "figures": figures, "result": {"failed": failed}}
        (directory / f"cli-mix-seed{seed}-trace{trace}.json").write_text(json.dumps(result))


def test_bench_file_smoke(tmp_path):
    script = load_script("bench_file")
    _write_results(tmp_path / "base", [1000.0 + i for i in range(10)], failed=0)
    _write_results(tmp_path / "head", [800.0 + i for i in range(10)], failed=1)
    _write_results(tmp_path / "head", [1.0] * 10, failed=0, trace=1)  # traced runs are ignored
    out = tmp_path / "BENCH.json"
    assert script.main([str(tmp_path / "base"), str(tmp_path / "head"), str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["environment"]["base"] == [{"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}]
    cli = record["workloads"]["cli-mix"]
    assert cli["seeds"] == list(range(1, 11)) and cli["failed"] == {"base": 0, "head": 10}
    pair = cli["metrics"]["pair_p50_ms"]
    assert (pair["unit"], pair["bound"], pair["wins"]) == ("ms", 0.25, 10)
    assert pair["verdict"] == "no gain: more failed"  # a gain, but the change failed more operations
    assert pair["base"]["median"] == 1004.5 and pair["head"]["runs"]["3"] == 802.0
    assert pair["base"]["q1"] < pair["base"]["median"] < pair["base"]["q3"]
    assert cli["metrics"]["setup_s"]["verdict"] == "within bound"
    (tmp_path / "empty").mkdir()
    assert script.main([str(tmp_path / "base"), str(tmp_path / "empty"), str(tmp_path / "none.json")]) == 1
    assert not (tmp_path / "none.json").exists()


def _ab_library(base, head):
    argv = [sys.executable, str(SCRIPTS / "ab_library.py"), str(base), str(head), "--blocks", "2", "--rounds", "1"]
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)


def test_ab_library_smoke(tmp_path):
    root = SCRIPTS.parent
    run = _ab_library(root, root)  # A/A: the checkout against itself
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "tiny-stream seed 1: 112 pairs agree in every bit"
    for line, label in zip(lines[1:], ("pair", "check"), strict=True):
        assert re.fullmatch(rf"{label}: base [\d.]+ us, head [\d.]+ us, ratio [\d.]+, head won [012]/2", line)
    # A head whose W moves by one bit fails the bit check before any timing.
    shutil.copytree(root / "src" / "bccanon", tmp_path / "src" / "bccanon", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "bccanon" / "__init__.py", "a", encoding="utf-8") as handle:
        handle.write(
            "\n\ndef _moved(pair, _decompose=canonical_decompose):\n"
            "    form = _decompose(pair)\n"
            "    form.W[0, 0] *= 1.0 + 2.0**-52\n"
            "    return form\n\n\n"
            "canonical_decompose = even_canonical_decompose = _moved\n"
        )
    run = _ab_library(root, tmp_path)
    assert run.returncode == 1
    assert run.stdout.splitlines() and all(line.endswith(": W differs") for line in run.stdout.splitlines())
