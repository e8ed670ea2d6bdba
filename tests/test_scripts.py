"""Smoke tests for the scripts under scripts/, which import the public API."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rank_attainment_survey_runs(capsys):
    load_script("rank_attainment_survey").survey(2, 3)
    out = capsys.readouterr().out
    assert "m = 3 (n = 1)" in out and "m = 5 (n = 2)" in out
    assert "targeted generator attains r in [0, 1, 2] (of 0..2)" in out


def test_output_digest_smoke(tmp_path):
    script = load_script("output_digest")
    inputs = tmp_path / "inputs"
    runs = script.digest(str(inputs), grid=((5, None),))
    assert sorted(p.name for p in inputs.iterdir()) == ["dirichlet", "m5-knone", "w_identity"]
    expected = {f"generate m5-knone {fmt}" for fmt in ("json", "text")}
    expected |= {f"{c} {i} {fmt}" for c in ("check", "classify", "canon")
                 for i in ("dirichlet", "m5-knone", "w_identity") for fmt in ("json", "text")}
    assert set(runs) == expected
    assert all(run["exit"] == 0 and len(run["stdout"]) == 64 for run in runs.values())
    assert set(runs["generate m5-knone json"]["files"]) == {"A.json", "B.json"}
    assert {"Q1.json", "manifest.json"} <= set(runs["canon m5-knone text"]["files"])
    assert {"U.json", "manifest.json"} <= set(runs["canon dirichlet json"]["files"])
    assert runs["check m5-knone json"]["files"] == {}
    # The generated input is the pair the digest's own generate run wrote.
    a_sha = script._sha((inputs / "m5-knone" / "A.json").read_bytes())
    assert runs["generate m5-knone text"]["files"]["A.json"] == a_sha
    # A second run reuses the inputs and reads the same bytes.
    (inputs / "m5-knone" / "B.json").write_bytes((inputs / "dirichlet" / "B.json").read_bytes())
    script.make_inputs(str(inputs), grid=((5, None),))
    assert (inputs / "m5-knone" / "B.json").read_bytes() == (inputs / "dirichlet" / "B.json").read_bytes()
