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
