"""Integration tests for the command-line interface."""

import inspect
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bccanon
from bccanon import ConvergenceFailure, OrderSpec, generate_random_pair, matio, symplectic_matrix
from bccanon.cli import main, run_command
from bccanon.matio import parse_matrix_file, payload_to_matrix, write_matrix_file
from bccanon.selftest import run_selftest


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bccanon.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def generated_pair(tmp_path):
    report, code = run_command(["generate", "--order", "5", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    return tmp_path / "A.json", tmp_path / "B.json"


class TestGenerate:
    def test_writes_self_adjoint_pair(self, generated_pair):
        path_a, path_b = generated_pair
        report, code = run_command(["check", str(path_a), str(path_b)])
        assert code == 0
        assert report.verdict == "self-adjoint"
        assert report.metrics["gram_residual"] < 1e-11

    def test_deterministic_files(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            _, code = run_command(["generate", "--order", "7", "--seed", "3", "--out", str(d)])
            assert code == 0
        assert (d1 / "A.json").read_bytes() == (d2 / "A.json").read_bytes()
        assert (d1 / "B.json").read_bytes() == (d2 / "B.json").read_bytes()

    def test_unit_cosines_controls_rank(self, tmp_path):
        _, code = run_command(
            ["generate", "--order", "5", "--seed", "1", "--unit-cosines", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        report, code = run_command(["classify", str(tmp_path / "A.json"), str(tmp_path / "B.json")])
        assert code == 0
        assert report.verdict == "mixed"
        assert report.metrics["rank_A"] == 3

    def test_bad_target_is_usage_error(self, tmp_path):
        _, code = run_command(
            ["generate", "--order", "5", "--seed", "1", "--unit-cosines", "9", "--out", str(tmp_path)]
        )
        assert code == 2


class TestCheck:
    def test_not_self_adjoint_exit_one(self, tmp_path):
        write_matrix_file(tmp_path / "A.json", np.eye(5))
        write_matrix_file(tmp_path / "B.json", np.zeros((5, 5)))
        report, code = run_command(["check", str(tmp_path / "A.json"), str(tmp_path / "B.json")])
        assert code == 1
        assert report.verdict == "not self-adjoint"
        assert report.metrics["rank(A:B)"] == 5

    def test_missing_file_exit_two(self, tmp_path):
        _, code = run_command(["check", str(tmp_path / "missing.json"), str(tmp_path / "missing.json")])
        assert code == 2

    def test_malformed_file_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 2, "cols": 2, "data": [[[1, 0]]]}')
        write_matrix_file(tmp_path / "B.json", np.eye(2))
        _, code = run_command(["check", str(bad), str(tmp_path / "B.json")])
        assert code == 2

    def test_overflowing_entry_exit_two_without_traceback(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 1, "cols": 1, "data": [[[1%s, 0]]]}' % ("0" * 400))
        result = run_cli("check", str(bad), str(bad))
        assert result.returncode == 2, result.stdout + result.stderr
        assert result.stderr == ""
        assert "verdict: error: entry (0, 0) is not numeric" in result.stdout

    def test_not_utf8_file_exit_two_without_traceback(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff{"rows": 1, "cols": 1, "data": [[[1, 0]]]}')
        result = run_cli("check", str(bad), str(bad))
        assert result.returncode == 2, result.stdout + result.stderr
        assert result.stderr == ""
        assert f"verdict: error: {bad} is not UTF-8: " in result.stdout

    def test_deep_nesting_exit_two_without_traceback(self, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_bytes(b"[" * 200_000 + b"]" * 200_000)
        result = run_cli("check", str(bad), str(bad))
        assert result.returncode == 2, result.stdout + result.stderr
        assert result.stderr == ""
        assert f"verdict: error: invalid JSON in {bad}: " in result.stdout

    @pytest.mark.parametrize(
        "content, message",
        [
            ("[1, 2]", "matrix payload must be an object, got list"),
            ('{"rows": 0, "cols": 2, "data": []}', "matrix dimensions must be positive, got 0 x 2"),
        ],
    )
    def test_payload_errors_exit_two(self, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        report, code = run_command(["check", str(bad), str(bad)])
        assert code == 2
        assert report.verdict == f"error: {message}"


class TestSubnormalPair:
    """A pair whose every real and imaginary part is subnormal or zero is refused as input (exit 2)."""

    @pytest.mark.parametrize("scale", [1e-315, 1e-320])
    @pytest.mark.parametrize("command", ["check", "classify", "canon"])
    def test_exit_two(self, tmp_path, scale, command):
        pair = generate_random_pair(OrderSpec(5), 1, target_unit_cosines=1)
        paths = [str(tmp_path / f"{side}.json") for side in "AB"]
        for path, matrix in zip(paths, (pair.A, pair.B)):
            write_matrix_file(path, scale * matrix)
        extra = ["--out", str(tmp_path / "f")] if command == "canon" else []
        report, code = run_command([command, *paths, *extra])
        assert code == 2
        assert report.verdict.startswith("error: every entry is subnormal or zero (largest part ")
        assert not (tmp_path / "f").exists()


class TestIllConditionedRowOperations:
    """A pair row-mixed by G with cond G = 1e8 keeps its rank and class in classify and canon.

    W recovered from it errs by about eps cond G, which exceeds the absolute cutoff RANK_REL in a
    corner block that should be zero; the decision cuts at max(RANK_REL, 4 m eps cond (A : B)).
    """

    @given(m=st.integers(3, 13), seed=st.integers(0, 1), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_classify_and_canon_keep_the_class(self, m, seed, data):
        spec = OrderSpec(m)
        k = data.draw(st.integers(0, spec.n), label="k")
        pair = generate_random_pair(spec, seed, target_unit_cosines=k)
        rng = np.random.default_rng([m, k, seed])
        g = (bccanon.haar_unitary(m, rng) * np.logspace(0, -8, m)) @ bccanon.haar_unitary(m, rng)
        expected = bccanon.canonical_decompose(pair)
        with tempfile.TemporaryDirectory() as tmp:
            paths = [str(Path(tmp) / f"{side}.json") for side in "AB"]
            for path, matrix in zip(paths, (g @ pair.A, g @ pair.B)):
                write_matrix_file(path, matrix)
            for command, extra in (("classify", []), ("canon", ["--out", str(Path(tmp) / "f")])):
                report, code = run_command([command, *paths, *extra])
                assert code == 0, report.verdict
                assert report.metrics["rank_A"] == expected.rank == m - k
                assert report.verdict == expected.classification.value


class TestClassify:
    def test_identity_coupling_fixture(self, fixtures_dir):
        report, code = run_command(
            ["classify", str(fixtures_dir / "w_identity_A.json"), str(fixtures_dir / "w_identity_B.json")]
        )
        assert code == 0
        assert report.verdict == "mixed"
        assert report.metrics["r"] == 0
        assert report.metrics["rank_A"] == 3
        assert report.metrics["rank_B"] == 3

    def test_even_order_dirichlet(self, fixtures_dir):
        report, code = run_command(
            ["classify", str(fixtures_dir / "dirichlet_A.json"), str(fixtures_dir / "dirichlet_B.json")]
        )
        assert code == 0
        assert report.verdict == "separated"
        assert report.metrics["rank_S"] == 0

    def test_non_self_adjoint_exit_three(self, tmp_path):
        write_matrix_file(tmp_path / "A.json", np.eye(5))
        write_matrix_file(tmp_path / "B.json", np.zeros((5, 5)))
        _, code = run_command(["classify", str(tmp_path / "A.json"), str(tmp_path / "B.json")])
        assert code == 3


class TestOverflowingGram:
    """A = B = 1e200 I: A C A* overflows and the Gram residual reads nan."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("command", ["check", "classify", "canon"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_exit_three_without_traceback(self, tmp_path, m, command, fmt):
        huge = 1e200 * np.eye(m)
        write_matrix_file(tmp_path / "A.json", huge)
        write_matrix_file(tmp_path / "B.json", huge)
        extra = ["--out", str(tmp_path / "out")] if command == "canon" else []
        result = run_cli(command, str(tmp_path / "A.json"), str(tmp_path / "B.json"), "--format", fmt, *extra)
        assert result.returncode == 3, result.stdout + result.stderr
        assert result.stderr == ""
        if fmt == "json":
            assert json.loads(result.stdout)["verdict"].startswith("error: ")
        else:
            assert "error: " in result.stdout


class TestCanon:
    def test_factor_files_written(self, generated_pair, tmp_path):
        path_a, path_b = generated_pair
        out = tmp_path / "factors"
        report, code = run_command(["canon", str(path_a), str(path_b), "--out", str(out)])
        assert code == 0
        for name in ("Q1", "Q2", "Q3", "Q4", "core", "K", "W", "C_diag", "S_diag"):
            assert (out / f"{name}.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"]["Q1"] == "Q1.json"
        assert report.metrics["reconstruction_residual"] < 1e-9
        assert report.metrics["row_space_angle_max"] < 1e-8

    def test_report_embeds_factors_that_parse_back(self, generated_pair, tmp_path):
        path_a, path_b = generated_pair
        out = tmp_path / "factors"
        report, code = run_command(["canon", str(path_a), str(path_b), "--out", str(out)])
        assert code == 0
        for name, text in report.factors.items():
            embedded = payload_to_matrix(json.loads(text))
            on_disk = parse_matrix_file(out / f"{name}.json")
            assert embedded.tobytes() == on_disk.tobytes()

    def test_non_self_adjoint_exit_three(self, tmp_path):
        write_matrix_file(tmp_path / "A.json", np.eye(5))
        write_matrix_file(tmp_path / "B.json", np.zeros((5, 5)))
        _, code = run_command(
            ["canon", str(tmp_path / "A.json"), str(tmp_path / "B.json"), "--out", str(tmp_path / "f")]
        )
        assert code == 3

    def test_even_order_factors(self, fixtures_dir, tmp_path):
        out = tmp_path / "factors"
        report, code = run_command(
            [
                "canon",
                str(fixtures_dir / "dirichlet_A.json"),
                str(fixtures_dir / "dirichlet_B.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert report.verdict == "separated"
        for name in ("U", "middle", "Z", "W", "C_diag", "S_diag"):
            assert (out / f"{name}.json").exists()

    # Above s = 1e3 the absolute Gram bound of the self-adjointness check
    # (residual_abs = 1e-8) starts to reject these pairs, so the scales stop there.
    # Below s = 1e-160 the squares of the entries underflow, so the residual's
    # norms hold only if canon takes them at unit scale.
    @given(m=st.integers(2, 9), seed=st.integers(0, 2**16), log_s=st.floats(-250.0, 3.0), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_health_figures_are_scale_free(self, m, seed, log_s, data):
        k = data.draw(st.integers(0, m // 2), label="k")
        pair = generate_random_pair(OrderSpec.from_order(m), seed, target_unit_cosines=k)
        with tempfile.TemporaryDirectory() as tmp:
            paths = [str(Path(tmp) / f"{side}.json") for side in "AB"]
            for path, matrix in zip(paths, (pair.A, pair.B)):
                write_matrix_file(path, 10.0**log_s * matrix)
            report, code = run_command(["canon", *paths, "--out", str(Path(tmp) / "f")])
        assert code == 0, report.verdict
        assert report.metrics["reconstruction_residual"] <= 1e-12
        assert report.metrics["row_space_angle_max"] <= 1e-8

    @pytest.mark.parametrize("m", [5, 6])
    def test_tiny_pair_exits_zero_with_classify_verdict(self, tmp_path, capsys, m):
        # At s = 1e-170 the Frobenius norm of (A : B) underflows to 0.
        pair = generate_random_pair(OrderSpec(m), 1, target_unit_cosines=1)
        paths = [str(tmp_path / f"{side}.json") for side in "AB"]
        for path, matrix in zip(paths, (pair.A, pair.B)):
            write_matrix_file(path, 1e-170 * matrix)
        assert main(["classify", *paths, "--format", "json"]) == 0
        classify = json.loads(capsys.readouterr().out)
        assert main(["canon", *paths, "--out", str(tmp_path / "f"), "--format", "json"]) == 0
        canon = json.loads(capsys.readouterr().out)
        assert canon["verdict"] == classify["verdict"]
        assert canon["metrics"]["reconstruction_residual"] <= 1e-12

    @pytest.mark.parametrize("order", [5, 6, 20, 21])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_rank_block_matches_classify(self, tmp_path, capsys, order, k):
        argv = ["generate", "--order", str(order), "--seed", "9", "--unit-cosines", str(k), "--out", str(tmp_path)]
        assert main(argv) == 0
        pair = [str(tmp_path / "A.json"), str(tmp_path / "B.json")]
        capsys.readouterr()
        assert main(["classify", *pair]) == 0
        classify = capsys.readouterr().out.splitlines()
        assert main(["canon", *pair, "--out", str(tmp_path / "f")]) == 0
        canon = capsys.readouterr().out.splitlines()
        block = classify[classify.index(f"m = {order}") + 1 :]
        keys = ["r", "rank_A", "rank_B", "null_count"] if order % 2 else ["rank_S", "rank_A", "rank_B"]
        assert [line.split(" = ")[0] for line in block] == keys
        start = canon.index(block[0])
        assert canon[start : start + len(block)] == block


class TestClassifySvdCalls:
    """classify reads every rank off W: one SVD of a corner block.  A Cholesky certifies rank (A : B); W needs none."""

    @pytest.mark.parametrize("order", [20, 21])
    def test_one_svd(self, tmp_path, count_svds, count_choleskys, order):
        _, code = run_command(["generate", "--order", str(order), "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        calls, factorizations = count_svds(), count_choleskys()
        report, code = run_command(["classify", str(tmp_path / "A.json"), str(tmp_path / "B.json")])
        assert code == 0
        assert len(calls) == 1, calls
        assert factorizations == [(order, order)]
        assert report.metrics["rank_A"] == report.metrics["rank_B"] == order

    def test_ill_conditioned_pair_classifies_as_mixed(self, tmp_path, count_svds, ill_conditioned_pair):
        write_matrix_file(tmp_path / "A.json", ill_conditioned_pair.A)
        write_matrix_file(tmp_path / "B.json", ill_conditioned_pair.B)
        calls = count_svds()
        report, code = run_command(["classify", str(tmp_path / "A.json"), str(tmp_path / "B.json")])
        assert code == 0
        assert report.verdict == "mixed"
        assert report.metrics["rank_A"] == report.metrics["rank_B"] == 4
        # (A : B) for the check, then the corner block of W; Newton-Schulz steps recover W with none.
        assert calls == [(5, 10), (2, 2)]


class TestSubprocessInterface:
    def test_pipeline_exit_codes(self, tmp_path):
        gen = run_cli("generate", "--order", "5", "--seed", "11", "--out", str(tmp_path))
        assert gen.returncode == 0
        a, b = str(tmp_path / "A.json"), str(tmp_path / "B.json")
        assert run_cli("check", a, b).returncode == 0
        canon = run_cli("canon", a, b, "--out", str(tmp_path / "f"), "--format", "json")
        assert canon.returncode == 0
        payload = json.loads(canon.stdout)
        assert payload["command"] == "canon"
        assert run_cli("classify", a, b).returncode == 0

    def test_json_output_deterministic(self, tmp_path):
        run_cli("generate", "--order", "3", "--seed", "2", "--out", str(tmp_path))
        a, b = str(tmp_path / "A.json"), str(tmp_path / "B.json")
        first = run_cli("check", a, b, "--format", "json")
        second = run_cli("check", a, b, "--format", "json")
        assert first.stdout == second.stdout

    def test_usage_error_exit_two(self):
        assert run_cli("bogus-command").returncode == 2

    def test_text_report_lines(self, fixtures_dir):
        result = run_cli(
            "check",
            str(fixtures_dir / "w_identity_A.json"),
            str(fixtures_dir / "w_identity_B.json"),
        )
        assert result.returncode == 0
        assert "rank(A:B) = 5" in result.stdout
        assert "gram_residual = " in result.stdout


class TestEnvironmentTolerance:
    def test_env_var_applies_and_flag_wins(self, tmp_path, monkeypatch):
        write_matrix_file(tmp_path / "A.json", np.eye(5))
        b = np.eye(5) + 1e-6 * np.ones((5, 5))
        write_matrix_file(tmp_path / "B.json", b)
        a_path, b_path = str(tmp_path / "A.json"), str(tmp_path / "B.json")

        _, strict = run_command(["check", a_path, b_path])
        assert strict == 1

        monkeypatch.setenv("BC_CANON_TOL", "0.5")
        _, relaxed = run_command(["check", a_path, b_path])
        assert relaxed == 0

        _, flag_wins = run_command(["check", a_path, b_path, "--tol", "1e-12"])
        assert flag_wins == 1


class TestToleranceScope:
    """--tol and BC_CANON_TOL judge a caller's pair; generate and selftest build theirs self-adjoint and take none."""

    ARGV = {
        "generate": ["generate", "--order", "5", "--seed", "1", "--tol", "0.5"],
        "selftest": ["selftest", "--orders", "3", "--trials", "1", "--tol", "0.5"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_tol_flag_is_usage_error(self, command, tmp_path, capsys):
        out = ["--out", str(tmp_path / "out")] if command == "generate" else []
        result = run_cli(*self.ARGV[command], *out)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "unrecognized arguments: --tol" in result.stderr
        assert main([*self.ARGV[command], *out]) == 2
        printed, err = capsys.readouterr()
        assert printed == "" and "unrecognized arguments: --tol" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["generate_random_pair", "run_selftest"])
    def test_builders_take_no_tol(self, name):
        function = run_selftest if name == "run_selftest" else getattr(bccanon, name)
        assert "tol" not in inspect.signature(function).parameters

    def test_generate_ignores_environment_bound(self, tmp_path, monkeypatch, capsys):
        # 1e-16 lies below this pair's own Gram roundoff (1.9e-15): a check under it would fail.
        argv = ["generate", "--order", "9", "--seed", "3", "--unit-cosines", "2", "--out", "out"]
        runs = []
        for env in (None, "1e-16"):
            work = tmp_path / f"env-{env}"
            work.mkdir()
            monkeypatch.chdir(work)  # a relative --out prints the same paths in both runs
            if env is not None:
                monkeypatch.setenv("BC_CANON_TOL", env)
            assert main(argv) == 0
            runs.append([capsys.readouterr().out] + [(work / "out" / f"{x}.json").read_bytes() for x in "AB"])
        assert runs[0] == runs[1]

    def test_selftest_ignores_environment_bound(self, monkeypatch):
        monkeypatch.setenv("BC_CANON_TOL", "1e-16")
        report, code = run_command(["selftest", "--orders", "3,5", "--trials", "2"])
        assert (code, report.verdict) == (0, "pass")

    @pytest.mark.parametrize("command", ["classify", "canon"])
    def test_pair_commands_read_the_bound(self, command, generated_pair, tmp_path, monkeypatch):
        argv = [command, *map(str, generated_pair), "--out", str(tmp_path / "factors")]
        argv = argv if command == "canon" else argv[:3]
        assert run_command(argv)[1] == 0
        report, code = run_command([*argv, "--tol", "1e-30"])
        assert code == 3 and report.verdict.startswith("error: ")
        monkeypatch.setenv("BC_CANON_TOL", "1e-30")
        assert run_command(argv)[1] == 3


class TestUsageErrors:
    @pytest.mark.parametrize("value", ["5", "nan", "0", "-1"])
    def test_out_of_range_tol_flag(self, fixtures_dir, value):
        a, b = str(fixtures_dir / "dirichlet_A.json"), str(fixtures_dir / "dirichlet_B.json")
        report, code = run_command(["check", a, b, "--tol", value])
        assert code == 2
        assert report.verdict.startswith("error: --tol: residual_abs")

    @pytest.mark.parametrize("value", ["-1", "2", "nan"])
    def test_out_of_range_tol_environment(self, fixtures_dir, monkeypatch, value):
        monkeypatch.setenv("BC_CANON_TOL", value)
        a, b = str(fixtures_dir / "dirichlet_A.json"), str(fixtures_dir / "dirichlet_B.json")
        report, code = run_command(["classify", a, b])
        assert code == 2
        assert report.verdict.startswith("error: BC_CANON_TOL: residual_abs")

    def test_out_of_range_tol_prints_no_traceback(self, fixtures_dir):
        a, b = str(fixtures_dir / "dirichlet_A.json"), str(fixtures_dir / "dirichlet_B.json")
        result = run_cli("check", a, b, "--tol", "5")
        assert result.returncode == 2
        assert "verdict: error: --tol" in result.stdout
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_selftest_needs_a_trial(self, trials):
        report, code = run_command(["selftest", "--orders", "3", "--trials", trials])
        assert code == 2
        assert report.verdict == f"error: --trials must be at least 1, got {trials}"

    def test_selftest_needs_an_order(self):
        report, code = run_command(["selftest", "--orders", ","])
        assert code == 2
        assert report.verdict == "error: --orders must name at least one order"

    def test_tol_environment_that_is_not_a_float(self, fixtures_dir, monkeypatch):
        monkeypatch.setenv("BC_CANON_TOL", "abc")
        a, b = str(fixtures_dir / "dirichlet_A.json"), str(fixtures_dir / "dirichlet_B.json")
        report, code = run_command(["check", a, b])
        assert code == 2
        assert report.verdict == "error: BC_CANON_TOL is not a float: 'abc'"

    @pytest.mark.parametrize("command", ["check", "classify", "canon"])
    @pytest.mark.parametrize("shape_a, shape_b", [((2, 2), (3, 3)), ((2, 3), (2, 3))])
    def test_pair_must_be_square_and_equal_sized(self, tmp_path, command, shape_a, shape_b):
        write_matrix_file(tmp_path / "A.json", np.ones(shape_a))
        write_matrix_file(tmp_path / "B.json", np.ones(shape_b))
        out = ["--out", str(tmp_path / "out")] if command == "canon" else []
        report, code = run_command([command, str(tmp_path / "A.json"), str(tmp_path / "B.json"), *out])
        assert code == 2
        assert report.verdict == f"error: A and B must be square and equal-sized, got {shape_a} and {shape_b}"
        assert not (tmp_path / "out").exists()

    def test_negative_seed(self, tmp_path):
        result = run_cli("generate", "--order", "5", "--seed", "-1", "--out", str(tmp_path / "pair"))
        assert result.returncode == 2
        assert "verdict: error: seed must be non-negative, got -1" in result.stdout
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "pair").exists()

    def test_out_is_an_existing_file(self, fixtures_dir, tmp_path):
        target = tmp_path / "taken"
        target.write_bytes(b"keep me\n")
        a, b = str(fixtures_dir / "w_identity_A.json"), str(fixtures_dir / "w_identity_B.json")
        for argv in (
            ["generate", "--order", "5", "--seed", "1", "--out", str(target)],
            ["canon", a, b, "--out", str(target)],
        ):
            result = run_cli(*argv)
            assert result.returncode == 2, argv
            assert "verdict: error: " in result.stdout
            assert "Traceback" not in result.stderr
            assert target.read_bytes() == b"keep me\n"


class TestOrderTooLarge:
    """An order whose matrices cannot be allocated is an input error (exit 2), not a traceback.

    numpy refuses an allocation of 1e16 entries at once, so these tests take no memory.
    """

    ARGV = {
        "generate": ["generate", "--order", "100000000", "--seed", "1"],
        "selftest": ["selftest", "--orders", "100000001", "--trials", "1"],
    }

    def argv(self, command, out):
        return self.ARGV[command] + (["--out", str(out)] if command == "generate" else [])

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_in_process(self, command, tmp_path, capsys):
        argv = self.argv(command, tmp_path / "out")
        assert main([*argv, "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["verdict"].startswith("error: Unable to allocate"), out
        assert err == ""
        report, code = run_command(argv)
        assert code == 2 and report.verdict.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_subprocess(self, command, tmp_path):
        result = run_cli(*self.argv(command, tmp_path / "out"))
        assert result.returncode == 2, result.stdout + result.stderr
        assert "verdict: error: Unable to allocate" in result.stdout
        assert result.stderr == ""
        assert not (tmp_path / "out").exists()


_SCIPY_PRELUDE = """
import os
import sys

fixtures, out = sys.argv[1:3]
dirichlet = [os.path.join(fixtures, f"dirichlet_{x}.json") for x in "AB"]
w_identity = [os.path.join(fixtures, f"w_identity_{x}.json") for x in "AB"]

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

def assert_no_scipy(step):
    assert not scipy_modules(), (step, scipy_modules()[:3])
    assert "bccanon.selftest" not in sys.modules, step

import bccanon
assert_no_scipy("import bccanon")
import bccanon.cli
assert_no_scipy("import bccanon.cli")
"""

_SCIPY_CHECK = """
try:
    bccanon.cli.main(["--version"])
except SystemExit:
    pass
assert_no_scipy("--version")
assert bccanon.cli.main(["check", *dirichlet]) == 0
assert_no_scipy("check")
for stem, pair in (("dirichlet", dirichlet), ("w_identity", w_identity)):
    assert bccanon.cli.main(["canon", *pair, "--out", os.path.join(out, stem)]) == 0
    assert_no_scipy(["canon", stem])
"""

_SCIPY_DECISIONS = """
for argv in (
    ["classify", *dirichlet],
    ["classify", *w_identity],
    ["generate", "--order", "5", "--seed", "3", "--unit-cosines", "1", "--out", os.path.join(out, "odd")],
    ["generate", "--order", "6", "--seed", "3", "--unit-cosines", "1", "--out", os.path.join(out, "even")],
):
    assert bccanon.cli.main(argv) == 0, argv
    assert_no_scipy(argv[:2])
"""


def _run_scipy_guard(body, fixtures_dir, tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PRELUDE + body, str(fixtures_dir), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestLazyScipy:
    """No command loads scipy: bccanon runs on numpy alone.

    Nor does any command but ``selftest`` load ``bccanon.selftest``.
    """

    def test_check_runs_without_scipy(self, fixtures_dir, tmp_path):
        stdout = _run_scipy_guard(_SCIPY_CHECK, fixtures_dir, tmp_path)
        assert "verdict: self-adjoint" in stdout
        assert "verdict: separated" in stdout
        assert "verdict: mixed" in stdout

    def test_classify_and_generate_run_without_scipy(self, fixtures_dir, tmp_path):
        stdout = _run_scipy_guard(_SCIPY_DECISIONS, fixtures_dir, tmp_path)
        assert stdout.count("verdict: separated") == 1
        assert stdout.count("verdict: mixed") == 1
        assert stdout.count("verdict: ok") == 2


class TestDeferredCsd:
    """canon meets a failing CS decomposition when it reads a factor; classify never runs it."""

    MESSAGE = "CSD did not converge"

    def _fail(self, *args, **kwargs):
        raise ConvergenceFailure(self.MESSAGE)

    @pytest.mark.parametrize("stem", ["w_identity", "dirichlet"])
    def test_canon_exit_three_classify_exit_zero(self, fixtures_dir, tmp_path, monkeypatch, stem):
        a, b = (str(fixtures_dir / f"{stem}_{x}.json") for x in "AB")
        with monkeypatch.context() as eager:
            eager.setattr("bccanon.cli.canonical_decompose", self._fail)
            expected, expected_code = run_command(["canon", a, b, "--out", str(tmp_path / "eager")])
        assert (expected.verdict, expected_code) == (f"error: {self.MESSAGE}", 3)

        monkeypatch.setattr("bccanon.forms.cs_decompose", self._fail)
        report, code = run_command(["canon", a, b, "--out", str(tmp_path / "deferred")])
        assert (report.verdict, code) == (expected.verdict, expected_code)
        assert not (tmp_path / "deferred").exists()
        report, code = run_command(["classify", a, b])
        assert code == 0
        assert report.verdict == ("mixed" if stem == "w_identity" else "separated")

    def test_svd_failure_inside_the_csd_exits_three(self, generated_pair, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("bccanon.csd._two_svd_factors", fail)
        report, code = run_command(["canon", *map(str, generated_pair), "--out", str(tmp_path / "f")])
        assert (report.verdict, code) == ("error: SVD did not converge", 3)


class TestRenderOnce:
    """Each matrix is rendered once; its file holds the text the report embeds."""

    @pytest.fixture
    def renders(self, monkeypatch):
        calls = []
        render = matio._render_matrix

        def counted(pairs):
            calls.append(pairs.shape[:2])
            return render(pairs)

        monkeypatch.setattr(matio, "_render_matrix", counted)
        return calls

    @staticmethod
    def _assert_files_spliced(stdout, out_dir, files):
        report = json.loads(stdout)
        for name, filename in files.items():
            text = (out_dir / filename).read_text(encoding="utf-8")
            assert text.endswith("\n") and text.count("\n") == 1
            assert f'"{name}":{text[:-1]}' in stdout
            assert report["factors"][name] == json.loads(text)

    @pytest.mark.parametrize("order", [5, 6])
    def test_canon(self, tmp_path, capsys, renders, order):
        gen = tmp_path / "pair"
        _, code = run_command(["generate", "--order", str(order), "--seed", "4", "--out", str(gen)])
        assert code == 0
        renders.clear()
        out = tmp_path / "factors"
        assert main(["canon", str(gen / "A.json"), str(gen / "B.json"), "--out", str(out), "--format", "json"]) == 0
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert len(files) == (9 if order % 2 else 10)
        assert len(renders) == len(files)
        self._assert_files_spliced(capsys.readouterr().out, out, files)

    def test_generate(self, tmp_path, capsys, renders):
        assert main(["generate", "--order", "7", "--seed", "2", "--out", str(tmp_path), "--format", "json"]) == 0
        assert len(renders) == 2
        self._assert_files_spliced(capsys.readouterr().out, tmp_path, {"A": "A.json", "B": "B.json"})


class TestFixtureConsistency:
    def test_c5_fixture_matches_library(self, fixtures_dir):
        m = parse_matrix_file(fixtures_dir / "c5.json")
        assert np.array_equal(m, symplectic_matrix(5))
