"""Tests for matrix file serialization and report formatting."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bccanon import DimensionMismatch, ParseError, random_unitary
from bccanon import matio
from bccanon.matio import (
    Report,
    dumps_deterministic,
    format_report,
    parse_matrix_file,
    payload_to_matrix,
    write_matrix_file,
)


class TestMatrixPayload:
    def test_one_by_one(self):
        m = payload_to_matrix({"rows": 1, "cols": 1, "data": [[[-1, 0]]]})
        assert m.shape == (1, 1)
        assert m[0, 0] == -1.0 + 0.0j

    def test_round_trip_bits(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        m[0, 0] = np.sqrt(2.0) + 1j / 3.0
        m[1, 1] = -0.0
        m[2, 2] = 1e-300 + 1e300j
        back = payload_to_matrix(json.loads(write_matrix_file(os.devnull, m)))
        assert back.tobytes() == m.tobytes()

    def test_data_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            payload_to_matrix({"rows": 2, "cols": 1, "data": [[[1, 0]]]})

    def test_row_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            payload_to_matrix({"rows": 1, "cols": 2, "data": [[[1, 0]]]})

    def test_bad_entry(self):
        with pytest.raises(ParseError):
            payload_to_matrix({"rows": 1, "cols": 1, "data": [[[1]]]})

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError):
            payload_to_matrix({"rows": 1, "cols": 1, "data": [[["inf", 0]]]})

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            payload_to_matrix({"rows": 1, "data": [[[1, 0]]]})

    @pytest.mark.parametrize(
        "text",
        [
            '{"rows": 1e400, "cols": 1, "data": [[[1, 0]]]}',
            '{"rows": 1, "cols": 1, "data": [[[1%s, 0]]]}' % ("0" * 400),
        ],
        ids=["huge-rows", "huge-integer-entry"],
    )
    def test_overflow_is_parse_error(self, text):
        with pytest.raises(ParseError):
            payload_to_matrix(json.loads(text))

    @pytest.mark.parametrize(
        "payload",
        [
            {"rows": 1.9, "cols": 1, "data": [[[1, 0]]]},
            {"rows": True, "cols": 1, "data": [[[1, 0]]]},
            {"rows": 1, "cols": "1", "data": [[[1, 0]]]},
            {"rows": 1, "cols": 1, "data": [[[True, "2"]]]},
            {"rows": 1, "cols": 1, "data": [[[1, "2"]]]},
            {"rows": 1, "cols": 1, "data": [[[1, False]]]},
        ],
        ids=["float-rows", "bool-rows", "string-cols", "bool-and-string-entry", "string-entry", "bool-entry"],
    )
    def test_non_json_number_is_parse_error(self, payload):
        with pytest.raises(ParseError):
            payload_to_matrix(payload)

    @pytest.mark.parametrize(
        "data, error, message",
        [
            ([[[1, 0], [1, "one"]], [[1, 0]]], ParseError, "entry (0, 1) is not numeric: could not convert string to float: 'one'"),
            ([[[1, 0], [1, 0]], [[1, 0], ["inf", 0]]], ParseError, "entry (1, 1) is not finite"),
            ([[[1, 0], [True, 0]], [[1, 0], [1]]], ParseError, "entry (0, 1) is not a pair of JSON numbers"),
            ([[[1, 0], [1, 0]], [[1, 0], [1]]], ParseError, "entry (1, 1) is not an [re, im] pair"),
            ([[[1, 0], [1, None]], [[1, 0], [1, 0]]], ParseError, "entry (0, 1) is not numeric: float() argument must be a string or a real number, not 'NoneType'"),
            ([[[1, 0], [1, 0]], [[1, 0], [10**400, 0]]], ParseError, "entry (1, 1) is not numeric: int too large to convert to float"),
            ([[[1, 0]], [[1, 0], ["x", 0]]], DimensionMismatch, "row 0 has 1 entries, expected 2"),
            ([[[1, 0], [1, 0]], 5], DimensionMismatch, "row 1 has non-list entries, expected 2"),
        ],
        ids=["string", "inf-string", "bool-before-short-entry", "short-entry", "null", "huge-integer", "short-row-first", "non-list-row"],
    )
    def test_first_malformed_entry_is_named(self, data, error, message):
        # Rows and entries are checked in row-major order; the first failure names the error.
        with pytest.raises(error) as info:
            payload_to_matrix({"rows": 2, "cols": 2, "data": data})
        assert str(info.value) == message

    def test_integers_and_signed_zeros_keep_their_bits(self):
        data = [[[0, -0.0], [-0.0, 0.0]], [[2**60 + 1, -3], [1e-300, -(2**70)]]]
        m = payload_to_matrix({"rows": 2, "cols": 2, "data": data})
        expected = np.array([[float(re), float(im)] for row in data for re, im in row])
        assert m.dtype == complex and m.shape == (2, 2) and m.flags.writeable
        assert m.tobytes() == expected.tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_unitary_round_trip_property(self, seed):
        m = random_unitary(4, seed)
        back = payload_to_matrix(json.loads(write_matrix_file(os.devnull, m)))
        assert back.tobytes() == m.tobytes()


# Values where %.17g changes form or a fraction part must be added: signed
# zeros, small integers, the last integers before the exponent form (1e17),
# the exponent form itself, the smallest subnormal and the largest double.
_EDGE_VALUES = (
    0.0, 1.0, -2.0, 1e16, 99999999999999984.0, 1e17, 1e20, 1e-5, 5e-324, 1.7976931348623157e308,
)
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_VALUES + tuple(-v for v in _EDGE_VALUES)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _matrices(draw):
    k = draw(st.integers(1, 5))
    rows, cols = draw(st.sampled_from([(1, 1), (1, k), (k, k)]))
    values = draw(st.lists(_FLOATS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(values).view(complex).reshape(rows, cols)


def _rendered(m):
    """The text the one writer renders for a matrix, as write_matrix_file returns it."""
    return write_matrix_file(os.devnull, m)


def _plain_payload(m):
    """The payload as nested lists, built entry by entry."""
    rows, cols = m.shape
    data = [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(cols)] for i in range(rows)]
    return {"rows": rows, "cols": cols, "data": data}


class TestOneWriter:
    @given(m=_matrices())
    @settings(max_examples=300, deadline=None)
    def test_text_matches_generic_writer(self, m):
        assert _rendered(m) + "\n" == dumps_deterministic(_plain_payload(m))

    @given(m=_matrices())
    @settings(max_examples=100, deadline=None)
    def test_text_round_trips_bits(self, m):
        back = payload_to_matrix(json.loads(_rendered(m)))
        assert back.tobytes() == m.tobytes()

    def test_strided_input(self):
        m = random_unitary(4, 2)[::2, ::-1].T
        assert _rendered(m) + "\n" == dumps_deterministic(_plain_payload(m))

    def test_real_input(self):
        m = np.array([[1.0, -0.0, 0.5]])
        expected = '{"cols":3,"data":[[[1.0,0.0],[-0.0,0.0],[0.5,0.0]]],"rows":1}'
        assert _rendered(m) == expected

    def test_signed_zeros_match_generic_writer(self):
        # Each (re, im) of +-0.0 and a nonzero value, alone and side by side:
        # only +0.0+0.0j skips formatting, and every -0.0 keeps its sign.
        values = (0.0, -0.0, 1.0, -2.5)
        m = np.array([[[re, im] for im in values] for re in values]).view(complex)[..., 0]
        for entry in m.ravel():
            one = np.array([[entry]])
            assert _rendered(one) + "\n" == dumps_deterministic(_plain_payload(one))
        assert _rendered(m) + "\n" == dumps_deterministic(_plain_payload(m))
        assert payload_to_matrix(json.loads(_rendered(m))).tobytes() == m.tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad, tmp_path):
        m = np.ones((2, 2), dtype=complex)
        m[1, 0] = complex(0.0, bad)
        with pytest.raises(ValueError):
            write_matrix_file(tmp_path / "m.json", m)
        with pytest.raises(ValueError):
            dumps_deterministic({"x": bad})

    def test_file_holds_the_payload_text(self, tmp_path):
        path = tmp_path / "u.json"
        payload = write_matrix_file(path, random_unitary(3, 4))
        assert path.read_text(encoding="utf-8") == dumps_deterministic(payload)

    def test_one_render_per_payload(self, tmp_path, monkeypatch):
        calls = []
        render = matio._render_matrix
        monkeypatch.setattr(matio, "_render_matrix", lambda pairs: calls.append(1) or render(pairs))
        path = tmp_path / "u.json"
        text = write_matrix_file(path, random_unitary(3, 5))
        assert path.read_text(encoding="utf-8") == text + "\n"
        assert dumps_deterministic({"factors": {"U": text}}) == f'{{"factors":{{"U":{text}}}}}\n'
        assert len(calls) == 1


class TestMatrixFiles:
    def test_write_then_read(self, tmp_path):
        m = random_unitary(5, 8)
        path = tmp_path / "u.json"
        write_matrix_file(path, m)
        assert parse_matrix_file(path).tobytes() == m.tobytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_matrix_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_matrix_file(path)

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff{"rows": 1, "cols": 1, "data": [[[1, 0]]]}')
        with pytest.raises(ParseError) as excinfo:
            parse_matrix_file(path)
        assert str(excinfo.value).startswith(f"{path} is not UTF-8: ")

    @pytest.mark.parametrize(
        "prefix, suffix", [(b"", b""), (b'{"rows": 1, "cols": 1, "data": ', b"}")], ids=["top-level", "under-data"]
    )
    def test_deep_nesting_is_parse_error(self, tmp_path, prefix, suffix):
        path = tmp_path / "deep.json"
        path.write_bytes(prefix + b"[" * 200_000 + b"]" * 200_000 + suffix)
        with pytest.raises(ParseError) as excinfo:
            parse_matrix_file(path)
        assert str(excinfo.value).startswith(f"invalid JSON in {path}: ")

    def test_fixture_c5(self, fixtures_dir):
        from bccanon import symplectic_matrix

        m = parse_matrix_file(fixtures_dir / "c5.json")
        assert np.array_equal(m, symplectic_matrix(5))


class TestDeterministicJson:
    def test_sorted_keys_and_repeatability(self):
        obj = {"b": 1, "a": [1.5, {"z": True, "y": None}]}
        first = dumps_deterministic(obj)
        second = dumps_deterministic(obj)
        assert first == second
        assert first.index('"a"') < first.index('"b"')

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="cannot serialize <class 'object'>"):
            dumps_deterministic(object())

    def test_floats_have_seventeen_digits(self):
        text = dumps_deterministic({"x": 0.1})
        assert "0.10000000000000001" in text

    def test_float_round_trips(self):
        for value in (0.1, np.sqrt(2.0), -0.0, 1e-300, 12345.6789, 3.0):
            text = dumps_deterministic({"x": float(value)})
            back = json.loads(text)["x"]
            assert np.float64(back).tobytes() == np.float64(value).tobytes()


class TestReportFormatting:
    def _report(self):
        return Report(
            command="check",
            inputs=["A.json", "B.json"],
            verdict="self-adjoint",
            metrics={"rank(A:B)": 5, "gram_residual": 1.25e-13},
        )

    def test_json_deterministic(self):
        report = self._report()
        assert format_report(report, "json") == format_report(report, "json")
        payload = json.loads(format_report(report, "json"))
        assert payload["verdict"] == "self-adjoint"
        assert payload["metrics"]["rank(A:B)"] == 5

    def test_text_contains_metric_lines(self):
        text = format_report(self._report(), "text")
        assert "rank(A:B) = 5" in text
        assert "gram_residual = " in text
        assert "verdict: self-adjoint" in text

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            format_report(self._report(), "yaml")
