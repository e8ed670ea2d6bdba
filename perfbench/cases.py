"""Seeded inputs and the output oracle for every benchmark operation.

A library case starts from a known coupling unitary W0 whose CS
decomposition has ``k`` unit cosines, so the expected classification and
ranks follow from ``k`` alone:

* odd order m = 2n+1: null_count = k, r = n - k, coupled iff k = 0;
* even order m = 2n: rank_S = n - k, coupled iff k = 0, separated iff k = n.

The normalized pair built from W0 is left-multiplied by a random invertible
G with singular values in [0.3, 3], so the input is row-equivalent to the
normalized form but not equal to it.

The oracle recomputes what it can without the code under test: the Gram
criterion with its own signed antidiagonal, and each reconstruction as its
own product of the returned factors.  Every check returns a list of failure
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from bccanon import OrderSpec, construct_even_from_W, construct_from_W, haar_unitary

# Pinned acceptance tolerances of the library.
RECON_TOL = 1e-9
W_TOL = 1e-9
GRAM_TOL = 1e-8


def expected_class(m: int, k: int) -> str:
    if k == 0:
        return "coupled"
    if m % 2 == 0 and k == m // 2:
        return "separated"
    return "mixed"


def coupling_unitary(rng: np.random.Generator, spec: OrderSpec, k: int) -> np.ndarray:
    """Unitary W0 whose CS decomposition over the spec's partition has k unit cosines."""
    p, q = spec.csd_partition
    m, s = spec.m, min(p, q)
    cos = np.concatenate([np.ones(k), rng.uniform(0.05, 0.95, s - k)])
    sin = np.sqrt(1.0 - cos**2)
    core = np.eye(m, dtype=complex)
    idx = np.arange(s)
    core[idx, idx] = cos
    core[p + idx, p + idx] = cos
    core[idx, p + idx] = sin
    core[p + idx, idx] = -sin
    left = block_diag(haar_unitary(p, rng), haar_unitary(q, rng))
    right = block_diag(haar_unitary(p, rng), haar_unitary(q, rng))
    return left @ core @ right


def row_mixer(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random invertible G with singular values drawn from [0.3, 3]."""
    return (haar_unitary(m, rng) * rng.uniform(0.3, 3.0, m)) @ haar_unitary(m, rng)


@dataclass(frozen=True, eq=False)
class LibraryCase:
    m: int
    k: int
    A: np.ndarray
    B: np.ndarray
    W0: np.ndarray
    reference: np.ndarray  # what the reconstruction must equal, m x 2m


def library_case(rng: np.random.Generator, m: int) -> LibraryCase:
    spec = OrderSpec.from_order(m)
    k = int(rng.integers(0, m // 2 + 1))
    w0 = coupling_unitary(rng, spec, k)
    build = construct_from_W if m % 2 == 1 else construct_even_from_W
    normal = build(w0, spec)
    g = row_mixer(rng, m)
    a, b = g @ normal.A, g @ normal.B
    # Odd order reconstructs the normalized pair, even order the input itself.
    reference = np.hstack([normal.A, normal.B]) if m % 2 == 1 else np.hstack([a, b])
    return LibraryCase(m=m, k=k, A=a, B=b, W0=w0, reference=reference)


def signed_antidiagonal(m: int) -> np.ndarray:
    c = np.zeros((m, m))
    c[np.arange(m), m - 1 - np.arange(m)] = (-1.0) ** np.arange(1, m + 1)
    return c


def gram_residual(a: np.ndarray, b: np.ndarray) -> float:
    c = signed_antidiagonal(a.shape[0])
    return float(np.linalg.norm(a @ c @ a.conj().T - b @ c @ b.conj().T))


def odd_product(q1, core, q2) -> np.ndarray:
    return (q1 @ core @ q2) / np.sqrt(2.0)


def even_product(u, cos, sin, v1, u1, u2, v2, z) -> np.ndarray:
    n = len(cos)
    middle = np.zeros((2 * n, 4 * n), dtype=complex)
    idx = np.arange(n)
    middle[idx, idx] = cos
    middle[idx, n + idx] = 1.0
    middle[idx, 3 * n + idx] = sin
    middle[n + idx, idx] = -sin
    middle[n + idx, 2 * n + idx] = 1.0
    middle[n + idx, 3 * n + idx] = cos
    right = np.zeros((4 * n, 4 * n), dtype=complex)
    for i, block in enumerate((v1, u1.conj().T, u2.conj().T, v2)):
        right[i * n : (i + 1) * n, i * n : (i + 1) * n] = block
    return u @ middle @ right @ z


def check_library_op(case: LibraryCase, report, form) -> list[str]:
    """Verdict, recovered W, classification, ranks and reconstruction."""
    fails = []
    m, n, k = case.m, case.m // 2, case.k
    if not (report.ok and report.rank_AB == m):
        fails.append(f"m={m}: verdict not self-adjoint (rank {report.rank_AB}, gram {report.gram_residual:.3e})")
    w_err = float(np.max(np.abs(form.W - case.W0)))
    if not w_err <= W_TOL:
        fails.append(f"m={m}: recovered W off by {w_err:.3e}")
    if form.classification.value != expected_class(m, k):
        fails.append(f"m={m}, k={k}: classified {form.classification.value}")
    if m % 2 == 1:
        if (form.null_count, form.r) != (k, n - k):
            fails.append(f"m={m}, k={k}: null_count={form.null_count}, r={form.r}")
        product = odd_product(form.Q1, form.core, form.Q2)
    else:
        if form.rank_S != n - k:
            fails.append(f"m={m}, k={k}: rank_S={form.rank_S}")
        cs = form.cs
        product = even_product(form.U, cs.cos, cs.sin, cs.v1, cs.u1, cs.u2, cs.v2, form.Z)
    residual = float(np.linalg.norm(product - case.reference))
    if not residual <= RECON_TOL:
        fails.append(f"m={m}: reconstruction residual {residual:.3e}")
    return fails


# ---------------------------------------------------------------- CLI oracle


@dataclass(frozen=True)
class CliCase:
    m: int
    k: int
    seed: int


def cli_case(rng: np.random.Generator, m: int) -> CliCase:
    return CliCase(m=m, k=int(rng.integers(0, m // 2 + 1)), seed=int(rng.integers(0, 2**31 - 1)))


def matrix_from_payload(payload) -> np.ndarray:
    data = np.asarray(payload["data"], dtype=float)
    if data.shape != (payload["rows"], payload["cols"], 2):
        raise ValueError(f"payload shape {data.shape} does not match {payload['rows']} x {payload['cols']}")
    return data[..., 0] + 1j * data[..., 1]


def read_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        return matrix_from_payload(json.load(handle))


def _report(code: int, stdout: bytes, command: str) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"{command}: exit code {code}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return None, [f"{command}: report is not JSON ({exc})"]
    if report.get("command") != command:
        return None, [f"{command}: report names command {report.get('command')!r}"]
    return report, []


def check_generate(case: CliCase, code: int, stdout: bytes, gen_dir: str) -> list[str]:
    report, fails = _report(code, stdout, "generate")
    if report is None:
        return fails
    metrics = report["metrics"]
    if report["verdict"] != "ok" or metrics.get("m") != case.m:
        fails.append(f"generate: verdict {report['verdict']!r}, m={metrics.get('m')}")
    a = read_matrix(os.path.join(gen_dir, "A.json"))
    b = read_matrix(os.path.join(gen_dir, "B.json"))
    if a.shape != (case.m, case.m) or b.shape != (case.m, case.m):
        return fails + [f"generate: files hold {a.shape} and {b.shape}"]
    if not (np.array_equal(matrix_from_payload(report["factors"]["A"]), a)
            and np.array_equal(matrix_from_payload(report["factors"]["B"]), b)):
        fails.append("generate: report matrices differ from the files")
    residual = gram_residual(a, b)
    if not residual <= GRAM_TOL:
        fails.append(f"generate: files fail the Gram criterion ({residual:.3e})")
    return fails


def _expected_ranks(case: CliCase, metrics: dict, command: str) -> list[str]:
    if case.m % 2 == 1 and (metrics.get("rank_A"), metrics.get("rank_B")) != (case.m - case.k,) * 2:
        return [f"{command}: rank_A={metrics.get('rank_A')}, rank_B={metrics.get('rank_B')}, k={case.k}"]
    return []


def check_check(case: CliCase, code: int, stdout: bytes) -> list[str]:
    report, fails = _report(code, stdout, "check")
    if report is None:
        return fails
    metrics = report["metrics"]
    if report["verdict"] != "self-adjoint" or metrics.get("rank(A:B)") != case.m:
        fails.append(f"check: verdict {report['verdict']!r}, rank(A:B)={metrics.get('rank(A:B)')}")
    return fails + _expected_ranks(case, metrics, "check")


def _expected_class(case: CliCase, report: dict, command: str) -> list[str]:
    n, metrics = case.m // 2, report["metrics"]
    fails = []
    if report["verdict"] != expected_class(case.m, case.k):
        fails.append(f"{command}: verdict {report['verdict']!r}, k={case.k}")
    if case.m % 2 == 1:
        if (metrics.get("null_count"), metrics.get("r")) != (case.k, n - case.k):
            fails.append(f"{command}: null_count={metrics.get('null_count')}, r={metrics.get('r')}, k={case.k}")
        fails += _expected_ranks(case, metrics, command)
    elif metrics.get("rank_S") != n - case.k:
        fails.append(f"{command}: rank_S={metrics.get('rank_S')}, k={case.k}")
    return fails


def check_classify(case: CliCase, code: int, stdout: bytes) -> list[str]:
    report, fails = _report(code, stdout, "classify")
    if report is None:
        return fails
    return fails + _expected_class(case, report, "classify")


def check_canon(case: CliCase, code: int, stdout: bytes, gen_dir: str, out_dir: str) -> list[str]:
    report, fails = _report(code, stdout, "canon")
    if report is None:
        return fails
    fails += _expected_class(case, report, "canon")
    if not report["metrics"].get("reconstruction_residual", np.inf) <= RECON_TOL:
        fails.append(f"canon: reported residual {report['metrics'].get('reconstruction_residual')}")
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    f = {name: read_matrix(os.path.join(out_dir, filename)) for name, filename in manifest["files"].items()}
    for name, matrix in f.items():
        if not np.array_equal(matrix_from_payload(report["factors"][name]), matrix):
            fails.append(f"canon: report factor {name} differs from its file")
    # The generated pair is already in normalized form, so both parities
    # must reconstruct the files generate wrote.
    stacked = np.hstack([read_matrix(os.path.join(gen_dir, "A.json")), read_matrix(os.path.join(gen_dir, "B.json"))])
    if case.m % 2 == 1:
        product = odd_product(f["Q1"], f["core"], f["Q2"])
    else:
        product = even_product(f["U"], f["C_diag"][0].real, f["S_diag"][0].real,
                               f["V1"], f["U1"], f["U2"], f["V2"], f["Z"])
    residual = float(np.linalg.norm(product - stacked))
    if not residual <= RECON_TOL:
        fails.append(f"canon: factor files reconstruct to residual {residual:.3e}")
    return fails
