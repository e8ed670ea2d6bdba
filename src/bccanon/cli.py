"""Command-line front-end.

Subcommands
    check     verify the self-adjointness criterion for a pair of matrix files
    canon     write the canonical factorization factors for a pair
    classify  report mixed / coupled / separated and the rank offset
    generate  synthesize a random self-adjoint pair to matrix files
    selftest  run the seeded invariant suite

Exit codes: 0 success, 1 criterion-failure verdict, 2 input/usage error
(an --out that cannot be created or an order too large to allocate
included), 3 numerical failure.  Every command takes --format.  The three
commands that read a pair, check, canon and classify, also take --tol,
the one settable tolerance residual_abs (the bound on the Gram residual of
the self-adjointness check); BC_CANON_TOL sets it too, and the flag wins.
generate and selftest build pairs that are self-adjoint by construction
and take no tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    BccanonError,
    ConvergenceFailure,
    NotSelfAdjoint,
    NotUnitary,
    ParseError,
    RankDeficient,
)
from .forms import (
    BoundaryPair,
    canonical_decompose,
    check_self_adjoint,
    generate_random_pair,
)
from .linalg import DEFAULT_TOL, Tolerances, row_space_angles
from .matio import (
    Report,
    dumps_deterministic,
    format_report,
    parse_matrix_file,
    write_matrix_file,
)
from .structure import OrderSpec

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (NotSelfAdjoint, ConvergenceFailure, RankDeficient, NotUnitary)


def _resolve_tolerances(args) -> Tolerances:
    value, source = args.tol, "--tol"
    if value is None:
        env = os.environ.get("BC_CANON_TOL")
        if env is not None:
            source = "BC_CANON_TOL"
            try:
                value = float(env)
            except ValueError as exc:
                raise ParseError(f"BC_CANON_TOL is not a float: {env!r}") from exc
    if value is None:
        return DEFAULT_TOL
    try:
        return Tolerances(residual_abs=value)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def _load_pair(args) -> tuple[BoundaryPair, Tolerances]:
    """(pair named by ``args``, its tolerances); the tolerance is resolved first."""
    tol = _resolve_tolerances(args)
    a = parse_matrix_file(args.A)
    b = parse_matrix_file(args.B)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ParseError(f"A and B must be square and equal-sized, got {a.shape} and {b.shape}")
    try:
        return BoundaryPair.from_matrices(a, b), tol
    except ValueError as exc:  # all-subnormal entries; the parser rejects non-finite ones
        raise ParseError(str(exc)) from exc


def _cmd_check(args) -> tuple[Report, int]:
    pair, tol = _load_pair(args)
    report = check_self_adjoint(pair, tol)
    if not np.isfinite(report.gram_residual):  # overflow: no verdict, as in classify and canon
        raise NotSelfAdjoint(f"rank(A:B)={report.rank_AB} (need {pair.spec.m}), gram residual {report.gram_residual}")
    out = Report(
        command="check",
        inputs=[args.A, args.B],
        verdict="self-adjoint" if report.ok else "not self-adjoint",
        metrics={
            "m": pair.spec.m,
            "rank(A:B)": report.rank_AB,
            "gram_residual": report.gram_residual,
            "rank_A": report.rank_A,
            "rank_B": report.rank_B,
        },
    )
    return out, EXIT_OK if report.ok else EXIT_CRITERION


def _write_factors(out_dir, factors, report: Report) -> None:
    """Write one file per factor and embed the same JSON text in the report."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"command": report.command, "files": {}}
    embedded = {}
    for name, matrix in factors.items():
        filename = f"{name}.json"
        embedded[name] = write_matrix_file(os.path.join(out_dir, filename), matrix)
        manifest["files"][name] = filename
    report.factors = embedded
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        handle.write(dumps_deterministic(manifest))


def _load_form(args):
    """(pair, canonical form of its order) for the pair named by ``args``."""
    pair, tol = _load_pair(args)
    return pair, canonical_decompose(pair, tol)


def _rank_block(form) -> dict:
    """classify's rank keys: r, rank_A, rank_B, null_count at odd order; rank_S, rank_A, rank_B at even order."""
    if form.spec.is_odd_order:
        return {"r": form.r, "rank_A": form.rank, "rank_B": form.rank, "null_count": form.null_count}
    return {"rank_S": form.rank_S, "rank_A": form.rank, "rank_B": form.rank}


def _cmd_canon(args) -> tuple[Report, int]:
    pair, form = _load_form(args)
    spec, ab = pair.spec, pair.stacked()
    # The factorization applied to the input: P (1/sqrt 2) Q1 core Q2 = P (I : W) V* at odd order.
    product = form.P @ form.reconstruct() if spec.is_odd_order else form.reconstruct()
    if spec.is_odd_order:
        factors = {"Q1": form.Q1, "Q2": form.Q2, "Q3": form.Q3, "Q4": form.Q4, "core": form.core, "K": form.K}
    else:
        cs = form.cs
        factors = {"U": form.U, "middle": form.middle, "Z": form.Z, "V1": cs.v1, "U1": cs.u1, "U2": cs.u2, "V2": cs.v2}
    factors.update(W=form.W, C_diag=form.cos.reshape(1, -1), S_diag=form.sin.reshape(1, -1))
    # The norms are taken at unit scale, so ||(A : B)||_F of a tiny pair cannot underflow.  A power of
    # two scales exactly; the clamp keeps a subnormal input from overflowing it.
    unit = np.ldexp(1.0, min(-np.frexp(np.max(np.abs(ab)))[1], 1023))
    scaled_ab = unit * ab
    residual = float(np.linalg.norm(unit * product - scaled_ab) / np.linalg.norm(scaled_ab))
    angle = float(np.max(row_space_angles(product, ab)))
    metrics = {"m": spec.m, "n": spec.n, "reconstruction_residual": residual, "row_space_angle_max": angle}
    metrics.update(_rank_block(form))
    out = Report(command="canon", inputs=[args.A, args.B], verdict=form.classification.value, metrics=metrics)
    _write_factors(args.out, factors, out)
    return out, EXIT_OK


def _cmd_classify(args) -> tuple[Report, int]:
    pair, form = _load_form(args)
    metrics = {"m": pair.spec.m, **_rank_block(form)}
    out = Report(command="classify", inputs=[args.A, args.B], verdict=form.classification.value, metrics=metrics)
    return out, EXIT_OK


def _cmd_generate(args) -> tuple[Report, int]:
    spec = OrderSpec.from_order(args.order)
    pair = generate_random_pair(spec, args.seed, target_unit_cosines=args.unit_cosines)
    os.makedirs(args.out, exist_ok=True)
    path_a = os.path.join(args.out, "A.json")
    path_b = os.path.join(args.out, "B.json")
    factors = {"A": write_matrix_file(path_a, pair.A), "B": write_matrix_file(path_b, pair.B)}
    report = check_self_adjoint(pair)
    out = Report(
        command="generate",
        inputs=[path_a, path_b],
        verdict="ok",
        metrics={
            "m": spec.m,
            "n": spec.n,
            "seed": args.seed,
            "gram_residual": report.gram_residual,
            "rank_A": report.rank_A,
            "rank_B": report.rank_B,
        },
        factors=factors,
    )
    if args.unit_cosines is not None:
        out.metrics["unit_cosines"] = args.unit_cosines
    return out, EXIT_OK


def _cmd_selftest(args) -> tuple[Report, int]:
    from .selftest import run_selftest  # loaded only by the command that runs it

    try:
        orders = tuple(int(tok) for tok in args.orders.split(",") if tok.strip())
    except ValueError as exc:
        raise ParseError(f"bad --orders value {args.orders!r}") from exc
    if not orders:
        raise ParseError("--orders must name at least one order")
    if args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    results = run_selftest(orders=orders, trials=args.trials)
    metrics = {}
    for res in results:
        metrics[res.name] = 1 if res.passed else 0
        metrics[f"{res.name}.worst"] = res.worst
    metrics["checks_passed"] = passed = sum(res.passed for res in results)
    metrics["checks_total"] = len(results)
    ok = passed == len(results)
    out = Report(command="selftest", verdict="pass" if ok else "fail", metrics=metrics)
    return out, EXIT_OK if ok else EXIT_CRITERION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bccanon",
        description="Verify, canonicalize, classify and synthesize self-adjoint boundary-condition pairs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, summary, pair=False):
        """Register one subcommand; only the commands that read a pair take A, B and --tol."""
        p = sub.add_parser(name, help=summary)
        if pair:
            p.add_argument("A")
            p.add_argument("B")
            p.add_argument("--tol", type=float, default=None, help="self-adjointness Gram residual bound (residual_abs)")
        p.add_argument("--format", choices=("json", "text"), default="text", dest="fmt")
        p.set_defaults(func=func)
        return p

    add_command("check", _cmd_check, "verify the self-adjointness criterion", pair=True)
    p_canon = add_command("canon", _cmd_canon, "write the canonical factorization", pair=True)
    p_canon.add_argument("--out", default=".", help="directory for factor files")
    add_command("classify", _cmd_classify, "classify the boundary conditions", pair=True)

    p_generate = add_command("generate", _cmd_generate, "synthesize a random self-adjoint pair")
    p_generate.add_argument("--order", type=int, required=True, help="matrix size m")
    p_generate.add_argument("--seed", type=int, required=True)
    p_generate.add_argument("--unit-cosines", type=int, default=None, dest="unit_cosines")
    p_generate.add_argument("--out", default=".", help="directory for A.json and B.json")

    p_selftest = add_command("selftest", _cmd_selftest, "run the invariant suite")
    p_selftest.add_argument("--orders", default="3,5,7,9")
    p_selftest.add_argument("--trials", type=int, default=20)

    return parser


def _run(argv) -> tuple[Report, int, str]:
    args = build_parser().parse_args(argv)
    fmt = args.fmt
    try:
        report, code = args.func(args)
    except _NUMERICAL_ERRORS as exc:
        return Report(command=args.command, verdict=f"error: {exc}"), EXIT_NUMERICAL, fmt
    except (BccanonError, OSError, MemoryError) as exc:
        return Report(command=args.command, verdict=f"error: {exc}"), EXIT_USAGE, fmt
    return report, code, fmt


def run_command(argv) -> tuple[Report, int]:
    """Parse argv and execute; returns the report and the exit code."""
    report, code, _ = _run(argv)
    return report, code


def main(argv=None) -> int:
    try:
        report, code, fmt = _run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse usage errors already exit with 2
        return int(exc.code or 0)
    sys.stdout.write(format_report(report, fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
