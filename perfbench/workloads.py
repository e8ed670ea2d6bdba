"""The benchmark's workloads: closed loops with one caller in one process.

Each loop runs rounds until the given seconds have passed, finishing the
round in progress.  A round is one operation at each order of the workload,
and its sample is the mean over those operations, so every ``_p50`` is the
median over rounds of a figure that weighs each order equally.  Outputs are
checked between operations, outside the timed region; a failed check counts
as a failed operation and is never dropped.

* tiny-stream and large-pairs call the library in this process.  An
  operation builds the pair, checks it and factors it.
* cli-mix runs one user session per pair through ``python -m bccanon.cli``:
  generate, check, classify, then canon on the files just written.

tiny-stream is bound by the interpreter, whose speed drifts on a shared host
by up to 2x; its figures are scaled by the reference kernel of
``calibration``, timed between rounds, and its unscaled figures are reported
beside them with a ``_raw`` suffix.  large-pairs is bound by LAPACK, which
does not drift with it.  cli-mix runs in child processes for seconds at a
time, longer than the drift holds still, so a reference timed between
sessions does not track it; both are reported unscaled.

``setup_s`` is the median over fresh processes spread evenly over the timed
loop, so that it samples the drift of the whole run rather than of a few
seconds.  It is unscaled too: the reference kernel, timed inside such a
process, swings by up to 2x from one process to the next while the set-up
time does not follow it.

A traced run measures half its time untraced and half with the wrappers of
``tracing`` installed.  Per-layer figures come from the traced half, per
pair (per session on cli-mix), and ``trace.overhead`` is the ratio of the
two halves' pair p50.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import bccanon
import cases
import tracing
from calibration import REFERENCE_NOMINAL_S, reference_s
from child import library_op
from stats import tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# workload -> (orders of one round, distinct pairs per order)
LIBRARY = {"tiny-stream": (tuple(range(3, 10)), 16), "large-pairs": ((129, 128), 3)}
CLI_ORDERS = (65, 64)
CLI_STEPS = ("generate", "check", "classify", "canon")
CALIBRATED = ("tiny-stream",)

SETUP_REPS = 9
FLOOR_REPS = 5
CLI_SESSIONS_PER_ORDER = 64
CHILD_TIMEOUT_S = 120
MAX_PROBLEMS = 20


class Phase:
    """Samples and outcomes of one timed loop."""

    def __init__(self):
        self.refs = [reference_s()]
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.correct_pairs = 0
        self.problems: list[str] = []
        self.pairs = 0
        self.layers = {layer: [0.0, 0] for layer in tracing.LAYERS}
        self.bytes_out = 0
        self.import_s: list[float] = []
        self.span_groups: list = []
        self.missing: set[str] = set()

    def outcome(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])
        return not problems

    def end_round(self, samples: dict) -> None:
        """Close a round; its reference is the mean of the two timed around it."""
        self.refs.append(reference_s())
        samples["ref"] = statistics.fmean(self.refs[-2:])
        self.rounds.append(samples)

    def scaled(self, step: str, calibrated: bool) -> list[float]:
        if not calibrated:
            return [r[step] for r in self.rounds]
        return [r[step] * REFERENCE_NOMINAL_S / r["ref"] for r in self.rounds]

    def p50(self, step: str, calibrated: bool) -> float:
        return statistics.median(self.scaled(step, calibrated))

    def add_spans(self, spans) -> None:
        for layer, (own, calls) in tracing.layer_totals(spans).items():
            self.layers[layer][0] += own
            self.layers[layer][1] += calls
        self.span_groups.append(spans)


def _problem(context: str, exc: Exception) -> list[str]:
    return [f"{context}: {type(exc).__name__}: {exc}"]


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def _run_child(args, env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False
    )


def _timed_child(args, env) -> float:
    proc = _run_child(args, env)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}")
    return float(proc.stdout.decode().split()[-1])


def python_floor_s(env) -> float:
    """Median wall time of ``python -c pass``: the start-up no change removes."""
    times = []
    for _ in range(FLOOR_REPS):
        t0 = time.perf_counter()
        _run_child(["-c", "pass"], env)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ------------------------------------------------------------------ library


def library_pools(workload: str, rng: np.random.Generator):
    orders, per_order = LIBRARY[workload]
    return [[cases.library_case(rng, m) for _ in range(per_order)] for m in orders]


def library_phase(pools, seconds: float, tracer: tracing.Tracer | None = None,
                  setup: SetupSampler | None = None) -> Phase:
    phase = Phase()
    start = time.perf_counter()
    index = 0
    while True:
        if setup is not None:
            start += setup.poll(time.perf_counter() - start)
        pair_s = check_s = 0.0
        for pool in pools:
            case = pool[index % len(pool)]
            if tracer is not None:
                tracer.recording = True
                root = tracer.open("op")
            t0 = time.perf_counter()
            try:
                report, form, t_check, t_pair = library_op(bccanon, case.A, case.B)
            except Exception as exc:  # a failed op is counted, never dropped
                t_check = t_pair = time.perf_counter() - t0
                problems = _problem(f"m={case.m}", exc)
            else:
                problems = None
            finally:
                if tracer is not None:
                    tracer.close(root)
                    tracer.recording = False
            if problems is None:
                try:
                    problems = cases.check_library_op(case, report, form)
                except Exception as exc:  # an output the oracle cannot read is wrong
                    problems = _problem(f"m={case.m} oracle", exc)
                del report, form
            pair_s += t_pair
            check_s += t_check
            phase.pairs += 1
            phase.correct_pairs += phase.outcome(problems)
        phase.end_round({"pair": pair_s / len(pools), "check": check_s / len(pools), "busy": pair_s})
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        phase.add_spans(tracer.spans)
        phase.missing.update(tracer.missing)
    return phase


class SetupSampler:
    """Set-up times of fresh processes, spread evenly over a timed loop.

    The loop polls between rounds (between sessions on cli-mix, whose
    rounds are long); a process is due every ``seconds / SETUP_REPS`` of
    loop time, and the loop does not count the time it takes.
    """

    def __init__(self, args, env, seconds: float):
        self.args, self.env = args, env
        self.interval = seconds / SETUP_REPS
        self.samples: list[float] = []

    def poll(self, elapsed: float) -> float:
        """Run a process if one is due; return the wall seconds it took."""
        if len(self.samples) >= SETUP_REPS or elapsed < len(self.samples) * self.interval:
            return 0.0
        t0 = time.perf_counter()
        self.samples.append(_timed_child(self.args, self.env))
        return time.perf_counter() - t0

    def finish(self) -> None:
        """Run the processes the loop ended before."""
        while len(self.samples) < SETUP_REPS:
            self.poll(float("inf"))


def library_setup(pools, work: str, env, seconds: float) -> SetupSampler:
    """Fresh process: import bccanon plus one warm-up op per distinct order."""
    path = os.path.join(work, "setup.npz")
    arrays = {}
    for i, pool in enumerate(pools):
        arrays[f"A{i}"], arrays[f"B{i}"] = pool[0].A, pool[0].B
    np.savez(path, **arrays)
    return SetupSampler([CHILD, "setup-lib", path], env, seconds)


def traced_library_phase(pools, seconds: float) -> Phase:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return library_phase(pools, seconds, tracer)
    finally:
        tracer.uninstall()


# ---------------------------------------------------------------------- CLI


def cli_pool(rng: np.random.Generator):
    return [[cases.cli_case(rng, m) for _ in range(CLI_SESSIONS_PER_ORDER)] for m in CLI_ORDERS]


def _dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def cli_session(case: cases.CliCase, work: str, env, phase: Phase, traced: bool) -> dict:
    """One user session; returns the seconds of each step."""
    gen, out = os.path.join(work, "gen"), os.path.join(work, "canon")
    a, b = os.path.join(gen, "A.json"), os.path.join(gen, "B.json")
    argv = {
        "generate": ["generate", "--order", str(case.m), "--seed", str(case.seed),
                     "--unit-cosines", str(case.k), "--out", gen, "--format", "json"],
        "check": ["check", a, b, "--format", "json"],
        "classify": ["classify", a, b, "--format", "json"],
        "canon": ["canon", a, b, "--out", out, "--format", "json"],
    }
    times, procs = {}, {}
    for step in CLI_STEPS:
        spans_path = os.path.join(work, f"{step}.spans.json")
        prefix = [CHILD, "cli", spans_path, "--"] if traced else ["-m", "bccanon.cli"]
        t0 = time.perf_counter()
        try:
            procs[step] = _run_child([*prefix, *argv[step]], env)
        except subprocess.TimeoutExpired as exc:
            procs[step] = exc
        times[step] = time.perf_counter() - t0

    oracle = {
        "generate": lambda code, stdout: cases.check_generate(case, code, stdout, gen),
        "check": lambda code, stdout: cases.check_check(case, code, stdout),
        "classify": lambda code, stdout: cases.check_classify(case, code, stdout),
        "canon": lambda code, stdout: cases.check_canon(case, code, stdout, gen, out),
    }
    all_ok = True
    for step in CLI_STEPS:
        proc = procs[step]
        context = f"m={case.m} {step}"
        if isinstance(proc, subprocess.TimeoutExpired):
            problems = [f"{context}: timed out after {CHILD_TIMEOUT_S} s"]
        else:
            try:
                problems = oracle[step](proc.returncode, proc.stdout)
            except Exception as exc:  # an output the oracle cannot read is wrong
                problems = _problem(context, exc)
            phase.bytes_out += len(proc.stdout)
        if traced:
            try:
                with open(os.path.join(work, f"{step}.spans.json"), encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, ValueError) as exc:
                problems = problems + _problem(f"{context} spans", exc)
            else:
                phase.import_s.append(record["import_s"])
                phase.missing.update(record["missing"])
                phase.add_spans(record["spans"])
        all_ok &= phase.outcome(problems)
    phase.bytes_out += _dir_bytes(gen) + _dir_bytes(out)
    phase.correct_pairs += all_ok
    phase.pairs += 1
    shutil.rmtree(work, ignore_errors=True)
    return times


def cli_phase(pool, seconds: float, work: str, env, traced: bool = False,
              setup: SetupSampler | None = None) -> Phase:
    phase = Phase()
    start = time.perf_counter()
    index = 0
    while True:
        sums = dict.fromkeys(("pair", *CLI_STEPS), 0.0)
        for order_cases in pool:
            if setup is not None:
                start += setup.poll(time.perf_counter() - start)
            case = order_cases[index % len(order_cases)]
            times = cli_session(case, os.path.join(work, f"s{index}-m{case.m}"), env, phase, traced)
            for step, seconds_taken in times.items():
                sums[step] += seconds_taken
                sums["pair"] += seconds_taken
        samples = {step: total / len(pool) for step, total in sums.items()}
        phase.end_round({**samples, "busy": sums["pair"]})
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    return phase


def cli_setup(env, seconds: float) -> SetupSampler:
    """Fresh interpreter importing bccanon.cli, after __pycache__ is filled."""
    return SetupSampler([CHILD, "setup-cli"], env, seconds)


# ------------------------------------------------------------------ metrics


def _timings(workload: str, phase: Phase, calibrated: bool, suffix: str) -> dict:
    scale = [REFERENCE_NOMINAL_S / r["ref"] if calibrated else 1.0 for r in phase.rounds]
    busy = sum(r["busy"] * k for r, k in zip(phase.rounds, scale))
    figures = {
        "pairs_per_s": {"value": phase.correct_pairs / busy, "unit": "pairs/s", "better": "higher"},
        "pair_p50_ms": {"value": 1e3 * phase.p50("pair", calibrated), "unit": "ms", "better": "lower"},
        "check_p50_ms": {"value": 1e3 * phase.p50("check", calibrated), "unit": "ms", "better": "lower"},
    }
    pair_tail = tail(phase.scaled("pair", calibrated))
    if pair_tail is not None:
        value, percentile, count = pair_tail
        figures["pair_tail_ms"] = {"value": 1e3 * value, "unit": "ms", "better": "lower",
                                   "percentile": percentile, "samples": count}
    if workload == "cli-mix":
        for step in CLI_STEPS:
            figures[f"cli_{step}_p50_s"] = {"value": phase.p50(step, calibrated), "unit": "s", "better": "lower"}
    return {name + suffix: figure for name, figure in figures.items()}


def end_to_end(workload: str, phase: Phase, setup: SetupSampler, peak_rss_mb: float) -> dict:
    """Every end-to-end figure of the workload: name -> value, unit, better."""
    calibrated = workload in CALIBRATED
    figures = _timings(workload, phase, calibrated, "")
    figures["setup_s"] = {"value": statistics.median(setup.samples), "unit": "s", "better": "lower",
                          "per_process": setup.samples}
    figures["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "better": "lower"}
    figures["error_rate"] = {"value": phase.failed / phase.attempted, "unit": "ratio", "better": "lower"}
    if calibrated:
        figures.update(_timings(workload, phase, False, "_raw"))
    return figures


def per_layer(workload: str, traced: Phase, untraced: Phase, floor_s: float) -> dict:
    """Per-layer figures of the traced half, per pair; name -> value, unit."""
    pairs = traced.pairs
    calibrated = workload in CALIBRATED

    def seconds(layer):
        return {"value": traced.layers[layer][0] / pairs, "unit": "s/pair"}

    def calls(layer):
        return {"value": traced.layers[layer][1] / pairs, "unit": "calls/pair"}

    payloads, writes = traced.layers["matio.payload"][1], traced.layers["matio.write"][1]
    return {
        "cli.import_s": {"value": statistics.median(traced.import_s) if traced.import_s else 0.0, "unit": "s"},
        "cli.self_s": seconds("cli.self"),
        "cli.python_floor_s": {"value": floor_s, "unit": "s"},
        "matio.parse_s": seconds("matio.parse"),
        "matio.parse_calls": calls("matio.parse"),
        "matio.payload_s": seconds("matio.payload"),
        "matio.payload_calls": calls("matio.payload"),
        "matio.payloads_per_factor": {"value": payloads / writes if writes else 0.0, "unit": "ratio"},
        "matio.emit_s": seconds("matio.emit"),
        "matio.write_s": seconds("matio.write"),
        "matio.bytes_out": {"value": traced.bytes_out / pairs, "unit": "bytes/pair"},
        "forms.check_s": seconds("forms.check"),
        "forms.check_calls": calls("forms.check"),
        "forms.recover_s": seconds("forms.recover"),
        "forms.decompose_self_s": seconds("forms.decompose_self"),
        "forms.construct_s": seconds("forms.construct"),
        "forms.generate_s": seconds("forms.generate"),
        "csd.decompose_s": seconds("csd.decompose"),
        "csd.calls": calls("csd.decompose"),
        "linalg.rank_s": seconds("linalg.rank"),
        "linalg.rank_calls": calls("linalg.rank"),
        "linalg.unitarity_s": seconds("linalg.unitarity"),
        "linalg.angles_s": seconds("linalg.angles"),
        "structure.build_s": seconds("structure.build"),
        "structure.build_calls": calls("structure.build"),
        "kernel.svd_calls": calls("kernel.svd"),
        "kernel.svd_s": seconds("kernel.svd"),
        "trace.overhead": {"value": traced.p50("pair", calibrated) / untraced.p50("pair", calibrated), "unit": "ratio"},
    }


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, traced: bool, work: str) -> dict:
    """Run one workload; returns its phases' figures and outcome counts."""
    rng = np.random.default_rng(seed)
    env = child_env()
    os.makedirs(work, exist_ok=True)
    if workload in LIBRARY:
        pools = library_pools(workload, rng)
        warm = library_phase(pools, 0.0)

        def phase(duration, sampler=None):
            return library_phase(pools, duration, setup=sampler)

        def traced_phase(duration):
            return traced_library_phase(pools, duration)

        def setup(duration):
            return library_setup(pools, work, env, duration)

        rss_who = resource.RUSAGE_SELF
    else:
        pool = cli_pool(rng)
        # One invocation imports every bccanon module and fills __pycache__.
        warm = Phase()
        code = _run_child(["-m", "bccanon.cli", "--version"], env).returncode
        warm.outcome([f"warm-up: bccanon.cli --version exited {code}"] if code else [])

        def phase(duration, sampler=None):
            return cli_phase(pool, duration, work, env, setup=sampler)

        def traced_phase(duration):
            return cli_phase(pool, duration, work, env, traced=True)

        def setup(duration):
            return cli_setup(env, duration)

        rss_who = resource.RUSAGE_CHILDREN

    result = {"samples": {}}
    if traced:
        plain = phase(seconds / 2)
        with_spans = traced_phase(seconds / 2)
        phases = [warm, plain, with_spans]
        result["layers"] = per_layer(workload, with_spans, plain, python_floor_s(env))
        result["span_groups"] = with_spans.span_groups
        result["missing_targets"] = sorted(with_spans.missing)
        result["samples"] = {"untraced_rounds": len(plain.rounds), "traced_rounds": len(with_spans.rounds),
                             "traced_pairs": with_spans.pairs}
    else:
        sampler = setup(seconds)
        timed = phase(seconds, sampler)
        sampler.finish()
        phases = [warm, timed]
        result["end_to_end"] = end_to_end(workload, timed, sampler, peak_rss_mb(rss_who))
        result["samples"] = {"rounds": len(timed.rounds), "pairs": timed.pairs, "setup_reps": SETUP_REPS}
    result["attempted"] = sum(p.attempted for p in phases)
    result["failed"] = sum(p.failed for p in phases)
    result["problems"] = [msg for p in phases for msg in p.problems][:MAX_PROBLEMS]
    shutil.rmtree(work, ignore_errors=True)
    return result
