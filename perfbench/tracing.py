"""Spans around the public functions of each bccanon module.

The traced run wraps every function in ``TARGETS`` at each place a caller
looks it up: modules bind imported names (``from .csd import cs_decompose``),
so the wrapper replaces every attribute of every ``bccanon`` module that is
the original function object, not only the attribute of the defining module.
``numpy.linalg.svd`` is wrapped as the ``kernel`` layer.

A span is ``[name, start, end, parent]`` with its index in ``Tracer.spans``
as its id and ``parent == -1`` for a root.  Spans stay in memory until the
run writes them out.  A layer's self time is the sum over its spans of the
span's duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, layer).  A span is named after its module, less the
# "bccanon." prefix, and attribute: "forms.cs_decompose", "numpy.linalg.svd".
TARGETS = (
    ("bccanon.cli", "main", "cli.self"),
    ("bccanon.matio", "parse_matrix_file", "matio.parse"),
    ("bccanon.matio", "matrix_to_payload", "matio.payload"),
    ("bccanon.matio", "dumps_deterministic", "matio.emit"),
    ("bccanon.matio", "format_report", "matio.emit"),
    ("bccanon.matio", "write_matrix_file", "matio.write"),
    ("bccanon.forms", "check_self_adjoint", "forms.check"),
    ("bccanon.forms", "recover_W", "forms.recover"),
    ("bccanon.forms", "_recover_coupling", "forms.recover"),
    ("bccanon.forms", "canonical_decompose", "forms.decompose_self"),
    ("bccanon.forms", "even_canonical_decompose", "forms.decompose_self"),
    ("bccanon.forms", "construct_from_W", "forms.construct"),
    ("bccanon.forms", "construct_even_from_W", "forms.construct"),
    ("bccanon.forms", "generate_random_pair", "forms.generate"),
    ("bccanon.csd", "cs_decompose", "csd.decompose"),
    ("bccanon.linalg", "numerical_rank", "linalg.rank"),
    ("bccanon.linalg", "unitarity_residual", "linalg.unitarity"),
    ("bccanon.linalg", "row_space_angles", "linalg.angles"),
    ("bccanon.structure", "symplectic_matrix", "structure.build"),
    ("bccanon.structure", "eigenbasis", "structure.build"),
    ("bccanon.structure", "q4_matrix", "structure.build"),
    ("bccanon.structure", "even_order_Z", "structure.build"),
    ("bccanon.structure", "even_order_eigenbasis", "structure.build"),
    ("numpy.linalg", "svd", "kernel.svd"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('bccanon.')}.{attr}"


LAYER_OF = {span_name(module, attr): layer for module, attr, layer in TARGETS}


class Tracer:
    """Records nested spans while ``recording`` is true; one thread only."""

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    def install(self) -> None:
        """Wrap every target at every lookup site among the loaded modules.

        Only modules already imported are patched, so installing never
        imports anything; a target the code no longer has is listed in
        ``missing`` and its layer reads zero.
        """
        bccanon_modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "bccanon" or name.startswith("bccanon."))
        ]
        for module_name, attr, _ in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(span_name(module_name, attr))
                continue
            wrapper = self.wrap(original, span_name(module_name, attr))
            for site in [module, *bccanon_modules]:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)
                        self._patches.append((site, key, original))

    def uninstall(self) -> None:
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for sid, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(sid)
    out = []
    for sid, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        lo = hi = start
        for child in sorted(children.get(sid, ()), key=lambda c: spans[c][1]):
            c_start, c_end = max(spans[child][1], start), min(spans[child][2], end)
            if c_start > hi:
                covered += hi - lo
                lo = c_start
            hi = max(hi, c_end)
        covered += hi - lo
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict[str, list]:
    """Per layer: [self seconds, call count]; every layer is present."""
    totals = {layer: [0.0, 0] for layer in LAYERS}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        layer = LAYER_OF.get(name)
        if layer is not None:
            totals[layer][0] += own
            totals[layer][1] += 1
    return totals


def write_spans(path: str, groups) -> None:
    """Write span lists as JSON: one list per traced process or phase."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"format": ["name", "start", "end", "parent"], "groups": groups}, handle)
