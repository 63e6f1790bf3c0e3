"""Spans and work counters around the public functions of funcdiss.

``Tracer.install`` wraps every public function, and every public method of
a public class, defined in the layer modules, and puts the wrapper in each
funcdiss module namespace that binds the original, so calls from one module
into another are caught.  A span records its name, layer, start, end,
parent and operation; spans stay in memory until ``write``.  The probe
fields returned by the public field factories get a counting ``value``
callable, which measures quadrature nodes without touching the program.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "criteria", "phi", "coefficients", "forms", "fem", "orlicz")
PACKAGES = ("numpy", "scipy", "yaml", "funcdiss")  # timed at import
MEMORY_LAYERS = ("forms", "fem")
FIELD_FACTORIES = ("bump_field", "rotation_field", "gradient_field",
                   "oscillatory_field")

COUNTS = ("cli.runs", "criteria.verdicts", "phi.lambda_points",
          "coefficients.sampled_points", "forms.fields", "forms.quad_nodes",
          "fem.solves", "fem.unknowns", "fem.cg_iterations", "orlicz.samples")
UNITS = {
    "trace.overhead_s": "s",
    **{f"setup.import_{pkg}_s": "s" for pkg in PACKAGES},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **dict.fromkeys(COUNTS, "count"),
    **{f"{layer}.peak_alloc_mb": "MB" for layer in MEMORY_LAYERS},
    **dict.fromkeys(("coefficients.bmo_useful_share",
                     "forms.octave_node_growth", "fem.cg_growth",
                     "fem.operator_useful_share"), "ratio"),
}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _grid_key(values) -> str:
    return hashlib.blake2b(memoryview(values.copy(order="C")).cast("B"),
                           digest_size=16).hexdigest()


def _coeff_key(coeffs):
    if isinstance(coeffs, tuple):
        return coeffs
    return (coeffs.domain, _grid_key(coeffs.lam_total),
            _grid_key(coeffs.mu_total))


class Tracer:
    def __init__(self):
        self.active = False
        self.memory = False
        self.spans: list[list] = []  # [name, layer, start, end, parent, op]
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._hooks = {
            "cli.run": self._on_run,
            "criteria.lame2d_verdict": self._on_verdict,
            "criteria.lameNd_sufficient": self._on_verdict,
            "phi.LambdaProfile.lambda_of": self._on_lambda,
            "phi.LambdaProfile.zeta": self._on_lambda,
            "phi.LambdaProfile.theta": self._on_lambda,
            "coefficients.CoefficientField.lam_at": self._on_sample,
            "coefficients.CoefficientField.mu_at": self._on_sample,
            "coefficients.bmo_seminorm": self._on_bmo,
            "forms.strict_margin": self._on_strict_margin,
            "forms.oscillatory_counterexample": self._on_counterexample,
            "fem.assemble_and_solve": self._on_solve,
            "orlicz.luxemburg_norm": self._on_orlicz,
            "orlicz.orlicz_norm": self._on_orlicz,
        }
        for name in FIELD_FACTORIES:
            self._hooks[f"forms.{name}"] = self._on_field
        self.op: tuple[int, str, str] | None = None  # (round, name, command)
        self.rounds: dict[int, dict] = {}
        self._round: dict = {}
        self._sweep: list[int] | None = None  # nodes per counterexample field
        self._mem_base: int | None = None

    # -- operations and rounds --------------------------------------------

    def begin_op(self, round_: int, name: str, command: str) -> None:
        self.op = (round_, name, command)
        stats = self.rounds.setdefault(round_, {
            "counts": defaultdict(int), "bmo_calls": 0, "bmo_grids": set(),
            "operators": set(), "peak_mb": defaultdict(float),
            "growth": [], "regularity_iters": {}})
        self._round = stats
        self._sweep = None

    def end_op(self) -> None:
        self.op = None

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        mods = {name: sys.modules[f"{package.__name__}.{name}"]
                for name in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(fn):
                            continue
                        self._set(obj, attr, self._wrap(
                            layer, f"{layer}.{name}.{attr}", fn))
        targets = [package] + [m for n, m in sys.modules.items()
                               if n.startswith(package.__name__ + ".")]
        for mod in targets:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])
        self.active = True

    def track_memory(self) -> None:
        """Record allocation peaks from here on.  tracemalloc slows the
        program by about half, so these rounds give no times."""
        tracemalloc.start()
        self.memory = True

    def uninstall(self) -> None:
        self.active = False
        if self.memory:
            tracemalloc.stop()
            self.memory = False
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _set(self, owner, attr, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, qualname: str, fn):
        hook = self._hooks.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer.op is None:
                return fn(*args, **kwargs)
            return tracer._call(layer, qualname, fn, hook, args, kwargs)

        return wrapper

    def _call(self, layer, qualname, fn, hook, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [qualname, layer, 0.0, 0.0, parent, self.op]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        track = (self.memory and layer in MEMORY_LAYERS
                 and self._mem_base is None)
        if track:
            tracemalloc.reset_peak()
            self._mem_base = tracemalloc.get_traced_memory()[0]
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
            if track:
                peak = tracemalloc.get_traced_memory()[1] - self._mem_base
                self._mem_base = None
                mb = self._round["peak_mb"]
                mb[layer] = max(mb[layer], peak / 2 ** 20)
        if hook is not None:
            replaced = hook(args, result)
            if replaced is not None:
                result = replaced
        return result

    # -- counters -----------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        self._round["counts"][key] += amount

    def _on_run(self, args, result):
        self._count("cli.runs")

    def _on_verdict(self, args, result):
        self._count("criteria.verdicts")

    def _on_lambda(self, args, result):
        self._count("phi.lambda_points", _size(args[1]))

    def _on_sample(self, args, result):
        self._count("coefficients.sampled_points", _size(args[1]))

    def _on_bmo(self, args, result):
        self._round["bmo_calls"] += 1
        self._round["bmo_grids"].add(_grid_key(args[0]))

    def _on_strict_margin(self, args, result):
        self._count("forms.fields", len(result.rows))

    def _on_counterexample(self, args, result):
        self._count("forms.fields", len(result.rows))
        sweep = self._sweep or []
        if len(sweep) >= 2:
            self._round["growth"].append((len(sweep), sweep[-1] / sweep[-2]))
        self._sweep = None

    def _on_field(self, args, result):
        value = result.value
        if getattr(value, "counted", False):
            return None
        slot = None
        if any(self.spans[i][0] == "forms.oscillatory_counterexample"
               for i in self._stack):
            if self._sweep is None:
                self._sweep = []
            self._sweep.append(0)
            slot = len(self._sweep) - 1
        tracer = self

        def counted(pts):
            if tracer.active and tracer.op is not None:
                tracer._count("forms.quad_nodes", len(pts))
                if slot is not None and tracer._sweep is not None:
                    tracer._sweep[slot] += len(pts)
            return value(pts)

        counted.counted = True
        return dataclasses.replace(result, value=counted)

    def _on_solve(self, args, result):
        prob = args[0]
        self._count("fem.solves")
        self._count("fem.unknowns",
                    math.prod(c - 1 for c in prob.cells) * prob.dim)
        self._count("fem.cg_iterations", result.iterations)
        self._round["operators"].add(
            (prob.cells, _coeff_key(prob.coeffs), prob.p))
        if self.op[2] == "regularity":
            self._round["regularity_iters"].setdefault(
                prob.cells, result.iterations)

    def _on_orlicz(self, args, result):
        if not any(self.spans[i][1] == "orlicz" for i in self._stack):
            self._count("orlicz.samples", _size(args[0].values))

    # -- results ------------------------------------------------------------

    def round_metrics(self, round_: int) -> dict[str, float]:
        """Per-layer metrics of one traced round."""
        stats = self.rounds[round_]
        own = [i for i, span in enumerate(self.spans) if span[5][0] == round_]
        child = defaultdict(float)
        for i in own:
            _, _, start, end, parent, _ = self.spans[i]
            if parent is not None:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i in own:
            _, layer, start, end, _, _ = self.spans[i]
            self_s[layer] += end - start - child[i]
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({key: stats["counts"].get(key, 0) for key in COUNTS})
        calls = stats["bmo_calls"]
        out["coefficients.bmo_useful_share"] = (
            len(stats["bmo_grids"]) / calls if calls else 0.0)
        solves = stats["counts"].get("fem.solves", 0)
        out["fem.operator_useful_share"] = (
            len(stats["operators"]) / solves if solves else 0.0)
        growth = stats["growth"]
        out["forms.octave_node_growth"] = max(growth)[1] if growth else 0.0
        iters = [it for _, it in sorted(
            stats["regularity_iters"].items(),
            key=lambda kv: math.prod(kv[0]))]
        out["fem.cg_growth"] = (iters[-1] / iters[-2]
                                if len(iters) >= 2 and iters[-2] else 0.0)
        for layer in MEMORY_LAYERS:
            out[f"{layer}.peak_alloc_mb"] = stats["peak_mb"].get(layer, 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, start, end, parent, op) in enumerate(
                    self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "round": op[0],
                    "op": op[1]}) + "\n")


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_round)
            for key in per_round[0]}
