"""Command line front end.

A single YAML document describes a run: the command, the weight, the
coefficient source, the discretization and the output prefix.  ``run``
executes it and writes two kinds of artifacts next to the prefix:

    <out>.jsonl     line-delimited records, one JSON object per line,
                    keys sorted, no timestamps
    <out>_*.csv     column data for plotting (sweep margins, refinement
                    ratios, weight profiles)

Every record echoes the resolved configuration, defaults included, so a
report is interpretable without the config file that produced it.  The
report body is a pure function of the config and the seed: rerunning the
same document produces byte-identical files.

The config schema is the field list of ``RunConfig`` plus the preset table
``_BLOCKS``; ``config_from_mapping`` checks a document against it and
nothing else does.  Unknown keys at any level, non-finite numbers,
non-integer counts and sizes above the ``MAX_*`` caps are rejected.

Exit status: 0 for a clean run, 2 when a verdict or invariant came out
negative, 3 for any exception or a config that fails validation.  Then an
error record goes to stderr (config) or the report, and a report named by
the document ends in error and summary records.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np
import yaml

from .coefficients import (
    CoefficientField,
    checkerboard_field,
    constant_field,
    ess_bounds,
    load_field,
    radial_field,
    ramp_field,
)
from .criteria import (
    NOT_DISSIPATIVE,
    STRICT_DISSIPATIVE,
    lame2d_verdict,
    lameNd_sufficient,
)
from .fem import (
    FIBER_ASPECT,
    FemProblem,
    assemble_and_solve,
    fiber_problem,
    manufactured_problem,
    regularity_ratio,
    scaled_solution,
)
from .forms import oscillatory_counterexample, standard_ensemble, strict_margin
from .phi import (
    POWER,
    PhiSpec,
    exp_square_phi,
    power_phi,
    truncated_power,
    validate_phi,
)

__all__ = [
    "RunConfig",
    "load_config",
    "run",
    "main",
    "EXIT_OK",
    "EXIT_NEGATIVE",
    "EXIT_ERROR",
]

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_ERROR = 3

COMMANDS = ("check", "verify-forms", "solve", "regularity", "report")

# Size caps, so that no document can start a run that never ends.
MAX_SWEEP_COUNT = 1000      # exponents in a p_sweep
MAX_OCTAVES = 14            # frequency doublings of the counterexample sweep
MAX_CELLS = 512 ** 2        # cells of the finest grid (regularity: refined)
MAX_SHAPE = 1025            # coefficient grid nodes per axis


# -- config schema -------------------------------------------------------
# A parser takes a dotted key and a raw YAML value and returns the resolved
# value or raises ValueError.  Defaults go through the same parsers.

def _number(key: str, value: Any, lo: float = -math.inf,
            hi: float = math.inf, above: bool = False, integer: bool = False,
            finite: bool = True) -> float | int:
    """A number in [lo, hi] ((lo, hi] when above); finite unless told not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = math.inf if value > 0 else -math.inf
    if finite and not math.isfinite(real):
        raise ValueError(f"{key} must be finite, got {value!r}")
    if integer and real != int(real):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if real < lo or above and real == lo or real > hi:
        upper = f" and <= {hi:g}" if hi < math.inf else ""
        raise ValueError(f"{key} must be {'>' if above else '>='} {lo:g}"
                         f"{upper}, got {value!r}")
    return int(value) if integer else real


def _numbers(key: str, value: Any, sizes: tuple[int, ...] | None = None,
             **bounds) -> tuple:
    """A list of numbers checked like _number, of a length in sizes or any."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    if not value or sizes and len(value) not in sizes:
        want = " or ".join(map(str, sizes or (">= 1",)))
        raise ValueError(f"{key} needs {want} entries, got {value!r}")
    return tuple(_number(f"{key} entries", v, **bounds) for v in value)


def _optional(parse: Callable) -> Callable:
    return lambda key, value: None if value is None else parse(key, value)


def _choice(options: tuple[str, ...], what: str) -> Callable:
    def parse(key: str, value: Any) -> str:
        if not isinstance(value, str) or value not in options:
            raise ValueError(f"unknown {what} {value!r}; expected one of "
                             + ", ".join(options))
        return value
    return parse


def _instance(kind: type, what: str) -> Callable:
    def parse(key: str, value: Any) -> Any:
        if not isinstance(value, kind) or value == "":
            raise ValueError(f"{key} must be {what}, got {value!r}")
        return value
    return parse


def _file(key: str, value: Any) -> str:
    path = Path(_instance(str, "a file path")(key, value))
    if not path.is_file():
        raise ValueError(f"{key} not found: {path}")
    return str(path)


def _p_sweep(key: str, value: Any) -> tuple[float, float, int]:
    if isinstance(value, Mapping):
        _no_unknown_keys(key, value, ("lo", "hi", "count"))
        value = [value.get("lo", 2.0), value.get("hi", 16.0),
                 value.get("count", 8)]
    lo, hi, _ = _numbers(key, value, (3,), lo=2.0)
    if not lo < hi:
        raise ValueError(f"{key} needs lo < hi, got {value!r}")
    return lo, hi, _number(f"{key}.count", value[2], 2, MAX_SWEEP_COUNT, integer=True)


def _no_unknown_keys(where: str, doc: Mapping, known) -> None:
    unknown = sorted(map(str, set(doc) - set(known)))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")


_FINITE = (_number, 1.0)
_WEIGHT = partial(_number, finite=False)
_GRID = {"lam0": _FINITE, "mu0": _FINITE,
         "shape": (partial(_numbers, sizes=(2,), lo=2, hi=MAX_SHAPE,
                           integer=True), (33, 33)),
         "domain": (partial(_numbers, sizes=(4,)), (0.0, 1.0, 0.0, 1.0))}
_LOAD = (None, {"amp": _FINITE})

# block: (preset key, default preset,
#         {preset: (constructor, {parameter: (parser, default)})})
# A block with a file and no preset key is read as the file preset.  The
# weight constructors check the weight parameters, which may be non-finite.
_BLOCKS: dict[str, tuple[str, str, dict[str, tuple[Any, dict]]]] = {
    "phi": ("family", "power", {
        "power": (power_phi, {"p": (_WEIGHT, 4.0)}),
        "exp_square": (exp_square_phi, {}),
        "truncated_power": (truncated_power,
                            {"p": (_WEIGHT, 4.0), "k": (_WEIGHT, 2.0)}),
    }),
    "coefficients": ("kind", "constant", {
        "constant": (constant_field, {"lam": _FINITE, "mu": _FINITE}),
        "ramp": (ramp_field, {**_GRID, "slope": (_number, 0.1)}),
        "checkerboard": (checkerboard_field,
                         {**_GRID, "contrast": (_number, 0.1)}),
        "radial": (radial_field, {**_GRID, "amp": (_number, 0.1)}),
        "file": (lambda file: load_field(file), {"file": (_file, None)}),
    }),
    "load": ("preset", "manufactured", {
        "manufactured": _LOAD, "smooth": _LOAD, "fiber": _LOAD,
        "zero": _LOAD, "file": (None, {"file": (_file, None)}),
    }),
}


def _block(key: str, value: Any) -> dict[str, Any]:
    """Resolve a phi, coefficients or load block against its preset table."""
    selector, default, presets = _BLOCKS[key]
    if not isinstance(value, Mapping):
        raise ValueError(f"{key} block must be a mapping, got {value!r}")
    fallback = "file" if "file" in value and "file" in presets else default
    name = _choice(tuple(presets), f"{key} {selector}")(
        f"{key}.{selector}", value.get(selector, fallback))
    params = presets[name][1]
    _no_unknown_keys(f"{key} block", value, (selector, *params))
    resolved = {selector: name}
    for param, (parse, param_default) in params.items():
        resolved[param] = parse(f"{key}.{param}",
                                value.get(param, param_default))
    return resolved


def _build(key: str, value: Any):
    resolved = _block(key, value)
    constructor = _BLOCKS[key][2][resolved.pop(_BLOCKS[key][0])][0]
    return constructor(**resolved)


def _key(parse: Callable, default: Any = None):
    return field(metadata={"parse": parse, "default": default})


@dataclass(frozen=True)
class RunConfig:
    """One resolved run, made by config_from_mapping.  Each field names its
    parser and its default; blocks carry their defaults explicitly so that
    the config echoed into the report is self contained."""

    command: str = _key(_choice(COMMANDS, "command"))
    phi: Mapping[str, Any] = _key(_block, {})
    coefficients: Mapping[str, Any] = _key(_block, {})
    load: Mapping[str, Any] = _key(_block, {})
    grid: tuple[int, ...] = _key(
        partial(_numbers, sizes=(2, 3), lo=8, integer=True), (16, 16))
    domain: tuple[float, ...] | None = _key(_optional(partial(_numbers, sizes=(4, 6))))
    p: float = _key(partial(_number, lo=2.0), 2.0)
    p_sweep: tuple[float, float, int] | None = _key(_optional(_p_sweep))
    c0: float = _key(partial(_number, lo=0.0, above=True), 1.0)
    kappa_hint: float | None = _key(_optional(partial(_number, lo=0.0, above=True)))
    seed: int = _key(partial(_number, lo=0, integer=True), 2026)
    octaves: int = _key(partial(_number, lo=0, hi=MAX_OCTAVES, integer=True), 10)
    # MAX_CELLS bounds a regularity study; 16 keeps its check a small number
    refinements: int = _key(partial(_number, lo=1, hi=16, integer=True), 3)
    scale_factors: tuple[float, ...] = _key(
        partial(_numbers, lo=0.0, above=True), (0.5, 1.0, 2.0, 4.0))
    dump_solution: bool = _key(_instance(bool, "true or false"), False)
    out: str = _key(_instance(str, "a nonempty string"), "report")

    @property
    def constant_pair(self) -> tuple[float, float] | None:
        """(lam, mu) of constant coefficients, None for any other source."""
        if self.coefficients["kind"] != "constant":
            return None
        return self.coefficients["lam"], self.coefficients["mu"]


def config_from_mapping(doc: Any) -> RunConfig:
    """Validate a parsed config tree and fill in the defaults.  This is the
    only place a config is checked; what it rejects raises ValueError."""
    if not isinstance(doc, Mapping):
        raise ValueError("config document must be a key/value mapping")
    schema = dataclasses.fields(RunConfig)
    _no_unknown_keys("config", doc, [f.name for f in schema])
    if "command" not in doc:
        raise ValueError("config needs a 'command' key")
    cfg = RunConfig(**{f.name: f.metadata["parse"](
        f.name, doc.get(f.name, f.metadata["default"])) for f in schema})
    if cfg.domain is not None and len(cfg.domain) != 2 * len(cfg.grid):
        raise ValueError(f"domain must give lo, hi for each of the "
                         f"{len(cfg.grid)} grid axes, got {list(cfg.domain)}")
    levels = cfg.refinements - 1 if cfg.command == "regularity" else 0
    if math.prod(cfg.grid) << len(cfg.grid) * levels > MAX_CELLS:
        raise ValueError(f"the finest grid, {list(cfg.grid)} refined "
                         f"{levels} times, exceeds {MAX_CELLS} cells")
    return cfg


def _read_document(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh) or {}


def load_config(path: str | Path) -> RunConfig:
    return config_from_mapping(_read_document(path))


def phi_from_mapping(block: Mapping[str, Any]) -> PhiSpec:
    return _build("phi", block)


def coefficients_from_mapping(block: Mapping[str, Any]) -> CoefficientField:
    return _build("coefficients", block)


# -- report writing ------------------------------------------------------

def _jsonable(value: Any) -> Any:
    """Map run artifacts onto deterministic JSON values."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


class ReportWriter:
    """Line-delimited JSON records plus named CSV side files.

    Every record names the command of the run (None when the document
    named none).  Keys are sorted and nothing time dependent is written,
    so two runs of the same config produce identical bytes.
    """

    def __init__(self, prefix: str | Path, command: str | None):
        self.command = command
        self.prefix = Path(prefix)
        self.prefix.parent.mkdir(parents=True, exist_ok=True)
        self.report_path = self.prefix.with_suffix(".jsonl")
        self._fh = open(self.report_path, "w", encoding="utf-8", newline="\n")
        self.csv_paths: list[Path] = []

    def record(self, kind: str, payload: Mapping[str, Any]) -> None:
        body = {"record": kind, "command": self.command, **payload}
        line = json.dumps(_jsonable(body), sort_keys=True)
        self._fh.write(line + "\n")

    def csv(self, tag: str, header: list[str], rows: list[list[Any]]) -> Path:
        path = self.prefix.parent / f"{self.prefix.name}_{tag}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([self._cell(v) for v in row])
        self.csv_paths.append(path)
        return path

    @staticmethod
    def _cell(value: Any) -> str:
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    def close(self) -> None:
        self._fh.close()


_PLANAR_BASIS = ("necessity: limit ratio of the weight against "
                 "1 - ess sup ((lam+mu)/(lam+3mu))^2; sufficiency: "
                 "kappa-shifted quadratic form plus BMO smallness of "
                 "mu^2/(lam+3mu)")
_ND_BASIS = ("constant-coefficient sufficient threshold mu/(lam+2mu) "
             "(lam+mu > 0) or (lam+2mu)/mu (lam+mu <= 0)")


# -- commands ------------------------------------------------------------

def _coeff_summary(field_: CoefficientField) -> dict[str, Any]:
    eb = ess_bounds(field_)
    return {
        "shape": list(field_.lam.shape),
        "mu_min": eb.mu_min,
        "lam_plus_2mu_min": eb.lam_plus_2mu_min,
        "sup_ratio_sq": eb.sup_ratio_sq,
    }


def _verdict(cfg: RunConfig, spec: PhiSpec, coeffs: CoefficientField):
    """The planar verdict under the document's c0 and kappa_hint."""
    return lame2d_verdict(spec, coeffs, cfg.c0, cfg.kappa_hint)


def _sweep(cfg: RunConfig, coeffs: CoefficientField):
    """(p, verdict) for each power exponent of the document's p_sweep."""
    lo, hi, count = cfg.p_sweep
    for p in np.linspace(lo, hi, count):
        yield float(p), _verdict(cfg, power_phi(float(p)), coeffs)


def _record_planar_verdict(writer: ReportWriter, verdict, coeffs, **weight):
    """The verdict record of a planar check: the verdict, the weight it
    was taken for (p or phi), the coefficient summary and the basis."""
    writer.record("verdict", {**dataclasses.asdict(verdict), **weight,
                              "coefficients": _coeff_summary(coeffs),
                              "basis": _PLANAR_BASIS})


def _cmd_check(cfg: RunConfig, writer: ReportWriter) -> int:
    coeffs = coefficients_from_mapping(cfg.coefficients)
    worst = EXIT_OK

    if cfg.p_sweep is not None:
        rows: list[list[Any]] = []
        for p, verdict in _sweep(cfg, coeffs):
            rows.append([p, verdict.lambda_inf_sq, verdict.rhs, verdict.margin,
                         "" if verdict.kappa is None else verdict.kappa,
                         verdict.status])
            _record_planar_verdict(writer, verdict, coeffs, p=p)
            if verdict.status == NOT_DISSIPATIVE:
                worst = EXIT_NEGATIVE
        path = writer.csv("p_sweep",
                          ["p", "lambda_inf_sq", "rhs", "margin", "kappa",
                           "status"], rows)
        writer.record("artifact", {"kind": "p_sweep_csv", "path": path.name})
        return worst

    spec = phi_from_mapping(cfg.phi)
    verdict = _verdict(cfg, spec, coeffs)
    _record_planar_verdict(writer, verdict, coeffs, phi=dict(cfg.phi))

    pair = cfg.constant_pair
    if pair is not None:
        nd = lameNd_sufficient(spec, pair[0], pair[1])
        writer.record("sufficient_any_dim", {
            **dataclasses.asdict(nd),
            "phi": dict(cfg.phi), "lam": pair[0], "mu": pair[1],
            "basis": _ND_BASIS})

    return EXIT_NEGATIVE if verdict.status == NOT_DISSIPATIVE else EXIT_OK


def _cmd_verify_forms(cfg: RunConfig, writer: ReportWriter) -> int:
    coeffs = coefficients_from_mapping(cfg.coefficients)
    spec = phi_from_mapping(cfg.phi)
    verdict = _verdict(cfg, spec, coeffs)
    _record_planar_verdict(writer, verdict, coeffs, phi=dict(cfg.phi))

    kappa = verdict.kappa if verdict.status == STRICT_DISSIPATIVE else 0.0
    ensemble = standard_ensemble(cfg.seed)
    # constant coefficients enter as the (lam, mu) pair, not grid samples
    pair = cfg.constant_pair
    margin = strict_margin(coeffs if pair is None else pair, spec, ensemble,
                           kappa=kappa)
    rows = [[r.label, r.family, r.form_value, r.gradient_sq, r.residual]
            for r in margin.rows]
    path = writer.csv("residuals",
                      ["label", "family", "form_value", "gradient_sq",
                       "residual"], rows)
    scale = max(max(abs(r.form_value), r.gradient_sq) for r in margin.rows)
    residual_ok = margin.min_residual >= -1e-9 * max(1.0, scale)
    writer.record("form_evidence", {
        "seed": cfg.seed,
        "fields": len(margin.rows),
        "kappa": kappa,
        "min_residual": margin.min_residual,
        "worst_label": margin.worst_label,
        "residuals_csv": path.name,
        "consistent_with_verdict": bool(
            residual_ok or verdict.status == NOT_DISSIPATIVE),
        "basis": "quadrature of the dissipativity form minus kappa times "
                 "the gradient energy over a seeded field ensemble",
    })

    code = EXIT_OK
    if verdict.status == NOT_DISSIPATIVE:
        code = EXIT_NEGATIVE
        if pair is not None and spec.family == POWER:
            report = oscillatory_counterexample(pair[0], pair[1], spec,
                                                octaves=cfg.octaves)
            crows = [[rho, form, grad] for rho, form, grad in report.rows]
            cpath = writer.csv("counterexample",
                               ["rho", "form_value", "gradient_sq"], crows)
            record = {
                "algebraic_min": report.algebraic_min,
                "flip_rho": report.flip_rho,
                "xi": list(report.xi),
                "omega": list(report.omega),
                "eta": list(report.eta),
                "sweep_csv": cpath.name,
                "witness_found": report.flip_rho is not None,
                "basis": "oscillatory direction-field probe at the "
                         "minimizing algebraic directions, frequency doubled "
                         "per step",
            }
            if report.unresolved_rho is not None:
                record["note"] = (
                    f"the sweep ends at rho {report.rows[-1][0]!r}: the "
                    f"quadrature node cap stops rho {report.unresolved_rho!r}")
            writer.record("counterexample", record)
        else:
            writer.record("counterexample", {
                "witness_found": False,
                "basis": "skipped: the failure is asymptotic in the field "
                         "amplitude and bounded probe fields cannot reach it "
                         "for a non-power weight, or the coefficients are "
                         "not constant",
            })
    elif not residual_ok:
        code = EXIT_NEGATIVE
    return code


def _smooth_rhs(cells: tuple[int, ...], domain: tuple[float, ...],
                amp: float) -> np.ndarray:
    """Product-sine load with distinct, sign-alternating components."""
    dim = len(cells)
    axes = [np.linspace(domain[2 * k], domain[2 * k + 1], cells[k] + 1)
            for k in range(dim)]
    span = [domain[2 * k + 1] - domain[2 * k] for k in range(dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    s = np.ones_like(grids[0])
    for k, g in enumerate(grids):
        s = s * np.sin(np.pi * (g - domain[2 * k]) / span[k])
    rhs = np.zeros(s.shape + (dim, dim))
    for i in range(dim):
        for j in range(dim):
            sign = -1.0 if (i + j) % 2 else 1.0
            rhs[..., i, j] = sign * amp * (1.0 + i + dim * j) / dim ** 2 * s
    return rhs


def _load_rhs(cfg: RunConfig, cells: tuple[int, ...],
              pair: tuple[float, float] | None) -> FemProblem:
    """Build the FemProblem described by the load block on the given grid."""
    preset = cfg.load["preset"]
    dim = len(cells)
    domain = cfg.domain if cfg.domain is not None else (0.0, 1.0) * dim
    if preset in ("fiber", "manufactured") and pair is None:
        raise ValueError(
            f"the {preset} load is a constant-coefficient reference problem")
    if preset in ("fiber", "manufactured") and cfg.domain is not None:
        raise ValueError(f"the {preset} load fixes its own domain")
    if preset == "fiber":
        if dim != 2 or cells[1] != FIBER_ASPECT * cells[0]:
            raise ValueError(
                f"the fiber load solves a planar grid [g, {FIBER_ASPECT} g] "
                f"on (0, 1) x (0, {FIBER_ASPECT}), got {list(cells)}")
        prob = fiber_problem(cells_x=cells[0], lam=pair[0], mu=pair[1])
        return dataclasses.replace(prob, rhs=cfg.load["amp"] * prob.rhs,
                                   p=cfg.p)
    if preset == "manufactured":
        if dim != 2 or cells[0] != cells[1]:
            raise ValueError("the manufactured load needs a square planar "
                             "grid; use the smooth preset otherwise")
        return manufactured_problem(cells[0], lam=pair[0], mu=pair[1],
                                    amp=cfg.load["amp"], p=cfg.p)
    coeffs = coefficients_from_mapping(cfg.coefficients) if pair is None \
        else pair
    if preset == "smooth":
        rhs = _smooth_rhs(cells, domain, cfg.load["amp"])
    elif preset == "zero":
        rhs = np.zeros(tuple(c + 1 for c in cells) + (dim, dim))
    else:
        rhs = np.load(cfg.load["file"])
    return FemProblem(domain=domain, cells=cells, coeffs=coeffs, rhs=rhs,
                      p=cfg.p)


def _solve_payload(cfg: RunConfig, sol) -> dict[str, Any]:
    """The `solution` record.  Its u_max is the largest nodal component
    |u_i|; the weighted-energy level max(2, 2 u_max + 1) is keyed by the
    largest nodal norm |u| instead (fem.assemble_and_solve)."""
    u_max = float(np.max(np.abs(sol.u))) if sol.u.size else 0.0
    return {
        "cells": list(sol.problem.cells),
        "p": sol.problem.p,
        "energy": sol.energy,
        "rhs_work": sol.rhs_work,
        "iterations": sol.iterations,
        "u_max": u_max,
        "zero_solution": bool(u_max == 0.0),
        "weighted_energies": {str(k): v
                              for k, v in sol.weighted_energies.items()},
        "load_norm": sol.sobolev_norm_F,
        "load": dict(cfg.load),
        "basis": "conforming multilinear elements, conjugate gradients "
                 "preconditioned by a geometric multigrid V-cycle, Dirichlet "
                 "walls",
    }


def _cmd_solve(cfg: RunConfig, writer: ReportWriter) -> int:
    pair = cfg.constant_pair
    if pair is None and len(cfg.grid) != 2:
        raise ValueError("variable coefficients need a planar grid")
    prob = _load_rhs(cfg, cfg.grid, pair)
    sol = assemble_and_solve(prob)
    writer.record("solution", _solve_payload(cfg, sol))
    if cfg.dump_solution:
        flat = sol.u.reshape(-1, sol.problem.dim)
        rows = [[i] + [flat[i, d] for d in range(sol.problem.dim)]
                for i in range(flat.shape[0])]
        header = ["node"] + [f"u{d + 1}" for d in range(sol.problem.dim)]
        path = writer.csv("solution", header, rows)
        writer.record("artifact", {"kind": "solution_csv", "path": path.name})
    return EXIT_OK


def _cmd_regularity(cfg: RunConfig, writer: ReportWriter) -> int:
    pair = cfg.constant_pair
    if pair is None:
        raise ValueError("the regularity study needs constant coefficients")

    # Each level starts from the one before it, and the scale rows read
    # c u off the first level: one solve per grid.
    ratios: list[float] = []
    rows: list[list[Any]] = []
    sol = None
    for level in range(cfg.refinements):
        cells = tuple(c * 2 ** level for c in cfg.grid)
        sol = assemble_and_solve(_load_rhs(cfg, cells, pair), sol)
        if level == 0:
            first = sol
        ratio = regularity_ratio(sol)
        ratios.append(ratio)
        lhs = sol.weighted_energies[float("inf")]
        rows.append([level, "x".join(map(str, sol.problem.cells)), lhs,
                     sol.sobolev_norm_F, ratio])
    rpath = writer.csv("refinement",
                       ["level", "cells", "weighted_energy", "load_norm",
                        "ratio"], rows)
    positive = [r for r in ratios if r > 0.0]
    bounded = bool(positive) and max(positive) <= 2.0 * min(positive)
    writer.record("refinement_study", {
        "p": cfg.p,
        "ratios": ratios,
        "bounded_within_factor_2": bounded,
        "csv": rpath.name,
        "basis": "weighted gradient energy against the load norm power law "
                 "under mesh refinement",
    })

    scale_ratios = [regularity_ratio(scaled_solution(first, c))
                    for c in cfg.scale_factors]
    # Drift is measured against the first row.  A zero, subnormal or
    # non-finite ratio leaves it undefined, so such a study is never
    # reported invariant.
    degenerate = [(c, r) for c, r in zip(cfg.scale_factors, scale_ratios)
                  if not (math.isfinite(r) and abs(r) >= sys.float_info.min)]
    base = scale_ratios[0]
    drifts = [math.nan if degenerate else abs(r - base) / abs(base)
              for r in scale_ratios]
    max_rel = math.nan if degenerate else max(drifts)
    invariant = not degenerate and max_rel <= 1e-6
    spath = writer.csv("scaling", ["scale", "ratio", "rel_drift"],
                       list(zip(cfg.scale_factors, scale_ratios, drifts)))
    scaling = {
        "p": cfg.p,
        "scale_factors": list(cfg.scale_factors),
        "max_rel_drift": max_rel,
        "invariant": invariant,
        "csv": spath.name,
        "basis": "both sides of the estimate scale like the p-th power of "
                 "the load amplitude, so their ratio must not move",
    }
    if degenerate:
        c, r = degenerate[0]
        scaling["note"] = (f"ratio {r!r} at scale factor {c!r} is zero, "
                           "subnormal or non-finite; drift is undefined")
    writer.record("scaling_study", scaling)
    return EXIT_OK if (bounded and invariant) else EXIT_NEGATIVE


def _cmd_report(cfg: RunConfig, writer: ReportWriter) -> int:
    spec = phi_from_mapping(cfg.phi)
    validation = validate_phi(spec)
    writer.record("weight_validation", {
        "phi": dict(cfg.phi),
        "ok": validation.ok,
        "checks": {c.name: c.status for c in validation.checks},
        "basis": "positivity, differentiability and monotonicity of "
                 "t -> t sqrt(phi(t)) sampled on a log grid",
    })

    profile = spec.profile
    limit = profile.limit
    writer.record("limit_summary", {
        "phi": dict(cfg.phi),
        "lambda_inf": limit.lambda_inf,
        "lambda_inf_sq": limit.lambda_inf_sq,
        "sup_lambda_sq": limit.sup_lambda_sq,
        "sup_bounded": limit.sup_bounded,
        "converged": limit.converged,
        "basis": "closed form of the weight family",
    })

    t_nodes = np.logspace(-3.0, 6.0, 200)
    lam_vals = profile.lambda_of(t_nodes)
    rows = [[float(t), float(l), float(l * l)]
            for t, l in zip(t_nodes, lam_vals)]
    ppath = writer.csv("lambda_profile", ["t", "lambda", "lambda_sq"], rows)
    writer.record("artifact", {"kind": "lambda_profile_csv",
                               "path": ppath.name})

    if cfg.p_sweep is not None:
        coeffs = coefficients_from_mapping(cfg.coefficients)
        srows = [[p, v.lambda_inf_sq, v.rhs, v.margin, v.status]
                 for p, v in _sweep(cfg, coeffs)]
        spath = writer.csv("p_margins",
                           ["p", "lambda_inf_sq", "rhs", "margin", "status"],
                           srows)
        writer.record("artifact", {"kind": "p_margins_csv",
                                   "path": spath.name})

    return EXIT_OK if validation.ok else EXIT_NEGATIVE


_DISPATCH: dict[str, Callable[[RunConfig, ReportWriter], int]] = {
    "check": _cmd_check,
    "verify-forms": _cmd_verify_forms,
    "solve": _cmd_solve,
    "regularity": _cmd_regularity,
    "report": _cmd_report,
}


def _end_report(writer: ReportWriter, code: int,
                exc: Exception | None = None) -> int:
    """Close a report: an error record when exc is given, then the summary."""
    if exc is not None:
        writer.record("error", {"error": type(exc).__name__,
                                "message": str(exc)})
    writer.record("summary", {"exit_status": code,
                              "csv_files": [p.name for p in writer.csv_paths]})
    return code


def run(cfg: RunConfig) -> int:
    """Execute one run and write its artifacts.  Returns the exit status."""
    with contextlib.closing(ReportWriter(cfg.out, cfg.command)) as writer:
        try:
            writer.record("config", dataclasses.asdict(cfg))
            return _end_report(writer, _DISPATCH[cfg.command](cfg, writer))
        except Exception as exc:  # any failure of a run is reported, exit 3
            return _end_report(writer, EXIT_ERROR, exc)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="funcdiss",
        description="Dissipativity checks, form verification and weighted "
                    "energy studies for planar elliptic systems.")
    parser.add_argument("config", help="YAML run description")
    parser.add_argument("--out", help="override the output prefix")
    args = parser.parse_args(argv)
    doc: Any = {} if args.out is None else {"out": args.out}
    try:
        doc = _read_document(args.config)
        if args.out is not None and isinstance(doc, Mapping):
            doc = {**doc, "out": args.out}
        return run(config_from_mapping(doc))
    except Exception as exc:  # a rejected config or an unwritable report
        sys.stderr.write(json.dumps(
            {"record": "error", "error": type(exc).__name__,
             "message": str(exc)}, sort_keys=True) + "\n")
        # A report the document names still ends in error and summary
        # records, so no earlier report is left standing under its name.
        out = doc.get("out") if isinstance(doc, Mapping) else None
        if isinstance(out, str) and out:
            command = doc.get("command") if doc.get("command") in COMMANDS else None
            with contextlib.suppress(OSError, ValueError), \
                    contextlib.closing(ReportWriter(out, command)) as writer:
                _end_report(writer, EXIT_ERROR, exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
