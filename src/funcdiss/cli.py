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

Exit status: 0 for a clean run, 2 when a verdict or invariant came out
negative, 3 for an internal error or a config that fails validation (in
both cases the last record names what failed).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
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
    Verdict,
)
from .errors import ToolkitError
from .fem import (
    FemProblem,
    assemble_and_solve,
    fiber_problem,
    manufactured_problem,
    regularity_ratio,
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

_PHI_DEFAULT = {"family": "power", "p": 4.0}
_COEFF_DEFAULT = {"kind": "constant", "lam": 1.0, "mu": 1.0}
_LOAD_DEFAULT = {"preset": "manufactured", "amp": 1.0}


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run description.

    Optional blocks carry their defaults explicitly so that the config
    echoed into the report is self contained.
    """

    command: str
    phi: Mapping[str, Any] = field(default_factory=lambda: dict(_PHI_DEFAULT))
    coefficients: Mapping[str, Any] = field(
        default_factory=lambda: dict(_COEFF_DEFAULT))
    load: Mapping[str, Any] = field(default_factory=lambda: dict(_LOAD_DEFAULT))
    grid: tuple[int, ...] = (16, 16)
    domain: tuple[float, ...] | None = None
    p: float = 2.0
    p_sweep: tuple[float, float, int] | None = None
    c0: float = 1.0
    kappa_hint: float | None = None
    seed: int = 2026
    octaves: int = 10
    refinements: int = 3
    scale_factors: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    dump_solution: bool = False
    out: str = "report"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(
                f"unknown command {self.command!r}; expected one of "
                + ", ".join(COMMANDS))
        if not self.c0 > 0.0:
            raise ValueError(f"c0 must be positive, got {self.c0:g}")
        if self.kappa_hint is not None and not self.kappa_hint > 0.0:
            raise ValueError("kappa_hint must be positive when given")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.p < 2.0:
            raise ValueError(f"p must be >= 2, got {self.p:g}")
        if self.p_sweep is not None:
            lo, hi, count = self.p_sweep
            if not (2.0 <= lo < hi and count >= 2):
                raise ValueError(
                    f"p_sweep needs 2 <= lo < hi and count >= 2, got {self.p_sweep}")
        if len(self.grid) not in (2, 3) or any(int(c) != c or c < 8 for c in self.grid):
            raise ValueError(
                f"grid must give 2 or 3 cell counts, each >= 8, got {self.grid}")
        if self.octaves < 0 or int(self.octaves) != self.octaves:
            raise ValueError(f"octaves must be a nonnegative integer, got {self.octaves!r}")
        if self.refinements < 1 or int(self.refinements) != self.refinements:
            raise ValueError(f"refinements must be a positive integer, got {self.refinements!r}")
        if not self.scale_factors or any(c <= 0.0 for c in self.scale_factors):
            raise ValueError("scale_factors must be positive")
        if not str(self.out):
            raise ValueError("out prefix must be nonempty")


_KNOWN_KEYS = {
    "command", "phi", "coefficients", "load", "grid", "domain", "p",
    "p_sweep", "c0", "kappa_hint", "seed", "octaves", "refinements",
    "scale_factors", "dump_solution", "out",
}


def _numbers(key: str, value: Any, cast) -> tuple:
    """A config list converted entry by entry; anything else is rejected."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    try:
        return tuple(cast(c) for c in value)
    except TypeError:
        raise ValueError(f"{key} entries must be numbers, got {value!r}") from None


def config_from_mapping(doc: Mapping[str, Any]) -> RunConfig:
    """Validate a parsed config tree and fill in the defaults."""
    if not isinstance(doc, Mapping):
        raise ValueError("config document must be a key/value mapping")
    unknown = sorted(set(doc) - _KNOWN_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if "command" not in doc:
        raise ValueError("config needs a 'command' key")

    kwargs: dict[str, Any] = {"command": str(doc["command"])}
    if "phi" in doc:
        kwargs["phi"] = _resolve_phi_mapping(doc["phi"])
    if "coefficients" in doc:
        kwargs["coefficients"] = _resolve_coeff_mapping(doc["coefficients"])
    if "load" in doc:
        kwargs["load"] = _resolve_load_mapping(doc["load"])
    if "grid" in doc:
        kwargs["grid"] = _numbers("grid", doc["grid"], int)
    if "domain" in doc and doc["domain"] is not None:
        kwargs["domain"] = _numbers("domain", doc["domain"], float)
    for key in ("p", "c0"):
        if key in doc:
            kwargs[key] = float(doc[key])
    if "p_sweep" in doc and doc["p_sweep"] is not None:
        sweep = doc["p_sweep"]
        if isinstance(sweep, Mapping):
            sweep = [sweep.get("lo", 2.0), sweep.get("hi", 16.0),
                     sweep.get("count", 8)]
        lo, hi, count = _numbers("p_sweep", sweep, float)
        kwargs["p_sweep"] = (lo, hi, int(count))
    if "kappa_hint" in doc and doc["kappa_hint"] is not None:
        kwargs["kappa_hint"] = float(doc["kappa_hint"])
    for key in ("seed", "octaves", "refinements"):
        if key in doc:
            kwargs[key] = int(doc[key])
    if "scale_factors" in doc:
        kwargs["scale_factors"] = _numbers("scale_factors",
                                           doc["scale_factors"], float)
    if "dump_solution" in doc:
        kwargs["dump_solution"] = bool(doc["dump_solution"])
    if "out" in doc:
        kwargs["out"] = str(doc["out"])
    return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    return config_from_mapping(doc or {})


# -- config block resolution --------------------------------------------

def _resolve_phi_mapping(block: Any) -> dict[str, Any]:
    if not isinstance(block, Mapping):
        raise ValueError("phi block must be a mapping with a 'family' key")
    family = str(block.get("family", "power"))
    if family == "power":
        return {"family": "power", "p": float(block.get("p", 4.0))}
    if family == "exp_square":
        return {"family": "exp_square"}
    if family == "truncated_power":
        return {"family": "truncated_power", "p": float(block.get("p", 4.0)),
                "k": float(block.get("k", 2.0))}
    raise ValueError(
        f"unknown phi family {family!r}; expected power, exp_square "
        "or truncated_power")


def phi_from_mapping(block: Mapping[str, Any]) -> PhiSpec:
    resolved = _resolve_phi_mapping(block)
    family = resolved["family"]
    if family == "power":
        return power_phi(resolved["p"])
    if family == "exp_square":
        return exp_square_phi()
    return truncated_power(resolved["p"], resolved["k"])


def _resolve_coeff_mapping(block: Any) -> dict[str, Any]:
    if not isinstance(block, Mapping):
        raise ValueError("coefficients block must be a mapping")
    if "file" in block:
        path = Path(str(block["file"]))
        if not path.is_file():
            raise ValueError(f"coefficient grid file not found: {path}")
        return {"kind": "file", "file": str(path)}
    kind = str(block.get("kind", block.get("preset", "constant")))
    shape = tuple(int(n) for n in block.get("shape", (33, 33)))
    domain = tuple(float(v) for v in block.get("domain", (0.0, 1.0, 0.0, 1.0)))
    if kind == "constant":
        return {"kind": "constant", "lam": float(block.get("lam", 1.0)),
                "mu": float(block.get("mu", 1.0))}
    if kind == "ramp":
        return {"kind": "ramp", "lam0": float(block.get("lam0", 1.0)),
                "mu0": float(block.get("mu0", 1.0)),
                "slope": float(block.get("slope", 0.1)),
                "shape": shape, "domain": domain}
    if kind == "checkerboard":
        return {"kind": "checkerboard", "lam0": float(block.get("lam0", 1.0)),
                "mu0": float(block.get("mu0", 1.0)),
                "contrast": float(block.get("contrast", 0.1)),
                "shape": shape, "domain": domain}
    if kind == "radial":
        return {"kind": "radial", "lam0": float(block.get("lam0", 1.0)),
                "mu0": float(block.get("mu0", 1.0)),
                "amp": float(block.get("amp", 0.1)),
                "shape": shape, "domain": domain}
    raise ValueError(
        f"unknown coefficient source {kind!r}; expected constant, ramp, "
        "checkerboard, radial or a file reference")


def coefficients_from_mapping(block: Mapping[str, Any]) -> CoefficientField:
    resolved = _resolve_coeff_mapping(block)
    kind = resolved["kind"]
    if kind == "file":
        return load_field(resolved["file"])
    if kind == "constant":
        return constant_field(resolved["lam"], resolved["mu"])
    if kind == "ramp":
        return ramp_field(resolved["lam0"], resolved["mu0"], resolved["slope"],
                          shape=resolved["shape"], domain=resolved["domain"])
    if kind == "checkerboard":
        return checkerboard_field(resolved["lam0"], resolved["mu0"],
                                  resolved["contrast"], shape=resolved["shape"],
                                  domain=resolved["domain"])
    return radial_field(resolved["lam0"], resolved["mu0"], resolved["amp"],
                        shape=resolved["shape"], domain=resolved["domain"])


def _constant_pair(block: Mapping[str, Any]) -> tuple[float, float] | None:
    resolved = _resolve_coeff_mapping(block)
    if resolved["kind"] == "constant":
        return resolved["lam"], resolved["mu"]
    return None


def _resolve_load_mapping(block: Any) -> dict[str, Any]:
    if not isinstance(block, Mapping):
        raise ValueError("load block must be a mapping")
    if "file" in block:
        path = Path(str(block["file"]))
        if not path.is_file():
            raise ValueError(f"load file not found: {path}")
        return {"preset": "file", "file": str(path)}
    preset = str(block.get("preset", "manufactured"))
    if preset not in ("manufactured", "smooth", "fiber", "zero"):
        raise ValueError(
            f"unknown load preset {preset!r}; expected manufactured, smooth, "
            "fiber, zero or a file reference")
    return {"preset": preset, "amp": float(block.get("amp", 1.0))}


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

    Keys are sorted and nothing time dependent is written, so two runs of
    the same config produce identical bytes.
    """

    def __init__(self, prefix: str | Path):
        self.prefix = Path(prefix)
        self.prefix.parent.mkdir(parents=True, exist_ok=True)
        self.report_path = self.prefix.with_suffix(".jsonl")
        self._fh = open(self.report_path, "w", encoding="utf-8", newline="\n")
        self.csv_paths: list[Path] = []

    def record(self, kind: str, payload: Mapping[str, Any]) -> None:
        body = {"record": kind}
        body.update(payload)
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


def _config_payload(cfg: RunConfig) -> dict[str, Any]:
    return {
        "command": cfg.command,
        "phi": dict(cfg.phi),
        "coefficients": dict(cfg.coefficients),
        "load": dict(cfg.load),
        "grid": list(cfg.grid),
        "domain": None if cfg.domain is None else list(cfg.domain),
        "p": cfg.p,
        "p_sweep": None if cfg.p_sweep is None else list(cfg.p_sweep),
        "c0": cfg.c0,
        "kappa_hint": cfg.kappa_hint,
        "seed": cfg.seed,
        "octaves": cfg.octaves,
        "refinements": cfg.refinements,
        "scale_factors": list(cfg.scale_factors),
        "dump_solution": cfg.dump_solution,
        "out": cfg.out,
    }


def _verdict_payload(verdict: Verdict) -> dict[str, Any]:
    return {
        "status": verdict.status,
        "lambda_inf_sq": verdict.lambda_inf_sq,
        "rhs": verdict.rhs,
        "margin": verdict.margin,
        "kappa": verdict.kappa,
        "bmo_value": verdict.bmo_value,
        "bmo_threshold": verdict.bmo_threshold,
        "notes": list(verdict.notes),
    }


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


def _cmd_check(cfg: RunConfig, writer: ReportWriter) -> int:
    coeffs = coefficients_from_mapping(cfg.coefficients)
    worst = EXIT_OK

    if cfg.p_sweep is not None:
        lo, hi, count = cfg.p_sweep
        rows: list[list[Any]] = []
        for p in np.linspace(lo, hi, count):
            spec = power_phi(float(p))
            verdict = lame2d_verdict(spec, coeffs, cfg.c0, cfg.kappa_hint)
            rows.append([float(p), verdict.lambda_inf_sq, verdict.rhs,
                         verdict.margin,
                         verdict.kappa if verdict.kappa is not None else "",
                         verdict.status])
            payload = _verdict_payload(verdict)
            payload.update({"command": "check", "p": float(p),
                            "coefficients": _coeff_summary(coeffs),
                            "basis": _PLANAR_BASIS})
            writer.record("verdict", payload)
            if verdict.status == NOT_DISSIPATIVE:
                worst = EXIT_NEGATIVE
        path = writer.csv("p_sweep",
                          ["p", "lambda_inf_sq", "rhs", "margin", "kappa",
                           "status"], rows)
        writer.record("artifact", {"command": "check", "kind": "p_sweep_csv",
                                   "path": path.name})
        return worst

    spec = phi_from_mapping(cfg.phi)
    verdict = lame2d_verdict(spec, coeffs, cfg.c0, cfg.kappa_hint)
    payload = _verdict_payload(verdict)
    payload.update({"command": "check", "phi": dict(cfg.phi),
                    "coefficients": _coeff_summary(coeffs),
                    "basis": _PLANAR_BASIS})
    writer.record("verdict", payload)

    pair = _constant_pair(cfg.coefficients)
    if pair is not None:
        nd = lameNd_sufficient(spec, pair[0], pair[1])
        nd_payload = _verdict_payload(nd)
        nd_payload.update({"command": "check", "phi": dict(cfg.phi),
                           "lam": pair[0], "mu": pair[1],
                           "basis": _ND_BASIS})
        writer.record("sufficient_any_dim", nd_payload)

    return EXIT_NEGATIVE if verdict.status == NOT_DISSIPATIVE else EXIT_OK


def _cmd_verify_forms(cfg: RunConfig, writer: ReportWriter) -> int:
    coeffs = coefficients_from_mapping(cfg.coefficients)
    spec = phi_from_mapping(cfg.phi)
    verdict = lame2d_verdict(spec, coeffs, cfg.c0, cfg.kappa_hint)
    payload = _verdict_payload(verdict)
    payload.update({"command": "verify-forms", "phi": dict(cfg.phi),
                    "coefficients": _coeff_summary(coeffs),
                    "basis": _PLANAR_BASIS})
    writer.record("verdict", payload)

    kappa = verdict.kappa if verdict.status == STRICT_DISSIPATIVE else 0.0
    ensemble = standard_ensemble(cfg.seed)
    # constant coefficients enter as the (lam, mu) pair, not grid samples
    pair = _constant_pair(cfg.coefficients)
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
        "command": "verify-forms",
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
            writer.record("counterexample", {
                "command": "verify-forms",
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
            })
        else:
            writer.record("counterexample", {
                "command": "verify-forms",
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
    if preset == "fiber":
        if dim != 2:
            raise ValueError("the fiber load is a planar problem")
        return fiber_problem(cells_x=cells[0], lam=pair[0], mu=pair[1])
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
    u_max = float(np.max(np.abs(sol.u))) if sol.u.size else 0.0
    return {
        "command": "solve",
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
        "basis": "conforming multilinear elements, conjugate gradients with "
                 "a diagonal preconditioner, Dirichlet walls",
    }


def _cmd_solve(cfg: RunConfig, writer: ReportWriter) -> int:
    pair = _constant_pair(cfg.coefficients)
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
        writer.record("artifact", {"command": "solve", "kind": "solution_csv",
                                   "path": path.name})
    return EXIT_OK


def _cmd_regularity(cfg: RunConfig, writer: ReportWriter) -> int:
    pair = _constant_pair(cfg.coefficients)
    if pair is None:
        raise ValueError("the regularity study needs constant coefficients")

    ratios: list[float] = []
    rows: list[list[Any]] = []
    for level in range(cfg.refinements):
        cells = tuple(c * 2 ** level for c in cfg.grid)
        prob = _load_rhs(cfg, cells, pair)
        sol = assemble_and_solve(prob)
        ratio = regularity_ratio(sol)
        ratios.append(ratio)
        lhs = sol.weighted_energies[float("inf")]
        rows.append([level, "x".join(str(c) for c in cells), lhs,
                     sol.sobolev_norm_F, ratio])
    rpath = writer.csv("refinement",
                       ["level", "cells", "weighted_energy", "load_norm",
                        "ratio"], rows)
    positive = [r for r in ratios if r > 0.0]
    bounded = bool(positive) and max(positive) <= 2.0 * min(positive)
    writer.record("refinement_study", {
        "command": "regularity",
        "p": cfg.p,
        "ratios": ratios,
        "bounded_within_factor_2": bounded,
        "csv": rpath.name,
        "basis": "weighted gradient energy against the load norm power law "
                 "under mesh refinement",
    })

    scale_ratios: list[float] = []
    for c in cfg.scale_factors:
        prob = _load_rhs(cfg, cfg.grid, pair)
        prob = FemProblem(domain=prob.domain, cells=prob.cells,
                          coeffs=prob.coeffs, rhs=c * prob.rhs, p=prob.p)
        scale_ratios.append(regularity_ratio(assemble_and_solve(prob)))
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
        "command": "regularity",
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
        "command": "report",
        "phi": dict(cfg.phi),
        "ok": validation.ok,
        "checks": {c.name: c.status for c in validation.checks},
        "basis": "positivity, differentiability and monotonicity of "
                 "t -> t sqrt(phi(t)) sampled on a log grid",
    })

    profile = spec.profile
    limit = profile.lambda_infinity()
    writer.record("limit_summary", {
        "command": "report",
        "phi": dict(cfg.phi),
        "lambda_inf": limit.lambda_inf,
        "lambda_inf_sq": limit.lambda_inf_sq,
        "sup_lambda_sq": limit.sup_lambda_sq,
        "sup_bounded": limit.sup_bounded,
        "converged": limit.converged,
        "basis": "tail extrapolation of the logarithmic derivative of the "
                 "inverse weight",
    })

    t_nodes = np.logspace(-3.0, 6.0, 200)
    lam_vals = profile.lambda_of(t_nodes)
    rows = [[float(t), float(l), float(l * l)]
            for t, l in zip(t_nodes, lam_vals)]
    ppath = writer.csv("lambda_profile", ["t", "lambda", "lambda_sq"], rows)
    writer.record("artifact", {"command": "report", "kind": "lambda_profile_csv",
                               "path": ppath.name})

    if cfg.p_sweep is not None:
        coeffs = coefficients_from_mapping(cfg.coefficients)
        lo, hi, count = cfg.p_sweep
        srows: list[list[Any]] = []
        for p in np.linspace(lo, hi, count):
            verdict = lame2d_verdict(power_phi(float(p)), coeffs, cfg.c0)
            srows.append([float(p), verdict.lambda_inf_sq, verdict.rhs,
                          verdict.margin, verdict.status])
        spath = writer.csv("p_margins",
                           ["p", "lambda_inf_sq", "rhs", "margin", "status"],
                           srows)
        writer.record("artifact", {"command": "report", "kind": "p_margins_csv",
                                   "path": spath.name})

    return EXIT_OK if validation.ok else EXIT_NEGATIVE


_DISPATCH: dict[str, Callable[[RunConfig, ReportWriter], int]] = {
    "check": _cmd_check,
    "verify-forms": _cmd_verify_forms,
    "solve": _cmd_solve,
    "regularity": _cmd_regularity,
    "report": _cmd_report,
}


def run(cfg: RunConfig) -> int:
    """Execute one run and write its artifacts.  Returns the exit status."""
    writer = ReportWriter(cfg.out)
    try:
        writer.record("config", _config_payload(cfg))
        code = _DISPATCH[cfg.command](cfg, writer)
        writer.record("summary", {
            "command": cfg.command,
            "exit_status": code,
            "csv_files": [p.name for p in writer.csv_paths],
        })
        return code
    except (ToolkitError, ValueError, OSError) as exc:
        writer.record("error", {
            "command": cfg.command,
            "error": type(exc).__name__,
            "message": str(exc),
        })
        writer.record("summary", {"command": cfg.command,
                                  "exit_status": EXIT_ERROR,
                                  "csv_files": [p.name for p in writer.csv_paths]})
        return EXIT_ERROR
    finally:
        writer.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="funcdiss",
        description="Dissipativity checks, form verification and weighted "
                    "energy studies for planar elliptic systems.")
    parser.add_argument("config", help="YAML run description")
    parser.add_argument("--out", help="override the output prefix")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out=args.out)
    except (ValueError, yaml.YAMLError) as exc:
        sys.stderr.write(json.dumps(
            {"record": "error", "error": type(exc).__name__,
             "message": str(exc)}, sort_keys=True) + "\n")
        return EXIT_ERROR
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
