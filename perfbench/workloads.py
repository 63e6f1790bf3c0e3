"""Seeded operation lists of the benchmark workloads.

Each workload is a list of CLI runs, one YAML document each.  The seed
varies amplitudes, exponents and the probe ensemble only inside a make-up
that keeps the cost and the outcome of every run fixed: verdict statuses,
the counterexample flip octave, CG iteration counts and the quadrature size
of the ensemble do not depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

import funcdiss

# Quadrature nodes the resolution rule of the seed commit gives one ensemble.
# The benchmark only draws ensembles whose size lies within ENSEMBLE_WINDOW
# of ENSEMBLE_TARGET (the median over seeds), so that every run integrates
# the same amount of work; about one ensemble seed in sixteen qualifies.
ENSEMBLE_TARGET = 627_200
ENSEMBLE_WINDOW = 0.005

# exp_square runs keep the CLI's default ensemble seed: on some other seeds
# a quadrature node lands where 1e-14 * scale < |v| < 1e-12 and the Lambda
# inversion raises BracketFailure (see CHANGES.md).
DEFAULT_ENSEMBLE_SEED = 2026


@dataclass(frozen=True)
class Op:
    """One CLI run: its name, its YAML document and the outcome it plans."""

    name: str
    doc: dict[str, Any]
    expect: dict[str, Any] = field(default_factory=dict)


def rule_cells(probe) -> tuple[int, int]:
    """Cells per axis the seed commit's form quadrature gives a probe: at
    least 12, and 10 per wavelength (each cell holds 8 x 8 Gauss nodes)."""
    x0, x1, y0, y1 = probe.support
    cells = []
    for extent in (x1 - x0, y1 - y0):
        n = 12
        if probe.wavelength is not None:
            n = max(n, math.ceil(10.0 * extent / probe.wavelength))
        cells.append(n)
    return cells[0], cells[1]


def ensemble_size(seed: int) -> int:
    """Quadrature nodes of standard_ensemble(seed) under the seed commit's rule."""
    return sum(math.prod(rule_cells(probe)) * 64
               for probe in funcdiss.standard_ensemble(seed))


def draw_ensemble_seed(rng: random.Random) -> int:
    while True:
        seed = rng.randrange(2 ** 31)
        if abs(ensemble_size(seed) / ENSEMBLE_TARGET - 1.0) <= ENSEMBLE_WINDOW:
            return seed


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def evidence(rng: random.Random) -> list[Op]:
    """verify-forms on runs that hold or are refuted only asymptotically,
    check sweeps, report runs and one scalar-grid config."""
    ens = draw_ensemble_seed(rng)
    c = _u(rng, 0.5, 2.0)

    def power(lo, hi):
        return {"family": "power", "p": _u(rng, lo, hi)}

    def truncated():
        return {"family": "truncated_power", "p": _u(rng, 3.0, 6.0),
                "k": _u(rng, 1.5, 3.0)}

    exp_square = {"family": "exp_square"}
    ops = [
        Op("forms-power-constant", {
            "command": "verify-forms", "phi": power(3.0, 8.0), "seed": ens,
            "coefficients": {"lam": round(c * _u(rng, 0.5, 2.0), 4),
                             "mu": c}}),
        Op("forms-power-checkerboard", {
            "command": "verify-forms", "phi": power(3.0, 6.0), "seed": ens,
            "coefficients": {"kind": "checkerboard", "lam0": c, "mu0": c,
                             "contrast": round(c * _u(rng, 0.02, 0.06), 4)}}),
        Op("forms-exp-ramp", {
            "command": "verify-forms", "phi": exp_square,
            "seed": DEFAULT_ENSEMBLE_SEED,
            "coefficients": {"kind": "ramp", "lam0": c, "mu0": c,
                             "slope": round(c * _u(rng, 0.05, 0.2), 4)}}),
        Op("forms-exp-constant", {
            "command": "verify-forms", "phi": exp_square,
            "seed": DEFAULT_ENSEMBLE_SEED,
            "coefficients": {"lam": round(c * _u(rng, 0.5, 2.0), 4),
                             "mu": c}}),
        Op("forms-truncated-radial", {
            "command": "verify-forms", "phi": truncated(), "seed": ens,
            "coefficients": {"kind": "radial", "lam0": c, "mu0": c,
                             "amp": round(c * _u(rng, 0.05, 0.15), 4)}}),
        Op("forms-truncated-ramp", {
            "command": "verify-forms", "phi": truncated(), "seed": ens,
            "coefficients": {"kind": "ramp", "lam0": c, "mu0": c,
                             "slope": round(c * _u(rng, 0.05, 0.2), 4)}}),
        # 513^2 nodes: lame2d_verdict recomputes the p-independent BMO
        # seminorm of this grid for every exponent.
        Op("sweep-radial-513", {
            "command": "check",
            "coefficients": {"kind": "radial", "lam0": c, "mu0": c,
                             "amp": round(c * _u(rng, 0.05, 0.15), 4),
                             "shape": [513, 513]},
            "p_sweep": {"lo": 2.0, "hi": 10.0, "count": 9}}),
        # lam0 = mu0 pins the threshold at p = 14.93, between sweep nodes.
        Op("sweep-ramp", {
            "command": "check",
            "coefficients": {"kind": "ramp", "lam0": c, "mu0": c,
                             "slope": round(c * _u(rng, 0.05, 0.2), 4)},
            "p_sweep": {"lo": 2.0, "hi": 20.0, "count": 19}}),
        Op("report-exp", {
            "command": "report", "phi": exp_square,
            "coefficients": {"lam": c, "mu": c},
            "p_sweep": {"lo": 2.0, "hi": 20.0, "count": 19}}),
        Op("report-truncated", {"command": "report", "phi": truncated()}),
        # A scalar grid must end in exit 3 with an error record; today the
        # TypeError from config_from_mapping escapes main.
        Op("scalar-grid", {"command": "check", "grid": 16},
           {"exit": 3}),
    ]
    return ops


def refutation(rng: random.Random) -> list[Op]:
    """verify-forms on constant-coefficient power weights above the
    threshold; the counterexample sweep flips at rho = 64 and rho = 128."""
    ens = draw_ensemble_seed(rng)
    ops = []
    # p and lam = mu = c keep the flip octave fixed: across these ranges the
    # form one octave below the flip stays clearly positive and the flip
    # row clearly negative.
    for name, lo, hi, flip in (("flip-64", 44.0, 52.0, 64.0),
                               ("flip-128", 22.0, 26.0, 128.0)):
        c = _u(rng, 0.5, 2.0)
        ops.append(Op(name, {
            "command": "verify-forms",
            "phi": {"family": "power", "p": _u(rng, lo, hi)},
            "coefficients": {"lam": c, "mu": c}, "seed": ens},
            {"flip_rho": flip}))
    return ops


def regularity(rng: random.Random) -> list[Op]:
    """A refinement and load-scaling study from 32^2 to 256^2, a manufactured
    solve, a variable-coefficient solve at 128^2 and a 3-D solve at 24^3."""
    c = _u(rng, 0.5, 2.0)
    const = {"lam": c, "mu": c}
    return [
        Op("regularity-32-256", {
            "command": "regularity", "p": _u(rng, 3.0, 5.0),
            "coefficients": const, "grid": [32, 32], "refinements": 4,
            "load": {"preset": "manufactured", "amp": _u(rng, 0.5, 2.0)},
            "scale_factors": [0.5, 1.0, 2.0, 4.0]}),
        Op("solve-manufactured-64", {
            "command": "solve", "p": _u(rng, 3.0, 5.0),
            "coefficients": const, "grid": [64, 64],
            "load": {"preset": "manufactured", "amp": _u(rng, 0.5, 2.0)}}),
        Op("solve-radial-128", {
            "command": "solve", "p": 3.0, "grid": [128, 128],
            "coefficients": {"kind": "radial", "lam0": c, "mu0": c,
                             "amp": round(c * _u(rng, 0.05, 0.15), 4)},
            "load": {"preset": "smooth", "amp": _u(rng, 0.5, 2.0)}}),
        Op("solve-3d-24", {
            "command": "solve", "p": _u(rng, 2.5, 4.0),
            "coefficients": const, "grid": [24, 24, 24],
            "load": {"preset": "smooth", "amp": _u(rng, 0.5, 2.0)}}),
    ]


_WORKLOADS = {"evidence": evidence, "refutation": refutation,
             "regularity": regularity}


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of one workload, made from the seed alone."""
    if workload not in _WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         + ", ".join(_WORKLOADS))
    rng = random.Random(f"{workload}:{seed}")
    return _WORKLOADS[workload](rng)
