"""Checks of the CLI's outputs against computations made apart from it.

Every check takes the operation (its YAML document and planned outcome),
the exit status the CLI returned and the parsed report, and returns a list
of findings; an empty list means the output is correct.  The references
here share no code with funcdiss beyond the analytic probe fields of
``standard_ensemble``, whose Jacobians are themselves checked against finite
differences of their values:

* coefficient grids are rebuilt from the documented preset formulas and
  sampled by an own bilinear interpolant;
* the BMO seminorm is a brute-force loop over every anchored dyadic block;
* Lambda has closed forms (power, and exp_square through the Lambert W
  function) or an own bisection on the middle branch (truncated power);
* ensemble forms are integrated through the full Lame tensor contraction,
  not the program's scalar reduction, on a finer Gauss rule;
* the symbol minimum is a brute-force angle grid.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path
from typing import Any

import numpy as np
from scipy.special import lambertw

import workloads

# Ensemble forms agree with the finer rule to about 1e-4 of the gradient
# energy at the seed commit, the program's quadrature resolution; the worst
# of some 1100 fields measured was 6.7e-4.  A 2-point Gauss rule in place of
# the 8-point one misses by up to 1e-2.
FORM_TOL = 2e-3
# Angle grid of the brute-force symbol minimum, and its agreement bound
# relative to lambda + 2 mu (the grid error is O((pi / N)^2)).
SYMBOL_GRID = 2048
SYMBOL_TOL = 1e-5
# |u_max - amp| <= MANUFACTURED_C * amp * h^2 for the manufactured solve
# (0.22 at the seed commit).
MANUFACTURED_C = 1.0


# ---------------------------------------------------------------------------
# reading a report


def read_report(prefix: Path) -> dict[str, Any]:
    """Records of <prefix>.jsonl and the rows of every CSV the summary names."""
    path = prefix.with_suffix(".jsonl")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    tables: dict[str, list[dict[str, str]]] = {}
    if records and records[-1].get("record") == "summary":
        for name in records[-1].get("csv_files", []):
            tag = name[len(prefix.name) + 1:-len(".csv")]
            with open(prefix.parent / name, newline="") as fh:
                tables[tag] = list(csv.DictReader(fh))
    return {"records": records, "csv": tables}


def _records(out, kind):
    return [r for r in out["records"] if r.get("record") == kind]


def _close(a, b, rel, abs_=0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# coefficient grids from the preset formulas


def coefficient_grid(block: dict[str, Any]):
    """(lam, mu, domain) node arrays of a coefficients block."""
    kind = block.get("kind", "constant")
    shape = tuple(block.get("shape", (33, 33)))
    domain = tuple(block.get("domain", (0.0, 1.0, 0.0, 1.0)))
    x0, x1, y0, y1 = domain
    xs = np.linspace(x0, x1, shape[0])[:, None] * np.ones((1, shape[1]))
    ys = np.linspace(y0, y1, shape[1])[None, :] * np.ones((shape[0], 1))
    if kind == "constant":
        lam = np.full(shape, float(block.get("lam", 1.0)))
        return lam, np.full(shape, float(block.get("mu", 1.0))), domain
    lam = np.full(shape, float(block.get("lam0", 1.0)))
    mu0 = float(block.get("mu0", 1.0))
    if kind == "ramp":
        mu = mu0 + float(block.get("slope", 0.1)) * (xs - x0)
    elif kind == "checkerboard":
        i = np.arange(shape[0])[:, None]
        j = np.arange(shape[1])[None, :]
        sign = np.where((i + j) % 2 == 0, 1.0, -1.0)
        mu = mu0 + 0.5 * float(block.get("contrast", 0.1)) * sign
    elif kind == "radial":
        rr = (((xs - 0.5 * (x0 + x1)) / (x1 - x0)) ** 2
              + ((ys - 0.5 * (y0 + y1)) / (y1 - y0)) ** 2)
        mu = mu0 + float(block.get("amp", 0.1)) * np.exp(-8.0 * rr)
    else:
        raise ValueError(f"no reference for coefficient kind {kind!r}")
    return lam, mu, domain


def sample_bilinear(values, domain, x, y):
    """Bilinear reading of node values, clamped to the rectangle."""
    x0, x1, y0, y1 = domain
    n1, n2 = values.shape
    u = np.clip((x - x0) / (x1 - x0), 0.0, 1.0) * (n1 - 1)
    v = np.clip((y - y0) / (y1 - y0), 0.0, 1.0) * (n2 - 1)
    i = np.minimum(np.floor(u).astype(int), n1 - 2)
    j = np.minimum(np.floor(v).astype(int), n2 - 2)
    a = u - i
    b = v - j
    return (values[i, j] * (1 - a) * (1 - b) + values[i + 1, j] * a * (1 - b)
            + values[i, j + 1] * (1 - a) * b + values[i + 1, j + 1] * a * b)


def brute_bmo(values) -> float:
    """Largest mean absolute deviation over anchored dyadic m x m blocks,
    visiting every block (one row of blocks at a time)."""
    n1, n2 = values.shape
    best = 0.0
    m = 2
    while m <= min(n1, n2):
        cols = n2 // m
        for i in range(0, n1 - m + 1, m):
            row = values[i:i + m, :cols * m].reshape(m, cols, m)
            mean = row.mean(axis=(0, 2))
            dev = np.abs(row - mean[None, :, None]).mean(axis=(0, 2))
            best = max(best, float(dev.max()))
        m *= 2
    return best


# ---------------------------------------------------------------------------
# Lambda


def lambda_inf_sq(phi: dict[str, Any]) -> float:
    if phi["family"] == "exp_square":
        return 1.0
    if phi["family"] == "truncated_power":
        return 0.0
    p = float(phi["p"])
    return ((p - 2.0) / p) ** 2


def sup_lambda_sq(phi: dict[str, Any]) -> float:
    if phi["family"] == "exp_square":
        return 1.0
    p = float(phi["p"])
    return ((p - 2.0) / p) ** 2


def lambda_values(phi: dict[str, Any], t: np.ndarray) -> np.ndarray:
    """Lambda(t) = -s phi'(s) / (s phi'(s) + 2 phi(s)) at s sqrt(phi(s)) = t."""
    family = phi["family"]
    if family == "power":
        p = float(phi["p"])
        return np.full_like(t, -(p - 2.0) / p)
    if family == "exp_square":
        # s exp(s^2 / 2) = t  <=>  s^2 = W(t^2);  Lambda = -s^2 / (1 + s^2)
        w = lambertw(t * t).real
        return -w / (1.0 + w)
    p, k = float(phi["p"]), float(phi["k"])
    e = 0.5 * (p - 2.0)
    out = np.zeros_like(t)
    low = t < (k - 1.0) ** (0.5 * p)
    out[low] = -(p - 2.0) / p
    top = t > k * (k - 0.5) ** e
    mid = ~(low | top)
    lo = np.full(int(mid.sum()), k - 1.0)
    hi = np.full_like(lo, k)
    target = t[mid]

    def rho(s):
        return s - 0.5 * (s - k + 1.0) ** 2

    for _ in range(80):
        s = 0.5 * (lo + hi)
        up = s * rho(s) ** e >= target
        hi = np.where(up, s, hi)
        lo = np.where(up, lo, s)
    s = 0.5 * (lo + hi)
    x = (p - 2.0) * s * (k - s) / rho(s)
    out[mid] = -x / (x + 2.0)
    return out


# ---------------------------------------------------------------------------
# verdicts


class GridCache:
    """Brute-force BMO values, computed once per coefficient block."""

    def __init__(self):
        self._bmo: dict[str, float] = {}

    def bmo(self, block, lam, mu) -> float:
        key = json.dumps(block, sort_keys=True)
        if key not in self._bmo:
            self._bmo[key] = brute_bmo(mu * mu / (lam + 3.0 * mu))
        return self._bmo[key]


def expected_verdict(phi, block, cache: GridCache, c0: float = 1.0):
    """Status, rhs, kappa, BMO value and threshold the criterion must give."""
    lam, mu, _ = coefficient_grid(block)
    ratio = (lam + mu) / (lam + 3.0 * mu)
    rhs = 1.0 - float(np.max(ratio * ratio))
    lam2 = lambda_inf_sq(phi)
    sup2 = sup_lambda_sq(phi)
    out = {"rhs": rhs, "lambda_inf_sq": lam2}
    if lam2 > rhs:
        out["status"] = "NotDissipative"
        return out
    if sup2 >= rhs:
        out["status"] = None  # boundary cases are outside the make-up
        return out
    kappa = 0.9 * 0.5 * (rhs - sup2) / (2.0 * (1.0 - sup2)) * min(
        float(np.min(mu)), float(np.min(lam + 2.0 * mu)))
    threshold = kappa * (1.0 - sup2) / (2.0 * c0)
    bmo = cache.bmo(block, lam, mu)
    out.update(kappa=kappa, bmo_value=bmo, bmo_threshold=threshold,
               status="StrictDissipative" if bmo <= threshold
               else "Inconclusive")
    return out


def check_verdict(rec, phi, block, cache: GridCache) -> list[str]:
    errs = []
    exp = expected_verdict(phi, block, cache)
    where = f"verdict {phi}"
    if not _close(rec["rhs"], exp["rhs"], 1e-12, 1e-14):
        errs.append(f"{where}: rhs {rec['rhs']!r}, recomputed {exp['rhs']!r}")
    lam2 = rec["lambda_inf_sq"]
    if not isinstance(lam2, float):
        errs.append(f"{where}: lambda_inf_sq is {lam2!r}")
        return errs
    tol = {"power": 1e-12, "exp_square": 0.05, "truncated_power": 1e-9}
    if abs(lam2 - exp["lambda_inf_sq"]) > tol[phi["family"]]:
        errs.append(f"{where}: lambda_inf_sq {lam2!r}, expected "
                    f"{exp['lambda_inf_sq']!r}")
    if exp["status"] is None:
        errs.append(f"{where}: on the necessary bound, outside the make-up")
    elif rec["status"] != exp["status"]:
        errs.append(f"{where}: status {rec['status']}, expected {exp['status']}")
    for key in ("kappa", "bmo_value", "bmo_threshold"):
        if key not in exp or key not in rec:  # CSV rows carry no kappa
            continue
        if rec[key] is None or not _close(rec[key], exp[key], 1e-6, 1e-12):
            errs.append(f"{where}: {key} {rec[key]!r}, recomputed {exp[key]!r}")
    return errs


# ---------------------------------------------------------------------------
# forms


def _lame_tensors():
    d = np.eye(2)
    t_lam = np.einsum("ih,jk->hkij", d, d)
    t_mu = np.einsum("ij,hk->hkij", d, d) + np.einsum("ik,hj->hkij", d, d)
    return t_lam, t_mu


def _gauss(a, b, cells, order):
    g, w = np.polynomial.legendre.leggauss(order)
    h = (b - a) / cells
    starts = a + h * np.arange(cells)
    return ((starts[:, None] + 0.5 * h * (g + 1.0)).ravel(),
            np.tile(0.5 * h * w, cells))


def reference_form(probe, phi, block, *, order: int = 10, refine: int = 2):
    """(form, gradient energy) of one probe on a finer tensor Gauss rule:
    ``refine`` times the program's cells, ``order`` nodes per cell and axis.

    The integrand is the full tensor contraction
    Re sum_hk <A^hk d_k v, d_h v> - Lambda^2 |v|^-4 <A^hk v, v> D_k D_h,
    D_k = Re <v, d_k v>, with A the pointwise Lame tensor.
    """
    lam_n, mu_n, domain = coefficient_grid(block)
    t_lam, t_mu = _lame_tensors()
    x0, x1, y0, y1 = probe.support
    nx, ny = workloads.rule_cells(probe)
    xs, wx = _gauss(x0, x1, refine * nx, order)
    ys, wy = _gauss(y0, y1, refine * ny, order)
    total = np.zeros(2)
    rows = max(1, 200_000 // len(ys))
    for i0 in range(0, len(xs), rows):
        px, py = np.meshgrid(xs[i0:i0 + rows], ys, indexing="ij")
        pts = np.column_stack([px.ravel(), py.ravel()])
        w = np.multiply.outer(wx[i0:i0 + rows], wy).ravel()
        lam = sample_bilinear(lam_n, domain, pts[:, 0], pts[:, 1])
        mu = sample_bilinear(mu_n, domain, pts[:, 0], pts[:, 1])
        v = probe.value(pts)
        jac = probe.jacobian(pts)
        cj = np.conj(jac)
        first = (lam * np.einsum("hkij,njk,nih->n", t_lam, jac, cj)
                 + mu * np.einsum("hkij,njk,nih->n", t_mu, jac, cj)).real
        nv = np.sqrt(np.sum(np.abs(v) ** 2, axis=1))
        live = nv > 1e-14 * probe.scale
        safe = np.where(live, nv, 1.0)
        dd = np.einsum("ni,nik->nk", np.conj(v), jac).real
        avv = (lam * np.einsum("hkij,nj,ni,nk,nh->n", t_lam, v, np.conj(v),
                               dd, dd)
               + mu * np.einsum("hkij,nj,ni,nk,nh->n", t_mu, v, np.conj(v),
                                dd, dd)).real
        lv = lambda_values(phi, safe)
        form = first - np.where(live, lv * lv * avv / safe ** 4, 0.0)
        grad2 = np.sum(np.abs(jac) ** 2, axis=(1, 2))
        total += w @ np.column_stack([form, grad2])
    return float(total[0]), float(total[1])


def jacobian_defect(probe, pts, h: float = 1e-6) -> float:
    """Largest central-difference mismatch of the probe's Jacobian."""
    jac = probe.jacobian(pts)
    worst = 0.0
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        fd = (probe.value(pts + step) - probe.value(pts - step)) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(jac))))
        worst = max(worst, float(np.max(np.abs(fd - jac[:, :, k]))) / scale)
    return worst


def check_form_evidence(op, out, ensemble, verdict) -> list[str]:
    """Residual bookkeeping, the strict margin, and sampled fields against
    the finer rule."""
    errs = []
    ev = _records(out, "form_evidence")[0]
    rows = out["csv"]["residuals"]
    kappa = float(ev["kappa"])
    if len(rows) != len(ensemble) or ev["fields"] != len(ensemble):
        errs.append(f"form evidence covers {len(rows)} of {len(ensemble)} fields")
    scale = max(max(abs(float(r["form_value"])), float(r["gradient_sq"]))
                for r in rows)
    resid = [float(r["form_value"]) - kappa * float(r["gradient_sq"])
             for r in rows]
    for r, want in zip(rows, resid):
        if not _close(float(r["residual"]), want, 1e-12, 1e-12 * scale):
            errs.append(f"{r['label']}: residual {r['residual']} is not "
                        f"form - kappa * gradient_sq = {want!r}")
    if not _close(ev["min_residual"], min(resid), 1e-12, 1e-12 * scale):
        errs.append(f"min_residual {ev['min_residual']!r}, rows give "
                    f"{min(resid)!r}")
    if verdict["status"] == "StrictDissipative" and ev["min_residual"] < 0.0:
        errs.append(f"strict verdict but min_residual {ev['min_residual']!r}")
    if not ev["consistent_with_verdict"]:
        errs.append("form evidence reported inconsistent with the verdict")

    by_label = {p.label: p for p in ensemble}
    pick = random.Random(f"{op.name}:{op.doc.get('seed')}")
    # one field of each kind: bump, rotation or gradient core, wave
    sampled = [pick.choice([r for r in rows if r["family"] in kinds])
               for kinds in (("bump",), ("rotation", "gradient"),
                             ("oscillatory",))]
    for row in sampled:
        probe = by_label[row["label"]]
        # points on a circle around the probe's centre, which is a cone
        # point of the wave envelopes, where finite differences fail
        angle = pick.uniform(0.0, 2.0 * np.pi) + np.arange(7) * 2 * np.pi / 7
        pts = (np.array(probe.support).reshape(2, 2).mean(axis=1)
               + pick.uniform(0.05, 0.25)
               * np.column_stack([np.cos(angle), np.sin(angle)]))
        if jacobian_defect(probe, pts) > 1e-6:
            errs.append(f"{probe.label}: Jacobian disagrees with finite "
                        "differences of the value")
        form, grad2 = reference_form(probe, op.doc["phi"],
                                     op.doc.get("coefficients", {}))
        for key, ref in (("form_value", form), ("gradient_sq", grad2)):
            got = float(row[key])
            if abs(got - ref) > FORM_TOL * grad2:
                errs.append(f"{probe.label}: {key} {got!r}, finer rule "
                            f"{ref!r} (tolerance {FORM_TOL:g} * {grad2:.6g})")
    return errs


def symbol_minimum(lam: float, mu: float, lam2: float,
                   n: int = SYMBOL_GRID) -> float:
    """min over unit xi, omega of the least eigenvalue of
    Q - Lambda^2 (omega^T Q omega) omega omega^T, Q = mu I + (lam+mu) xi xi^T."""
    a = np.linspace(0.0, np.pi, n, endpoint=False)
    c, s = np.cos(a), np.sin(a)
    q11 = mu + (lam + mu) * c * c
    q22 = mu + (lam + mu) * s * s
    q12 = (lam + mu) * c * s
    best = math.inf
    for k in range(n):
        oc, os_ = c[k], s[k]
        qoo = q11 * oc * oc + 2.0 * q12 * oc * os_ + q22 * os_ * os_
        m11 = q11 - lam2 * qoo * oc * oc
        m22 = q22 - lam2 * qoo * os_ * os_
        m12 = q12 - lam2 * qoo * oc * os_
        low = 0.5 * (m11 + m22 - np.sqrt((m11 - m22) ** 2 + 4.0 * m12 * m12))
        best = min(best, float(np.min(low)))
    return best


def check_counterexample(op, out) -> list[str]:
    errs = []
    rec = _records(out, "counterexample")[0]
    block = op.doc["coefficients"]
    lam, mu = float(block["lam"]), float(block["mu"])
    grid_min = symbol_minimum(lam, mu, sup_lambda_sq(op.doc["phi"]))
    if abs(rec["algebraic_min"] - grid_min) > SYMBOL_TOL * (lam + 2.0 * mu):
        errs.append(f"algebraic_min {rec['algebraic_min']!r}, angle grid "
                    f"{grid_min!r}")
    rows = [(float(r["rho"]), float(r["form_value"]))
            for r in out["csv"]["counterexample"]]
    if [rho for rho, _ in rows] != [2.0 ** j for j in range(len(rows))]:
        errs.append("counterexample frequencies are not 1, 2, 4, ...")
    negative = [rho for rho, form in rows if form < 0.0]
    if not negative or rows[-1][1] >= 0.0:
        errs.append("the flip row's form is not negative")
    elif rec["flip_rho"] != negative[0] or rows[-1][0] != negative[0]:
        errs.append(f"flip_rho {rec['flip_rho']!r}, first negative row "
                    f"{negative[0]!r}")
    if rec["flip_rho"] != op.expect.get("flip_rho", rec["flip_rho"]):
        errs.append(f"flip at {rec['flip_rho']!r}, the make-up plans "
                    f"{op.expect['flip_rho']!r}")
    if not rec["witness_found"]:
        errs.append("no witness reported")
    return errs


# ---------------------------------------------------------------------------
# FEM


def check_solution(op, rec) -> list[str]:
    errs = []
    if not _close(2.0 * rec["energy"], rec["rhs_work"], 1e-8):
        errs.append(f"2 energy = {2.0 * rec['energy']!r} but rhs_work "
                    f"{rec['rhs_work']!r}")
    if rec["zero_solution"] or rec["iterations"] < 1:
        errs.append("a nonzero load gave no CG solve")
    load = op.doc["load"]
    if load["preset"] == "manufactured":
        h = 1.0 / op.doc["grid"][0]
        amp = load["amp"]
        if abs(rec["u_max"] - amp) > MANUFACTURED_C * amp * h * h:
            errs.append(f"u_max {rec['u_max']!r} not within "
                        f"{MANUFACTURED_C:g} amp h^2 of {amp!r}")
    return errs


def check_regularity(op, out) -> list[str]:
    errs = []
    p = float(op.doc["p"])
    study = _records(out, "refinement_study")[0]
    rows = out["csv"]["refinement"]
    ratios = []
    for level, row in enumerate(rows):
        ratio = float(row["weighted_energy"]) / float(row["load_norm"]) ** (p / 2)
        ratios.append(ratio)
        if not _close(float(row["ratio"]), ratio, 1e-12):
            errs.append(f"level {level}: ratio {row['ratio']} is not "
                        f"weighted_energy / load_norm^(p/2) = {ratio!r}")
        want = "x".join(str(c * 2 ** level) for c in op.doc["grid"])
        if row["cells"] != want:
            errs.append(f"level {level}: cells {row['cells']}, planned {want}")
    if len(rows) != op.doc["refinements"]:
        errs.append(f"{len(rows)} refinement levels, planned "
                    f"{op.doc['refinements']}")
    if [float(r["ratio"]) for r in rows] != study["ratios"]:
        errs.append("refinement record and CSV disagree")
    if not (min(ratios) > 0.0 and max(ratios) <= 2.0 * min(ratios)):
        errs.append(f"refinement ratios {ratios} leave a factor 2")
    if not study["bounded_within_factor_2"]:
        errs.append("refinement study reported unbounded")

    scaling = _records(out, "scaling_study")[0]
    srows = out["csv"]["scaling"]
    base = float(srows[0]["ratio"])
    if base == 0.0:
        return errs + ["the first scaling ratio is 0, so drift is undefined"]
    drift = [abs(float(r["ratio"]) - base) / abs(base) for r in srows]
    if [float(r["scale"]) for r in srows] != op.doc["scale_factors"]:
        errs.append("scaling rows do not follow the planned factors")
    if max(drift) > 1e-6:
        errs.append(f"scaling drift {max(drift)!r} above 1e-6")
    if not _close(scaling["max_rel_drift"], max(drift), 1e-9, 1e-15):
        errs.append(f"max_rel_drift {scaling['max_rel_drift']!r}, CSV gives "
                    f"{max(drift)!r}")
    if not scaling["invariant"]:
        errs.append("scaling study reported not invariant")
    return errs


# ---------------------------------------------------------------------------
# one operation


def check_summary(code, out) -> list[str]:
    records = out["records"]
    if not records or records[-1].get("record") != "summary":
        return ["report does not end with a summary record"]
    if records[-1]["exit_status"] != code:
        return [f"summary exit_status {records[-1]['exit_status']} but the "
                f"CLI returned {code}"]
    if code != 3 and _records(out, "error"):
        return [f"error record in a run that returned {code}"]
    return []


def check_op(op, code: int, out, cache: GridCache, ensemble) -> list[str]:
    """All checks of one operation that ran to its end."""
    errs = check_summary(code, out)
    if errs:
        return errs
    doc = op.doc
    command = doc["command"]
    block = doc.get("coefficients", {})
    if command == "verify-forms":
        rec = _records(out, "verdict")[0]
        errs += check_verdict(rec, doc["phi"], block, cache)
        errs += check_form_evidence(op, out, ensemble(doc["seed"]), rec)
        if rec["status"] == "NotDissipative" and "lam" in block \
                and doc["phi"]["family"] == "power":
            errs += check_counterexample(op, out)
        elif op.expect.get("flip_rho") is not None:
            errs.append("planned counterexample did not run")
    elif command == "check":
        for rec in _records(out, "verdict"):
            errs += check_verdict(rec, {"family": "power", "p": rec["p"]},
                                  block, cache)
    elif command == "report":
        phi = doc["phi"]
        limit = _records(out, "limit_summary")[0]
        want = lambda_inf_sq(phi)
        tol = {"power": 1e-12, "exp_square": 0.05, "truncated_power": 1e-9}
        if abs(limit["lambda_inf_sq"] - want) > tol[phi["family"]]:
            errs.append(f"limit lambda_inf_sq {limit['lambda_inf_sq']!r}, "
                        f"expected {want!r}")
        if phi["family"] != "exp_square" and not _close(
                limit["sup_lambda_sq"], sup_lambda_sq(phi), 1e-9):
            errs.append(f"sup_lambda_sq {limit['sup_lambda_sq']!r}, expected "
                        f"{sup_lambda_sq(phi)!r}")
        if not _records(out, "weight_validation")[0]["ok"]:
            errs.append("a built-in weight failed validation")
        profile = out["csv"]["lambda_profile"]
        t = np.array([float(r["t"]) for r in profile])
        got = np.array([float(r["lambda"]) for r in profile])
        if np.max(np.abs(got - lambda_values(phi, t))) > 1e-8:
            errs.append("Lambda profile disagrees with the closed form")
        for row in out["csv"].get("p_margins", []):
            rec = {k: float(row[k]) for k in ("lambda_inf_sq", "rhs")}
            rec["status"] = row["status"]
            errs += check_verdict(rec, {"family": "power", "p": float(row["p"])},
                                  block, cache)
    elif command == "solve":
        errs += check_solution(op, _records(out, "solution")[0])
    elif command == "regularity":
        errs += check_regularity(op, out)
    expected = op.expect.get("exit")
    if expected is not None and code != expected:
        errs.append(f"exit {code}, expected {expected}")
    return [f"{op.name}: {e}" for e in errs]
