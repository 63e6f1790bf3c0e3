"""Acceptance gate: one test per shipped guarantee.

Every test prints a single line

    criterion NN <name>: PASS|FAIL [detail; elapsed/budget]

so a ``pytest -s tests/test_acceptance.py`` run reads as a checklist.
Tolerances and runtime budgets are asserted, not just reported.
"""

import hashlib
import json
import math
import time

import numpy as np

from funcdiss.cli import config_from_mapping, run
from funcdiss.coefficients import (
    checkerboard_field,
    constant_field,
    gamma_field,
    bmo_seminorm,
    ramp_field,
)
from funcdiss.criteria import (
    NOT_DISSIPATIVE,
    STRICT_DISSIPATIVE,
    constant_threshold,
    lame2d_verdict,
    lameNd_sufficient,
)
from funcdiss.fem import (
    FemProblem,
    assemble_and_solve,
    manufactured_problem,
    manufactured_reference,
    regularity_ratio,
)
from funcdiss.forms import (
    bump_field,
    gradient_field,
    oscillatory_counterexample,
    oscillatory_field,
    rotation_field,
    xy_decompose,
)
from funcdiss.orlicz import (
    SampledField,
    exp_conjugate,
    exp_young,
    holder_orlicz,
    luxemburg_norm,
    orlicz_norm,
    power_young,
)
from funcdiss.phi import (
    LambdaProfile,
    dual_phi,
    exp_square_phi,
    power_phi,
    truncated_power,
)

INF = float("inf")


def _gate(num, name, t0, budget, ok, detail):
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    line = (f"criterion {num:02d} {name}: {verdict} "
            f"[{detail}; {elapsed:.2f}s of {budget:g}s]")
    print(line)
    assert ok and in_budget, line


# -- 1: power-law Lambda is exactly -(p-2)/p ------------------------------

def test_criterion_01_lambda_calculus():
    t0 = time.perf_counter()
    t = np.geomspace(1e-6, 1e6, 200)
    worst = 0.0
    for p in (2.0, 3.0, 4.0, 8.0, 16.0):
        prof = LambdaProfile(power_phi(p))
        worst = max(worst, float(np.max(np.abs(prof.lambda_of(t)
                                               + (p - 2.0) / p))))
    _gate(1, "lambda calculus", t0, 1.0, worst <= 1e-10,
          f"max |Lambda + (p-2)/p| = {worst:.3e} over 5 exponents x 200 t")


# -- 2: function-calculus identity suite ----------------------------------

def test_criterion_02_identity_suite():
    t0 = time.perf_counter()
    worst = {"theta_sq": 0.0, "theta_deriv": 0.0, "roundtrip": 0.0,
             "dual_lambda": 0.0}
    for spec in (power_phi(3.0), truncated_power(4.0, 2.0),
                 exp_square_phi()):
        prof = LambdaProfile(spec)
        t = np.geomspace(1e-2, 1e2, 41)
        z = prof.zeta(t)
        th = prof.theta(t)
        worst["theta_sq"] = max(worst["theta_sq"], float(
            np.max(np.abs(th * th * spec.phi(z) - 1.0))))

        h = 1e-5 * t
        dth = (prof.theta(t + h) - prof.theta(t - h)) / (2.0 * h)
        lhs = (th * spec.dphi(z) * (t * dth + th) + dth * spec.phi(z)
               + dth / (th * th))
        scale = spec.phi(z) * th / t + np.abs(th * th * spec.dphi(z))
        worst["theta_deriv"] = max(worst["theta_deriv"], float(
            np.max(np.abs(lhs) / scale)))

        # w = phi(s) s must satisfy sqrt(psi(w)) w = sqrt(phi(s)) s
        psi = dual_phi(spec)
        s = np.geomspace(0.1, 3.0, 40)
        w = spec.phi(s) * s
        ratio = np.sqrt(psi.phi(w)) * w / (np.sqrt(spec.phi(s)) * s)
        worst["roundtrip"] = max(worst["roundtrip"], float(
            np.max(np.abs(ratio - 1.0))))

        dprof = LambdaProfile(psi)
        ts = np.geomspace(0.5, 50.0, 21)
        worst["dual_lambda"] = max(worst["dual_lambda"], float(
            np.max(np.abs(dprof.lambda_of(ts) + prof.lambda_of(ts)))))
    ok = (worst["theta_sq"] <= 1e-6 and worst["theta_deriv"] <= 1e-6
          and worst["roundtrip"] <= 1e-8 and worst["dual_lambda"] <= 1e-8)
    _gate(2, "identity suite", t0, 5.0, ok,
          ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# -- 3: moving-frame decomposition identities ------------------------------

def _five_fields():
    return [
        bump_field((0.0, 0.0), 0.1, 0.5, (0.3, -0.2),
                   [[1.0, 0.4], [-0.7, 0.2]], label="generic"),
        bump_field((0.1, -0.05), 0.15, 0.45, (1.0, 0.5),
                   [[0.2, -1.1], [0.8, 0.3]], label="tilted"),
        rotation_field((0.0, 0.0), 0.1, 0.5, 1.3),
        gradient_field((-0.1, 0.1), 0.12, 0.4, -0.8),
        oscillatory_field((0.0, 0.0), (1.0, 0.4), 4.0, (0.6, -0.8),
                          chi_r0=-0.1, chi_r1=0.35),
    ]


def test_criterion_03_frame_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for k, field in enumerate(_five_fields()):
        x0, x1, y0, y1 = field.support
        rng = np.random.default_rng(500 + k)
        pts = np.column_stack([rng.uniform(x0, x1, 30000),
                               rng.uniform(y0, y1, 30000)])
        vals = field.value(pts)
        nv = np.linalg.norm(np.atleast_2d(vals), axis=1)
        pts = pts[nv > 1e-8 * field.scale][:10000]
        assert pts.shape[0] == 10000, field.label

        f1, f2, g1, g2 = xy_decompose(field, pts)
        jac = field.jacobian(pts).real
        grad2 = np.einsum("nih,nih->n", jac, jac)
        div = jac[:, 0, 0] + jac[:, 1, 1]
        swap = np.einsum("njk,nkj->n", jac, jac)
        scale = np.maximum(grad2, 1.0)
        res = np.max([
            np.abs(f1 ** 2 + f2 ** 2 + g1 ** 2 + g2 ** 2 - grad2) / scale,
            np.abs((f1 + g1) ** 2 - div ** 2) / scale,
            np.abs((f1 + g1) ** 2 - 2.0 * (f1 * g1 + f2 * g2) - swap) / scale,
        ])
        worst = max(worst, float(res))
    _gate(3, "frame identities", t0, 5.0, worst <= 1e-10,
          f"max residual {worst:.3e} at 10^4 points x 5 fields")


# -- 4: dissipativity flip located and witnessed ---------------------------

def test_criterion_04_verdict_threshold():
    t0 = time.perf_counter()
    coeffs = constant_field(1.0, 1.0)

    def status(p):
        return lame2d_verdict(power_phi(p), coeffs).status

    lo, hi = 10.0, 20.0
    assert status(lo) == STRICT_DISSIPATIVE
    assert status(hi) == NOT_DISSIPATIVE
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if status(mid) == NOT_DISSIPATIVE:
            hi = mid
        else:
            lo = mid
    p_star = 8.0 + 4.0 * math.sqrt(3.0)  # root of (1 - 2/p)^2 = 3/4
    err_lo = abs(lo - p_star)
    err_hi = abs(hi - p_star)

    report = oscillatory_counterexample(1.0, 1.0, power_phi(32.0),
                                        octaves=10)
    witnessed = (report.flip_rho is not None
                 and min(row[1] for row in report.rows) < 0.0)
    ok = err_lo <= 1e-6 and err_hi <= 1e-6 and witnessed
    _gate(4, "verdict threshold", t0, 60.0, ok,
          f"flip at {lo:.8f} vs {p_star:.8f} (below {err_lo:.2e} / above "
          f"{err_hi:.2e}); witness at rho={report.flip_rho}")


# -- 5: constant sufficient bound implies the planar bound -----------------

def test_criterion_05_threshold_consistency():
    t0 = time.perf_counter()
    lams = np.linspace(-0.045, 8.0, 50)
    mus = np.linspace(0.1, 5.0, 50)
    violations = 0
    for lam in lams:
        for mu in mus:
            if lam + mu <= 0.0:
                continue
            simple = constant_threshold(float(lam), float(mu))
            planar = 1.0 - ((lam + mu) / (lam + 3.0 * mu)) ** 2
            if simple > planar + 1e-12:
                violations += 1
    # the same implication through the verdict layer for one weight
    spec = power_phi(4.0)
    verdict_clashes = 0
    for lam in lams[::7]:
        for mu in mus[::7]:
            nd = lameNd_sufficient(spec, float(lam), float(mu))
            if nd.status != STRICT_DISSIPATIVE:
                continue
            planar = lame2d_verdict(spec, constant_field(float(lam),
                                                         float(mu)))
            if planar.status == NOT_DISSIPATIVE:
                verdict_clashes += 1
    ok = violations == 0 and verdict_clashes == 0
    _gate(5, "threshold consistency", t0, 5.0, ok,
          f"{violations} threshold violations, {verdict_clashes} verdict "
          "clashes on the 50x50 grid")


# -- 6: finite element correctness ----------------------------------------

def test_criterion_06_fem_correctness():
    t0 = time.perf_counter()
    errs = []
    for cells in (8, 16, 32):
        prob = manufactured_problem(cells, 1.0, 1.0)
        sol = assemble_and_solve(prob)
        ref = manufactured_reference(prob)
        errs.append(float(np.sqrt(np.mean((sol.u - ref) ** 2))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    orders_ok = all(1.8 <= o <= 2.2 for o in orders)

    zero = FemProblem(domain=(0.0, 1.0, 0.0, 1.0), cells=(8, 8),
                      coeffs=(1.0, 1.0), rhs=np.zeros((9, 9, 2, 2)))
    zsol = assemble_and_solve(zero)
    zero_ok = float(np.max(np.abs(zsol.u))) == 0.0
    _gate(6, "fem correctness", t0, 60.0, orders_ok and zero_ok,
          f"orders {orders[0]:.3f}, {orders[1]:.3f}; zero load |u|max = "
          f"{float(np.max(np.abs(zsol.u))):.1e}")


# -- 7: weighted-energy estimate is scale invariant and stable -------------

def _smooth_problem(cells, dim, p=4.0, amp=1.0):
    nodes = cells + 1
    xs = np.linspace(0.0, 1.0, nodes)
    grids = np.meshgrid(*([xs] * dim), indexing="ij")
    s = np.ones_like(grids[0])
    for g in grids:
        s = s * np.sin(np.pi * g)
    coef = np.arange(1.0, 1.0 + dim * dim).reshape(dim, dim) / (dim * dim)
    coef[0, 1] = -coef[0, 1]
    f = np.einsum("ij,...->...ij", coef, amp * s)
    return FemProblem(domain=(0.0, 1.0) * dim, cells=(cells,) * dim,
                      coeffs=(1.0, 1.0), rhs=f, p=p)


def _ratio_study(dim, refine_cells, scale_cells):
    ratios = []
    for cells in refine_cells:
        sol = assemble_and_solve(_smooth_problem(cells, dim))
        ratios.append(regularity_ratio(sol))
    bounded = max(ratios) <= 2.0 * min(ratios)

    base = None
    drift = 0.0
    for c in (0.5, 1.0, 2.0, 4.0):
        sol = assemble_and_solve(_smooth_problem(scale_cells, dim, amp=c))
        ratio = regularity_ratio(sol)
        if c == 1.0:
            base = ratio
    # second pass against the c = 1 reference
    for c in (0.5, 1.0, 2.0, 4.0):
        sol = assemble_and_solve(_smooth_problem(scale_cells, dim, amp=c))
        drift = max(drift, abs(regularity_ratio(sol) - base) / base)
    return ratios, bounded, drift


def test_criterion_07_regularity_estimate():
    t0 = time.perf_counter()
    ratios3, bounded3, drift3 = _ratio_study(3, (8, 16, 32), 16)
    ratios2, bounded2, drift2 = _ratio_study(2, (16, 32, 64), 32)
    ok = (bounded3 and bounded2 and drift3 <= 1e-6 and drift2 <= 1e-6)
    _gate(7, "regularity estimate", t0, 600.0, ok,
          f"3-D ratios {min(ratios3):.3e}..{max(ratios3):.3e} drift "
          f"{drift3:.1e}; 2-D ratios {min(ratios2):.3e}..{max(ratios2):.3e} "
          f"drift {drift2:.1e}")


# -- 8: Orlicz norm suite ---------------------------------------------------

def test_criterion_08_orlicz_suite():
    t0 = time.perf_counter()
    pairs = [
        (power_young(2.0, normalized=True), power_young(2.0, normalized=True)),
        (power_young(3.0), power_young(1.5)),
        (exp_young(), exp_conjugate()),
    ]
    sandwich_ok = True
    fields = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        f = SampledField.uniform(rng.uniform(0.0, 1.5, 257))
        fields.append(f)
        for M, N in pairs:
            lux = luxemburg_norm(f, M)
            amy = orlicz_norm(f, (M, N))
            if not (lux <= amy * (1.0 + 1e-7)
                    and amy <= 2.0 * lux * (1.0 + 1e-7)):
                sandwich_ok = False

    slack_min = INF
    for u, v in zip(fields[:20], fields[20:40]):
        for pair in pairs:
            slack_min = min(slack_min, holder_orlicz(u, v, pair).slack)

    c, m, p = 2.0, 0.5, 3.0
    const = SampledField.uniform(np.full(128, c), measure=m)
    lux_const = luxemburg_norm(const, power_young(p))
    const_err = abs(lux_const - c * m ** (1.0 / p)) / (c * m ** (1.0 / p))

    ok = sandwich_ok and slack_min >= 0.0 and const_err <= 1e-8
    _gate(8, "orlicz suite", t0, 30.0, ok,
          f"sandwich {'held' if sandwich_ok else 'failed'} on 50x3, "
          f"min slack {slack_min:.3e}, constant-field error {const_err:.1e}")


# -- 9: dyadic mean oscillation --------------------------------------------

def _brute_oscillation(values):
    n1, n2 = values.shape
    best = 0.0
    m = 2
    while m <= min(n1, n2):
        for i0 in range(0, n1 - m + 1, m):
            for j0 in range(0, n2 - m + 1, m):
                tile = values[i0:i0 + m, j0:j0 + m]
                best = max(best, float(np.mean(np.abs(tile - tile.mean()))))
        m *= 2
    return best


def test_criterion_09_bmo():
    t0 = time.perf_counter()
    flat = constant_field(2.0, 1.0)
    exact_zero = bmo_seminorm(gamma_field(flat)) == 0.0

    worst = 0.0
    for field in (checkerboard_field(1.0, 1.0, 0.3),
                  ramp_field(1.0, 1.0, 0.25)):
        for values in (field.mu_total, gamma_field(field)):
            worst = max(worst, abs(bmo_seminorm(values)
                                   - _brute_oscillation(values)))
    _gate(9, "bmo seminorm", t0, 5.0, exact_zero and worst <= 1e-12,
          f"constant exactly zero: {exact_zero}; max brute-force gap "
          f"{worst:.2e}")


# -- 10: byte-identical reruns ----------------------------------------------

def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    doc = {
        "command": "verify-forms",
        "phi": {"family": "power", "p": 4.0},
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "seed": 11,
        "out": str(tmp_path / "report"),
    }

    def run_once():
        code = run(config_from_mapping(doc))
        digest = {}
        for path in sorted(tmp_path.iterdir()):
            digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return code, digest

    code_a, first = run_once()
    code_b, second = run_once()
    records = [json.loads(line)
               for line in open(tmp_path / "report.jsonl", encoding="utf-8")]
    no_clocks = all(not any("time" in k or "date" in k for k in rec)
                    for rec in records)
    ok = (code_a == code_b == 0 and first == second and len(first) >= 2
          and no_clocks)
    _gate(10, "determinism", t0, 60.0, ok,
          f"{len(first)} artifact files byte-identical across reruns")
