"""Verdict layer tests.

The closed form for constant planar coefficients is the main oracle: the
necessary bound is 1 - ((lambda+mu)/(lambda+3mu))^2, so for lambda = mu = 1
the power weight flips from strictly dissipative to not dissipative at
(1-2/p)^2 = 3/4, i.e. p* = 8 + 4*sqrt(3).  The probe search must locate the
same flip on its own from the pointwise algebraic condition.
"""

import math

import numpy as np
import pytest

from funcdiss import (
    DISSIPATIVE_BOUNDARY,
    INCONCLUSIVE,
    NOT_DISSIPATIVE,
    STRICT_DISSIPATIVE,
    BracketFailure,
    BudgetExhausted,
    EllipticityViolation,
    NotStrict,
    PhiSpec,
    Verdict,
    algebraic_form,
    algebraic_margin,
    checkerboard_field,
    constant_field,
    constant_threshold,
    custom_phi,
    dual_phi,
    exp_square_phi,
    kappa_policy,
    lame2d_verdict,
    lameNd_sufficient,
    lame_system,
    perturbation_budget,
    poisson_threshold,
    power_phi,
    radial_field,
    ramp_field,
    truncated_power,
    validate_phi,
)
from funcdiss import coefficients, criteria
from funcdiss.criteria import _probe_matrix

P_STAR = 8.0 + 4.0 * math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Algebraic probe search


def test_margin_at_zero_lambda_is_smallest_eigenvalue():
    # Without the weight terms the form is <Q eta, eta> and the minimum over
    # unit eta, xi is min(mu, lambda + 2 mu).
    r = algebraic_margin(lame_system(1.0, 1.0), 0.0)
    assert r.min_value == pytest.approx(1.0, abs=1e-10)
    r = algebraic_margin(lame_system(-1.5, 1.0), 0.0)
    assert r.min_value == pytest.approx(0.5, abs=1e-10)


def test_margin_sign_straddles_the_closed_form_bound():
    sys = lame_system(1.0, 1.0)
    assert algebraic_margin(sys, math.sqrt(0.25)).min_value > 0.01
    assert algebraic_margin(sys, math.sqrt(0.80)).min_value < -0.01


@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (2.0, 0.5)])
def test_margin_flip_locates_necessary_bound(lam, mu):
    # Bisect the sign change of the probe minimum in Lambda^2 and compare
    # with 1 - ((lambda+mu)/(lambda+3mu))^2.
    sys = lame_system(lam, mu)
    expect = 1.0 - ((lam + mu) / (lam + 3.0 * mu)) ** 2

    lo, hi = 0.0, 1.0
    for _ in range(22):
        mid = 0.5 * (lo + hi)
        val = algebraic_margin(sys, math.sqrt(mid)).min_value
        if val > 0.0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(expect, abs=5e-6)


# (lambda, mu, Lambda_inf, minimum) of algebraic_margin under the earlier
# search, a 32^3 lattice and a Nelder-Mead polish
MARGIN_VALUES = (
    (1.0, 1.0, 0.0, 0.9999999999999998),
    (-1.5, 1.0, 0.0, 0.49999999999999983),
    (1.0, 1.0, 0.5, 0.7042936150558197),
    (1.0, 1.0, math.sqrt(0.8), -0.08113883008419095),
    (1.0, 1.0, -0.9375, -0.21402463844004677),
    (2.0, 0.5, math.sqrt(0.5), -0.011857892036909647),
    (2.0, 0.5, -math.sqrt(0.9), -0.5366514518826097),
    (0.8, 1.1, 0.6, 0.6437177214281269),
    (1.3, 0.6, -0.7, 0.14588811477630537),
    (-1.5, 1.0, -math.sqrt(0.9), -0.007522597763920027),
)


@pytest.mark.parametrize("lam, mu, lam_inf, expect", MARGIN_VALUES)
def test_margin_matches_earlier_search(lam, mu, lam_inf, expect):
    sys = lame_system(lam, mu)
    scale = float(np.max(np.abs(sys.tensor)))
    assert algebraic_margin(sys, lam_inf).min_value == pytest.approx(
        expect, rel=0.0, abs=1e-12 * scale)


@pytest.mark.parametrize("lam, mu, lam_inf, rounds", [
    (1.0, 1.0, math.sqrt(0.8), 0),   # the lattice alone has no last move
    (2.0, 0.5, math.sqrt(0.5), 2),   # round 2 lowers it by 2.9e-8 * scale
])
def test_margin_budget_exhausted(monkeypatch, lam, mu, lam_inf, rounds):
    monkeypatch.setattr(criteria, "_ZOOM_ROUNDS", rounds)
    with pytest.raises(BudgetExhausted):
        algebraic_margin(lame_system(lam, mu), lam_inf)


@pytest.mark.parametrize("angle", [0.7, 2.0, 2.6])
def test_lattice_minimum_follows_a_narrow_valley(angle):
    # condition number 1000, the valley rotated off the lattice axes; a box
    # halved every round stops 0.06 to 0.16 away from these minimisers
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    hess = rot @ np.diag([1000.0, 1.0]) @ rot.T
    target = np.array([0.123456789, 0.987654321])

    def fn(nodes):
        d = nodes - target
        return np.einsum("ni,ij,nj->n", d, hess, d)

    value, point, improvement = criteria._lattice_minimum(fn, [2.0, 3.0], 33)
    assert 0.0 <= value < 1e-20
    assert np.allclose(point, target, rtol=0.0, atol=1e-11)
    assert improvement == 0.0


@pytest.mark.parametrize("lam_inf", [math.nan, math.inf, -math.inf])
def test_margin_rejects_non_finite_ratio(lam_inf):
    with pytest.raises(ValueError, match="finite"):
        algebraic_margin(lame_system(1.0, 1.0), lam_inf)


def test_probe_matrix_matches_direct_evaluation():
    # The eigenvalue reduction encodes the same number the direct complex
    # expression produces, for arbitrary eta.
    rng = np.random.default_rng(19)
    sys = lame_system(0.8, 1.1)
    for _ in range(40):
        lam_inf = rng.uniform(-1.0, 1.0)
        xi = rng.normal(size=2)
        xi /= np.linalg.norm(xi)
        om = rng.normal(size=2) + 1j * rng.normal(size=2)
        om /= np.linalg.norm(om)
        eta = rng.normal(size=2) + 1j * rng.normal(size=2)
        Q = sys.contract_xi(xi)
        M = _probe_matrix(Q, om, lam_inf)
        x = np.concatenate([eta.real, eta.imag])
        assert x @ M @ x == pytest.approx(
            algebraic_form(sys, lam_inf, xi, eta, om), rel=1e-11, abs=1e-11)
    # a stack of omegas, as the lattice search passes them: each slice is
    # the single-omega matrix
    oms = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    oms /= np.linalg.norm(oms, axis=-1, keepdims=True)
    stacked = _probe_matrix(Q, oms, lam_inf)
    assert stacked.shape == (3, 4, 4, 4)
    for k in np.ndindex(3, 4):
        assert np.allclose(stacked[k], _probe_matrix(Q, oms[k], lam_inf),
                           rtol=1e-14, atol=1e-14)


def test_joint_phase_invariance():
    rng = np.random.default_rng(7)
    sys = lame_system(1.3, 0.6)
    xi = np.array([0.3, -0.95])
    om = rng.normal(size=2) + 1j * rng.normal(size=2)
    om /= np.linalg.norm(om)
    eta = rng.normal(size=2) + 1j * rng.normal(size=2)
    base = algebraic_form(sys, 0.7, xi, eta, om)
    for th in (0.4, 1.9, 3.3):
        z = np.exp(1j * th)
        assert algebraic_form(sys, 0.7, xi, eta * z, om * z) == pytest.approx(
            base, rel=1e-12)


def test_negative_margin_comes_with_a_witness():
    sys = lame_system(1.0, 1.0)
    r = algebraic_margin(sys, math.sqrt(0.80))
    val = algebraic_form(sys, math.sqrt(0.80), r.argmin.xi, r.argmin.eta,
                         r.argmin.omega)
    assert val == pytest.approx(r.min_value, rel=1e-8, abs=1e-10)
    assert val < 0.0
    assert abs(np.linalg.norm(r.argmin.omega) - 1.0) < 1e-12
    assert abs(np.linalg.norm(r.argmin.eta) - 1.0) < 1e-12


def test_probe_search_needs_planar_pair():
    t = np.zeros((3, 3, 2, 2), dtype=complex)
    from funcdiss import GeneralSystem
    sys = GeneralSystem(tensor=t + 0.0)
    with pytest.raises(ValueError):
        algebraic_margin(sys, 0.0)


# ---------------------------------------------------------------------------
# Planar verdicts


def test_verdict_power_flip_at_constant_coefficients():
    cf = constant_field(1.0, 1.0)
    v2 = lame2d_verdict(power_phi(2.0), cf)
    assert v2.status == STRICT_DISSIPATIVE
    assert v2.kappa == pytest.approx(0.16875, rel=1e-12)
    v4 = lame2d_verdict(power_phi(4.0), cf)
    assert v4.status == STRICT_DISSIPATIVE
    v16 = lame2d_verdict(power_phi(16.0), cf)
    assert v16.status == NOT_DISSIPATIVE
    vb = lame2d_verdict(power_phi(P_STAR), cf)
    assert vb.status == DISSIPATIVE_BOUNDARY


def test_verdict_margin_is_exact_difference():
    v = lame2d_verdict(power_phi(4.0), constant_field(1.0, 1.0))
    assert v.margin == v.rhs - v.lambda_inf_sq
    assert v.rhs == pytest.approx(0.75, rel=1e-15)
    assert v.lambda_inf_sq == pytest.approx(0.25, rel=1e-12)


def test_verdict_rejects_unknown_status():
    with pytest.raises(ValueError):
        Verdict(status="Maybe", lambda_inf_sq=0.0, rhs=0.0, margin=0.0)


@pytest.mark.parametrize("name", ["lambda_inf_sq", "rhs", "margin", "kappa",
                                  "bmo_value", "bmo_threshold"])
def test_verdict_rejects_nan(name):
    fields = dict(status=STRICT_DISSIPATIVE, lambda_inf_sq=0.25, rhs=0.75,
                  margin=0.5, kappa=0.1, bmo_value=0.0, bmo_threshold=0.2)
    Verdict(**fields)
    with pytest.raises(ValueError, match=f"{name} is NaN"):
        Verdict(**dict(fields, **{name: float("nan")}))


def test_kappa_policy_frozen_numbers():
    # gap 0.75, Lambda^2 = 0, ess infs (1, 3): delta = 0.375,
    # kappa = 0.9 * 0.375/2 * 1 = 0.16875.
    assert kappa_policy(0.75, 0.0, 1.0, 3.0) == pytest.approx(0.16875,
                                                              rel=1e-15)
    with pytest.raises(NotStrict):
        kappa_policy(0.0, 0.0, 1.0, 3.0)


def test_verdict_exp_square_refuted_by_grid_bound():
    v = lame2d_verdict(exp_square_phi(), constant_field(1.0, 1.0))
    assert v.status == NOT_DISSIPATIVE
    assert any("unconverged" in n for n in v.notes)


def _bump_ratio_phi():
    """exp(20 g(s)) log(e + s) with g = 1/(1 + (10/s)^4): the ratio
    s*phi'/phi = 80 g (1 - g) + s/((e + s) log(e + s)) peaks near 20 at
    s = 10 and decays to 0, so condition (vi) fails and Lambda_inf = 0."""
    def g(s):
        return 1.0 / (1.0 + (10.0 / s) ** 4)

    def phi(s):
        s = np.asarray(s, dtype=float)
        return np.exp(20.0 * g(s)) * np.log(math.e + s)

    def dphi(s):
        s = np.asarray(s, dtype=float)
        gs = g(s)
        r = 80.0 * gs * (1.0 - gs) + s / ((math.e + s) * np.log(math.e + s))
        return phi(s) * r / s

    return custom_phi(phi, dphi, label="bump-ratio")


def test_verdict_unconverged_custom_tail_is_inconclusive():
    # Only a ratio monotone by construction lets the sampled sup bound
    # Lambda_inf^2 from below; exp_square still refutes (test above).
    spec = _bump_ratio_phi()
    assert validate_phi(spec).check("vi:ratio-monotone").status == "fails"
    limit = spec.profile.limit
    assert not limit.converged
    # The sampled sup sees the bump of the ratio, not the limit.
    assert limit.sup_lambda_sq > 0.8 and limit.lambda_inf_sq < 0.01
    v = lame2d_verdict(spec, constant_field(1.0, 1.0))
    assert v.status == INCONCLUSIVE
    assert not any("refutation" in n for n in v.notes)


def test_verdict_truncated_power_blocked_sup():
    # Limit ratio 0 passes the necessary bound, but sup Lambda^2 = 0.766
    # blocks the sufficiency argument: honest Inconclusive.
    v = lame2d_verdict(truncated_power(16.0, 3.0), constant_field(1.0, 1.0))
    assert v.status == INCONCLUSIVE
    assert v.lambda_inf_sq == pytest.approx(0.0, abs=1e-12)

    ok = lame2d_verdict(truncated_power(4.0, 3.0), constant_field(1.0, 1.0))
    assert ok.status == STRICT_DISSIPATIVE


def test_verdict_steep_power_builds_no_table(monkeypatch):
    # p = 7e4 leaves s*sqrt(phi(s)) finite at fewer than two table nodes;
    # the power family never needs the table.
    calls = []
    original = PhiSpec.s_sqrt_phi

    def counting(self, s):
        calls.append(np.size(s))
        return original(self, s)

    monkeypatch.setattr(PhiSpec, "s_sqrt_phi", counting)
    spec = power_phi(7e4)
    v = lame2d_verdict(spec, constant_field(1.0, 1.0))
    assert v.status == NOT_DISSIPATIVE
    assert spec.profile.lambda_of(np.array([1e-3, 1.0, 1e3])) == \
        pytest.approx(-(7e4 - 2.0) / 7e4, rel=1e-15)
    assert calls == []


def test_verdict_truncated_power_far_plateau_not_refuted():
    # The plateau of truncated_power(40, 1e3) starts past t = 1e8, so a
    # sampled tail still reads the power's 0.9025 there; the limit is 0.
    v = lame2d_verdict(truncated_power(40.0, 1e3), constant_field(1.0, 1.0))
    assert v.status != NOT_DISSIPATIVE
    assert v.lambda_inf_sq == 0.0
    assert any("0.9025 in closed form" in n for n in v.notes)


def _stepped_phi(height=0.1, width=1e-3, at=10.0):
    """s * exp(height * sigma(log(s/at)/width)), sigma the logistic step:
    Lambda^2 = 1/9 off the step and 0.862 at its middle."""
    def step(s):
        return 1.0 / (1.0 + np.exp(-np.log(np.asarray(s) / at) / width))

    def phi(s):
        return np.asarray(s) * np.exp(height * step(s))

    def dphi(s):
        g = step(s)
        return np.exp(height * g) * (1.0 + height * g * (1.0 - g) / width)

    return custom_phi(phi, dphi, r=1.0, c1=1.5, c2=2.5, label="stepped")


def test_verdict_sampled_sup_never_certifies_strict():
    spec = _stepped_phi()
    s = np.geomspace(9.0, 11.0, 200_001)
    r = s * spec.dphi(s) / spec.phi(s)
    assert np.max((r / (r + 2.0)) ** 2) > 0.86     # above rhs = 0.75
    limit = spec.profile.limit
    assert limit.sup_lambda_sq < 0.12              # the samples miss the step
    assert not limit.sup_bounded and limit.sup_bound == 1.0
    v = lame2d_verdict(spec, constant_field(1.0, 1.0))
    assert v.status != STRICT_DISSIPATIVE
    assert any("sampled, not certified" in n for n in v.notes)
    nd = lameNd_sufficient(spec, 1.0, 1.0)
    assert nd.status == INCONCLUSIVE
    assert any("sampled, not certified" in n for n in nd.notes)


@pytest.mark.parametrize("p", [4.5, 5.0, 6.0, 8.0])
def test_verdict_dual_power_is_conjugate_power(p):
    # The dual of power p reads its tail off the base, in closed form, and
    # decides like power p' = p/(p-1).
    for coeffs in (constant_field(1.0, 1.0), radial_field(1.0, 1.0, 0.1)):
        dual = lame2d_verdict(dual_phi(power_phi(p)), coeffs)
        conj = lame2d_verdict(power_phi(p / (p - 1.0)), coeffs)
        assert dual.status == conj.status == STRICT_DISSIPATIVE
        assert dual.margin == pytest.approx(conj.margin, rel=1e-14, abs=0)


def test_verdict_dual_exp_square_refuted_like_its_base():
    coeffs = constant_field(1.0, 1.0)
    assert lame2d_verdict(dual_phi(exp_square_phi()), coeffs).status == \
        lame2d_verdict(exp_square_phi(), coeffs).status == NOT_DISSIPATIVE


def test_verdict_custom_weight_with_short_table():
    # The power weight p = 1.1 written out: s*sqrt(phi(s)) = s^0.55 ends at
    # 3.98e6 on the table, so the tail samples only the nodes below it.
    spec = custom_phi(lambda s: np.asarray(s) ** -0.9,
                      lambda s: -0.9 * np.asarray(s) ** -1.9,
                      r=-0.9, c1=0.1, c2=0.1)
    assert validate_phi(spec).ok
    limit = spec.profile.limit
    assert limit.converged
    assert limit.lambda_inf == pytest.approx(0.9 / 1.1, rel=1e-12)
    v = lame2d_verdict(spec, constant_field(1.0, 1.0))
    assert v.status == INCONCLUSIVE
    assert any("sampled, not certified" in n for n in v.notes)
    # s*sqrt(phi(s)) = 1e-30 s stays below the whole tail grid.
    tiny = custom_phi(lambda s: np.full(np.shape(s), 1e-60))
    with pytest.raises(BracketFailure, match="fewer than three tail nodes"):
        tiny.profile.limit


def test_verdict_gentle_ramp_is_strict():
    f = ramp_field(1.0, 1.0, 0.2, shape=(33, 33))
    v = lame2d_verdict(power_phi(4.0), f)
    assert v.status == STRICT_DISSIPATIVE
    assert v.bmo_value < v.bmo_threshold


def test_bmo_seminorm_once_per_coefficient_field(monkeypatch):
    # The oscillation of mu^2/(lambda+3mu) does not depend on the weight,
    # so a sweep over exponents computes it once for the field.
    calls = []
    original = coefficients.bmo_seminorm

    def counting(values):
        calls.append(values.shape)
        return original(values)

    monkeypatch.setattr(coefficients, "bmo_seminorm", counting)
    field = ramp_field(1.0, 1.0, 0.02)
    verdicts = [lame2d_verdict(power_phi(p), field) for p in (2.5, 3.0, 3.5)]
    assert [v.status for v in verdicts] == [STRICT_DISSIPATIVE] * 3
    assert len(calls) == 1
    lam, mu = field.lam_total, field.mu_total
    assert all(v.bmo_value == original(mu * mu / (lam + 3.0 * mu))
               for v in verdicts)


def test_verdict_rough_checkerboard_is_inconclusive():
    f = checkerboard_field(1.0, 1.0, 0.9, block=1, shape=(33, 33))
    v = lame2d_verdict(power_phi(4.0), f)
    assert v.status == INCONCLUSIVE
    assert v.bmo_value > v.bmo_threshold
    assert any("oscillation" in n for n in v.notes)


def test_verdict_ellipticity_violation_propagates():
    with pytest.raises(EllipticityViolation):
        lame2d_verdict(power_phi(2.0), constant_field(1.0, -1.0))


# ---------------------------------------------------------------------------
# Constant coefficients in any dimension


def test_constant_threshold_cases():
    assert constant_threshold(1.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert constant_threshold(-1.5, 1.0) == pytest.approx(0.5)
    assert constant_threshold(-1.0, 1.0) == 1.0
    with pytest.raises(EllipticityViolation):
        constant_threshold(1.0, 0.0)
    with pytest.raises(EllipticityViolation):
        constant_threshold(-3.0, 1.0)


def test_nonfinite_constant_pair_is_rejected():
    # A NaN must not slip through the comparisons to a strict verdict.
    for lam, mu in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                    (1.0, math.inf)):
        with pytest.raises(EllipticityViolation, match="not finite"):
            constant_threshold(lam, mu)
        with pytest.raises(EllipticityViolation):
            lameNd_sufficient(power_phi(4.0), lam, mu)


def test_poisson_threshold_agrees_with_lame_form():
    for lam, mu in [(1.0, 1.0), (2.0, 0.5), (-1.5, 1.0)]:
        nu = lam / (2.0 * (lam + mu))
        assert poisson_threshold(nu) == pytest.approx(
            constant_threshold(lam, mu), rel=1e-14)
    with pytest.raises(ValueError):
        poisson_threshold(0.75)


def test_lameNd_sufficient_verdicts():
    v = lameNd_sufficient(power_phi(4.0), 1.0, 1.0)
    assert v.status == STRICT_DISSIPATIVE
    assert v.rhs == pytest.approx(1.0 / 3.0)
    v = lameNd_sufficient(power_phi(6.0), 1.0, 1.0)
    assert v.status == INCONCLUSIVE


def test_sufficient_never_contradicts_planar_necessary():
    # Constant pairs where the any-dimension sufficient bound fires must not
    # be refuted by the planar criterion for the same weight.
    lams = np.linspace(-1.8, 3.0, 12)
    mus = np.linspace(0.2, 3.0, 10)
    specs = [power_phi(p) for p in (2.0, 3.0, 6.0, 12.0)]
    for lam in lams:
        for mu in mus:
            if mu <= 0 or lam + 2 * mu <= 0:
                continue
            cf = constant_field(float(lam), float(mu), shape=(5, 5))
            for spec in specs:
                nd = lameNd_sufficient(spec, float(lam), float(mu))
                if nd.status != STRICT_DISSIPATIVE:
                    continue
                planar = lame2d_verdict(spec, cf)
                assert planar.status != NOT_DISSIPATIVE, (lam, mu, spec.label)


# ---------------------------------------------------------------------------
# Perturbation budget


def test_perturbation_budget_frozen_values():
    # kappa0 from the verdict's own margin choice; C = 2 at p = 2.
    v = lame2d_verdict(power_phi(2.0), constant_field(1.0, 1.0))
    assert v.kappa == pytest.approx(0.16875, rel=1e-12)
    budget = perturbation_budget(power_phi(2.0), 1.0, 1.0, v.kappa)
    assert budget == pytest.approx(v.kappa / 4.0, rel=1e-15)

    # p = 4: sup Lambda^2 = 0.25, C = max(2.5, 2.25) = 2.5.
    b4 = perturbation_budget(power_phi(4.0), 1.0, 1.0, 0.15)
    assert b4 == pytest.approx(0.15 / 5.0, rel=1e-12)


def test_perturbation_budget_is_linear_in_kappa0():
    b1 = perturbation_budget(power_phi(2.0), 1.0, 1.0, 0.1)
    b2 = perturbation_budget(power_phi(2.0), 1.0, 1.0, 0.2)
    assert b2 == pytest.approx(2.0 * b1, rel=1e-15)
    assert perturbation_budget(power_phi(2.0), 1.0, 1.0, 0.0) == 0.0


def test_perturbation_budget_rejects_negative_margin():
    for kappa0 in (-0.1, math.nan, math.inf):
        with pytest.raises(NotStrict):
            perturbation_budget(power_phi(2.0), 1.0, 1.0, kappa0)


def test_kappa_hint_is_respected_and_validated():
    cf = constant_field(1.0, 1.0)
    v = lame2d_verdict(power_phi(2.0), cf, 1.0, 0.05)
    assert v.status == STRICT_DISSIPATIVE
    assert v.kappa == 0.05
    with pytest.raises(NotStrict):
        lame2d_verdict(power_phi(2.0), cf, 1.0, 5.0)


def test_worse_coefficients_never_improve_status():
    # Raising lambda inflates sup_ratio; the verdict can only degrade.
    rank = {STRICT_DISSIPATIVE: 3, DISSIPATIVE_BOUNDARY: 2, INCONCLUSIVE: 1,
            NOT_DISSIPATIVE: 0}
    spec = power_phi(6.0)
    last = 4
    for lam in (0.5, 1.0, 2.0, 5.0, 20.0):
        v = lame2d_verdict(spec, constant_field(lam, 1.0, shape=(5, 5)))
        assert rank[v.status] <= last
        last = rank[v.status]
