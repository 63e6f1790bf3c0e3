"""Weight calculus tests.

The power weight phi(s) = s^(p-2) is the oracle backbone: every derived
quantity has a closed form there (s*phi = s^(p-1), zeta(t) = t^(2/p),
Lambda = -(p-2)/p, Phi(s) = s^p/p, dual psi = power with the conjugate
exponent).  exp(s^2) exercises the saturating tail, the truncated power
the non monotone ratio.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import given, settings, strategies as st

from funcdiss import (
    BadTruncation,
    BracketFailure,
    LambdaLimit,
    LambdaProfile,
    NonPositivePhi,
    NotIncreasing,
    PhiSpec,
    QuadratureFailure,
    bump_field,
    constant_field,
    custom_phi,
    dissipativity_form,
    dual_phi,
    elasticity_breakdown,
    exp_square_phi,
    inverse_s_phi,
    lame2d_verdict,
    lameNd_sufficient,
    oscillatory_counterexample,
    perturbation_budget,
    power_phi,
    standard_ensemble,
    strict_margin,
    truncated_power,
    validate_phi,
    young_pair,
)
from funcdiss.orlicz import (
    exp_power_young,
    exp_young,
    legendre_conjugate,
    power_young,
)
from funcdiss.phi import _BRACKET_HI, _BRACKET_LO, _TAIL_T


def _invert_monotone(g, t, what):
    """Reference inversion: solve g(s) = t for increasing g by bisection.

    The bracket is grown over decades [1e-12, 1e12]; 60 bisection steps are
    geometric (uniform in log s) and only ever compare g(mid) against t, so
    overflow to inf on the high side is harmless.  Targets tying the left
    edge are taken as solved at the edge.
    """
    t = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(t)) or np.any(t <= 0.0):
        raise BracketFailure(f"{what}: target must be finite positive")
    decades = np.geomspace(_BRACKET_LO, _BRACKET_HI, 25)
    with np.errstate(over="ignore", invalid="ignore"):
        gd = np.asarray(g(decades), dtype=float)
    gd = np.where(np.isnan(gd), np.inf, gd)
    edge = gd[0] * (1.0 - 1e-9) if gd[0] > 0 else gd[0]
    bad = (t < edge) | (t > np.max(gd))
    if np.any(bad):
        raise BracketFailure(
            f"{what}: target {t[bad].flat[0]:.6g} outside the searchable range")
    tt = np.maximum(t, gd[0])
    idx = np.clip(np.searchsorted(gd, tt, side="right"), 1, len(decades) - 1)
    lo = decades[idx - 1]
    hi = decades[idx]
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        with np.errstate(over="ignore", invalid="ignore"):
            gm = np.asarray(g(mid), dtype=float)
        gm = np.where(np.isnan(gm), np.inf, gm)
        take_hi = gm >= t
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return np.sqrt(lo * hi)


# ---------------------------------------------------------------------------
# Point values


def test_power_phi_values():
    spec = power_phi(3.0)
    assert spec.phi(2.0) == pytest.approx(2.0, abs=0)
    assert spec.dphi(2.0) == pytest.approx(1.0, abs=0)
    assert spec.s_phi(2.0) == pytest.approx(4.0, abs=0)
    assert spec.ds_phi(2.0) == pytest.approx(4.0, rel=1e-15)
    assert spec.s_sqrt_phi(4.0) == pytest.approx(8.0, rel=1e-15)


def test_power_phi_rejects_bad_exponent():
    for p in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            power_phi(p)


def test_truncated_power_frozen_values():
    # p = 4, k = 2: quadratic below 1, bridged on [1, 2], constant 2.25 above.
    spec = truncated_power(4.0, 2.0)
    assert spec.phi(0.5) == pytest.approx(0.25, abs=0)
    assert spec.phi(2.0) == pytest.approx(2.25, rel=1e-15)
    assert spec.phi(3.0) == pytest.approx(2.25, abs=0)
    assert spec.dphi(3.0) == 0.0
    # C^1 junctions
    for t0 in (1.0, 2.0):
        lo, hi = t0 - 1e-7, t0 + 1e-7
        assert spec.phi(hi) - spec.phi(lo) == pytest.approx(0.0, abs=1e-6)
        assert spec.dphi(hi) - spec.dphi(lo) == pytest.approx(0.0, abs=1e-6)


def test_truncated_power_scalar_and_zero_d():
    spec = truncated_power(4.0, 2.0)
    assert np.shape(spec.phi(np.float64(3.0))) == ()
    assert np.shape(spec.dphi(np.array(0.5))) == ()
    arr = spec.phi(np.array([[0.5, 3.0]]))
    assert arr.shape == (1, 2)


def test_truncated_power_rejects_bad_parameters():
    with pytest.raises(BadTruncation):
        truncated_power(1.5, 2.0)
    with pytest.raises(BadTruncation):
        truncated_power(4.0, 1.0)
    for p, k in ((math.inf, 2.0), (math.nan, 2.0), (4.0, math.inf),
                 (4.0, math.nan), (4.0, 1e300), (2000.0, 1.2)):
        # The last two: the plateau (k-1/2)^(p-2) overflows or underflows.
        with pytest.raises(BadTruncation):
            truncated_power(p, k)


def test_custom_phi_central_difference_derivative():
    spec = custom_phi(lambda s: np.asarray(s) ** 2, r=2.0, c1=2.9, c2=3.1)
    grid = np.geomspace(0.1, 50.0, 40)
    assert np.allclose(spec.dphi(grid), 2.0 * grid, rtol=1e-8)


# ---------------------------------------------------------------------------
# Inversion and the derived calculus


def test_inverse_s_phi_power_closed_form():
    # s*phi(s) = s^2 for p = 3; the preimage of 8 is 2*sqrt(2).
    spec = power_phi(3.0)
    assert inverse_s_phi(spec, 8.0) == pytest.approx(2.0 * math.sqrt(2.0),
                                                     rel=1e-12)


def test_inverse_s_phi_vectorized_round_trip():
    spec = power_phi(4.5)
    t = np.geomspace(1e-4, 1e4, 60)
    s = inverse_s_phi(spec, t)
    assert np.allclose(spec.s_phi(s), t, rtol=1e-12)


def test_inverse_rejects_unreachable_targets():
    spec = power_phi(3.0)
    with pytest.raises(BracketFailure):
        inverse_s_phi(spec, 1e40)
    with pytest.raises(BracketFailure):
        inverse_s_phi(spec, -1.0)


def test_zeta_theta_power_closed_form():
    # s*sqrt(phi) = s^(p/2); p = 4 gives zeta(t) = sqrt(t).
    prof = LambdaProfile(power_phi(4.0))
    assert prof.zeta(16.0) == pytest.approx(4.0, rel=1e-12)
    assert prof.theta(16.0) == pytest.approx(0.25, rel=1e-12)


def test_zeta_steep_power_needs_no_table(monkeypatch):
    # For p = 7e4, s*sqrt(phi(s)) = s^35000 is finite and positive at
    # fewer than two table nodes; the closed form never evaluates it.
    def refuse(self, s):
        raise AssertionError("s_sqrt_phi evaluated")

    monkeypatch.setattr(PhiSpec, "s_sqrt_phi", refuse)
    prof = LambdaProfile(power_phi(7e4))
    assert prof.zeta(1.0) == 1.0
    assert prof.theta(1.0) == 1.0


def test_zeta_power_closed_form_matches_table_route():
    prof = LambdaProfile(power_phi(4.0))
    t = np.geomspace(1e-20, 1e20, 401)
    table = prof._solve(t)[0]
    np.testing.assert_allclose(prof.zeta(t), table, rtol=1e-14, atol=0)
    np.testing.assert_allclose(prof.theta(t), table / t, rtol=1e-14,
                               atol=0)


def test_lambda_power_is_constant():
    for p in (2.0, 3.0, 7.5, 24.0):
        prof = LambdaProfile(power_phi(p))
        t = np.geomspace(1e-5, 1e5, 41)
        assert np.allclose(prof.lambda_of(t), -(p - 2.0) / p, atol=1e-10)


def test_lambda_exp_square_closed_form():
    # At s = zeta(t), Lambda = -s^2/(s^2+1); s = 1 maps to t = e^(1/2).
    prof = LambdaProfile(exp_square_phi())
    assert prof.lambda_of(math.exp(0.5)) == pytest.approx(-0.5, rel=1e-10)
    # s = 2 maps to t = 2 e^2.
    assert prof.lambda_of(2.0 * math.exp(2.0)) == pytest.approx(-0.8,
                                                                rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(p=st.floats(2.05, 20.0), t=st.floats(1e-3, 1e3))
def test_lambda_power_property(p, t):
    prof = LambdaProfile(power_phi(p))
    assert prof.lambda_of(t) == pytest.approx(-(p - 2.0) / p, abs=1e-9)


def test_identity_theta_squared_phi():
    # Theta(t)^2 * phi(zeta(t)) = 1 for every admissible weight.
    for spec in (power_phi(3.0), exp_square_phi(), truncated_power(4.0, 2.0)):
        prof = LambdaProfile(spec)
        t = np.geomspace(1e-3, 1e3, 31)
        z = prof.zeta(t)
        th = prof.theta(t)
        assert np.allclose(th * th * spec.phi(z), 1.0, rtol=1e-10), spec.label


def test_identity_theta_derivative():
    # Theta*phi'(zeta)*(t*Theta' + Theta) + Theta'*phi(zeta) = -Theta'/Theta^2.
    for spec in (power_phi(3.0), exp_square_phi(), truncated_power(4.0, 2.0)):
        prof = LambdaProfile(spec)
        t = np.geomspace(1e-2, 1e2, 17)
        h = 1e-6 * t
        dtheta = (prof.theta(t + h) - prof.theta(t - h)) / (2.0 * h)
        th = prof.theta(t)
        z = prof.zeta(t)
        lhs = (th * spec.dphi(z) * (t * dtheta + th) + dtheta * spec.phi(z)
               + dtheta / (th * th))
        # Natural magnitude of a Theta'-sized term; on plateaus where
        # phi' = 0 the identity degenerates to 0 = 0 and only the absolute
        # floor matters.
        scale = spec.phi(z) * th / t + np.abs(th * th * spec.dphi(z))
        assert np.all(np.abs(lhs) / scale < 1e-5), spec.label


def test_lambda_matches_theta_log_derivative():
    # Lambda(t) = t*Theta'(t)/Theta(t), computed here by central differences.
    prof = LambdaProfile(exp_square_phi())
    t = np.geomspace(0.7, 30.0, 13)
    h = 1e-6 * t
    dtheta = (prof.theta(t + h) - prof.theta(t - h)) / (2.0 * h)
    assert np.allclose(prof.lambda_of(t), t * dtheta / prof.theta(t),
                       rtol=1e-5)


# ---------------------------------------------------------------------------
# Forward table against the bisection route


def _bisection_lambda(spec, t):
    """Lambda by the reference route: bisect s*sqrt(phi(s)) = t on the
    bracket, with targets below it taken at its edge."""
    floor = float(spec.s_sqrt_phi(_BRACKET_LO))
    s = _invert_monotone(spec.s_sqrt_phi, np.maximum(t, floor), "reference")
    num = s * spec.dphi(s)
    return -num / (num + 2.0 * spec.phi(s))


@pytest.mark.parametrize("spec, junctions, lam_atol", [
    (exp_square_phi(), (), 1e-14),
    # Near s = k the ratio s*phi'/phi falls to 0 with slope of order one,
    # so a last-bit change of s moves Lambda by ~1e-15 absolute.
    (truncated_power(4.0, 1.5), (0.5, 1.5), 1e-14),
    (truncated_power(6.0, 2.0), (1.0, 2.0), 1e-14),
    (dual_phi(power_phi(3.0)), (), 1e-14),
    # Without dphi_fn, phi' is a central difference whose rounding noise is
    # about 1e-10: two routes whose s differ in the last bits cannot agree
    # on Lambda more closely than that, while zeta still agrees to 1e-13.
    (custom_phi(lambda s: 1.0 + s * s), (), 1e-9),
], ids=["exp_square", "truncated(4,1.5)", "truncated(6,2)", "dual(power3)",
        "custom-no-dphi"])
def test_forward_route_matches_bisection(spec, junctions, lam_atol):
    # For the truncated powers, add the targets of both C^1 junctions.
    t = np.concatenate([np.geomspace(1e-14, 1e3, 4001),
                        spec.s_sqrt_phi(np.array(junctions, dtype=float))])
    prof = LambdaProfile(spec)
    np.testing.assert_allclose(prof.lambda_of(t), _bisection_lambda(spec, t),
                               rtol=1e-13, atol=lam_atol)
    inside = t[t >= spec.s_sqrt_phi(_BRACKET_LO)]
    ref = _invert_monotone(spec.s_sqrt_phi, inside, "reference")
    np.testing.assert_allclose(prof.zeta(inside), ref, rtol=1e-13, atol=0)
    np.testing.assert_allclose(prof.theta(inside), ref / inside, rtol=1e-13,
                               atol=0)


def test_exp_square_lambert_route_matches_bisection():
    # zeta = sqrt(W(t^2)), Lambda = -W/(1 + W) and the inverse of s*phi,
    # sqrt(W(2 t^2)/2), against bisection to 1e-14 relative; the Lambda
    # targets below the table take its edge on both routes
    spec = exp_square_phi()
    prof = LambdaProfile(spec)
    t = np.concatenate([np.geomspace(1e-12, 1e12, 2401),
                        [1e30, 1e60, 1e100, 1e150]])
    below = np.array([1e-300, 1e-30, 1e-13, 0.5e-12])
    lam_t = np.concatenate([below, t])
    np.testing.assert_allclose(prof.lambda_of(lam_t),
                               _bisection_lambda(spec, lam_t),
                               rtol=1e-14, atol=0)
    zeta = _invert_monotone(spec.s_sqrt_phi, t, "reference")
    np.testing.assert_allclose(prof.zeta(t), zeta, rtol=1e-14, atol=0)
    np.testing.assert_allclose(prof.theta(t), zeta / t, rtol=1e-14, atol=0)
    inv = t[t <= 1e150]
    np.testing.assert_allclose(inverse_s_phi(spec, inv),
                               _invert_monotone(spec.s_phi, inv, "reference"),
                               rtol=1e-14, atol=0)


def test_exp_square_and_its_dual_never_solve(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"_solve called for {self.spec.label}")

    monkeypatch.setattr(LambdaProfile, "_solve", refuse)
    spec = exp_square_phi()
    t = np.geomspace(1e-12, 1e12, 97)
    dual = dual_phi(spec)
    for prof in (spec.profile, dual.profile):
        prof.lambda_of(t)
        prof.zeta(t)
        prof.theta(t)
        assert prof.limit.lambda_inf_sq > 0.9
    inverse_s_phi(spec, t)
    dual.phi(t)
    dual.dphi(t)
    assert validate_phi(dual).ok
    v = bump_field((0.0, 0.0), 0.1, 0.4, (1.0, 0.5), np.eye(2))
    for weight in (spec, dual):
        dissipativity_form((1.0, 1.0), weight, v)


@pytest.mark.parametrize("M, lo", [(exp_power_young(4.0), 1e2),
                                   (exp_young(), 20.0),
                                   (power_young(3.0, normalized=True), 1e-6)],
                         ids=["exp_power(4)", "exp", "power(3)"])
def test_legendre_conjugate_matches_bisection(M, lo):
    # N(t) = s*t - M(s) at M'(s) = t, with s from the reference bisection.
    t = np.geomspace(lo, 1e30 if lo > 1.0 else 1e6, 1000)
    s = _invert_monotone(M.derivative, t, "reference")
    np.testing.assert_allclose(legendre_conjugate(M)(t), s * t - M(s),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("p, k", [(4.0, 1.5), (6.0, 2.0), (3.2, 2.7),
                                  (16.0, 3.0)])
def test_truncated_lambda_bands(p, k):
    # Below t_lo = (k-1)^(p/2), the image of the power piece, Lambda is
    # -(p-2)/p; above t_hi = k (k-1/2)^((p-2)/2), on the plateau, -0.0.
    spec = truncated_power(p, k)
    prof = LambdaProfile(spec)
    t_lo = (k - 1.0) ** (0.5 * p)
    t_hi = k * (k - 0.5) ** (0.5 * (p - 2.0))
    low = np.geomspace(1e-300, t_lo * (1.0 - 2e-9), 400)
    assert np.array_equal(prof.lambda_of(low), np.full(400, -(p - 2.0) / p))
    high = np.geomspace(t_hi * (1.0 + 2e-9), 1e6 * t_hi, 400)
    lam = prof.lambda_of(high)
    assert np.all(lam == 0.0) and np.all(np.signbit(lam))
    # Between the bands r = s*phi'/phi falls from p-2 to 0 with a slope of
    # order p-2, so a last-bit change of s moves Lambda by about
    # (p-2) * 1e-16, and either route's s carries a few.
    edges = np.array([t_lo, t_hi])
    t = np.concatenate([np.geomspace(0.25 * t_lo, 4.0 * t_hi, 2001),
                        edges, edges * (1.0 - 1e-9), edges * (1.0 + 1e-9)])
    np.testing.assert_allclose(prof.lambda_of(t), _bisection_lambda(spec, t),
                               rtol=1e-13, atol=2.5e-15 * (p - 2.0))


def test_lambda_below_table_takes_edge_value():
    for spec in (exp_square_phi(), truncated_power(6.0, 2.0)):
        prof = LambdaProfile(spec)
        floor = float(spec.s_sqrt_phi(_BRACKET_LO))
        below = np.array([1e-300, 1e-30, 0.5 * floor])
        assert np.array_equal(prof.lambda_of(below),
                              np.full(3, prof.lambda_of(floor)))
        with pytest.raises(BracketFailure):
            prof.zeta(0.5 * floor)


def test_target_above_table_raises():
    # phi = exp(s^2) overflows near s = 26.6, so the table ends near
    # t = 1e154; the overflow edge is not an answer.
    prof = LambdaProfile(exp_square_phi())
    for method in (prof.lambda_of, prof.zeta, prof.theta):
        with pytest.raises(BracketFailure, match="outside the tabulated"):
            method(np.array([1.0, 1e200]))


def test_lambda_rejects_nonpositive_and_nonfinite_targets():
    prof = LambdaProfile(exp_square_phi())
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(BracketFailure, match="finite positive"):
            prof.lambda_of(np.array([1.0, bad]))


@pytest.mark.parametrize("spec", [power_phi(6.0), exp_square_phi(),
                                  truncated_power(16.0, 3.0),
                                  truncated_power(4.0, 1.5)],
                         ids=lambda s: s.label)
def test_lambda_infinity_unchanged_by_forward_route(spec):
    class Bisected(LambdaProfile):
        def lambda_of(self, t):
            return _bisection_lambda(self.spec, np.asarray(t, dtype=float))

    new = LambdaProfile(spec).limit
    ref = Bisected(spec).limit
    assert new.converged == ref.converged
    assert new.sup_bounded == ref.sup_bounded
    for name in ("lambda_inf", "lambda_inf_sq", "sup_lambda_sq",
                 "tail_variation"):
        assert getattr(new, name) == pytest.approx(getattr(ref, name),
                                                   rel=1e-14, abs=1e-14), name


def test_forms_build_one_table_per_weight_and_call(monkeypatch):
    calls = []
    original = PhiSpec.s_sqrt_phi

    def counting(self, s):
        calls.append(np.size(s))
        return original(self, s)

    monkeypatch.setattr(PhiSpec, "s_sqrt_phi", counting)
    fields = standard_ensemble(3, n_bump=2, n_rot=1, n_osc=1)
    # A small chunk cap splits every field into many quadrature chunks.
    strict_margin((1.0, 1.0), custom_phi(lambda s: 1.0 + s * s), fields,
                  0.1, max_chunk=2000)
    assert len(calls) == 1
    calls.clear()
    elasticity_breakdown((1.0, 1.0), custom_phi(lambda s: 1.0 + s * s),
                         fields[0], max_chunk=2000)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Tail limits


def test_one_tail_per_weight(monkeypatch):
    samplings = []
    original = LambdaProfile.lambda_of

    def counting(self, t):
        # The tail grid, as the nodes of _TAIL_T inside the table's range.
        if np.shape(t) == _TAIL_T.shape and np.array_equal(t, _TAIL_T):
            samplings.append(self.spec.label)
        return original(self, t)

    monkeypatch.setattr(LambdaProfile, "lambda_of", counting)
    pair = (1.0, 1.0)
    v = bump_field((0.1, -0.05), 0.15, 0.45, (1.0, 0.5),
                   [[0.3, -0.2], [0.1, 0.4]])
    # Only a custom weight samples its tail, once for every consumer; the
    # built-in families and their duals take it in closed form.
    for spec in (custom_phi(lambda s: 1.0 + s * s, label="sampled"),
                 power_phi(4.0), truncated_power(4.0, 2.0),
                 exp_square_phi(), dual_phi(exp_square_phi())):
        lame2d_verdict(spec, constant_field(*pair))
        lameNd_sufficient(spec, *pair)
        assert perturbation_budget(spec, *pair, 0.1) > 0.0
        breakdown = elasticity_breakdown(pair, spec, v)
        oscillatory_counterexample(*pair, spec, octaves=0)
        # The breakdown's total is the integrand of dissipativity_form.
        assert breakdown.total == pytest.approx(
            dissipativity_form(pair, spec, v), rel=1e-13)
    assert samplings == ["sampled"]


def test_limit_power_converges_exactly():
    lim = LambdaProfile(power_phi(6.0)).limit
    expect = ((6.0 - 2.0) / 6.0) ** 2
    assert lim.converged
    assert lim.lambda_inf_sq == pytest.approx(expect, rel=1e-12)
    assert lim.sup_lambda_sq == pytest.approx(expect, rel=1e-12)
    assert lim.sup_bounded
    assert lim.tail_variation < 1e-10


def test_limit_exp_square_closed_form():
    # |Lambda| = W(t^2)/(1 + W(t^2)) rises to 1 without reaching it, so
    # Lambda_inf = -1 and sup Lambda^2 = 1 hold in closed form, and the sup
    # is not bounded below 1.  The dual differs only in Lambda_inf's sign.
    lim = exp_square_phi().profile.limit
    assert lim == LambdaLimit(lambda_inf=-1.0, lambda_inf_sq=1.0,
                              sup_lambda_sq=1.0, sup_bounded=False,
                              converged=True, tail_variation=0.0)
    assert lim.sup_bound == 1.0
    assert dual_phi(exp_square_phi()).profile.limit == \
        replace(lim, lambda_inf=1.0)
    lam_sq = exp_square_phi().profile.lambda_of(_TAIL_T) ** 2
    assert np.all(np.diff(lam_sq) > 0.0) and lam_sq[-1] < 1.0


def test_limit_truncated_power_vanishes():
    # The plateau kills phi', so Lambda -> 0 while the sup remembers the
    # power region near t -> 0.
    lim = LambdaProfile(truncated_power(16.0, 3.0)).limit
    assert lim.converged
    assert lim.lambda_inf_sq == pytest.approx(0.0, abs=1e-12)
    assert lim.sup_lambda_sq == pytest.approx((1.0 - 2.0 / 16.0) ** 2,
                                              rel=1e-10)


# ---------------------------------------------------------------------------
# Condition checks


def test_validate_power_all_hold():
    val = validate_phi(power_phi(3.0))
    assert val.ok
    for c in val.checks:
        assert c.status == "holds", (c.name, c.note)


def test_validate_exp_square_all_hold():
    val = validate_phi(exp_square_phi())
    assert val.ok
    assert val.check("iv:growth-envelope").status == "holds"


def test_validate_truncated_power_vi_not_required():
    val = validate_phi(truncated_power(4.0, 2.0))
    assert val.ok
    assert val.check("vi:ratio-monotone").status == "not-required"
    for name in ("i:smooth-positive", "ii:increasing", "iii:full-range",
                 "iv:growth-envelope", "v:eventual-sign"):
        assert val.check(name).status == "holds", name


def test_validate_vi_fails_without_exemption():
    # The same truncated weight wrapped as a plain custom spec must report
    # the ratio monotonicity failure instead of the exemption.
    tp = truncated_power(4.0, 2.0)
    spec = custom_phi(tp.phi, tp.dphi, r=2.0, s0=tp.s0, s1=tp.s1,
                      c1=tp.c1, c2=tp.c2)
    val = validate_phi(spec)
    assert val.check("vi:ratio-monotone").status == "fails"
    assert not val.ok


def test_validate_rejects_nonpositive_phi():
    with pytest.raises(NonPositivePhi):
        validate_phi(custom_phi(lambda s: np.asarray(s) - 5.0))


def test_validate_rejects_decreasing_s_phi():
    with pytest.raises(NotIncreasing):
        validate_phi(custom_phi(lambda s: np.asarray(s) ** -3.0, r=-3.0))


# ---------------------------------------------------------------------------
# Dual weight and Young pair


def test_dual_of_power_is_conjugate_power():
    # p = 3 gives p' = 3/2: psi(t) = t^(p'-2) = t^(-1/2).
    psi = dual_phi(power_phi(3.0))
    t = np.geomspace(0.1, 100.0, 25)
    assert np.allclose(psi.phi(t), t ** -0.5, rtol=1e-10)
    assert psi.r == pytest.approx(-0.5, rel=1e-15)
    assert np.allclose(psi.dphi(t), -0.5 * t ** -1.5, rtol=1e-8)


@pytest.mark.parametrize("p", [3.0, 4.0, 200.0, 400.0, 1000.0])
def test_dual_envelope_constants_of_power(p):
    # (t psi)' = t^(p'-2)/(p - 1) exactly, so c1 and c2 are 0.5/(p - 1)
    # and 2/(p - 1); a steep weight must read them without overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        psi = dual_phi(power_phi(p))
    assert psi.c1 == pytest.approx(0.5 / (p - 1.0), rel=1e-12)
    assert psi.c2 == pytest.approx(2.0 / (p - 1.0), rel=1e-12)


def test_dual_lambda_negates():
    for spec in (power_phi(3.0), exp_square_phi()):
        prof = LambdaProfile(spec)
        dprof = LambdaProfile(dual_phi(spec))
        t = np.geomspace(0.5, 50.0, 11)
        assert np.allclose(dprof.lambda_of(t), -prof.lambda_of(t),
                           rtol=1e-7, atol=1e-9), spec.label


def test_dual_theta_reciprocal():
    spec = exp_square_phi()
    prof = LambdaProfile(spec)
    dprof = LambdaProfile(dual_phi(spec))
    t = np.geomspace(0.5, 20.0, 9)
    assert np.allclose(dprof.theta(t), 1.0 / prof.theta(t), rtol=1e-9)


def test_dual_is_involutive():
    spec = power_phi(3.0)
    assert dual_phi(dual_phi(spec)) is spec


@pytest.mark.parametrize("spec", [power_phi(3.0), truncated_power(4.0, 2.0),
                                  custom_phi(lambda s: 1.0 + s * s)],
                         ids=lambda s: s.label)
def test_dual_profile_reads_base(spec):
    # Lambda_psi = -Lambda and zeta_psi * zeta = t^2 at the same t: exactly
    # on the dual's profile, which reads its base, and to rounding on the
    # table route of psi itself, wrapped as a plain custom weight.  Without
    # dphi_fn the central-difference phi' limits Lambda to about 1e-11.
    psi = dual_phi(spec)
    base = LambdaProfile(spec)
    own = LambdaProfile(custom_phi(psi.phi, psi.dphi))
    t = np.geomspace(1e-3, 1e3, 61)
    assert np.array_equal(psi.profile.lambda_of(t), -base.lambda_of(t))
    np.testing.assert_allclose(own.lambda_of(t), -base.lambda_of(t),
                               rtol=0, atol=1e-10)
    for prof in (psi.profile, own):
        np.testing.assert_allclose(prof.zeta(t) * base.zeta(t), t * t,
                                   rtol=1e-13, atol=0)
    lim = base.limit
    assert psi.profile.limit == replace(lim, lambda_inf=-lim.lambda_inf)


def test_dual_inherits_vi_exemption():
    # |r_psi| = r/(1+r) decreases exactly where the base's ratio does.
    val = validate_phi(dual_phi(truncated_power(4.0, 2.0)))
    assert val.ok
    assert val.check("vi:ratio-monotone").status == "not-required"


def test_weighted_image_identity():
    # With w = phi(|u|)u, the maps u -> sqrt(phi(|u|))u and
    # w -> sqrt(psi(|w|))w agree in modulus.
    for spec in (power_phi(3.0), exp_square_phi()):
        psi = dual_phi(spec)
        s = np.geomspace(0.3, 3.0, 12)
        w = spec.s_phi(s)
        assert np.allclose(np.sqrt(psi.phi(w)) * w,
                           spec.s_sqrt_phi(s), rtol=1e-10), spec.label


def young_truncated_4_2(s):
    """Phi of truncated_power(4, 2) by exact polynomial integration: s^4/4
    below 1, sigma*rho(sigma)^2 with rho(sigma) = -sigma^2/2 + 2 sigma - 1/2
    on [1, 2], and the plateau sigma*(3/2)^2 above."""
    band = (Polynomial([0.0, 1.0]) * Polynomial([-0.5, 2.0, -0.5]) ** 2).integ()
    if s <= 1.0:
        return s ** 4 / 4.0
    if s <= 2.0:
        return 0.25 + band(s) - band(1.0)
    return 0.25 + band(2.0) - band(1.0) + 2.25 * (s * s - 4.0) / 2.0


YOUNG_CLOSED_FORMS = (
    [(f"power-{p:g}", power_phi(p), s, s ** p / p)
     for p in (1.5, 3.0, 8.0) for s in (0.2, 1.0, 2.0, 2.5)]
    # the dual's Phi is the base's Psi, t^q/q with q = p/(p-1)
    + [(f"dual-power-{p:g}", dual_phi(power_phi(p)), s,
        s ** (p / (p - 1.0)) * (p - 1.0) / p)
       for p in (1.5, 3.0, 8.0) for s in (0.2, 1.0, 2.5, 4.0)]
    # exp_square from s = 12 on and the steep powers: their top dyadic
    # panels are halved until the two Gauss-Legendre orders agree
    + [("exp_square", exp_square_phi(), s, 0.5 * math.expm1(s * s))
       for s in (0.1, 1.0, 1.5, 2.5, 4.0, 12.0, 20.0, 26.0)]
    + [(f"power-{p:g}", power_phi(p), s, s ** p / p)
       for p, s in ((400.0, 1.2), (1000.0, 1.1))]
    + [("truncated-4-2", truncated_power(4.0, 2.0), s, young_truncated_4_2(s))
       for s in (0.5, 1.0, 1.5, 2.0, 3.0)])


@pytest.mark.parametrize("name, spec, s, expect", YOUNG_CLOSED_FORMS,
                         ids=[f"{c[0]}-{c[2]:g}" for c in YOUNG_CLOSED_FORMS])
def test_young_function_closed_forms(name, spec, s, expect):
    assert young_pair(spec).Phi(s) == pytest.approx(expect, rel=1e-12)


YOUNG_SPECS = {"power-3": power_phi(3.0), "exp_square": exp_square_phi(),
               "truncated-4-2": truncated_power(4.0, 2.0)}


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(YOUNG_SPECS)), s=st.floats(0.05, 5.0),
       t=st.floats(0.05, 5.0))
def test_young_inequality_property(name, s, t):
    pair = young_pair(YOUNG_SPECS[name])
    assert s * t <= pair.Phi(s) + pair.Psi(t) + 1e-9


def test_young_equality_at_the_gradient():
    for name, spec in YOUNG_SPECS.items():
        pair = young_pair(spec)
        for s in (0.3, 0.8, 1.4, 2.5):
            t = float(pair.phi_spec.s_phi(s))
            total = pair.Phi(s) + pair.Psi(t)
            assert total == pytest.approx(s * t, rel=1e-12), (name, s)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_young_functions_reject_non_finite_and_negative(bad):
    for spec in (power_phi(3.0), dual_phi(power_phi(3.0))):
        pair = young_pair(spec)
        with pytest.raises(ValueError):
            pair.Phi(bad)
        with pytest.raises(ValueError):
            pair.Psi(bad)


def test_young_integral_of_a_nan_weight_fails():
    # NaN on a band that the inversion tables skip but the integral crosses
    spec = custom_phi(lambda s: np.where((s > 0.5) & (s < 0.6), np.nan, s),
                      r=1.0, label="nan-band")
    pair = young_pair(spec)
    assert pair.Phi(0.4) == pytest.approx(0.4 ** 3 / 3.0, rel=1e-12)
    with pytest.raises(QuadratureFailure):
        pair.Phi(1.0)
