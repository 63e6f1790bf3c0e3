"""Coefficient grid tests.

The mean oscillation seminorm has a brute force twin here, written
independently with explicit loops, and the two must agree to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from funcdiss import (
    CoefficientField,
    EllipticityViolation,
    GeneralSystem,
    bilinear,
    bmo_seminorm,
    checkerboard_field,
    constant_field,
    ess_bounds,
    gamma_field,
    lame_system,
    load_field,
    radial_field,
    ramp_field,
)


def bmo_brute(values):
    """Reference: loop over anchored dyadic tiles, no vectorization."""
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


# ---------------------------------------------------------------------------
# Field construction and validation


def test_field_requires_matching_grids():
    with pytest.raises(ValueError):
        CoefficientField(domain=(0, 1, 0, 1), lam=np.ones((4, 4)),
                         mu=np.ones((4, 5)))
    with pytest.raises(ValueError):
        CoefficientField(domain=(0, 1, 0, 1), lam=np.ones((1, 4)),
                         mu=np.ones((1, 4)))
    with pytest.raises(ValueError):
        CoefficientField(domain=(1, 0, 0, 1), lam=np.ones((4, 4)),
                         mu=np.ones((4, 4)))
    bad = np.ones((4, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        CoefficientField(domain=(0, 1, 0, 1), lam=bad, mu=np.ones((4, 4)))


def test_totals_include_perturbations():
    base = np.ones((5, 5))
    f = CoefficientField(domain=(0, 1, 0, 1), lam=base, mu=2.0 * base,
                         eps=0.25 * base, sigma=-0.5 * base)
    assert np.allclose(f.lam_total, 1.25)
    assert np.allclose(f.mu_total, 1.5)


def test_node_values_match_interpolant():
    f = ramp_field(1.0, 1.0, 0.5, shape=(9, 7), domain=(0.0, 2.0, -1.0, 1.0))
    xs, ys = f.nodes()
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    lam, mu = bilinear((f.lam_total, f.mu_total), f.domain, xx, yy)
    assert np.allclose(mu, f.mu, rtol=1e-12)
    assert np.allclose(lam, f.lam, rtol=1e-12)


def test_bilinear_reproduces_linear_functions():
    xs = np.linspace(0.0, 2.0, 11)
    ys = np.linspace(0.0, 1.0, 6)
    vals = 3.0 * xs[:, None] - 2.0 * ys[None, :] + 0.5
    rng = np.random.default_rng(7)
    px = rng.uniform(0.0, 2.0, 200)
    py = rng.uniform(0.0, 1.0, 200)
    out = bilinear(vals, (0.0, 2.0, 0.0, 1.0), px, py)
    assert np.allclose(out, 3.0 * px - 2.0 * py + 0.5, rtol=1e-12)


def test_bilinear_clamps_outside_points():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = bilinear(vals, (0.0, 1.0, 0.0, 1.0), [-5.0, 5.0], [-5.0, 5.0])
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(4.0, rel=1e-9)


def _perturbed(field, seed):
    rng = np.random.default_rng(seed)
    shape = field.shape
    return CoefficientField(domain=field.domain, lam=field.lam, mu=field.mu,
                            eps=0.05 * rng.normal(size=shape),
                            sigma=0.05 * rng.normal(size=shape))


@pytest.mark.parametrize("field", [
    ramp_field(1.0, 1.0, 0.4, shape=(9, 7), domain=(-1.0, 2.0, 0.5, 1.5)),
    checkerboard_field(2.0, 1.0, 0.3, shape=(8, 11)),
    radial_field(0.5, 1.2, 0.2, shape=(33, 17), domain=(-1.0, 1.0, 0.0, 3.0)),
    _perturbed(ramp_field(1.0, 1.0, 0.4, shape=(6, 6)), seed=1),
    _perturbed(radial_field(0.5, 1.2, 0.2, shape=(13, 9)), seed=2),
], ids=["ramp", "checkerboard", "radial", "ramp-perturbed",
        "radial-perturbed"])
def test_joint_sampler_equals_bilinear_bit_for_bit(field):
    x0, x1, y0, y1 = field.domain
    rng = np.random.default_rng(3)
    # inside, outside on every side, and on the far edge and corner
    px = np.concatenate([rng.uniform(x0 - 0.5, x1 + 0.5, 500),
                         [x1, x1, x0, x1, x0 - 1.0, x1 + 1.0]])
    py = np.concatenate([rng.uniform(y0 - 0.5, y1 + 0.5, 500),
                         [y1, y0, y1, 0.5 * (y0 + y1), y1 + 1.0, y0 - 1.0]])
    # one grid tuple against one call per grid
    lam, mu = bilinear((field.lam_total, field.mu_total), field.domain, px, py)
    assert np.array_equal(lam, bilinear(field.lam_total, field.domain, px, py))
    assert np.array_equal(mu, bilinear(field.mu_total, field.domain, px, py))


# ---------------------------------------------------------------------------
# Essential bounds and derived fields


def test_ess_bounds_constant():
    eb = ess_bounds(constant_field(1.0, 1.0))
    assert eb.mu_min == 1.0
    assert eb.lam_plus_2mu_min == 3.0
    assert eb.sup_ratio_sq == pytest.approx(0.25, rel=1e-15)


def test_ess_bounds_sees_the_worst_node():
    f = ramp_field(0.5, 1.0, -0.9, shape=(17, 5))
    eb = ess_bounds(f)
    assert eb.mu_min == pytest.approx(0.1, rel=1e-12)


def test_ess_bounds_rejects_lost_ellipticity():
    with pytest.raises(EllipticityViolation):
        ess_bounds(constant_field(1.0, -0.5))
    with pytest.raises(EllipticityViolation):
        ess_bounds(constant_field(-4.0, 1.0))


def test_ess_bounds_raises_again_on_every_call():
    # a failed call is not cached
    field = constant_field(1.0, -0.5)
    for _ in range(3):
        with pytest.raises(EllipticityViolation):
            ess_bounds(field)


def test_gamma_identity():
    f = radial_field(0.8, 1.2, 0.3, shape=(21, 21))
    g = gamma_field(f)
    lam, mu = f.lam_total, f.mu_total
    assert np.allclose(g - mu, -2.0 * mu * mu / (lam + 3.0 * mu), rtol=1e-13)


# ---------------------------------------------------------------------------
# Mean oscillation


def test_bmo_constant_is_zero():
    assert bmo_seminorm(np.full((16, 16), 3.7)) == 0.0


def test_bmo_rejects_nonfinite_nodes():
    # A NaN compares false against every block mean and would read as zero
    # oscillation, the value that certifies smallness.
    with pytest.raises(ValueError, match="non-finite"):
        bmo_seminorm(np.full((8, 8), np.nan))
    for bad in (np.nan, np.inf, -np.inf):
        vals = np.zeros((8, 8))
        vals[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            bmo_seminorm(vals)


def test_bmo_checkerboard_exact():
    f = checkerboard_field(1.0, 1.0, 0.4, block=1, shape=(16, 16))
    assert bmo_seminorm(f.mu) == pytest.approx(0.2, rel=1e-14)


def test_bmo_matches_brute_force():
    rng = np.random.default_rng(42)
    vals = rng.normal(size=(16, 24))
    assert bmo_seminorm(vals) == pytest.approx(bmo_brute(vals), abs=1e-12)


def test_bmo_matches_brute_force_odd_shape():
    rng = np.random.default_rng(3)
    vals = rng.uniform(-1, 1, size=(13, 9))
    assert bmo_seminorm(vals) == pytest.approx(bmo_brute(vals), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(-10, 10), scale=st.floats(-4, 4))
def test_bmo_shift_and_scale(shift, scale):
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(8, 8))
    base = bmo_seminorm(vals)
    assert bmo_seminorm(vals + shift) == pytest.approx(base, abs=1e-12)
    assert bmo_seminorm(scale * vals) == pytest.approx(abs(scale) * base,
                                                       rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# Grid file round trip


def write_grid(path, domain, columns):
    """A coefficient grid file as load_field reads it: the format marker,
    the domain and node shape, the column names, then one row per node in
    row major order; columns maps each name to its (n1, n2) array."""
    arrays = list(columns.values())
    n1, n2 = arrays[0].shape
    lines = ["# funcdiss coefficient grid v1",
             ",".join(repr(float(x)) for x in domain) + f",{n1},{n2}",
             ",".join(columns)]
    lines += [",".join(repr(float(v)) for v in row)
              for row in np.column_stack([a.ravel() for a in arrays])]
    path.write_text("\n".join(lines) + "\n")


def test_save_load_round_trip(tmp_path):
    f = radial_field(0.8, 1.2, 0.3, shape=(9, 13), domain=(0.0, 2.0, 1.0, 4.0))
    path = tmp_path / "field.grid"
    write_grid(path, f.domain, {"lambda": f.lam, "mu": f.mu})
    g = load_field(path)
    assert g.domain == f.domain
    assert np.array_equal(g.lam, f.lam)
    assert np.array_equal(g.mu, f.mu)
    assert g.eps is None and g.sigma is None


def test_save_load_round_trip_with_perturbations(tmp_path):
    base = np.linspace(1.0, 2.0, 20).reshape(4, 5)
    f = CoefficientField(domain=(0, 1, 0, 1), lam=base, mu=base + 1.0,
                         eps=0.1 * base, sigma=-0.01 * base)
    path = tmp_path / "field.grid"
    write_grid(path, f.domain, {"lambda": f.lam, "mu": f.mu,
                                "eps": f.eps, "sigma": f.sigma})
    g = load_field(path)
    assert np.array_equal(g.eps, f.eps)
    assert np.array_equal(g.sigma, f.sigma)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.grid"
    path.write_text("not a grid\n1,2,3\n")
    with pytest.raises(ValueError):
        load_field(path)


# ---------------------------------------------------------------------------
# Operator tensors


def test_lame_tensor_contraction_closed_form():
    lam, mu = 0.7, 1.3
    sys = lame_system(lam, mu)
    rng = np.random.default_rng(5)
    for _ in range(5):
        xi = rng.normal(size=2)
        Q = sys.contract_xi(xi)
        expect = mu * (xi @ xi) * np.eye(2) + (lam + mu) * np.outer(xi, xi)
        assert np.allclose(Q, expect, rtol=1e-14)


def test_lame_tensor_is_self_adjoint():
    sys = lame_system(2.0, 0.5)
    assert sys.self_adjoint
    assert np.max(np.abs(sys.adjoint_gap())) < 1e-15


def test_general_system_detects_asymmetry():
    t = np.zeros((2, 2, 2, 2), dtype=complex)
    t[0, 1, 0, 1] = 1.0
    sys = GeneralSystem(tensor=t)
    assert not sys.self_adjoint
    assert np.max(np.abs(sys.adjoint_gap())) > 0.5
