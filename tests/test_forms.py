"""Form evaluation: frame identities, quadrature routes, probes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcdiss import (
    QuadratureFailure,
    algebraic_form,
    algebraic_margin,
    exp_square_phi,
    lame_system,
    power_phi,
    truncated_power,
)
from funcdiss import forms
from funcdiss.coefficients import (
    bilinear,
    constant_field,
    radial_field,
    ramp_field,
)
from funcdiss.forms import (
    ZERO_SET_REL,
    _axis_rule,
    _disk_rule,
    _integrate,
    _lame_integrand,
    _symbol_minimum,
    bump_field,
    dissipativity_form,
    gradient_field,
    oscillatory_counterexample,
    oscillatory_field,
    rotation_field,
    standard_ensemble,
    strict_margin,
    xy_decompose,
)


def five_real_fields():
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


def sample_points(field, n, seed):
    x0, x1, y0, y1 = field.support
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)])
    vals = field.value(pts)
    nv = np.linalg.norm(np.atleast_2d(vals), axis=1)
    return pts[nv > 1e-8 * field.scale]


# ---------------------------------------------------------------------------
# frame identities


def frame_residuals(field, pts):
    x1, x2, y1, y2 = xy_decompose(field, pts)
    jac = field.jacobian(pts).real
    grad2 = np.einsum("nih,nih->n", jac, jac)
    div = jac[:, 0, 0] + jac[:, 1, 1]
    swap = np.einsum("njk,nkj->n", jac, jac)
    scale = np.maximum(grad2, 1.0)
    r_grad = np.abs(x1 ** 2 + x2 ** 2 + y1 ** 2 + y2 ** 2 - grad2) / scale
    r_div = np.abs((x1 + y1) ** 2 - div ** 2) / scale
    r_swap = np.abs((x1 + y1) ** 2 - 2.0 * (x1 * y1 + x2 * y2) - swap) / scale
    return max(r_grad.max(), r_div.max(), r_swap.max())


def test_frame_identities_five_fields():
    for i, field in enumerate(five_real_fields()):
        pts = sample_points(field, 10_000, seed=100 + i)
        assert len(pts) > 5000
        assert frame_residuals(field, pts) < 1e-10


def test_frame_example_identity_map():
    ident = bump_field((0.0, 0.0), 2.0, 3.0, (0.0, 0.0), np.eye(2))
    x1, x2, y1, y2 = xy_decompose(ident, np.array([[1.0, 1.0]]))
    np.testing.assert_allclose([x1[0], x2[0], y1[0], y2[0]],
                               [1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_frame_example_rotation():
    rot = rotation_field((0.0, 0.0), 2.0, 3.0, 1.0)
    x1, x2, y1, y2 = xy_decompose(rot, np.array([[1.0, 0.0]]))
    np.testing.assert_allclose([x1[0], x2[0], y1[0], y2[0]],
                               [0.0, 1.0, 0.0, 1.0], atol=1e-12)


def test_frame_zero_convention():
    field = five_real_fields()[0]
    far = np.array([[5.0, 5.0], [0.49, 0.49]])  # outside the bump support
    for arr in xy_decompose(field, far):
        np.testing.assert_array_equal(arr, 0.0)


def test_frame_rejects_complex_fields():
    wave = oscillatory_field((0.0, 0.0), (1.0, 0.0), 4.0, (1.0, 1.0),
                             chi_r0=-0.1, chi_r1=0.35, complex_phase=True)
    with pytest.raises(ValueError):
        xy_decompose(wave, np.array([[0.05, 0.0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_frame_identities_random_bumps(seed):
    rng = np.random.default_rng(seed)
    field = bump_field(rng.uniform(-0.2, 0.2, 2), 0.1,
                       rng.uniform(0.3, 0.6), rng.normal(size=2),
                       rng.normal(size=(2, 2)))
    pts = sample_points(field, 400, seed=seed + 1)
    if len(pts):
        assert frame_residuals(field, pts) < 1e-10


# ---------------------------------------------------------------------------
# the dissipativity form


def test_two_quadrature_routes_agree():
    spec = power_phi(4.0)
    sys2 = lame_system(1.2, 0.8)
    grid = constant_field(1.2, 0.8)
    for field in five_real_fields():
        a = dissipativity_form(sys2, spec, field)
        b = dissipativity_form(grid, spec, field)
        c = dissipativity_form((1.2, 0.8), spec, field)
        assert abs(a - b) <= 1e-8 * max(abs(a), 1.0)
        assert abs(a - c) <= 1e-8 * max(abs(a), 1.0)


def test_routes_agree_on_complex_wave():
    spec = power_phi(3.0)
    wave = oscillatory_field((0.0, 0.0), (0.3, 1.0), 8.0,
                             (0.6 + 0.2j, -0.5 + 0.4j),
                             chi_r0=-0.12, chi_r1=0.4, complex_phase=True)
    a = dissipativity_form(lame_system(2.0, 0.7), spec, wave)
    b = dissipativity_form((2.0, 0.7), spec, wave)
    assert abs(a - b) <= 1e-8 * max(abs(a), 1.0)


def test_form_scales_quadratically_for_power_weights():
    # Lambda is constant for t^{p-2}, so v -> c v multiplies the form by c^2
    spec = power_phi(6.0)
    base = bump_field((0.0, 0.0), 0.1, 0.5, (0.3, -0.2),
                      [[1.0, 0.4], [-0.7, 0.2]])
    scaled = bump_field((0.0, 0.0), 0.1, 0.5, (0.9, -0.6),
                        [[3.0, 1.2], [-2.1, 0.6]])
    f0 = dissipativity_form((1.0, 1.0), spec, base)
    f3 = dissipativity_form((1.0, 1.0), spec, scaled)
    assert f3 == pytest.approx(9.0 * f0, rel=1e-9)


def test_form_positive_at_p2_for_elliptic_pair():
    # p = 2 strips the weight entirely; the classical Lame energy remains
    spec = power_phi(2.0)
    fields = five_real_fields()
    rows = strict_margin((1.0, 1.0), spec, fields, 0.0).rows
    for field, row in zip(fields, rows):
        form = dissipativity_form((1.0, 1.0), spec, field)
        grad2 = row.gradient_sq
        assert form >= 1.0 * grad2 - 1e-9 * grad2  # min(mu, lam+2mu) = 1


def test_strict_margin_report():
    spec = power_phi(2.0)
    ensemble = five_real_fields()
    kappa = 0.5
    report = strict_margin((1.0, 1.0), spec, ensemble, kappa)
    assert report.kappa == kappa
    assert len(report.rows) == len(ensemble)
    for row in report.rows:
        assert row.residual == pytest.approx(
            row.form_value - kappa * row.gradient_sq, rel=1e-12)
        assert row.residual >= 0.0
    assert report.min_residual == min(r.residual for r in report.rows)
    assert report.worst_label in {r.label for r in report.rows}


def test_unknown_target_rejected():
    with pytest.raises(TypeError):
        dissipativity_form("lame", power_phi(3.0), five_real_fields()[0])


def test_resolution_cap_raises():
    wave = oscillatory_field((0.0, 0.0), (1.0, 0.0), 2.0 ** 20, (1.0, 0.0),
                             chi_r0=-0.1, chi_r1=0.3)
    with pytest.raises(QuadratureFailure):
        dissipativity_form((1.0, 1.0), power_phi(4.0), wave)


def _counted_wave(rho, seen):
    wave = oscillatory_field((0.0, 0.0), (0.6, 0.8), rho, (1.0, 0.0),
                             chi_r0=-0.1, chi_r1=0.3,
                             background=((0.0, 1.0), 2.0, 0.35, 0.75))

    def value(pts):
        seen.append(len(pts))
        return wave.value(pts)

    return dataclasses.replace(wave, value=value)


def _disk_nodes(rho):
    """Nodes of the counted wave's rule: 10 cells per wavelength along xi
    and 12 along xi-perp on its 1.5 wide box, each 8 x 8 Gauss nodes, kept
    within the disk of radius 0.75 (1 + 1e-9) about the centre."""
    r = 0.75
    nu = math.ceil(10.0 * 2.0 * r / (2.0 * np.pi / rho))
    us, _ = _axis_rule(-r, r, nu, 8)
    ws, _ = _axis_rule(-r, r, 12, 8)
    inside = us[:, None] ** 2 + ws ** 2 <= (r * (1.0 + 1e-9)) ** 2
    return int(np.count_nonzero(inside))


def test_wave_nodes_double_per_octave():
    # The wavelength rule refines the xi axis only; xi-perp keeps the
    # min_cells rule.  Each of the 8 Gauss offsets within a cell samples
    # the row length L(u) <= 96 on a uniform grid of spacing h, and h times
    # such a sum is within h TV(L) <= 2 * 96 h of int L, so a rule's count
    # is 8 int L / h up to 8 * 192.  Doubling the cells halves h, so
    # |2 lo - hi| <= 3 * 8 * 192; when the ceiling gives 2n - 1 cells in
    # place of 2n, one cell's worth, at most 8 * 96, goes as well.
    nodes = []
    for j in range(4, 9):
        seen = []
        dissipativity_form((1.0, 1.0), power_phi(4.0),
                           _counted_wave(2.0 ** j, seen))
        nodes.append(sum(seen))
        assert nodes[-1] == _disk_nodes(2.0 ** j)
    for lo, hi in zip(nodes, nodes[1:]):
        assert -3 * 8 * 192 <= 2 * lo - hi <= 3 * 8 * 192 + 8 * 96


def test_wave_quadrature_chunks_bound_memory():
    seen = []
    dissipativity_form((1.0, 1.0), power_phi(4.0),
                       _counted_wave(256.0, seen))
    assert len(seen) > 1 and max(seen) <= 250_000
    assert sum(seen) == _disk_nodes(256.0)


def test_wave_quadrature_chunks_default_size():
    seen = []
    dissipativity_form((1.0, 1.0), power_phi(4.0),
                       _counted_wave(256.0, seen))
    assert len(seen) > 1 and max(seen) <= 65_536
    assert sum(seen) == _disk_nodes(256.0)


def _box_rule(v, order=8, cells_per_wavelength=10.0, min_cells=12):
    """Every node and weight of the tensor rule on v's whole support box,
    in the frame and point arithmetic of _integrate, and whether each lies
    within the support radius (1 + 1e-9) of the centre."""
    x0, x1, y0, y1 = v.support
    r = 0.5 * (x1 - x0)
    center = np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])
    if v.frame is None:
        origin, axes = np.zeros(2), np.eye(2)
        ranges = ((x0, x1), (y0, y1))
        wavelengths = (v.wavelength, v.wavelength)
    else:
        origin = center
        xi = np.asarray(v.frame)
        axes = np.array([xi, [-xi[1], xi[0]]])
        ranges = ((x0 - center[0], x1 - center[0]),
                  (y0 - center[1], y1 - center[1]))
        wavelengths = (v.wavelength, None)
    rules = []
    for (a, b), wl in zip(ranges, wavelengths):
        n = min_cells
        if wl is not None:
            n = max(n, math.ceil(cells_per_wavelength * (b - a) / wl))
        rules.append(_axis_rule(a, b, n, order))
    (us, wu), (ws, ww) = rules
    cu, cw = axes @ (center - origin)
    inside = ((us[:, None] - cu) ** 2 + (ws - cw) ** 2
              <= (r * (1.0 + 1e-9)) ** 2).ravel()
    pts = (origin + us[:, None, None] * axes[0]
           + ws[:, None] * axes[1]).reshape(-1, 2)
    return pts, np.multiply.outer(wu, ww).ravel(), inside


def _probe_families():
    fields = list(standard_ensemble(2026, n_bump=4, n_rot=4, n_osc=4))
    for complex_phase in (False, True):
        fields.append(oscillatory_field(
            (0.1, -0.05), (0.6, 0.8), 32.0, (0.6, -0.8),
            chi_r0=-0.1, chi_r1=0.3, complex_phase=complex_phase,
            background=((0.0, 1.0), 2.0, 0.35, 0.75)))
    return fields


def test_probes_vanish_at_every_dropped_node():
    families = set()
    for v in _probe_families():
        pts, _, inside = _box_rule(v)
        out = pts[~inside]
        assert 0.15 < len(out) / len(pts) < 0.25, v.label
        assert np.all(v.value(out) == 0.0), v.label
        assert np.all(v.jacobian(out) == 0.0), v.label
        families.add((v.family, not np.iscomplexobj(v.value(out))))
    assert families == {("bump", True), ("rotation", True),
                        ("gradient", True), ("oscillatory", True),
                        ("oscillatory", False)}


def _box_and_mask_chunks(v, order=8, cells_per_wavelength=10.0,
                         min_cells=12, max_chunk=65_536):
    """The chunks (pts, weights) of the disk rule as first built, each
    chunk's nodes masked out of its rows' full box, and the number of rows
    kept; the reference for the run-length build of _disk_rule."""
    pts_box, weights_box, _ = _box_rule(v, order, cells_per_wavelength,
                                        min_cells)
    x0, x1, y0, y1 = v.support
    radius = 0.5 * (x1 - x0)
    center = np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])
    if v.frame is None:
        origin, axes = np.zeros(2), np.eye(2)
        ranges = ((x0, x1), (y0, y1))
        wavelengths = (v.wavelength, v.wavelength)
    else:
        origin = center
        xi = np.asarray(v.frame)
        axes = np.array([xi, [-xi[1], xi[0]]])
        ranges = ((x0 - center[0], x1 - center[0]),
                  (y0 - center[1], y1 - center[1]))
        wavelengths = (v.wavelength, None)
    rules = []
    for (a, b), wl in zip(ranges, wavelengths):
        n = min_cells
        if wl is not None:
            n = max(n, math.ceil(cells_per_wavelength * (b - a) / wl))
        rules.append(_axis_rule(a, b, n, order))
    (us, wu), (ws, ww) = rules
    cu, cw = axes @ (center - origin)
    reach = np.sqrt(np.maximum(
        (radius * (1.0 + 1e-9)) ** 2 - (us - cu) ** 2, 0.0))
    lo = np.searchsorted(ws, cw - reach, side="left")
    hi = np.searchsorted(ws, cw + reach, side="right")
    rows = np.flatnonzero(hi > lo)
    ends = np.concatenate([[0], np.cumsum(hi[rows] - lo[rows])])
    col = np.arange(len(ws))
    chunks = []
    i0 = 0
    while i0 < len(rows):
        i1 = max(i0 + 1, int(np.searchsorted(ends, ends[i0] + max_chunk,
                                             side="right")) - 1)
        r = rows[i0:i1]
        nodes = np.flatnonzero((col >= lo[r, None]) & (col < hi[r, None]))
        box = slice(r[0] * len(ws), (r[-1] + 1) * len(ws))
        assert np.array_equal(np.diff(r), np.ones(len(r) - 1, dtype=int))
        chunks.append((pts_box[box].take(nodes, axis=0),
                       weights_box[box].take(nodes)))
        i0 = i1
    return chunks, len(rows)


@pytest.mark.parametrize("max_chunk", [65_536, 3000, 1],
                         ids=["default", "multi-chunk", "single-row"])
def test_disk_rule_matches_box_and_mask_build(max_chunk):
    ensemble = standard_ensemble(2026, n_bump=3, n_rot=2, n_osc=4)
    wave = ensemble[-1]
    probes = list(ensemble) + [
        # a wave without its frame refines both axes of the box
        dataclasses.replace(wave, frame=None),
        oscillatory_field((0.0, 0.0), (1.0, 0.0), 32.0, (0.6, 0.8),
                          chi_r0=-0.1, chi_r1=0.3,
                          background=((0.8, 0.6), 2.0, 0.35, 0.75)),
    ]
    assert {v.frame is None for v in probes} == {True, False}
    for v in probes:
        got = list(_disk_rule(v, max_chunk=max_chunk))
        ref, rows = _box_and_mask_chunks(v, max_chunk=max_chunk)
        assert len(got) == len(ref), v.label
        # the small caps split every probe, the smallest into single rows
        assert len(got) > 1 or max_chunk == 65_536, v.label
        if max_chunk == 1:
            assert len(got) == rows, v.label
        for (pts, weights), (ref_pts, ref_weights) in zip(got, ref):
            assert np.array_equal(pts, ref_pts), v.label
            assert np.array_equal(weights, ref_weights), v.label


def test_integrate_rejects_non_square_support():
    v = bump_field((0.0, 0.0), 0.1, 0.5, (1.0, 0.0), np.eye(2))
    wide = dataclasses.replace(v, support=(-0.5, 0.5, -0.4, 0.4))
    with pytest.raises(ValueError, match="not a square"):
        dissipativity_form((1.0, 1.0), power_phi(2.0), wide)


@pytest.mark.parametrize("target, spec", [
    ((1.3, 0.7), power_phi(4.0)),
    ((1.3, 0.7), truncated_power(5.0, 2.0)),
    (ramp_field(1.0, 1.0, 0.2, shape=(33, 33),
                domain=(-1.0, 1.0, -1.0, 1.0)), exp_square_phi()),
    (radial_field(1.0, 1.0, 0.1, shape=(33, 33)), truncated_power(4.0, 1.5)),
], ids=["pair-power", "pair-truncated", "grid-exp_square",
        "grid-truncated"])
def test_disk_rule_matches_box_rule_on_ensemble(target, spec):
    for v in standard_ensemble(2026):
        fn = _lame_integrand(target, spec, v.scale)
        pts, weights, _ = _box_rule(v)
        box = weights @ fn(pts, v.value(pts), v.jacobian(pts))
        form, grad2 = _integrate(fn, v)
        assert abs(form - box[0]) <= 1e-13 * box[1], v.label
        assert abs(grad2 - box[1]) <= 1e-13 * box[1], v.label


def _samplers(target):
    # lambda and mu sampled apart, one bilinear call per grid
    if isinstance(target, tuple):
        return (lambda pts: target[0]), (lambda pts: target[1])
    def sampler(grid):
        return lambda pts: bilinear(grid, target.domain, pts[:, 0], pts[:, 1])
    return sampler(target.lam_total), sampler(target.mu_total)


def _einsum_lame_integrand(lam_at, mu_at, phi_spec, v):
    # the tensor-contraction form of the scalar Lame integrand, kept as a
    # reference for the component arithmetic of _lame_integrand
    def fn(pts):
        lam = lam_at(pts)
        mu = mu_at(pts)
        vals = v.value(pts)
        jac = v.jacobian(pts)
        nv = np.linalg.norm(vals, axis=1)
        mask = nv > ZERO_SET_REL * v.scale
        safe = np.where(mask, nv, 1.0)
        unit = vals / safe[:, None]
        d = np.einsum("ni,nik->nk", np.conj(vals), jac).real / safe[:, None]
        lv = phi_spec.profile.lambda_of(np.where(mask, nv, 1.0))
        grad2 = np.einsum("nih,nih->n", jac, np.conj(jac)).real
        div = jac[:, 0, 0] + jac[:, 1, 1]
        divsq = (div * np.conj(div)).real
        swap = np.einsum("njk,nkj->n", jac, np.conj(jac)).real
        base = mu * grad2 + lam * divsq + mu * swap
        q = np.einsum("nk,nk->n", unit, d)
        corr = (lv * lv) * ((lam + mu) * np.abs(q) ** 2
                            + mu * np.einsum("nk,nk->n", d, d))
        form = base - np.where(mask, corr, 0.0)
        return np.column_stack([form, grad2])

    return fn


def _reference_probes():
    probe = oscillatory_counterexample(1.0, 1.0, power_phi(32.0),
                                       octaves=0)
    return five_real_fields() + [
        oscillatory_field((0.05, -0.1), (0.3, 1.0), 8.0,
                          (0.6 + 0.2j, -0.5 + 0.4j), chi_r0=-0.12,
                          chi_r1=0.4, complex_phase=True, label="complex"),
        oscillatory_field((0.0, 0.0), (1.0, 0.0), 16.0, (0.6, 0.8),
                          chi_r0=-0.1, chi_r1=0.3, complex_phase=True,
                          label="complex-phase"),
        oscillatory_field((0.0, 0.0), (1.0, 0.0), 64.0, probe.eta,
                          chi_r0=-0.10, chi_r1=0.30,
                          background=(probe.omega, 2.0, 0.35, 0.75),
                          label="counterexample"),
    ]


def _reference_points(field, seed):
    # random support points plus nodes on the zero set: the centre of a
    # rotation or gradient core, and points past the support radius
    x0, x1, y0, y1 = field.support
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(x0, x1, 4000),
                           rng.uniform(y0, y1, 4000)])
    centre = [0.5 * (x0 + x1), 0.5 * (y0 + y1)]
    return np.vstack([pts, [centre, [x0, y0], [x1, y1], [x0, centre[1]]]])


@pytest.mark.parametrize("spec", [power_phi(4.0), exp_square_phi()],
                         ids=["power", "exp_square"])
def test_lame_integrand_matches_einsum_reference_per_node(spec):
    targets = [(1.2, 0.8),
               radial_field(1.0, 0.7, 0.4, domain=(-1.0, 1.0, -1.0, 1.0))]
    for t, target in enumerate(targets):
        lam_at, mu_at = _samplers(target)
        for i, field in enumerate(_reference_probes()):
            pts = _reference_points(field, seed=10 * i + t)
            nv = np.linalg.norm(field.value(pts), axis=1)
            assert np.any(nv <= ZERO_SET_REL * field.scale)
            got = _lame_integrand(target, spec, field.scale)(
                pts, field.value(pts), field.jacobian(pts))
            ref = _einsum_lame_integrand(lam_at, mu_at, spec, field)(pts)
            scale = np.max(np.abs(ref), axis=0)
            assert np.all(np.abs(got - ref) <= 1e-13 * scale), field.label


def test_field_jacobians_match_central_differences():
    # random points only: a wave's carrier chi has a cone tip at its centre
    h = 1e-6
    for i, field in enumerate(_reference_probes()):
        pts = _reference_points(field, seed=i)[:-4]
        jac = field.jacobian(pts)
        for k, step in enumerate(np.eye(2) * h):
            fd = (field.value(pts + step) - field.value(pts - step)) / (2 * h)
            err = np.abs(jac[:, :, k] - fd)
            assert err.max() <= 1e-5 * np.abs(jac).max(), field.label


# ---------------------------------------------------------------------------
# probe layout: component rows against the broadcast closures


def _ref_bump(r, r0, r1):
    s = np.clip((r - r0) / (r1 - r0), 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


def _ref_bump_deriv(r, r0, r1):
    s = np.clip((r - r0) / (r1 - r0), 0.0, 1.0)
    return -6.0 * s * (1.0 - s) / (r1 - r0)


def _ref_radial_parts(pts, center):
    dx = pts - np.asarray(center, dtype=float)
    r = np.hypot(dx[:, 0], dx[:, 1])
    return dx, r, dx / np.where(r > 0.0, r, 1.0)[:, None]


def _ref_bump_closures(center, r0, r1, offset, matrix, label=None):
    """value and jacobian of bump_field as (n, 2) and (n, 2, 2)
    broadcasts, the layout the component rows replaced."""
    a = np.asarray(offset, dtype=float)
    m = np.asarray(matrix, dtype=float)

    def value(pts):
        dx, r, _ = _ref_radial_parts(pts, center)
        return _ref_bump(r, r0, r1)[:, None] * (a[None, :] + dx @ m.T)

    def jacobian(pts):
        dx, r, unit = _ref_radial_parts(pts, center)
        slope = _ref_bump_deriv(r, r0, r1)[:, None] * (a[None, :] + dx @ m.T)
        jac = slope[:, :, None] * unit[:, None, :]
        jac += _ref_bump(r, r0, r1)[:, None, None] * m
        return jac

    return value, jacobian


def _ref_wave_closures(center, xi, rho, eta, *, chi_r0, chi_r1,
                       complex_phase=False, background=None, label=None):
    """value and jacobian of oscillatory_field in the broadcast layout."""
    xi = np.asarray(xi, dtype=float)
    xi = xi / np.linalg.norm(xi)
    eta = np.asarray(eta, dtype=complex if complex_phase or
                     np.iscomplexobj(eta) else float)

    def value(pts):
        dx, r, _ = _ref_radial_parts(pts, center)
        theta = rho * (dx @ xi)
        mod = np.exp(1j * theta) if complex_phase else np.cos(theta)
        out = np.multiply.outer(_ref_bump(r, chi_r0, chi_r1) * mod, eta)
        if background is not None:
            omega, amp, g0, g1 = background
            out = out + np.multiply.outer(amp * _ref_bump(r, g0, g1),
                                          np.asarray(omega, dtype=float))
        return out

    def jacobian(pts):
        dx, r, unit = _ref_radial_parts(pts, center)
        chi = _ref_bump(r, chi_r0, chi_r1)
        dchi = _ref_bump_deriv(r, chi_r0, chi_r1)
        theta = rho * (dx @ xi)
        if complex_phase:
            mod = np.exp(1j * theta)
            dmod = 1j * mod
        else:
            mod = np.cos(theta)
            dmod = -np.sin(theta)
        grad = (dchi * mod)[:, None] * unit + (chi * dmod * rho)[:, None] * xi
        jac = eta[:, None] * grad[:, None, :]
        if background is not None:
            omega, amp, g0, g1 = background
            carrier = _ref_bump_deriv(r, g0, g1)[:, None] * unit
            jac += ((amp * np.asarray(omega, dtype=float))[:, None]
                    * carrier[:, None, :])
        return jac

    return value, jacobian


def _probes_with_references(monkeypatch):
    """standard_ensemble(2026) and the counterexample probes at rho 1 and
    128, real and complex, with and without the carrier, each with the
    broadcast closures built from the same arguments."""
    refs = {}
    for name, ref in (("bump_field", _ref_bump_closures),
                      ("oscillatory_field", _ref_wave_closures)):
        def recorded(*args, _make=getattr(forms, name), _ref=ref, **kw):
            field = _make(*args, **kw)
            refs[field.label] = _ref(*args, **kw)
            return field
        monkeypatch.setattr(forms, name, recorded)
    fields = list(forms.standard_ensemble(2026))
    probe = oscillatory_counterexample(1.0, 1.0, power_phi(32.0), octaves=0)
    for rho in (1.0, 128.0):
        for complex_phase in (False, True):
            for bg in (None, (probe.omega, 2.0, 0.35, 0.75)):
                fields.append(forms.oscillatory_field(
                    (0.0, 0.0), probe.xi, rho, probe.eta, chi_r0=-0.10,
                    chi_r1=0.30, complex_phase=complex_phase, background=bg,
                    label=f"counterexample-{rho:g}-{complex_phase}-{bg}"))
    return [(f, refs[f.label]) for f in fields]


def test_probe_rows_match_broadcast_closures(monkeypatch):
    probes = _probes_with_references(monkeypatch)
    assert len(probes) == 68
    for i, (field, (ref_value, ref_jacobian)) in enumerate(probes):
        pts = _reference_points(field, seed=i)
        vals, jac = field.value(pts), field.jacobian(pts)
        ref_vals, ref_jac = ref_value(pts), ref_jacobian(pts)
        assert vals.shape == ref_vals.shape == (len(pts), 2), field.label
        assert jac.shape == ref_jac.shape == (len(pts), 2, 2), field.label
        assert vals.dtype == ref_vals.dtype, field.label
        assert jac.dtype == ref_jac.dtype, field.label
        # the explicit products round apart from the small matmuls, and a
        # wave's phase error grows with rho; the Jacobian is measured
        # against its own size, which the bump slope sets
        rho = 2.0 * np.pi / field.wavelength if field.wavelength else 1.0
        tol = 1e-15 * max(1.0, rho)
        assert np.abs(vals - ref_vals).max() <= tol * field.scale, field.label
        assert (np.abs(jac - ref_jac).max()
                <= tol * np.abs(ref_jac).max()), field.label
        for k in range(2):
            assert vals[:, k].flags.c_contiguous, field.label
            for h in range(2):
                assert jac[:, k, h].flags.c_contiguous, field.label


@pytest.mark.parametrize("change, match", [
    pytest.param({"xi": (0.0, 0.0)}, "xi", id="xi-zero"),
    pytest.param({"xi": (np.nan, 1.0)}, "xi", id="xi-nan"),
    pytest.param({"xi": (1.0, 0.0, 0.0)}, "xi", id="xi-3-vector"),
    pytest.param({"rho": 0.0}, "rho", id="rho-zero"),
    pytest.param({"rho": -2.0}, "rho", id="rho-negative"),
    pytest.param({"rho": np.nan}, "rho", id="rho-nan"),
    pytest.param({"rho": np.inf}, "rho", id="rho-inf"),
    pytest.param({"eta": (0.6, -0.8, 0.1)}, "eta", id="eta-3-vector"),
    pytest.param({"eta": (np.inf, 0.0)}, "eta", id="eta-inf"),
    pytest.param({"chi_r0": 0.4}, "chi_r0", id="chi-reversed"),
    pytest.param({"chi_r0": 0.35}, "chi_r0", id="chi-equal"),
    pytest.param({"chi_r1": np.inf}, "chi_r0", id="chi-inf"),
    pytest.param({"chi_r0": -0.3, "chi_r1": -0.1}, "chi_r0",
                 id="chi-negative"),
    pytest.param({"background": ((0.0, 1.0), 2.0, 0.75, 0.35)}, "g_r0",
                 id="carrier-reversed"),
    pytest.param({"background": ((0.0, 1.0), 2.0, 0.35, np.nan)},
                 "background", id="carrier-nan"),
    pytest.param({"center": (np.nan, 0.0)}, "center", id="center-nan"),
])
def test_oscillatory_field_rejects_invalid_input(change, match):
    args = {"center": (0.0, 0.0), "xi": (1.0, 0.4), "rho": 4.0,
            "eta": (0.6, -0.8), "chi_r0": -0.1, "chi_r1": 0.35}
    args.update(change)
    with pytest.raises(ValueError, match=match):
        oscillatory_field(**args)


@pytest.mark.parametrize("change, match", [
    pytest.param({"center": (np.inf, 0.0)}, "center", id="center-inf"),
    pytest.param({"center": (0.0, np.nan)}, "center", id="center-nan"),
    pytest.param({"r1": np.inf}, "r1", id="r1-inf"),
    pytest.param({"matrix": [[np.nan, 0.0], [0.0, 1.0]]}, "finite",
                 id="matrix-nan"),
])
def test_bump_field_rejects_non_finite_input(change, match):
    args = {"center": (0.0, 0.0), "r0": 0.1, "r1": 0.5,
            "offset": (0.3, -0.2), "matrix": [[1.0, 0.4], [-0.7, 0.2]]}
    args.update(change)
    with pytest.raises(ValueError, match=match):
        bump_field(**args)


def test_exp_square_margin_below_inversion_bracket():
    # some ensemble nodes have 1e-14 * scale < |v| < zeta^-1(1e-12); Lambda
    # is taken at the bracket edge there instead of failing the run
    for seed in (6, 43, 2026):
        report = strict_margin((1.0, 1.0), exp_square_phi(),
                               standard_ensemble(seed), 0.0)
        assert np.isfinite(report.min_residual)


def _counted_probe(field, seen):
    def value(pts):
        seen.append("value")
        return field.value(pts)

    def jacobian(pts):
        seen.append("jacobian")
        return field.jacobian(pts)

    return dataclasses.replace(field, value=value, jacobian=jacobian)


_ONCE_SPEC = power_phi(4.0)
_ONCE_GRID = ramp_field(1.0, 1.0, 0.3, shape=(65, 65),
                        domain=(-1.0, 1.0, -1.0, 1.0))


# every public route into the quadrature, as a function of (probe, quad)
_ONCE_INTEGRATORS = {
    "form-pair": lambda v, **quad: dissipativity_form(
        (1.2, 0.8), _ONCE_SPEC, v, **quad),
    "form-grid": lambda v, **quad: dissipativity_form(
        _ONCE_GRID, _ONCE_SPEC, v, **quad),
    "form-system": lambda v, **quad: dissipativity_form(
        lame_system(1.2, 0.8), _ONCE_SPEC, v, **quad),
    "strict_margin": lambda v, **quad: strict_margin(
        (1.2, 0.8), _ONCE_SPEC, [v], 0.1, **quad).min_residual,
}


@pytest.mark.parametrize("name", list(_ONCE_INTEGRATORS))
def test_integrator_evaluates_probe_once_per_chunk(name):
    # quadrature calls value, then jacobian, once per chunk and nowhere else
    quad = {"max_chunk": 4096}
    for field in five_real_fields():
        seen = []
        _ONCE_INTEGRATORS[name](_counted_probe(field, seen), **quad)
        chunks = len(list(_disk_rule(field, **quad)))
        assert chunks > 1, field.label
        assert seen == ["value", "jacobian"] * chunks, field.label


# ---------------------------------------------------------------------------
# probe ensemble and counterexample


def test_ensemble_is_deterministic_and_complete():
    a = standard_ensemble(seed=2026)
    b = standard_ensemble(seed=2026)
    assert len(a) == 60
    assert [f.label for f in a] == [f.label for f in b]
    pts = np.array([[0.05, -0.02], [0.2, 0.1]])
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.value(pts), fb.value(pts))
    families = {f.family for f in a}
    assert families == {"bump", "rotation", "gradient", "oscillatory"}


def test_counterexample_fires_beyond_threshold():
    report = oscillatory_counterexample(1.0, 1.0, power_phi(32.0))
    assert report.algebraic_min < 0.0
    assert report.flip_rho is not None
    assert report.flip_rho <= 2.0 ** 7
    assert report.rows[-1][1] < 0.0


def test_counterexample_quiet_below_threshold():
    report = oscillatory_counterexample(1.0, 1.0, power_phi(4.0), octaves=4)
    assert report.algebraic_min > 0.0
    assert report.flip_rho is None
    assert all(row[1] > 0.0 for row in report.rows)


def test_counterexample_sweep_ends_only_at_the_node_cap(monkeypatch):
    # the probe box is 1.5 wide: rho = 32 asks for 8 x 77 nodes along xi,
    # past a cap of 600, and the sweep keeps the octaves up to 16
    sweep = dict(octaves=8, max_axis_points=600)
    report = oscillatory_counterexample(1.0, 1.0, power_phi(4.0), **sweep)
    assert report.unresolved_rho == 32.0
    assert [row[0] for row in report.rows] == [1.0, 2.0, 4.0, 8.0, 16.0]
    # a non-finite integral is no resolution limit: it still raises
    monkeypatch.setattr(forms, "_lame_columns",
                        lambda *args: np.full((len(args[-1]), 2), np.nan))
    with pytest.raises(QuadratureFailure, match="non finite"):
        oscillatory_counterexample(1.0, 1.0, power_phi(4.0), **sweep)


def test_probe_search_matches_complex_margin():
    # the real angular search and the full complexified search see the same
    # minimum for the self adjoint Lame tensor
    spec = power_phi(32.0)
    report = oscillatory_counterexample(1.0, 1.0, spec, octaves=0)
    lam_sq = (30.0 / 32.0) ** 2
    full = algebraic_margin(lame_system(1.0, 1.0), -np.sqrt(lam_sq))
    assert report.algebraic_min == pytest.approx(full.min_value, rel=0.0,
                                                 abs=3e-12)


@pytest.mark.parametrize("lam, mu, lam_sq", [
    (-1.5, 1.0, 0.9), (-0.5, 1.0, 0.5),       # lambda < 0
    (2.0, 0.5, 1e-6), (1.0, 1.0, 1.0 - 1e-6),  # L^2 near 0 and near 1
    (3.0, 0.7, 0.3), (0.5, 2.0, 0.7),          # lambda != mu
])
def test_symbol_minimum_matches_complex_margin(lam, mu, lam_sq):
    value, xi, omega, eta = _symbol_minimum(lam, mu, lam_sq)
    system = lame_system(lam, mu)
    full = algebraic_margin(system, -np.sqrt(lam_sq))
    # one minimizer behind both, so they agree to rounding
    assert value == pytest.approx(full.min_value, rel=0.0,
                                  abs=1e-12 * (lam + 2.0 * mu))
    assert np.array_equal(xi, [1.0, 0.0])
    assert np.linalg.norm(omega) == pytest.approx(1.0, rel=1e-15)
    assert np.linalg.norm(eta) == pytest.approx(1.0, rel=1e-15)
    assert eta @ omega >= 0.0
    # the returned triple realizes the minimum
    assert algebraic_form(system, -np.sqrt(lam_sq), xi, eta, omega) == \
        pytest.approx(value, rel=1e-12, abs=1e-14)


# (rho, form, gradient_sq) of oscillatory_counterexample(1, 1, power_phi(32))
# under the earlier rule, which refined both axes of the unrotated box
AXIS_RULE_ROWS = (
    (1.0, 10.981801776262543, 43.4044717878954),
    (2.0, 10.957518638593704, 43.39675917840058),
    (4.0, 10.86599092390773, 43.384133031800076),
    (8.0, 10.57374569524397, 43.552896128847),
    (16.0, 9.952865091556465, 45.44831828212814),
    (32.0, 8.205603821704557, 54.03109106624882),
    (64.0, 1.1765048723548475, 88.59911279179033),
    (128.0, -27.034370337848333, 226.97915674274353),
)


def test_counterexample_full_sweep_matches_axis_rule():
    report = oscillatory_counterexample(1.0, 1.0, power_phi(32.0),
                                        octaves=10, stop_at_flip=False)
    assert report.flip_rho == 128.0
    assert [row[0] for row in report.rows] == [2.0 ** j for j in range(11)]
    for row, ref in zip(report.rows, AXIS_RULE_ROWS):
        assert abs(row[1] - ref[1]) <= 1e-5 * ref[2]
        assert abs(row[2] - ref[2]) <= 1e-5 * ref[2]
    assert all(row[1] < 0.0 for row in report.rows[7:])


def test_counterexample_matches_finer_rotated_rule():
    spec = power_phi(32.0)
    report = oscillatory_counterexample(1.0, 1.0, spec, octaves=7)
    finer = oscillatory_counterexample(1.0, 1.0, spec, octaves=7, order=10,
                                       cells_per_wavelength=20.0,
                                       min_cells=24)
    assert len(report.rows) == len(finer.rows) == 8
    for row, ref in zip(report.rows, finer.rows):
        assert abs(row[1] - ref[1]) <= 1e-5 * ref[2]
        assert abs(row[2] - ref[2]) <= 1e-5 * ref[2]
