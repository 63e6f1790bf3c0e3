"""Quadrature evaluation of the functional dissipativity forms.

The core object is the sesquilinear integrand

    Re ( <A^{hk} d_k v, d_h v>
         + Lambda(|v|) |v|^-2 <(A^{hk} - (A^{kh})*) v, d_h v> Re<v, d_k v>
         - Lambda^2(|v|) |v|^-4 <A^{hk} v, v> Re<v, d_k v> Re<v, d_h v> )

summed over h, k and extended by zero on the set where v vanishes.  The
operator is dissipative in the weighted sense iff the integral is >= 0 for
every compactly supported v, and strictly so iff it dominates
kappa * ||grad v||_2^2.  For the planar Lame system the integrand collapses
to scalar coefficient combinations of

    |grad v|^2, (div v)^2, sum_kj d_k v_j d_j v_k, |grad |v||^2,
    and |v|^-2 (v_h d_h |v|)^2,

which this module evaluates directly; xy_decompose gives a field's X/Y
frame components at given points.

Everything here is deterministic: test fields are generated from explicit
seeds, quadrature is tensor Gauss-Legendre with a resolution rule tied to
the field's wavelength, and the symbol minimum of the counterexample is a
lattice zoom in one angle.  The resolution rule follows
the wave direction: a plane wave is integrated on its support box rotated
into its own frame (xi, xi-perp), and only the xi axis is refined per
wavelength, so the node count of an oscillatory probe doubles, rather than
quadruples, per frequency octave.  Every probe vanishes, with its
Jacobian, outside the disk inscribed in its support box, and the rule keeps
only the nodes of each row inside that disk, about pi/4 of the box's.

Quadrature evaluates a probe in one place, _integrate, once per chunk of
nodes: every integrand is a function of the nodes and of the field's
values and Jacobian there.  The zero-set rule, under which the |v|^-2 and
|v|^-4 terms are extended by zero, is stated once, in _modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .coefficients import CoefficientField, GeneralSystem
from .criteria import _lattice_minimum
from .errors import QuadratureFailure
from .phi import PhiSpec

__all__ = [
    "TestField",
    "bump_field",
    "rotation_field",
    "gradient_field",
    "oscillatory_field",
    "standard_ensemble",
    "xy_decompose",
    "dissipativity_form",
    "strict_margin",
    "FieldResidual",
    "MarginReport",
    "CounterexampleReport",
    "oscillatory_counterexample",
]

ZERO_SET_REL = 1e-14
# Relative margin past the support radius within which quadrature nodes are
# kept: rounding of the node coordinates is far below it, so every node
# dropped lies where the field is exactly zero.
_DISK_MARGIN = 1e-9
# Amplitude of the slowly varying carrier of the oscillatory counterexample.
_BACKGROUND_AMP = 2.0


# ---------------------------------------------------------------------------
# test fields


@dataclass(frozen=True, eq=False)
class TestField:
    """Analytic planar vector field with exact point values and Jacobian.

    value(pts) maps (n, 2) points to (n, 2) components; jacobian(pts)
    returns (n, 2, 2) with jac[n, i, h] = d_h v_i.  Either may be a
    transposed view over component-major storage, as the built-in probes
    return, so that each column vals[:, i] and jac[:, i, h] is one
    contiguous row; the package only reads them.  support is a square
    box (x0, x1, y0, y1), and the field, value and Jacobian both, is
    exactly 0 at every point at or beyond the radius of the disk inscribed
    in it, as the built-in probes are: their radial profiles reach 0 at
    that radius and stay there.  The quadrature relies on this and skips
    the box's nodes outside the disk.  wavelength, when set, is the
    shortest oscillation length the quadrature rule must resolve.  frame,
    when set, is the unit direction xi along which the field oscillates:
    the field then varies slowly along xi-perp, so the quadrature rotates
    the box into the frame (xi, xi-perp) and resolves the wavelength along
    xi only.  scale is an amplitude hint used by the zero set convention
    |v| <= 1e-14 * scale, which _modulus applies.  Quadrature calls value
    and then jacobian once per chunk of nodes, in _integrate, and hands
    both to the integrand.
    """

    label: str
    family: str
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float, float, float]
    wavelength: float | None = None
    scale: float = 1.0
    is_real: bool = True
    frame: tuple[float, float] | None = None


def _ramp(r, r0, r1):
    # the falloff coordinate of a plateau bump: 0 for r <= r0, 1 past r1
    return np.clip((r - r0) / (r1 - r0), 0.0, 1.0)


def _bump(s):
    # plateau for s = 0, cubic smoothstep falloff, zero at s = 1
    return 1.0 - s * s * (3.0 - 2.0 * s)


def _bump_slope(s, r0, r1):
    # d/dr of _bump(_ramp(r, r0, r1))
    return -6.0 * s * (1.0 - s) / (r1 - r0)


def _offset_rows(pts, center):
    """The offsets x - cx, y - cy of the points as 1-D rows, and their
    lengths r."""
    x = pts[:, 0] - center[0]
    y = pts[:, 1] - center[1]
    return x, y, np.hypot(x, y)


def _unit_rows(x, y, r):
    """The rows of the unit direction (x, y)/r; both offsets are 0 exactly
    where r is, so the direction there is 0."""
    safe = np.where(r > 0.0, r, 1.0)
    return x / safe, y / safe


def _finite(*values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _center(center) -> tuple[float, float]:
    c = np.asarray(center, dtype=float)
    if c.shape != (2,) or not _finite(*c):
        raise ValueError(f"center must be a finite 2-vector, got {center!r}")
    return float(c[0]), float(c[1])


def _support_box(center, r1):
    cx, cy = center
    return (cx - r1, cx + r1, cy - r1, cy + r1)


def bump_field(center, r0: float, r1: float, offset, matrix,
               label: str = "bump") -> TestField:
    """v(x) = b(|x - c|) (a + M (x - c)) with a C^1 plateau bump b."""
    a = np.asarray(offset, dtype=float)
    m = np.asarray(matrix, dtype=float)
    if a.shape != (2,) or m.shape != (2, 2):
        raise ValueError("offset must be length 2, matrix 2 x 2")
    if not _finite(*a, *m.ravel()):
        raise ValueError("offset and matrix must be finite")
    if not (0.0 <= r0 < r1 < np.inf):
        raise ValueError("need 0 <= r0 < r1 < inf")
    c = _center(center)

    def poly(x, y):
        # the rows a_i + M_i0 x + M_i1 y of the linear part
        return [a[i] + (m[i, 0] * x + m[i, 1] * y) for i in range(2)]

    def value(pts):
        x, y, r = _offset_rows(pts, c)
        b = _bump(_ramp(r, r0, r1))
        out = np.empty((2, len(r)))
        for i, p in enumerate(poly(x, y)):
            np.multiply(b, p, out=out[i])
        return out.T

    def jacobian(pts):
        x, y, r = _offset_rows(pts, c)
        unit = _unit_rows(x, y, r)
        s = _ramp(r, r0, r1)
        b, db = _bump(s), _bump_slope(s, r0, r1)
        # d_h v_i = b' p_i x_h / r + b M_ih
        out = np.empty((2, 2, len(r)))
        for i, p in enumerate(poly(x, y)):
            slope = db * p
            for h in range(2):
                np.multiply(slope, unit[h], out=out[i, h])
                out[i, h] += b * m[i, h]
        return out.transpose(2, 0, 1)

    scale = float(np.abs(a).max(initial=0.0) + np.abs(m).sum() * r1)
    return TestField(label=label, family="bump", value=value,
                     jacobian=jacobian, support=_support_box(c, r1),
                     scale=max(scale, 1e-30))


def rotation_field(center, r0: float, r1: float, amp: float = 1.0,
                   label: str = "rotation") -> TestField:
    """Divergence free core b(r) * amp * (-(y - cy), x - cx)."""
    m = amp * np.array([[0.0, -1.0], [1.0, 0.0]])
    f = bump_field(center, r0, r1, (0.0, 0.0), m, label=label)
    return TestField(label=label, family="rotation", value=f.value,
                     jacobian=f.jacobian, support=f.support, scale=f.scale)


def gradient_field(center, r0: float, r1: float, amp: float = 1.0,
                   label: str = "gradient") -> TestField:
    """Curl free core b(r) * amp * (x - c), the gradient of a radial potential
    up to the bump factor."""
    f = bump_field(center, r0, r1, (0.0, 0.0), amp * np.eye(2), label=label)
    return TestField(label=label, family="gradient", value=f.value,
                     jacobian=f.jacobian, support=f.support, scale=f.scale)


def oscillatory_field(center, xi, rho: float, eta, *,
                      chi_r0: float, chi_r1: float,
                      complex_phase: bool = False,
                      background=None,
                      label: str = "oscillatory") -> TestField:
    """Short wave probe eta chi(|x - c|) cos(rho <xi, x - c>).

    With complex_phase the cosine becomes exp(i rho <xi, x - c>), which keeps
    |v| smooth.  background = (omega, amp, g_r0, g_r1) adds the slowly varying
    carrier amp * omega * g(|x - c|) used by the counterexample construction.
    xi is normalized and must be finite and nonzero, rho finite and
    positive, eta a finite 2-vector.  The envelope needs finite radii with
    chi_r0 < chi_r1 and chi_r1 > 0 (a negative chi_r0 puts the centre on
    the falloff already), and the carrier likewise g_r0 < g_r1, g_r1 > 0.
    """
    xi = np.asarray(xi, dtype=float)
    norm = float(np.linalg.norm(xi)) if xi.shape == (2,) else np.nan
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(f"xi must be a finite nonzero 2-vector, got {xi}")
    xi = xi / norm
    rho = float(rho)
    if not (np.isfinite(rho) and rho > 0.0):
        raise ValueError(f"rho must be finite and positive, got {rho}")
    eta = np.asarray(eta, dtype=complex if complex_phase or
                     np.iscomplexobj(eta) else float)
    if eta.shape != (2,) or not np.all(np.isfinite(eta)):
        raise ValueError(f"eta must be a finite 2-vector, got {eta}")
    if not (_finite(chi_r0, chi_r1) and chi_r0 < chi_r1 and chi_r1 > 0.0):
        raise ValueError("need chi_r0 < chi_r1 with chi_r1 > 0, both "
                         f"finite, got {chi_r0}, {chi_r1}")
    c = _center(center)
    r1 = chi_r1
    bg = None
    if background is not None:
        omega, amp, g_r0, g_r1 = background
        bg = (np.asarray(omega, dtype=float), float(amp),
              float(g_r0), float(g_r1))
        if bg[0].shape != (2,) or not _finite(*bg[0], *bg[1:]):
            raise ValueError("background needs a finite 2-vector omega and "
                             "a finite amplitude and radii")
        if not (bg[2] < bg[3] and bg[3] > 0.0):
            raise ValueError("need g_r0 < g_r1 with g_r1 > 0, got "
                             f"{g_r0}, {g_r1}")
        r1 = max(r1, bg[3])

    def value(pts):
        x, y, r = _offset_rows(pts, c)
        theta = rho * (x * xi[0] + y * xi[1])
        mod = np.exp(1j * theta) if complex_phase else np.cos(theta)
        wave = _bump(_ramp(r, chi_r0, chi_r1)) * mod
        out = np.empty((2, len(r)), dtype=eta.dtype)
        for i in range(2):
            np.multiply(wave, eta[i], out=out[i])
        if bg is not None:
            omega, amp, g0, g1 = bg
            carrier = amp * _bump(_ramp(r, g0, g1))
            for i in range(2):
                out[i] += carrier * omega[i]
        return out.T

    def jacobian(pts):
        x, y, r = _offset_rows(pts, c)
        unit = _unit_rows(x, y, r)
        s = _ramp(r, chi_r0, chi_r1)
        chi, dchi = _bump(s), _bump_slope(s, chi_r0, chi_r1)
        theta = rho * (x * xi[0] + y * xi[1])
        if complex_phase:
            mod = np.exp(1j * theta)
            dmod = 1j * mod
        else:
            mod = np.cos(theta)
            dmod = -np.sin(theta)
        # d_h v_i = eta_i (chi' u_h mod + chi mod' rho xi_h)
        radial, along = dchi * mod, chi * dmod * rho
        grad = [radial * unit[h] + along * xi[h] for h in range(2)]
        del radial, along
        out = np.empty((2, 2, len(r)), dtype=eta.dtype)
        for i in range(2):
            for h in range(2):
                np.multiply(eta[i], grad[h], out=out[i, h])
        if bg is not None:
            omega, amp, g0, g1 = bg
            dg = _bump_slope(_ramp(r, g0, g1), g0, g1)
            for h in range(2):
                carrier = dg * unit[h]
                for i in range(2):
                    out[i, h] += (amp * omega[i]) * carrier
        return out.transpose(2, 0, 1)

    is_real = not (complex_phase or np.iscomplexobj(eta))
    scale = float(np.abs(eta).max() + (bg[1] if bg is not None else 0.0))
    return TestField(label=label, family="oscillatory", value=value,
                     jacobian=jacobian, support=_support_box(c, r1),
                     wavelength=2.0 * np.pi / rho, scale=max(scale, 1e-30),
                     is_real=is_real, frame=(float(xi[0]), float(xi[1])))


def standard_ensemble(seed: int = 2026, *, n_bump: int = 20, n_rot: int = 20,
                      n_osc: int = 20) -> tuple[TestField, ...]:
    """Deterministic probe family: polynomial bumps, rotation and gradient
    cores, and modulated waves at dyadic frequencies."""
    rng = np.random.default_rng(seed)
    fields: list[TestField] = []
    for i in range(n_bump):
        center = rng.uniform(-0.35, 0.35, size=2)
        r1 = rng.uniform(0.35, 0.6)
        r0 = r1 * rng.uniform(0.2, 0.55)
        offset = rng.normal(size=2)
        matrix = rng.normal(size=(2, 2))
        fields.append(bump_field(center, r0, r1, offset, matrix,
                                 label=f"bump-{i:02d}"))
    for i in range(n_rot):
        center = rng.uniform(-0.3, 0.3, size=2)
        r1 = rng.uniform(0.35, 0.6)
        r0 = r1 * rng.uniform(0.2, 0.55)
        amp = rng.normal()
        if i % 2 == 0:
            fields.append(rotation_field(center, r0, r1, amp,
                                         label=f"rotation-{i:02d}"))
        else:
            fields.append(gradient_field(center, r0, r1, amp,
                                         label=f"gradient-{i:02d}"))
    for i in range(n_osc):
        center = rng.uniform(-0.25, 0.25, size=2)
        r1 = rng.uniform(0.3, 0.5)
        angle = rng.uniform(0.0, np.pi)
        xi = (np.cos(angle), np.sin(angle))
        rho = float(2 ** rng.integers(0, 5))
        if i % 2 == 0:
            eta = rng.normal(size=2) + 1j * rng.normal(size=2)
            eta = eta / np.linalg.norm(eta)
            f = oscillatory_field(center, xi, rho, eta, chi_r0=-0.3 * r1,
                                  chi_r1=r1, complex_phase=True,
                                  label=f"wave-{i:02d}")
        else:
            eta = rng.normal(size=2)
            eta = eta / np.linalg.norm(eta)
            f = oscillatory_field(center, xi, rho, eta, chi_r0=-0.3 * r1,
                                  chi_r1=r1, label=f"wave-{i:02d}")
        fields.append(f)
    return tuple(fields)


# ---------------------------------------------------------------------------
# tensor Gauss quadrature with slab chunking


@lru_cache(maxsize=8)
def _leg_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _axis_rule(a: float, b: float, n_cells: int, order: int):
    g, w = _leg_rule(order)
    h = (b - a) / n_cells
    starts = a + h * np.arange(n_cells)
    nodes = (starts[:, None] + 0.5 * h * (g[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * h * w, n_cells)
    return nodes, weights


def _axis_cells(extent: float, wavelength: float | None,
                cells_per_wavelength: float, min_cells: int) -> int:
    n = min_cells
    if wavelength is not None:
        n = max(n, int(np.ceil(cells_per_wavelength * extent / wavelength)))
    return n


def _disk_rule(v: TestField, *, order: int = 8,
               cells_per_wavelength: float = 10.0, min_cells: int = 12,
               max_axis_points: int = 60000, max_chunk: int = 65_536):
    """The quadrature nodes of v's support disk, as chunks (pts, weights).

    The tensor rule runs on the axes (u, w) of the field's frame: the
    support box itself for a field without a frame, and the box rotated
    onto (xi, xi-perp) about its centre for a plane wave, which oscillates
    along u only.  The wavelength rule refines u, and w as well when there
    is no frame.  The field and its Jacobian vanish outside the disk
    inscribed in the square support box (the TestField contract), and so
    does any integrand local in them.  Each row of w nodes therefore keeps
    only its run [lo, hi) within R (1 + 1e-9) of the centre, R the half
    width, found by two binary searches: the nodes dropped, about a fifth
    of the box's, would add exact zeros.  A chunk is whole rows with at
    most max_chunk nodes (one row when a row alone is longer); its points
    (origin + u a0) + w a1 and weights wu ww are taken straight from the
    runs, node by node, with the box rule's arithmetic.  The generator
    drops its references to a chunk before it builds the next one.
    """
    x0, x1, y0, y1 = v.support
    radius = 0.5 * (x1 - x0)
    if not abs((y1 - y0) - (x1 - x0)) <= 1e-12 * (x1 - x0):
        raise ValueError(f"support box {v.support} of {v.label!r} is not "
                         "a square")
    center = np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])
    if v.frame is None:
        origin, axes = np.zeros(2), np.eye(2)
        u0, u1, w0, w1 = x0, x1, y0, y1
        w_wavelength = v.wavelength
    else:
        origin = center
        xi = np.asarray(v.frame, dtype=float)
        axes = np.array([xi, [-xi[1], xi[0]]])
        u0, u1 = x0 - origin[0], x1 - origin[0]
        w0, w1 = y0 - origin[1], y1 - origin[1]
        w_wavelength = None
    nu = _axis_cells(u1 - u0, v.wavelength, cells_per_wavelength, min_cells)
    nw = _axis_cells(w1 - w0, w_wavelength, cells_per_wavelength, min_cells)
    if max(nu, nw) * order > max_axis_points:
        raise QuadratureFailure(
            f"resolution rule asks for {max(nu, nw) * order} nodes per axis "
            f"(cap {max_axis_points}); the probe oscillates too fast")
    us, wu = _axis_rule(u0, u1, nu, order)
    ws, ww = _axis_rule(w0, w1, nw, order)
    # the run of each row inside the disk, by its centre (cu, cw) in axes
    cu, cw = axes @ (center - origin)
    reach = np.sqrt(np.maximum(
        (radius * (1.0 + _DISK_MARGIN)) ** 2 - (us - cu) ** 2, 0.0))
    lo = np.searchsorted(ws, cw - reach, side="left")
    hi = np.searchsorted(ws, cw + reach, side="right")
    keep = hi > lo
    us, wu, lo, hi = us[keep], wu[keep], lo[keep], hi[keep]
    counts = hi - lo
    ends = np.concatenate([[0], np.cumsum(counts)])
    col_pts = ws[:, None] * axes[1]
    i0 = 0
    while i0 < len(us):
        i1 = max(i0 + 1, int(np.searchsorted(ends, ends[i0] + max_chunk,
                                             side="right")) - 1)
        # each node's row in the chunk, and its column lo + (position -
        # row start)
        rows = np.repeat(np.arange(i1 - i0), counts[i0:i1])
        cols = np.arange(ends[i0], ends[i1])
        cols += np.repeat(lo[i0:i1] - ends[i0:i1], counts[i0:i1])
        pts = (origin + us[i0:i1, None] * axes[0]).take(rows, axis=0)
        pts += col_pts.take(cols, axis=0)
        weights = wu[i0:i1].take(rows)
        weights *= ww.take(cols)
        del rows, cols
        yield pts, weights
        del pts, weights
        i0 = i1


def _integrate(fn, v: TestField, **rule) -> np.ndarray:
    """Integrate fn(pts, vals, jac) -> (n,) or (n, q) over the support of
    v, on the chunks of _disk_rule(v, **rule).

    This is the one place where quadrature evaluates a probe: each chunk
    calls v.value and then v.jacobian once, and fn receives both, so an
    integrand never calls the probe itself.  Each chunk's points, weights,
    field values and columns are freed before the next chunk is built, so
    the chunk bounds the memory: the Lame integrand with a built-in field,
    value and Jacobian included, peaks at about 200 bytes a node for a real
    field and 285 for a complex one (tracemalloc, the counterexample wave
    with its carrier), some 13 and 18 MB at the default 65,536 nodes.
    Returns a length q vector (q = 1 for scalar integrands).
    """
    total: np.ndarray | None = None
    for pts, weights in _disk_rule(v, **rule):
        cols = np.asarray(fn(pts, v.value(pts), v.jacobian(pts)))
        if cols.ndim == 1:
            cols = cols[:, None]
        part = weights @ cols
        # freed before the next chunk is built, which then reuses the memory
        del pts, weights, cols
        total = part if total is None else total + part
    assert total is not None
    if not np.all(np.isfinite(total)):
        raise QuadratureFailure("integrand produced non finite values")
    return total


# ---------------------------------------------------------------------------
# the dissipativity form


def _re_dot(x, y):
    """Re(conj(x) y) per node, in real arithmetic only."""
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        return x.real * y.real + x.imag * y.imag
    return x * y


def _modulus(vals, jac, scale: float):
    """The zero-set rule of every form integrand, stated once.

    Returns (mask, safe, d1, d2): mask is |v| > ZERO_SET_REL * scale, the
    nodes off the zero set; safe is |v| on the mask and 1 elsewhere, so
    dividing by it is always defined; d1 and d2 are the rows
    d_k|v| = Re<v, d_k v>/|v| (k = 1, 2) on the mask.  Terms with |v|^-2
    or |v|^-4 are extended by zero where mask is False.  Everything runs
    in real arithmetic, so a real field never touches a complex array.
    """
    v1, v2 = vals[:, 0], vals[:, 1]
    nv = np.sqrt(_re_dot(v1, v1) + _re_dot(v2, v2))
    mask = nv > ZERO_SET_REL * scale
    safe = np.where(mask, nv, 1.0)
    d1 = (_re_dot(v1, jac[:, 0, 0]) + _re_dot(v2, jac[:, 1, 0])) / safe
    d2 = (_re_dot(v1, jac[:, 0, 1]) + _re_dot(v2, jac[:, 1, 1])) / safe
    return mask, safe, d1, d2


def _generic_integrand(system: GeneralSystem, phi_spec: PhiSpec,
                       scale: float):
    tensor = system.tensor
    gap = system.adjoint_gap()
    has_gap = bool(np.max(np.abs(gap)) > 1e-14)

    def fn(pts, vals, jac):
        mask, safe, d1, d2 = _modulus(vals, jac, scale)
        unit = vals / safe[:, None]
        d = np.column_stack([d1, d2])
        lam = phi_spec.profile.lambda_of(safe)
        t1 = np.einsum("hkij,njk,nih->n", tensor, jac, np.conj(jac))
        weighted = np.zeros(len(pts), dtype=complex)
        if has_gap:
            weighted += lam * np.einsum("hkij,nj,nih,nk->n", gap, unit,
                                        np.conj(jac), d)
        weighted -= (lam * lam) * np.einsum("hkij,nj,ni,nh,nk->n", tensor,
                                            unit, np.conj(unit), d, d)
        form = t1.real + np.where(mask, weighted.real, 0.0)
        grad2 = np.einsum("nih,nih->n", jac, np.conj(jac)).real
        return np.column_stack([form, grad2])

    return fn


def _lame_integrand(target, phi_spec: PhiSpec, scale: float,
                    kappa: float = 0.0):
    """Scalar coefficient route for the Lame tensor, shifted by -kappa
    Laplacian (kappa = 0 is the plain form), as an integrand of
    (pts, vals, jac) for a field of amplitude hint scale.

    Valid for complex fields: the first order term vanishes because the
    tensor is formally self adjoint, and the weighted term reduces to
    (lam + mu) |q|^2 + mu |d|^2, with d_k = Re<v, d_k v>/|v| = d_k|v| and
    q = <v/|v|, d>.  The quantities |grad v|^2, (div v)^2,
    sum_kj d_k v_j d_j v_k, |v|^2, d, |q|^2 and |d|^2 are formed in one
    pass over the two value and four Jacobian columns, as products of
    real and imaginary parts; a real field never touches a complex array.
    """

    def fn(pts, vals, jac):
        lam, mu = _coefficients_at(target, pts)
        return _lame_columns(lam, mu, phi_spec, scale, vals, jac, kappa)

    return fn


def _lame_columns(lam, mu, phi_spec: PhiSpec, scale: float, vals, jac,
                  kappa: float):
    """The (n, 2) form and |grad v|^2 columns of _lame_integrand from the
    field's values and Jacobian at the nodes."""
    v1, v2 = vals[:, 0], vals[:, 1]
    j11, j12 = jac[:, 0, 0], jac[:, 0, 1]
    j21, j22 = jac[:, 1, 0], jac[:, 1, 1]
    diag = _re_dot(j11, j11) + _re_dot(j22, j22)
    grad2 = diag + _re_dot(j12, j12) + _re_dot(j21, j21)
    div = j11 + j22
    swap = diag + 2.0 * _re_dot(j12, j21)
    base = (mu - kappa) * grad2 + lam * _re_dot(div, div) + mu * swap
    mask, safe, d1, d2 = _modulus(vals, jac, scale)
    lv = phi_spec.profile.lambda_of(safe)
    qv = v1 * d1 + v2 * d2  # |v| q
    corr = (lv * lv) * ((lam + mu) * _re_dot(qv, qv) / (safe * safe)
                        + (mu - kappa) * (d1 * d1 + d2 * d2))
    form = base - np.where(mask, corr, 0.0)
    # stacked while the temporaries above are still held, so that freeing
    # them leaves no free block at the top of the heap for malloc to trim
    # and fault back in on the next chunk
    return np.column_stack([form, grad2])


def _coefficients_at(target, pts):
    """(lambda, mu) at the points: bilinear samples of a CoefficientField,
    or the floats of a constant pair."""
    if isinstance(target, CoefficientField):
        return target._lame_at(pts[:, 0], pts[:, 1])
    lam, mu = target
    return float(lam), float(mu)


def _form_and_energy(target, phi_spec: PhiSpec, v: TestField,
                     **quad) -> tuple[float, float]:
    if isinstance(target, GeneralSystem):
        fn = _generic_integrand(target, phi_spec, v.scale)
    elif isinstance(target, (CoefficientField, tuple)):
        fn = _lame_integrand(target, phi_spec, v.scale)
    else:
        raise TypeError("target must be a GeneralSystem, a CoefficientField "
                        "or a (lambda, mu) pair")
    out = _integrate(fn, v, **quad)
    return float(out[0]), float(out[1])


def dissipativity_form(target, phi_spec: PhiSpec, v: TestField,
                       **quad) -> float:
    """Value of the dissipativity integrand for one test field.

    target is a constant GeneralSystem (any component count, the full
    sesquilinear route) or a planar Lame CoefficientField / (lambda, mu)
    pair (the scalar coefficient route).  Non negative values over a rich
    family of fields are evidence for, never proof of, dissipativity;
    a single negative value is a certificate against it.
    """
    return _form_and_energy(target, phi_spec, v, **quad)[0]


@dataclass(frozen=True)
class FieldResidual:
    label: str
    family: str
    form_value: float
    gradient_sq: float
    residual: float


@dataclass(frozen=True)
class MarginReport:
    min_residual: float
    worst_label: str
    kappa: float
    rows: tuple[FieldResidual, ...]


def strict_margin(target, phi_spec: PhiSpec, ensemble, kappa: float,
                  **quad) -> MarginReport:
    """Worst value of form - kappa ||grad v||^2 over the probe ensemble."""
    rows = []
    for v in ensemble:
        form, grad2 = _form_and_energy(target, phi_spec, v, **quad)
        rows.append(FieldResidual(label=v.label, family=v.family,
                                  form_value=form, gradient_sq=grad2,
                                  residual=form - kappa * grad2))
    worst = min(rows, key=lambda r: r.residual)
    return MarginReport(min_residual=worst.residual, worst_label=worst.label,
                        kappa=float(kappa), rows=tuple(rows))


# ---------------------------------------------------------------------------
# X/Y frame decomposition


def xy_decompose(v: TestField, pts):
    """Frame components (X1, X2, Y1, Y2) of a real planar field.

    X1 + i X2 collects the radial derivative of |v| seen from the moving
    frame (v1, v2), (v2, -v1); Y1 = div v - X1 and Y2 = curl v - X2 are the
    frame derivatives of the direction field.  All four vanish by convention
    on the zero set of v.
    """
    pts = np.asarray(pts, dtype=float)
    vals = v.value(pts)
    if np.iscomplexobj(vals) and np.max(np.abs(vals.imag)) > 0.0:
        raise ValueError("frame decomposition needs a real valued field")
    vals = vals.real
    jac = v.jacobian(pts).real
    mask, safe, d1, d2 = _modulus(vals, jac, v.scale)
    x1 = (vals[:, 0] * d1 + vals[:, 1] * d2) / safe
    x2 = (vals[:, 1] * d1 - vals[:, 0] * d2) / safe
    div = jac[:, 0, 0] + jac[:, 1, 1]
    curl = jac[:, 1, 0] - jac[:, 0, 1]
    y1 = div - x1
    y2 = curl - x2
    zero = ~mask
    for arr in (x1, x2, y1, y2):
        arr[zero] = 0.0
    return x1, x2, y1, y2


# ---------------------------------------------------------------------------
# oscillatory counterexample


@dataclass(frozen=True)
class CounterexampleReport:
    algebraic_min: float
    flip_rho: float | None
    xi: tuple[float, float]
    omega: tuple[float, float]
    eta: tuple[float, float]
    rows: tuple[tuple[float, float, float], ...]  # (rho, form, grad_sq)


def _symbol_minimum(lam: float, mu: float, lam_sup_sq: float):
    """Minimize eta^T [Q - L^2 (w^T Q w) w w^T] eta over real unit
    (xi, omega, eta), Q = mu I + (lambda + mu) xi xi^T.  By rotation and
    reflection xi = e1, Q = diag(lambda + 2 mu, mu) and omega = (cos e,
    sin e); _lattice_minimum minimizes the smallest eigenvalue, from trace
    and determinant, over e.  eta is its eigenvector with <eta, omega> >= 0.
    """
    a, b = lam + 2.0 * mu, mu

    def matrix(e):
        c, s = np.cos(e), np.sin(e)
        q = lam_sup_sq * (a * c * c + b * s * s)
        return a - q * c * c, b - q * s * s, -q * c * s

    def low(nodes):  # tr/2 - sqrt(tr^2/4 - det)
        m11, m22, m12 = matrix(nodes[:, 0])
        return 0.5 * (m11 + m22 - np.hypot(m11 - m22, 2.0 * m12))

    _, (e,), _ = _lattice_minimum(low, [np.pi / 2.0], 2049)
    m11, m22, m12 = matrix(e)
    vals, vecs = np.linalg.eigh([[m11, m12], [m12, m22]])
    omega = np.array([np.cos(e), np.sin(e)])
    eta = vecs[:, 0] if vecs[:, 0] @ omega >= 0.0 else -vecs[:, 0]
    return float(vals[0]), np.array([1.0, 0.0]), omega, eta


def oscillatory_counterexample(lam: float, mu: float, phi_spec: PhiSpec, *,
                               octaves: int = 10, stop_at_flip: bool = True,
                               **quad) -> CounterexampleReport:
    """Drive the form negative with a modulated plane wave when the symbol
    minimum is negative.

    The probe is v = 2 omega g(x) + eta chi(x)
    cos(rho <xi, x>) where (xi, omega, eta) realize the algebraic minimum
    at L^2 = LambdaLimit.sup_bound and g, chi are nested plateau bumps; as
    rho grows the form scales like the symbol minimum times rho^2, so a
    negative minimum must surface within a few octaves.  Returns the first
    dyadic rho with a negative form value (flip_rho is None when the sweep
    stays non negative, which is the expected outcome below the threshold).
    """
    lam_sup_sq = phi_spec.profile.limit.sup_bound
    alg_min, xi, omega, eta = _symbol_minimum(lam, mu, lam_sup_sq)
    rows = []
    flip: float | None = None
    for j in range(octaves + 1):
        rho = float(2 ** j)
        v = oscillatory_field((0.0, 0.0), xi, rho, eta,
                              chi_r0=-0.10, chi_r1=0.30,
                              background=(omega, _BACKGROUND_AMP, 0.35, 0.75),
                              label=f"counterexample-2^{j}")
        form, grad2 = _form_and_energy((lam, mu), phi_spec, v, **quad)
        rows.append((rho, form, grad2))
        if form < 0.0 and flip is None:
            flip = rho
            if stop_at_flip:
                break
    return CounterexampleReport(algebraic_min=alg_min, flip_rho=flip,
                                xi=(float(xi[0]), float(xi[1])),
                                omega=(float(omega[0]), float(omega[1])),
                                eta=(float(eta[0]), float(eta[1])),
                                rows=tuple(rows))
