"""Coefficient fields on a rectangle and general operator tensors.

Lame coefficient pairs (lambda, mu) live on a rectangular node grid and are
interpreted bilinearly between nodes.  Ellipticity for the planar Lame
operator means ess inf mu > 0 and ess inf (lambda + 2 mu) > 0; the quantity
driving the variable coefficient criterion is

    sup_ratio_sq = ess sup ((lambda + mu) / (lambda + 3 mu))^2

together with the BMO seminorm of mu^2 / (lambda + 3 mu).  The seminorm is
sampled over anchored dyadic sub squares of the node grid down to 2x2
cells; the sampled value is not a bound of the continuum seminorm on
either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EllipticityViolation

__all__ = [
    "CoefficientField",
    "EssBounds",
    "GeneralSystem",
    "ess_bounds",
    "bmo_seminorm",
    "gamma_field",
    "constant_field",
    "ramp_field",
    "checkerboard_field",
    "radial_field",
    "lame_system",
    "load_field",
    "bilinear",
]


@dataclass(frozen=True)
class CoefficientField:
    """Node sampled Lame pair on [x0, x1] x [y0, y1].

    Arrays are indexed [i, j] with i along x and j along y, row major.
    eps and sigma are optional perturbations of lambda and mu used by the
    variable coefficient studies; they default to zero.
    """

    domain: tuple[float, float, float, float]
    lam: np.ndarray
    mu: np.ndarray
    eps: np.ndarray | None = None
    sigma: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        if lam.shape != mu.shape or lam.ndim != 2:
            raise ValueError("lambda and mu must share one 2-d node grid")
        if min(lam.shape) < 2:
            raise ValueError("need at least 2 nodes per direction")
        x0, x1, y0, y1 = self.domain
        if not (x1 > x0 and y1 > y0):
            raise ValueError("empty domain rectangle")
        for name in ("eps", "sigma"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if v.shape != lam.shape:
                    raise ValueError(f"{name} grid must match lambda/mu")
                object.__setattr__(self, name, v)
        for arr in (lam, mu, self.eps, self.sigma):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("coefficient values must be finite")

    @property
    def shape(self) -> tuple[int, int]:
        return self.lam.shape

    @cached_property
    def lam_total(self) -> np.ndarray:
        return self.lam if self.eps is None else self.lam + self.eps

    @cached_property
    def mu_total(self) -> np.ndarray:
        return self.mu if self.sigma is None else self.mu + self.sigma

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        x0, x1, y0, y1 = self.domain
        return (np.linspace(x0, x1, self.shape[0]),
                np.linspace(y0, y1, self.shape[1]))

    @cached_property
    def bmo_value(self) -> float:
        """BMO seminorm of mu^2/(lambda+3mu), the oscillation the planar
        sufficiency criterion bounds.  It does not depend on the weight, so
        a sweep over weights computes it once per field."""
        lam = self.lam_total
        mu = self.mu_total
        return bmo_seminorm(mu * mu / (lam + 3.0 * mu))

    @cached_property
    def _bounds(self) -> EssBounds:
        # cached_property stores nothing when the call raises, so a field
        # that lost ellipticity raises on every ess_bounds call
        return _grid_bounds(self.lam_total, self.mu_total)


def bilinear(values, domain, x, y):
    """Bilinear interpolation of node values at points (x, y).

    values is one node grid, or a tuple of node grids of one shape: each
    point's cell and four weights are worked out once, and a tuple gives
    one sample array per grid, each bit for bit the sample of its grid
    alone.  Points are clamped to the rectangle, which matches the
    piecewise bilinear reading of the node grid.
    """
    grids = values if isinstance(values, tuple) else (values,)
    n1, n2 = grids[0].shape
    if any(g.shape != (n1, n2) for g in grids):
        raise ValueError("the grids sampled together must share one shape")
    x0, x1, y0, y1 = domain
    tx = np.clip((np.asarray(x, dtype=float) - x0) / (x1 - x0) * (n1 - 1),
                 0.0, n1 - 1 - 1e-12)
    ty = np.clip((np.asarray(y, dtype=float) - y0) / (y1 - y0) * (n2 - 1),
                 0.0, n2 - 1 - 1e-12)
    i, j = tx.astype(int), ty.astype(int)
    fx, fy = tx - i, ty - j
    k = i * n2 + j  # the flat index of the corner (i, j), x index outer
    del tx, ty, i, j
    gx, gy = 1 - fx, 1 - fy
    w00, w10, w01, w11 = gx * gy, fx * gy, gx * fy, fx * fy
    del fx, fy, gx, gy  # freed before the gathers, which reuse the memory
    samples = [w00 * f.take(k) + w10 * f.take(k + n2) + w01 * f.take(k + 1)
               + w11 * f.take(k + n2 + 1) for f in (g.ravel() for g in grids)]
    return tuple(samples) if isinstance(values, tuple) else samples[0]


@dataclass(frozen=True)
class EssBounds:
    mu_min: float
    lam_plus_2mu_min: float
    sup_ratio_sq: float


def ess_bounds(field: CoefficientField) -> EssBounds:
    """Essential bounds over the node grid, computed once per field;
    raises on lost ellipticity, at every call."""
    return field._bounds


def _grid_bounds(lam: np.ndarray, mu: np.ndarray) -> EssBounds:
    mu_min = float(np.min(mu))
    l2m_min = float(np.min(lam + 2.0 * mu))
    if mu_min <= 0.0 or l2m_min <= 0.0:
        raise EllipticityViolation(
            f"ess inf mu = {mu_min:.6g}, ess inf (lambda+2mu) = {l2m_min:.6g}; "
            "both must be positive")
    l3m = lam + 3.0 * mu
    # lambda + 3mu = (lambda + 2mu) + mu > 0 follows from ellipticity.
    ratio = (lam + mu) / l3m
    return EssBounds(mu_min=mu_min, lam_plus_2mu_min=l2m_min,
                     sup_ratio_sq=float(np.max(ratio * ratio)))


def gamma_field(field: CoefficientField) -> np.ndarray:
    """gamma = mu*(lambda+mu)/(lambda+3mu); note gamma - mu = -2mu^2/(lambda+3mu)."""
    lam = field.lam_total
    mu = field.mu_total
    return mu * (lam + mu) / (lam + 3.0 * mu)


def bmo_seminorm(values: np.ndarray) -> float:
    """Max mean oscillation over anchored dyadic sub squares, down to 2x2.

    For square side m in {2, 4, 8, ...} the grid is tiled by disjoint m x m
    node blocks anchored at the origin corner; the seminorm is the largest
    mean absolute deviation from the block mean.  The value is sampled at
    the nodes and bounds the continuum BMO seminorm on neither side.  For
    mu^2/(lambda + 3 mu) on a 33 x 33 grid, against its mean oscillation
    over node-aligned squares with lambda and mu bilinear: a checkerboard
    of contrast 0.04 reads 6.25e-3 here against 1.63e-3, and a radial
    bump of amplitude 0.15 reads 1.051e-2 against 1.216e-2.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or min(values.shape) < 2:
        raise ValueError("need a 2-d node grid with at least 2 nodes per side")
    # A non-finite node would compare false everywhere and read as zero
    # oscillation, the value that certifies smallness.
    if not np.all(np.isfinite(values)):
        raise ValueError("node grid holds non-finite values")
    # Shift invariance, used here for conditioning: constants come out as
    # an exact zero instead of rounding residue.
    values = values - values.flat[0]
    n1, n2 = values.shape
    best = 0.0
    m = 2
    while m <= min(n1, n2):
        a, b = n1 // m, n2 // m
        crop = values[:a * m, :b * m].reshape(a, m, b, m)
        means = crop.mean(axis=(1, 3), keepdims=True)
        osc = np.abs(crop - means).mean(axis=(1, 3))
        best = max(best, float(np.max(osc)))
        m *= 2
    return best


# ---------------------------------------------------------------------------
# Presets


def constant_field(lam: float, mu: float, shape=(33, 33),
                   domain=(0.0, 1.0, 0.0, 1.0)) -> CoefficientField:
    ones = np.ones(shape, dtype=float)
    return CoefficientField(domain=domain, lam=lam * ones, mu=mu * ones,
                            label=f"constant(lambda={lam:g}, mu={mu:g})")


def ramp_field(lam0: float, mu0: float, slope: float, shape=(33, 33),
               domain=(0.0, 1.0, 0.0, 1.0)) -> CoefficientField:
    """mu ramps linearly in x across the rectangle; lambda stays constant."""
    x0, x1, _, _ = domain
    xs = np.linspace(x0, x1, shape[0])
    mu = mu0 + slope * (xs[:, None] - x0) * np.ones((1, shape[1]))
    lam = lam0 * np.ones(shape, dtype=float)
    return CoefficientField(domain=domain, lam=lam, mu=mu,
                            label=f"ramp(slope={slope:g})")


def checkerboard_field(lam0: float, mu0: float, contrast: float,
                       block: int = 1, shape=(33, 33),
                       domain=(0.0, 1.0, 0.0, 1.0)) -> CoefficientField:
    """mu alternates mu0 +- contrast/2 on block x block node tiles."""
    i = np.arange(shape[0])[:, None] // block
    j = np.arange(shape[1])[None, :] // block
    signs = np.where((i + j) % 2 == 0, 1.0, -1.0)
    mu = mu0 + 0.5 * contrast * signs
    lam = lam0 * np.ones(shape, dtype=float)
    return CoefficientField(domain=domain, lam=lam, mu=mu,
                            label=f"checkerboard(contrast={contrast:g})")


def radial_field(lam0: float, mu0: float, amp: float, shape=(33, 33),
                 domain=(0.0, 1.0, 0.0, 1.0)) -> CoefficientField:
    """Smooth radial perturbation of mu centered in the rectangle."""
    x0, x1, y0, y1 = domain
    xs = np.linspace(x0, x1, shape[0])[:, None]
    ys = np.linspace(y0, y1, shape[1])[None, :]
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    rr = ((xs - cx) / (x1 - x0)) ** 2 + ((ys - cy) / (y1 - y0)) ** 2
    mu = mu0 + amp * np.exp(-8.0 * rr) * np.ones_like(rr)
    lam = lam0 * np.ones(shape, dtype=float)
    return CoefficientField(domain=domain, lam=lam, mu=mu,
                            label=f"radial(amp={amp:g})")


# ---------------------------------------------------------------------------
# Grid files

_HEADER = "# funcdiss coefficient grid v1"


def load_field(path: str | Path) -> CoefficientField:
    """Read a field from a coefficient grid text file.

    Line 1 is the format marker, line 2 the domain and shape
    (x0,x1,y0,y1,n1,n2), line 3 the comma separated column names (lambda
    and mu, then eps and sigma when present), then one row per node in
    row major order (x index outer).  Blank lines are skipped.
    """
    path = Path(path)
    lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    if not lines or lines[0] != _HEADER:
        raise ValueError(f"{path}: not a funcdiss coefficient grid file")
    x0, x1, y0, y1, n1, n2 = lines[1].split(",")
    domain = (float(x0), float(x1), float(y0), float(y1))
    n1, n2 = int(n1), int(n2)
    cols = lines[2].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[3:]])
    if data.shape != (n1 * n2, len(cols)):
        raise ValueError(f"{path}: expected {n1 * n2} rows of {len(cols)} values")
    by_name = {c: data[:, i].reshape(n1, n2) for i, c in enumerate(cols)}
    return CoefficientField(
        domain=domain, lam=by_name["lambda"], mu=by_name["mu"],
        eps=by_name.get("eps"), sigma=by_name.get("sigma"),
        label=str(path.name))


# ---------------------------------------------------------------------------
# General constant coefficient systems


@dataclass(frozen=True)
class GeneralSystem:
    """Constant tensor a[h, k] of m x m blocks for sum_hk A^{hk} d_k d_h.

    tensor has shape (N, N, m, m), complex entries allowed.  The adjoint
    gap A^{hk} - (A^{kh})^* drives the first order term of the
    dissipativity form; it vanishes exactly for the Lame tensor.
    """

    tensor: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=complex)
        if t.ndim != 4 or t.shape[0] != t.shape[1] or t.shape[2] != t.shape[3]:
            raise ValueError("tensor must have shape (N, N, m, m)")
        object.__setattr__(self, "tensor", t)

    @property
    def dim(self) -> int:
        return self.tensor.shape[0]

    @property
    def components(self) -> int:
        return self.tensor.shape[2]

    def contract_xi(self, xi: np.ndarray) -> np.ndarray:
        """Q(xi) = sum_hk A^{hk} xi_h xi_k, m x m, for each xi (..., N)."""
        xi = np.asarray(xi, dtype=float)
        return np.einsum("hkij,...h,...k->...ij", self.tensor, xi, xi)

    def adjoint_gap(self) -> np.ndarray:
        """gap[h, k] = A^{hk} - (A^{kh})^*; zero iff formally self adjoint."""
        swapped = np.conj(np.swapaxes(np.swapaxes(self.tensor, 0, 1), 2, 3))
        return self.tensor - swapped

    @property
    def self_adjoint(self) -> bool:
        return bool(np.max(np.abs(self.adjoint_gap())) < 1e-14)


def lame_system(lam: float, mu: float) -> GeneralSystem:
    """The planar Lame tensor a^{hk}_{ij} = lam d_ih d_jk + mu (d_ij d_hk + d_ik d_hj)."""
    n = 2
    d = np.eye(n)
    t = np.zeros((n, n, n, n), dtype=complex)
    for h in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    t[h, k, i, j] = (lam * d[i, h] * d[j, k]
                                     + mu * (d[i, j] * d[h, k] + d[i, k] * d[h, j]))
    return GeneralSystem(tensor=t, label=f"lame(lambda={lam:g}, mu={mu:g})")
