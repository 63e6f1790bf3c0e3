"""Weight functions phi and the derived limit-ratio calculus.

A weight phi: (0, inf) -> (0, inf) generalizes the classical power weight
phi(t) = t^(p-2).  The admissibility conditions checked here are

  (i)    phi is C^1 on (0, inf), positive and finite,
  (ii)   (s*phi(s))' > 0, so s*phi(s) is strictly increasing,
  (iii)  the range of s*phi(s) is all of (0, inf),
  (iv)   C1*s^r <= (s*phi(s))' <= C2*s^r near 0 for some r > -1, and when
         r = 0 additionally phi(0+) is finite positive and s*phi'(s) -> 0,
  (v)    phi' has constant sign far to the right,
  (vi)   |s*phi'(s)/phi(s)| is nondecreasing (only needed for necessity
         results; sufficiency survives with the sup of the ratio instead).

The derived calculus: zeta(t) inverts s*sqrt(phi(s)), Theta(t) = zeta(t)/t,
and the limit ratio

    Lambda(t) = t * Theta'(t) / Theta(t)
              = - s*phi'(s) / (s*phi'(s) + 2*phi(s))   at s = zeta(t),

whose limit Lambda_inf and sup of Lambda^2, together the tail, drive
every dissipativity criterion downstream.  Each weight computes its tail
once, as LambdaProfile.limit: the built-in families in closed form, a
custom weight from Lambda sampled on a fixed t grid.  exp_square needs no
inversion: s*exp(a s^2) = t gives 2a s^2 = W(2a t^2), W the Lambert
function, so zeta(t) = sqrt(W(t^2)) and Lambda(t) = -W/(1 + W).  One table
solver inverts s*sqrt(phi(s)) for zeta and s*phi(s) of the other weights.
The dual weight psi, with t*psi(t) the inverse of s*phi(s), keeps its
base: sqrt(psi(|w|))*w = sqrt(phi(|u|))*u for w = phi(|u|)*u, so its
profile reads zeta_psi(t) = t^2/zeta(t) and Lambda_psi = -Lambda off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    BadTruncation,
    BracketFailure,
    NonPositivePhi,
    NotIncreasing,
    QuadratureFailure,
)

__all__ = [
    "PhiSpec",
    "PhiValidation",
    "ConditionCheck",
    "LambdaProfile",
    "LambdaLimit",
    "YoungPair",
    "power_phi",
    "exp_square_phi",
    "truncated_power",
    "custom_phi",
    "validate_phi",
    "dual_phi",
    "young_pair",
]

POWER = "power"
EXP_SQUARE = "exp_square"
TRUNCATED_POWER = "truncated_power"
CUSTOM = "custom"
DUAL = "dual"

# Search range of monotone inversion, tabulated at 100 nodes per decade.
# Linear interpolation in log-log starts Newton within about 1e-4 in log s,
# so three quadratic updates reach rounding level.
_BRACKET_HI = 1e12
_BRACKET_LO = 1.0 / _BRACKET_HI
_TABLE_NODES = 2401
_NEWTON_EVALS = 4
# Targets this close to a table edge, relative, are solved at the edge.
_EDGE_TIE = 1e-9
# Relative margin by which a truncated power's closed-form Lambda bands
# stop short of their junction targets, which Newton still solves.
_BAND_MARGIN = 1e-9
# Lambert W: Winitzki's start is within 2% relative, and each Newton step
# squares the error, so three reach rounding level.  Below log x = -40,
# W(x) = x (1 - x + ...) is x to rounding.
_W_NEWTON_STEPS = 3
_W_LOG_SMALL = -40.0
# Sampled tails: Lambda on t in [1e-6, 1e8], 10 nodes per decade; the tail
# has converged when its last three nodes vary by less than 1e-6 relative.
_TAIL_T = np.geomspace(1e-6, 1e8, 140)
_TAIL_TOL = 1e-6
# Young integrals: dyadic panels and the two Gauss-Legendre orders; a
# panel whose orders differ by more than _YOUNG_SPLIT of the total is
# halved, for at most _YOUNG_ROUNDS rounds.
_YOUNG_PANELS = 60
_YOUNG_ORDERS = (32, 24)
_YOUNG_SPLIT = 1e-13
_YOUNG_ROUNDS = 40


@dataclass(frozen=True)
class PhiSpec:
    """A weight function with the metadata the admissibility checks need.

    r, s0, c1, c2 describe the near-zero growth (condition (iv)); s1 marks
    where phi' is expected to keep one sign.  Family constructors fill these
    with exact values where known and conservative ones otherwise.
    """

    family: str
    p: float | None = None
    k: float | None = None
    r: float = 0.0
    s0: float = 1.0
    s1: float = 2.0
    c1: float = 0.5
    c2: float = 2.0
    phi_fn: Callable[[np.ndarray], np.ndarray] | None = None
    dphi_fn: Callable[[np.ndarray], np.ndarray] | None = None
    vi_exempt: bool = False
    label: str = ""
    base: PhiSpec | None = None     # the weight a dual was made from

    def phi(self, s):
        """Evaluate phi(s) elementwise; accepts scalars or arrays."""
        s = np.asarray(s, dtype=float)
        if self.family == POWER:
            return s ** (self.p - 2.0)
        if self.family == EXP_SQUARE:
            with np.errstate(over="ignore"):
                return np.exp(s * s)
        if self.family == TRUNCATED_POWER:
            return _trunc_phi(s, self.p, self.k)
        return np.asarray(self.phi_fn(s), dtype=float)

    def dphi(self, s):
        """Evaluate phi'(s) elementwise; central differences for custom specs
        that do not supply a derivative."""
        s = np.asarray(s, dtype=float)
        if self.family == POWER:
            return (self.p - 2.0) * s ** (self.p - 3.0)
        if self.family == EXP_SQUARE:
            with np.errstate(over="ignore"):
                return 2.0 * s * np.exp(s * s)
        if self.family == TRUNCATED_POWER:
            return _trunc_dphi(s, self.p, self.k)
        if self.dphi_fn is not None:
            return np.asarray(self.dphi_fn(s), dtype=float)
        return _central_dphi(self.phi_fn, s)

    def _log_phi_ratio(self, s):
        """log phi(s) and r = s*phi'(s)/phi(s) from one evaluation: in
        closed form for exp_square (s^2 and 2 s^2, which cannot overflow)
        and the truncated power (piecewise), through phi and phi'
        otherwise.  Callers hold floating-point warnings off: the pieces
        not selected may overflow."""
        if self.family == EXP_SQUARE:
            sq = s * s
            return sq, 2.0 * sq
        if self.family == TRUNCATED_POWER:
            p, k = self.p, self.k
            s, base, low, high = _trunc_base(s, k)
            r = np.where(low, p - 2.0,
                         np.where(high, 0.0, (p - 2.0) * s * (k - s) / base))
            return (p - 2.0) * np.log(base), r
        phi = self.phi(s)
        return np.log(phi), s * self.dphi(s) / phi

    def s_phi(self, s):
        s = np.asarray(s, dtype=float)
        return s * self.phi(s)

    def ds_phi(self, s):
        """(s*phi(s))' = phi(s) + s*phi'(s)."""
        s = np.asarray(s, dtype=float)
        return self.phi(s) + s * self.dphi(s)

    def s_sqrt_phi(self, s):
        s = np.asarray(s, dtype=float)
        return s * np.sqrt(self.phi(s))

    @cached_property
    def profile(self) -> LambdaProfile:
        """The Lambda calculus of this weight, tabulated once per spec."""
        return LambdaProfile(self)


def _trunc_rho(t, k):
    return -0.5 * (t - k + 1.0) ** 2 + t


def _trunc_base(t, k):
    """t as an array, the base b with phi_k = b^(p-2) (t below k-1,
    rho_k(t) on [k-1, k], k-1/2 above k) and the masks of the two outer
    pieces."""
    arr = np.asarray(t, dtype=float)
    low = arr < k - 1.0
    high = arr > k
    # rho is evaluated everywhere but read on [k-1, k] only, where it is
    # finite; outside it may overflow or meet inf - inf.
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.where(low, arr, np.where(high, k - 0.5, _trunc_rho(arr, k)))
    return arr, base, low, high


def _trunc_phi(t, p, k):
    return _trunc_base(t, k)[1] ** (p - 2.0)


def _trunc_dphi(t, p, k):
    arr, base, low, high = _trunc_base(t, k)
    slope = np.where(low, 1.0, np.where(high, 0.0, k - arr))
    return (p - 2.0) * base ** (p - 3.0) * slope


def _central_dphi(fn, s):
    # 4th order central stencil; step 1e-6 relative to s, never below 1e-6.
    s = np.asarray(s, dtype=float)
    h = np.maximum(1e-6, 1e-6 * np.abs(s))
    f1 = np.asarray(fn(s + h), dtype=float)
    f_1 = np.asarray(fn(s - h), dtype=float)
    f2 = np.asarray(fn(s + 2 * h), dtype=float)
    f_2 = np.asarray(fn(s - 2 * h), dtype=float)
    return (8.0 * (f1 - f_1) - (f2 - f_2)) / (12.0 * h)


def power_phi(p: float) -> PhiSpec:
    """phi(t) = t^(p-2) for p > 1.  Lambda is the constant -(p-2)/p."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"power weight needs a finite p > 1, got {p}")
    return PhiSpec(
        family=POWER, p=float(p), r=p - 2.0, s0=1.0, s1=2.0,
        c1=p - 1.0, c2=p - 1.0, label=f"power(p={p:g})",
    )


def exp_square_phi() -> PhiSpec:
    """phi(t) = exp(t^2).  Lambda(t) tends to -1, so sup Lambda^2 = 1."""
    s0 = 0.5
    c2 = 2.0 * math.exp(s0 * s0) * (1.0 + 2.0 * s0 * s0)
    return PhiSpec(
        family=EXP_SQUARE, r=0.0, s0=s0, s1=1.0, c1=0.9, c2=c2,
        label="exp_square",
    )


def truncated_power(p: float, k: float) -> PhiSpec:
    """Power weight flattened above level k.

    phi_k(t) = t^(p-2) below k-1, rho_k(t)^(p-2) on [k-1, k] with
    rho_k(t) = -(t-k+1)^2/2 + t, and the constant (k-1/2)^(p-2) above k.
    The junctions are C^1: rho_k(k-1) = k-1, rho_k(k) = k-1/2,
    rho_k'(k-1) = 1, rho_k'(k) = 0.  The ratio t*phi'/phi decreases from
    p-2 to 0, so condition (vi) fails by design while sup Lambda^2 is still
    (1-2/p)^2, attained near t -> 0.
    """
    if not (math.isfinite(p) and p >= 2.0):
        raise BadTruncation(
            f"truncated power needs a finite p >= 2, got p={p}")
    if not (math.isfinite(k) and k > 1.0):
        raise BadTruncation(
            f"truncation level must be finite and exceed 1, got k={k}")
    with np.errstate(over="ignore"):
        plateau = np.float64(k - 0.5) ** (p - 2.0)
    if not (np.isfinite(plateau) and plateau >= np.finfo(float).tiny):
        raise BadTruncation(
            f"plateau (k-1/2)^(p-2) = {plateau:.6g} is not a finite normal "
            f"number for p={p:g}, k={k:g}")
    s0 = min(1.0, 0.9 * (k - 1.0))
    return PhiSpec(
        family=TRUNCATED_POWER, p=float(p), k=float(k), r=p - 2.0,
        s0=s0, s1=float(k), c1=p - 1.0, c2=p - 1.0, vi_exempt=True,
        label=f"truncated_power(p={p:g}, k={k:g})",
    )


def custom_phi(phi_fn, dphi_fn=None, *, r=0.0, s0=1.0, s1=2.0,
               c1=0.5, c2=2.0, label="custom") -> PhiSpec:
    """Wrap user callables as a weight spec; metadata is the caller's claim
    and is checked, not trusted, by validate_phi."""
    return PhiSpec(
        family=CUSTOM, r=r, s0=s0, s1=s1, c1=c1, c2=c2,
        phi_fn=phi_fn, dphi_fn=dphi_fn, label=label,
    )


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    status: str          # "holds" | "fails" | "not-required"
    margin: float
    note: str = ""


@dataclass(frozen=True)
class PhiValidation:
    spec: PhiSpec
    checks: tuple[ConditionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status in ("holds", "not-required") for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_phi(spec: PhiSpec) -> PhiValidation:
    """Check conditions (i) through (vi) on a log grid [s0/10, 10*s1] of
    1200 nodes.

    Hard failures raise: NonPositivePhi when phi <= 0 somewhere,
    NotIncreasing when (s*phi)' <= 0 somewhere.  Everything else is
    reported with a numeric margin.  Condition (vi) is three valued:
    weights tagged vi_exempt (the truncated powers) report "not-required"
    because the results that need them rely on sup Lambda^2, which stays
    bounded, rather than on monotonicity of the ratio.
    """
    grid = np.geomspace(spec.s0 / 10.0, 10.0 * spec.s1, 1200)
    phi = spec.phi(grid)
    dphi = spec.dphi(grid)

    if not np.all(np.isfinite(phi)) or np.any(phi <= 0.0):
        raise NonPositivePhi(
            f"{spec.label or spec.family}: phi must be positive and finite "
            f"on [{grid[0]:.3g}, {grid[-1]:.3g}]")

    ds_phi = phi + grid * dphi
    if np.any(ds_phi <= 0.0):
        raise NotIncreasing(
            f"{spec.label or spec.family}: (s*phi(s))' <= 0 at some node")

    checks: list[ConditionCheck] = []
    checks.append(ConditionCheck("i:smooth-positive", "holds",
                                 float(np.min(phi))))
    checks.append(ConditionCheck("ii:increasing", "holds",
                                 float(np.min(ds_phi))))

    # (iii) full range: log-log slope of s*phi at both grid ends stays
    # positive, so s*phi keeps falling toward 0 and climbing to infinity.
    sphi = grid * phi
    with np.errstate(over="ignore"):
        logv = np.log(sphi)
    logs = np.log(grid)
    slope_lo = (logv[1] - logv[0]) / (logs[1] - logs[0])
    hi_fin = np.isfinite(logv)
    ih = np.nonzero(hi_fin)[0][-1]
    slope_hi = (logv[ih] - logv[ih - 1]) / (logs[ih] - logs[ih - 1])
    m3 = float(min(slope_lo, slope_hi))
    checks.append(ConditionCheck(
        "iii:full-range", "holds" if m3 > 0.0 else "fails", m3,
        note=f"end slopes {slope_lo:.3g}, {slope_hi:.3g}"))

    # (iv) growth envelope on (0, s0).
    near = grid[grid < spec.s0]
    if near.size >= 8:
        ratio = (spec.phi(near) + near * spec.dphi(near)) / near ** spec.r
        lo_m = float(np.min(ratio) - spec.c1)
        hi_m = float(spec.c2 - np.max(ratio))
        tol = 1e-9 * max(abs(spec.c1), abs(spec.c2), 1.0)
        ok4 = lo_m >= -tol and hi_m >= -tol
        note = f"ratio in [{np.min(ratio):.6g}, {np.max(ratio):.6g}]"
        if spec.r == 0.0:
            # r = 0 endpoint checks: finite positive phi(0+), s*phi'(s) -> 0.
            phi0 = float(spec.phi(near[0]))
            tail = float(near[0] * spec.dphi(near[0]))
            ok4 = ok4 and phi0 > 0.0 and np.isfinite(phi0) and abs(tail) < 0.1
            note += f"; phi(0+)~{phi0:.6g}, s*phi'(s)~{tail:.3g} at left end"
        checks.append(ConditionCheck(
            "iv:growth-envelope", "holds" if ok4 else "fails",
            min(lo_m, hi_m), note=note))
    else:
        checks.append(ConditionCheck("iv:growth-envelope", "fails",
                                     -math.inf, note="grid misses (0, s0)"))

    # (v) constant sign of phi' on [s1, inf).
    far = grid[grid >= spec.s1]
    dfar = spec.dphi(far)
    scale = float(np.max(np.abs(dfar))) if dfar.size else 0.0
    tol5 = 1e-12 * max(scale, 1.0)
    if np.all(dfar >= -tol5) or np.all(dfar <= tol5):
        m5 = float(np.min(np.abs(dfar))) if scale > 0 else 0.0
        checks.append(ConditionCheck("v:eventual-sign", "holds", m5))
    else:
        checks.append(ConditionCheck("v:eventual-sign", "fails",
                                     -float(np.min(np.abs(dfar)))))

    # (vi) |s*phi'/phi| nondecreasing.
    ratio6 = np.abs(grid * dphi / phi)
    diffs = np.diff(ratio6)
    tol6 = 1e-10 * max(float(np.max(ratio6)), 1.0)
    m6 = float(np.min(diffs)) if diffs.size else 0.0
    if m6 >= -tol6:
        checks.append(ConditionCheck("vi:ratio-monotone", "holds", m6))
    elif spec.vi_exempt:
        checks.append(ConditionCheck(
            "vi:ratio-monotone", "not-required", m6,
            note="ratio decreases by design; sup Lambda^2 bounded instead"))
    else:
        checks.append(ConditionCheck("vi:ratio-monotone", "fails", m6))

    return PhiValidation(spec=spec, checks=tuple(checks))


# ---------------------------------------------------------------------------
# Monotone inversion


def _check_targets(t: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(t) & (t > 0.0)):
        raise BracketFailure(
            f"inverse of {what}: target must be finite positive")


def _forward_table(g: Callable[[np.ndarray], np.ndarray], what: str):
    """(log s, log g(s)) for increasing g on the log-s grid of the search
    range, keeping the nodes where g is finite and positive."""
    s = np.geomspace(_BRACKET_LO, _BRACKET_HI, _TABLE_NODES)
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.asarray(g(s), dtype=float)
    keep = np.isfinite(v) & (v > 0.0)
    if np.count_nonzero(keep) < 2:
        raise BracketFailure(
            f"{what} is finite and positive at fewer than two table nodes")
    return np.log(s[keep]), np.log(v[keep])


def _table_targets(table, t: np.ndarray, what: str, *,
                   clamp_low: bool = False) -> np.ndarray:
    """log t clipped to the table's range of log g.  Targets outside it
    raise BracketFailure; with clamp_low, those below it take its edge."""
    _check_targets(t, what)
    vs = table[1]
    y = np.log(t)
    bad = y > vs[-1] + _EDGE_TIE
    if not clamp_low:
        bad |= y < vs[0] - _EDGE_TIE
    if np.any(bad):
        raise BracketFailure(
            f"inverse of {what}: target {t[bad].flat[0]:.6g} "
            f"outside the tabulated range [{math.exp(vs[0]):.6g}, "
            f"{math.exp(vs[-1]):.6g}]")
    return np.clip(y, vs[0], vs[-1])


def _table_inverse(table, step, t: np.ndarray, what: str, *,
                   clamp_low: bool = False):
    """x = log s with g(s) = t, on the table of g: linear interpolation
    starts Newton steps on log g(e^x) = log t, each kept in its table
    interval by a bisection fallback; step(x) returns log g and its
    log-slope from one evaluation of g at e^x.  The targets are those of
    _table_targets."""
    us, vs = table
    y = _table_targets(table, t, what, clamp_low=clamp_low)
    i = np.clip(np.searchsorted(vs, y), 1, len(vs) - 1)
    lo, hi = us[i - 1], us[i]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = lo + (hi - lo) * (y - vs[i - 1]) / (vs[i] - vs[i - 1])
        for _ in range(_NEWTON_EVALS - 1):
            f, slope = step(x)
            f -= y
            lo = np.where(f < 0.0, x, lo)
            hi = np.where(f > 0.0, x, hi)
            nxt = x - f / slope
            x = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
    return x


def _lambert_w(log_x: np.ndarray) -> np.ndarray:
    """The Lambert function W(x), w e^w = x, on log x, so that x itself
    may overflow: Winitzki's uniform start
    w0 = l (1 - log(1 + l)/(2 + l)), l = log(1 + x), then Newton steps on
    w + log w = log x; where log x < _W_LOG_SMALL, W(x) = x, which also
    covers an x that underflows.  The passes run in place."""
    log_x = np.asarray(log_x, dtype=float)
    flat = log_x.reshape(-1)
    small = flat < _W_LOG_SMALL
    big = np.where(small, 0.0, flat)
    # l = log(1 + x), which is log x to rounding past log x = 36
    l1 = np.minimum(big, 36.0)
    np.exp(l1, out=l1)
    np.log1p(l1, out=l1)
    np.maximum(l1, big, out=l1)
    w = np.log1p(l1)
    w /= 2.0 + l1
    np.subtract(1.0, w, out=w)
    w *= l1
    step, f = l1, np.empty_like(w)
    for _ in range(_W_NEWTON_STEPS):
        # w -= (w + log w - log x) * w/(1 + w)
        np.log(w, out=f)
        f += w
        f -= big
        np.add(w, 1.0, out=step)
        np.divide(w, step, out=step)
        f *= step
        w -= f
    if np.any(small):
        w[small] = np.exp(flat[small])
    return w.reshape(log_x.shape)


def _what(a: float) -> str:
    return "s*sqrt(phi)" if a == 0.5 else "s*phi"


# ---------------------------------------------------------------------------
# Limit ratio profile


@dataclass(frozen=True)
class LambdaLimit:
    """The tail of Lambda for one weight: Lambda_inf and sup Lambda^2.

    sup_bounded: sup_lambda_sq is the exact sup of Lambda^2, in closed
    form, and below 1; otherwise sup_bound is 1, from |Lambda| < 1 under
    condition (ii).  A custom weight samples its tail on t in [1e-6, 1e8],
    and its sup_lambda_sq is only a lower bound; converged tells whether
    that tail has settled and tail_variation is the relative spread of its
    last three nodes.  A closed form has converged, with variation 0.
    """

    lambda_inf: float
    lambda_inf_sq: float
    sup_lambda_sq: float
    sup_bounded: bool
    converged: bool
    tail_variation: float

    @property
    def sup_bound(self) -> float:
        return self.sup_lambda_sq if self.sup_bounded else 1.0


class LambdaProfile:
    """Derived calculus for one weight: zeta, Theta, Lambda, and the tail.

    Power weights have Lambda = -(p-2)/p and zeta(t) = t^(2/p) in closed
    form, truncated powers Lambda_inf = 0 and sup Lambda^2 = ((p-2)/p)^2,
    and Lambda itself outside their junctions, and a dual weight reads
    everything off its base's profile.  exp_square maps forward through
    the Lambert function: zeta(t) = sqrt(W(t^2)), Lambda = -W/(1 + W), and
    the inverse of s*phi(s) is sqrt(W(2 t^2)/2).  Otherwise zeta(t)
    inverts s*sqrt(phi(s)), increasing under condition (ii) since
    (s^2*phi)' = s*(s*phi)' + s*phi > 0, by _table_inverse, and Lambda
    comes from the s*phi'/phi of its final iterate.  Every weight but the
    power answers the targets of its table (exp_square too, so that both
    routes reject the same ones).  The table and the tail, limit, are
    computed on first use and kept, and PhiSpec.profile keeps one profile
    per weight: all verdicts on a weight read one tail.
    """

    def __init__(self, spec: PhiSpec):
        self.spec = spec

    @cached_property
    def _table(self):
        label = self.spec.label or self.spec.family
        return _forward_table(self.spec.s_sqrt_phi, f"{label}: s*sqrt(phi)")

    def _table_of(self, a: float):
        """The table of log(s*phi(s)^a) against log s, read off the one
        table as (1-2a)*log(s) + 2a*log(s*sqrt(phi))."""
        us, vs = self._table
        return us, (1.0 - 2.0 * a) * us + 2.0 * a * vs

    def _solve(self, t: np.ndarray, *, a: float = 0.5,
               clamp_low: bool = False):
        """s with s*phi(s)^a = t, and r = s*phi'(s)/phi(s) there: zeta for
        a = 1/2, the inverse of s*phi(s) for a = 1, by _table_inverse."""
        spec = self.spec

        def step(x):
            log_phi, r = spec._log_phi_ratio(np.exp(x))
            return x + a * log_phi, 1.0 + a * r

        s = np.exp(_table_inverse(self._table_of(a), step, t, _what(a),
                                  clamp_low=clamp_low))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return s, spec._log_phi_ratio(s)[1]

    def _exp_square_w(self, t: np.ndarray, a: float, *,
                      clamp_low: bool = False) -> np.ndarray:
        """W(2a t^2) = 2a s^2 for s*exp(a s^2) = t, on the targets of the
        table of s*phi(s)^a."""
        y = _table_targets(self._table_of(a), t, _what(a),
                           clamp_low=clamp_low)
        return _lambert_w(2.0 * y + math.log(2.0 * a))

    def _preimage(self, t: np.ndarray, a: float):
        """_solve, with power weights in closed form, s = t^(1/(1+a*(p-2))),
        answering the same targets: those with s in the search range, and
        exp_square by W, s = sqrt(W(2a t^2)/(2a)) and r = 2 s^2."""
        if self.spec.family == EXP_SQUARE:
            s = np.sqrt(self._exp_square_w(t, a) / (2.0 * a))
            return s, 2.0 * s * s
        if self.spec.family != POWER:
            return self._solve(t, a=a)
        what = _what(a)
        _check_targets(t, what)
        s = t ** (1.0 / (1.0 + a * self.spec.r))
        if np.any(np.abs(np.log(s)) > math.log(_BRACKET_HI) + _EDGE_TIE):
            raise BracketFailure(f"inverse of {what}: a target has its "
                                 "preimage outside the search range")
        return s, self.spec.r

    def _zeta(self, t: np.ndarray) -> np.ndarray:
        """zeta on an array; power weights take their closed form."""
        if self.spec.family == DUAL:
            return t * t / self.spec.base.profile._zeta(t)
        return self._preimage(t, 0.5)[0]

    def zeta(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = self._zeta(t_arr)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def theta(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = self._zeta(t_arr) / t_arr
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def lambda_of(self, t):
        """Lambda(t) = -s*phi'(s) / (s*phi'(s) + 2*phi(s)) at s = zeta(t).

        Positive targets below the table, t < zeta^-1(1e-12), take Lambda
        at its edge: Lambda is continuous at 0+, and for the built-in
        families the two differ by less than 1e-20.  Power weights take
        their constant, truncated powers their two constant bands,
        exp_square -W(t^2)/(1 + W(t^2)).
        """
        t_arr = np.asarray(t, dtype=float)
        if self.spec.family == DUAL:
            out = -self.spec.base.profile.lambda_of(t_arr)
        elif self.spec.family == POWER:
            _check_targets(t_arr, "s*sqrt(phi)")
            out = np.full_like(t_arr, -(self.spec.p - 2.0) / self.spec.p)
        elif self.spec.family == TRUNCATED_POWER:
            out = self._truncated_lambda(t_arr)
        elif self.spec.family == EXP_SQUARE:
            w = self._exp_square_w(t_arr, 0.5, clamp_low=True)
            out = -w / (1.0 + w)
        else:
            r = self._solve(t_arr, clamp_low=True)[1]
            out = -r / (r + 2.0)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def _truncated_lambda(self, t: np.ndarray) -> np.ndarray:
        """Lambda of a truncated power: -(p-2)/p below t_lo = (k-1)^(p/2),
        the image of the power piece, and -0.0 (r = 0 on the plateau) above
        t_hi = k (k-1/2)^((p-2)/2); Newton solves only the targets between
        them, the bands' ends pulled in by _BAND_MARGIN."""
        _check_targets(t, "s*sqrt(phi)")
        p, k = self.spec.p, self.spec.k
        lo = (k - 1.0) ** (0.5 * p) * (1.0 - _BAND_MARGIN)
        hi = k * (k - 0.5) ** (0.5 * (p - 2.0)) * (1.0 + _BAND_MARGIN)
        out = np.where(t < lo, -(p - 2.0) / p, -0.0)
        mid = (t >= lo) & (t <= hi)
        if np.any(mid):
            r = self._solve(t[mid], clamp_low=True)[1]
            out[mid] = -r / (r + 2.0)
        return out

    @cached_property
    def limit(self) -> LambdaLimit:
        """The tail of this weight, computed once.

        The built-in families take it in closed form (exp_square's
        |Lambda| = W/(1 + W) rises to 1: Lambda_inf = -1, sup Lambda^2 = 1),
        a dual weight its base's with Lambda_inf negated.  A custom weight
        samples Lambda at the nodes of _TAIL_T inside its table's range and
        extrapolates linearly in 1/log(t) (Richardson style, one
        elimination), which removes the leading logarithmic drift of slowly
        saturating profiles.  The tail has converged when its last three
        nodes vary by less than 1e-6 relative to scale, and then Lambda_inf
        is the last node.
        """
        spec = self.spec
        if spec.family == DUAL:
            base = spec.base.profile.limit
            return replace(base, lambda_inf=-base.lambda_inf)
        if spec.family in (POWER, TRUNCATED_POWER, EXP_SQUARE):
            lam = -1.0 if spec.family == EXP_SQUARE else \
                -(spec.p - 2.0) / spec.p
            # On the plateau r = s*phi'/phi = 0, and -r/(r+2) is -0.0.
            lam_inf = -0.0 if spec.family == TRUNCATED_POWER else lam
            return LambdaLimit(
                lambda_inf=lam_inf, lambda_inf_sq=lam_inf * lam_inf,
                sup_lambda_sq=lam * lam, sup_bounded=lam * lam < 1.0,
                converged=True, tail_variation=0.0)

        _, vs = self._table
        t = _TAIL_T[(np.log(_TAIL_T) >= vs[0]) & (np.log(_TAIL_T) <= vs[-1])]
        if t.size < 3:
            raise BracketFailure(f"{spec.label or spec.family}: fewer than "
                                 "three tail nodes inside the table")
        lam = self.lambda_of(t)
        scale = max(float(np.max(np.abs(lam))), 1e-30)
        tail = lam[-3:]
        tail_var = float((np.max(tail) - np.min(tail)) / scale)
        converged = tail_var < _TAIL_TOL
        if converged:
            lam_inf = float(lam[-1])
        else:
            x = 1.0 / np.log(t[-2:])
            lam_inf = float(lam[-1]
                            + (lam[-1] - lam[-2]) * x[1] / (x[0] - x[1]))
        # The extrapolation must not overshoot the admissible range.
        lam_inf = float(np.clip(lam_inf, -1.0, 1.0))
        # sup over the raw grid only: every node is a genuine Lambda(t)^2,
        # so this is a certified lower bound for sup over all t and never
        # borrows from the extrapolation.
        return LambdaLimit(
            lambda_inf=lam_inf, lambda_inf_sq=lam_inf * lam_inf,
            sup_lambda_sq=float(np.max(lam * lam)), sup_bounded=False,
            converged=converged, tail_variation=tail_var)


# ---------------------------------------------------------------------------
# Dual weight and Young pair


def dual_phi(spec: PhiSpec) -> PhiSpec:
    """The dual weight psi with t*psi(t) the inverse function of s*phi(s).

    psi(t) = S(t)/t where S inverts s*phi(s), and implicit differentiation
    gives psi'(t) = -psi(t)*r/((1+r)*t), r = s*phi'(s)/phi(s) at s = S(t).
    The dual holds spec as base and reads its profile off the base's; the
    dual of a dual is the base.  r_dual = -r/(r+1), the envelope constants
    are measured on the dual validation window, and vi_exempt carries
    over: |r_dual| = |r|/(1+r) is monotone exactly where |r| is.
    """
    if spec.family == DUAL:
        return spec.base

    def psi(t):
        return spec.profile._preimage(t, 1.0)[0] / t

    def dpsi(t):
        s, r = spec.profile._preimage(t, 1.0)
        return -s * r / ((1.0 + r) * t * t)

    r_dual = -spec.r / (spec.r + 1.0)
    s0_dual = float(spec.s_phi(spec.s0))
    s1_dual = float(spec.s_phi(spec.s1))
    probe = np.geomspace(s0_dual / 10.0, 10.0 * s1_dual, 64)
    # (t psi)' = psi/(1 + r) = s/(t (1 + r)), read off the forward map: psi'
    # underflows to 0 at the top of a steep weight's window
    s, r = spec.profile._preimage(probe, 1.0)
    ratio = s / (probe * (1.0 + r)) / probe ** r_dual
    return PhiSpec(
        family=DUAL, r=r_dual, s0=s0_dual, s1=s1_dual,
        c1=0.5 * float(np.min(ratio)), c2=2.0 * float(np.max(ratio)),
        phi_fn=psi, dphi_fn=dpsi, vi_exempt=spec.vi_exempt,
        label=f"dual({spec.label or spec.family})", base=spec)


@dataclass(frozen=True)
class YoungPair:
    """Conjugate Young functions built from a weight and its dual.

    Phi(s) integrates sigma*phi(sigma) from 0; a dual weight's Psi(t) is
    t*S - Phi(S), S the inverse of s*phi at t, so Young's inequality
    s*t <= Phi(s) + Psi(t) holds with equality at t = s*phi(s).
    """

    phi_spec: PhiSpec
    psi_spec: PhiSpec

    def Phi(self, s: float) -> float:
        return _young_integral(self.phi_spec, float(s))

    def Psi(self, t: float) -> float:
        return _young_integral(self.psi_spec, float(t))


def _young_integral(spec: PhiSpec, upper: float) -> float:
    """Gauss-Legendre on panels of [0, upper] that halve towards 0, where
    alone sigma*phi(sigma) may be singular, and that break at a truncated
    power's junctions; two orders' difference is the error estimate.

    Each round halves the panels whose two orders disagree by more than
    _YOUNG_SPLIT of the total, so a steep integrand such as s e^{s^2} gets
    narrow panels at the top; the final check reads the whole sum."""
    if not (math.isfinite(upper) and upper >= 0.0):
        raise ValueError(f"Young functions take finite s >= 0, got {upper}")
    if upper == 0.0:
        return 0.0
    if spec.family == DUAL:
        s = float(spec.base.profile._preimage(np.asarray(upper), 1.0)[0])
        return upper * s - _young_integral(spec.base, s)
    from numpy.polynomial.legendre import leggauss
    breaks = np.append(0.0, upper * 0.5 ** np.arange(_YOUNG_PANELS, -1, -1.0))
    if spec.family == TRUNCATED_POWER:
        breaks = np.union1d(breaks, np.minimum([spec.k - 1.0, spec.k], upper))
    rules = [leggauss(n) for n in _YOUNG_ORDERS]
    for _ in range(_YOUNG_ROUNDS):
        half = 0.5 * np.diff(breaks)[:, None]
        high, low = (half * w * spec.s_phi(breaks[:-1, None]
                                           + half * (x + 1.0))
                     for x, w in rules)
        total = abs(float(np.sum(high)))
        split = (np.abs(high.sum(axis=1) - low.sum(axis=1))
                 > _YOUNG_SPLIT * total)
        if not split.any():
            break
        breaks = np.union1d(breaks, breaks[:-1][split] + half[split, 0])
    high, low = float(np.sum(high)), float(np.sum(low))
    err = abs(high - low)
    if not (math.isfinite(high) and err <= 1e-6 * max(abs(high), 1.0) + 1e-10):
        raise QuadratureFailure(
            f"Young integral unreliable on [0, {upper:.3g}]: "
            f"value {high:.6g}, error estimate {err:.3g}")
    return high


def young_pair(spec: PhiSpec) -> YoungPair:
    return YoungPair(phi_spec=spec, psi_spec=dual_phi(spec))
