"""Young function pairs and Orlicz norms on quadrature sampled fields.

Two norms generate the same space: the Luxemburg gauge

    |||f||| = inf { lambda > 0 : int M(|f|/lambda) dx <= 1 }

and the duality norm, computed here through the Amemiya representation

    ||f|| = inf_{k>0} (1 + int M(k|f|) dx) / k,

which equals the duality definition by standard Orlicz theory.  Its
minimizing 1/k is the Luxemburg gauge of P(t) = t M'(t) - M(t), the
Young function N(M'(t)) (Krasnosel'skii and Rutickii, Convex Functions
and Orlicz Spaces, 1961), so one gauge search serves both norms: the
Amemiya norm is the functional read at the gauge of P.  The norms satisfy
the sandwich |||f||| <= ||f|| <= 2 |||f|||, and the Holder inequality
int |uv| <= 2 |||u|||_M |||v|||_N holds for a complementary pair (M, N).

The inventory: power functions t^p (plain and /p normalized), the
exponential M0(t) = e^{at} - 1 with closed form conjugate, and the log
type Ntilde(t) = t (log(t+e))^{(p-2)/p}.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import NotIntegrable, OrliczNormFailure

__all__ = [
    "SampledField",
    "YoungFunction",
    "HolderReport",
    "power_young",
    "exp_young",
    "log_young",
    "exp_conjugate",
    "luxemburg_norm",
    "orlicz_norm",
    "holder_orlicz",
]

MOSER_SCALE = 4.0 * math.pi


@dataclass(frozen=True)
class SampledField:
    """Scalar samples with quadrature weights; sum(weights) is the measure."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        w = np.asarray(self.weights, dtype=float).ravel()
        if v.shape != w.shape:
            raise ValueError("values and weights must align")
        if v.size == 0:
            raise ValueError("empty field")
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, values, measure: float = 1.0) -> "SampledField":
        v = np.asarray(values, dtype=float).ravel()
        w = np.full(v.shape, measure / v.size)
        return cls(values=v, weights=w)

    def scaled(self, alpha: float) -> "SampledField":
        return SampledField(values=alpha * self.values, weights=self.weights)


@dataclass
class YoungFunction:
    """Convex M with M(0) = 0, nondecreasing on [0, inf)."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray] | None = None
    # t -> (M(t), M'(t)) in one evaluation that shares their common parts,
    # set by a constructor whose fn and dfn have such parts
    _joint: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = \
        field(default=None, init=False, repr=False, compare=False)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            out = np.asarray(self.fn(t), dtype=float)
        return out

    def _with_derivative(self, t):
        """M(t) and M'(t), from one evaluation where the function has one."""
        if self._joint is None:
            return self(t), self.derivative(t)
        with np.errstate(over="ignore"):
            m, dm = self._joint(np.asarray(t, dtype=float))
        return np.asarray(m, dtype=float), np.asarray(dm, dtype=float)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.dfn is not None:
            with np.errstate(over="ignore"):
                return np.asarray(self.dfn(t), dtype=float)
        h = np.maximum(1e-7, 1e-7 * np.abs(t))
        return (self(t + h) - self(np.maximum(t - h, 0.0))) / (
            h + np.minimum(t, h))


# ---------------------------------------------------------------------------
# Inventory


def power_young(p: float, normalized: bool = False) -> YoungFunction:
    """M(t) = t^p, or t^p/p when normalized.  Luxemburg norm of the plain
    version is the Lebesgue p-norm."""
    if p <= 1.0:
        raise ValueError(f"power Young function needs p > 1, got {p}")
    c = 1.0 / p if normalized else 1.0
    return YoungFunction(
        name=f"power(p={p:g}{', normalized' if normalized else ''})",
        fn=lambda t: c * np.asarray(t, dtype=float) ** p,
        dfn=lambda t: c * p * np.asarray(t, dtype=float) ** (p - 1.0),
    )


def exp_young(scale: float = MOSER_SCALE) -> YoungFunction:
    """M0(t) = e^{scale*t} - 1; its conjugate has the closed form in
    exp_conjugate."""
    return YoungFunction(
        name=f"exp(scale={scale:g})",
        fn=lambda t: np.expm1(scale * np.asarray(t, dtype=float)),
        dfn=lambda t: scale * np.exp(scale * np.asarray(t, dtype=float)),
    )


def exp_conjugate(scale: float = MOSER_SCALE) -> YoungFunction:
    """Legendre conjugate of e^{scale*t} - 1:
    N0(t) = (t/scale)(log(t/scale) - 1) + 1 for t >= scale, else 0."""
    def fn(t):
        t = np.asarray(t, dtype=float)
        u = np.maximum(t / scale, 1.0)
        return u * np.log(u) - u + 1.0

    def dfn(t):
        t = np.asarray(t, dtype=float)
        u = np.maximum(t / scale, 1.0)
        return np.log(u) / scale

    return YoungFunction(name=f"exp_conjugate(scale={scale:g})",
                         fn=fn, dfn=dfn)


def log_young(p: float):
    """The log type Young function Ntilde(t) = t (log(t+e))^{(p-2)/p} and
    the matching hypothesis functional F -> int |F|^2 (log(|F|+e))^{(p-2)/p}.

    Ntilde is convex for p > 2: both factors are positive, increasing and
    log-concave corrections stay dominated.  The tail is degenerate by
    design, Ntilde(t)/t grows only logarithmically.
    """
    if p <= 2.0:
        raise ValueError(f"log type Young function needs p > 2, got {p}")
    a = (p - 2.0) / p

    def fn(t):
        t = np.asarray(t, dtype=float)
        return t * np.log(t + math.e) ** a

    def dfn(t):
        return joint(t)[1]

    def joint(t):
        t = np.asarray(t, dtype=float)
        L = np.log(t + math.e)
        La = L ** a
        # M' = L^a + a t L^(a-1) / (t + e), factored to take a single power
        return t * La, La * (1.0 + a * t / (L * (t + math.e)))

    n_tilde = YoungFunction(name=f"log_type(p={p:g})", fn=fn, dfn=dfn)
    n_tilde._joint = joint

    def hypothesis(f: SampledField) -> float:
        v = np.abs(f.values)
        return float(np.sum(f.weights * v * v * np.log(v + math.e) ** a))

    return n_tilde, hypothesis


# ---------------------------------------------------------------------------
# Norms


# Samples per block of every reduction over a field: the temporaries of a
# block take 0.5 MB apiece, however many samples the field has.
_SAMPLE_BLOCK = 2 ** 16


def _blocks(n: int):
    """Consecutive slices of _SAMPLE_BLOCK samples that cover range(n)."""
    return (slice(lo, lo + _SAMPLE_BLOCK)
            for lo in range(0, n, _SAMPLE_BLOCK))


def _block_sum(fn, *arrays) -> float:
    """sum(fn(*arrays)), taken block by block over the aligned arrays."""
    return sum(float(np.sum(fn(*(a[b] for a in arrays))))
               for b in _blocks(len(arrays[0])))


def _abs_max(values: np.ndarray) -> float:
    """max |values| without an |values| copy; NaN if any sample is NaN."""
    return max(float(np.max(values)), -float(np.min(values)))


def _gauge_terms(M: YoungFunction, values: np.ndarray, weights: np.ndarray,
                 lam: float, slope: bool = True):
    """G = sum w M(|f|/lam) (overflow -> inf) and
    J = sum w M'(|f|/lam) |f|/lam, so that d log G / d log lam = -J / G;
    J is left at 0 without slope.

    Both sums run over blocks of _SAMPLE_BLOCK samples, |f| taken per block,
    so the temporaries of M and M' are bounded by the block, not the field;
    with slope, M and M' come from one joint evaluation.  A block whose sum
    is NaN, from a NaN sample whatever its weight, adds inf to G.
    """
    g = j = 0.0
    for b in _blocks(values.size):
        t = np.abs(values[b])
        t /= lam
        with np.errstate(over="ignore", invalid="ignore"):
            if slope:
                vals, dvals = M._with_derivative(t)
                j += float(np.sum(weights[b] * (dvals * t)))
            else:
                vals = M(t)
        share = float(np.sum(weights[b] * vals))
        g += math.inf if math.isnan(share) else share
    return g, j


# Relative width of the final Luxemburg bracket, and how many doublings
# away from max|f| the bracket search may reach.
_LUX_RTOL = 1e-9
_LUX_OCTAVES = 200


def luxemburg_norm(f: SampledField, M: YoungFunction) -> float:
    """Luxemburg gauge by safeguarded Newton steps on log lambda.

    G(lambda) = int M(|f|/lambda) is nonincreasing.  The search keeps a
    bracket lo < hi in log lambda with G(lo) > 1 >= G(hi), starting from
    lambda = max|f|.  Each step is Newton's on log G against log lambda,
    with G'(lambda) = -int M'(|f|/lambda) |f|/lambda^2 from M.derivative,
    moved a quarter of the tolerance past its target so that the bracket
    closes from both sides.  A step that leaves the bracket, has no finite
    slope or fails to halve the step before last is replaced by a move
    of one octave toward the open side while one side is still open,
    doubled on each such move that follows another, and by geometric
    bisection once both are known.  The search stops when hi/lo drops
    below 1 + 1e-9 and returns the target of the last Newton step, moved
    into [lo, hi], or sqrt(lo hi) when that step had no finite slope.  The
    bracket may reach 2^200 max|f| either way: above that NotIntegrable,
    below it the gauge is 0.

    Each step is one pass over the samples in blocks of _SAMPLE_BLOCK, so
    the search holds no array of the field's size beyond the field itself.
    """
    return _gauge(partial(_gauge_terms, M, f.values, f.weights),
                  _abs_max(f.values))


def _gauge(terms, amax: float, *starts: float) -> float:
    """The search of luxemburg_norm on terms(lambda) = (G, J), the integral
    and its log slope as _gauge_terms gives them, for a field with
    max|f| = amax; the caller chooses how the samples are walked.

    The search begins at the first of starts that is a positive, normal,
    finite number, and at max|f| when none is: a start only places the
    first step, never a side of the bracket.  The range of 2^200 max|f|
    either way, and with it the NotIntegrable and zero-gauge rules, stays
    anchored at max|f|, and a start outside it begins at its end.
    """
    if not math.isfinite(amax):
        raise NotIntegrable("field contains non-finite samples")
    if amax == 0.0:
        return 0.0

    tol = math.log1p(_LUX_RTOL)
    octave = math.log(2.0)
    s_min = math.log(amax) - _LUX_OCTAVES * octave
    s_max = math.log(amax) + _LUX_OCTAVES * octave
    lo, hi = -math.inf, math.inf
    start = next((x for x in starts
                  if math.isfinite(x) and x >= sys.float_info.min), amax)
    s = min(max(math.log(start), s_min), s_max)
    last = before_last = math.inf
    reach = octave
    while True:
        g, j = terms(math.exp(s))
        if g > 1.0:
            if s >= s_max:
                raise NotIntegrable(
                    f"int M(|f|/lambda) stays above 1 out to lambda = "
                    f"{math.exp(s):.3g}")
            lo = s
        else:
            if s <= s_min:
                # Even tiny lambda keeps the integral at or below 1; the
                # gauge is the infimum of an interval reaching 0.
                return 0.0
            hi = s
        step = math.log(g) * g / j if 0.0 < g < math.inf and j > 0.0 \
            else math.nan
        if hi - lo <= tol:
            # the last Newton target, the best point of the closed bracket
            root = s + step
            return math.exp(0.5 * (lo + hi) if math.isnan(root)
                            else min(max(root, lo), hi))
        # past the target, away from the side s just closed: a start on
        # the root, G = 1 exactly, steps down from hi, not out of it
        nxt = s + step + (0.25 * tol if g > 1.0 else -0.25 * tol)
        if lo < nxt < hi and abs(step) <= 0.5 * abs(before_last):
            reach = octave
        elif hi == math.inf:
            nxt = lo + reach
            reach *= 2.0
        elif lo == -math.inf:
            nxt = hi - reach
            reach *= 2.0
        else:
            nxt = 0.5 * (lo + hi)
        nxt = min(max(nxt, s_min), s_max)
        before_last, last = last, nxt - s
        s = nxt


def orlicz_norm(f: SampledField, pair) -> float:
    """Duality norm via Amemiya: inf_k (1 + int M(k|f|))/k.

    Setting the k-derivative to zero gives int P(k|f|) = 1 with
    P(t) = t M'(t) - M(t), which is N(M'(t)) by Young's equality and rises
    from 0 (P' = t M'' >= 0, M'' by central differences of M').  So the
    minimizing 1/k is the Luxemburg gauge lambda of P, and the value is
    the functional there, lambda (1 + int M(|f|/lambda)): never below the
    infimum, and accurate to second order in the error of lambda.  When int P stays below 1 the
    infimum is approached as k grows and is read at the top of the gauge
    search's range, k = 2^200 / max|f|.  pair is the complementary (M, N);
    only M enters the minimization, N documents which dual ball the
    supremum runs over."""
    M = pair[0] if isinstance(pair, (tuple, list)) else pair

    def slope(t):
        # P'(t) = t M''(t), M'' by central differences of M' alone
        hi = t + np.maximum(1e-7, 1e-7 * t)
        lo = np.maximum(2.0 * t - hi, 0.0)
        return t * (M.derivative(hi) - M.derivative(lo)) / (hi - lo)

    P = YoungFunction(name=f"tM'-M of {M.name}",
                      fn=lambda t: t * M.derivative(t) - M(t), dfn=slope)
    lam = luxemburg_norm(f, P)
    if lam == 0.0:
        lam = _abs_max(f.values) * 2.0 ** -_LUX_OCTAVES
        if lam == 0.0:
            return 0.0
    g, _ = _gauge_terms(M, f.values, f.weights, lam, slope=False)
    out = lam * (1.0 + g)
    if not math.isfinite(out):
        raise NotIntegrable("Amemiya functional is infinite at the "
                            "minimizing scale")
    return out


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    slack: float


def holder_orlicz(u: SampledField, v: SampledField, pair) -> HolderReport:
    """int |uv| against 2 |||u|||_M |||v|||_N; slack must be nonnegative
    up to 1e-8 relative."""
    M, N = pair[0], pair[1]
    if u.values.shape != v.values.shape or not all(
            np.allclose(u.weights[b], v.weights[b], rtol=1e-12, atol=0.0)
            for b in _blocks(u.weights.size)):
        raise ValueError("fields must share one quadrature grid")
    lhs = _block_sum(lambda w, x, y: w * np.abs(x * y),
                     u.weights, u.values, v.values)
    rhs = 2.0 * luxemburg_norm(u, M) * luxemburg_norm(v, N)
    slack = rhs - lhs
    if slack < -1e-8 * max(rhs, 1e-300):
        raise OrliczNormFailure(
            f"Holder violated: lhs {lhs:.9g} > rhs {rhs:.9g}")
    return HolderReport(lhs=lhs, rhs=rhs, slack=slack)
