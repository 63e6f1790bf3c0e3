"""Orlicz norm tests.

Closed-form oracles: for M(t) = t^p the Luxemburg gauge is the Lebesgue
p-norm, so a constant c on measure m gives c*m^(1/p); for the normalized
M(t) = t^p/p the Amemiya minimization has the classical closed form
(p')^(1/p') * ||f||_p, which at p = 2 makes the factor-2 sandwich tight.
The exponential function e^{at} - 1 has an explicit conjugate, checked
against a brute-force supremum.
"""

import math
import tracemalloc

import numpy as np
import pytest

from funcdiss import fem, orlicz
from funcdiss.errors import NotIntegrable
from funcdiss.orlicz import (
    HolderReport,
    MOSER_SCALE,
    SampledField,
    YoungFunction,
    exp_conjugate,
    exp_young,
    holder_orlicz,
    log_young,
    luxemburg_norm,
    orlicz_norm,
    power_young,
)


def rng_field(seed, n=257, lo=0.0, hi=3.0, measure=1.0):
    rng = np.random.default_rng(seed)
    return SampledField.uniform(rng.uniform(lo, hi, n), measure)


def lebesgue_p(f: SampledField, p: float) -> float:
    return float(np.sum(f.weights * np.abs(f.values) ** p)) ** (1.0 / p)


def exp_power(p: float, derivative: bool = True) -> YoungFunction:
    """A steep input: M(t) = e^{MOSER_SCALE t^q} - 1 with q = p/(p-2)."""
    q = p / (p - 2.0)

    def dfn(t):
        with np.errstate(divide="ignore"):
            return MOSER_SCALE * q * t ** (q - 1.0) * np.exp(MOSER_SCALE
                                                             * t ** q)

    return YoungFunction(name=f"exp_power(p={p:g})",
                         fn=lambda t: np.expm1(MOSER_SCALE * t ** q),
                         dfn=dfn if derivative else None)


# ---------------------------------------------------------------------------
# Luxemburg gauge


def test_luxemburg_zero_field():
    f = SampledField.uniform(np.zeros(64))
    assert luxemburg_norm(f, power_young(3.0)) == 0.0


def test_luxemburg_constant_closed_form():
    # f = c on measure m with M = t^p: lambda solves (c/lambda)^p m = 1.
    c, m, p = 2.0, 0.5, 3.0
    f = SampledField.uniform(np.full(100, c), measure=m)
    expect = c * m ** (1.0 / p)
    assert luxemburg_norm(f, power_young(p)) == pytest.approx(expect,
                                                              rel=1e-8)


def test_luxemburg_power_is_lebesgue_norm():
    f = rng_field(3)
    for p in (2.0, 3.0, 5.5):
        assert luxemburg_norm(f, power_young(p)) == pytest.approx(
            lebesgue_p(f, p), rel=1e-8)


def test_luxemburg_scaling():
    f = rng_field(11)
    M = exp_power(4.0)
    base = luxemburg_norm(f, M)
    for alpha in (0.25, 3.0, -2.0):
        assert luxemburg_norm(f.scaled(alpha), M) == pytest.approx(
            abs(alpha) * base, rel=1e-8)


def test_luxemburg_monotone_under_domination():
    f = rng_field(5)
    g = SampledField(values=f.values + 0.3, weights=f.weights)
    M = power_young(2.5)
    assert luxemburg_norm(f, M) <= luxemburg_norm(g, M) + 1e-12


def test_luxemburg_rejects_nonfinite_samples():
    vals = np.ones(8)
    vals[3] = np.inf
    f = SampledField.uniform(vals)
    with pytest.raises(NotIntegrable):
        luxemburg_norm(f, power_young(2.0))


def bisection_gauge(f, M):
    """Reference Luxemburg gauge: grow a bracket by doubling or halving
    lambda from max|f|, then bisect log lambda to a relative width 1e-9."""
    a = np.abs(f.values)

    def above(lam):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = M(a / lam)
        return float(np.sum(f.weights * np.where(np.isnan(vals), np.inf,
                                                 vals))) > 1.0

    lo = hi = float(np.max(a))
    if above(lo):
        while above(hi):
            lo, hi = hi, 2.0 * hi
    else:
        while not above(lo):
            lo *= 0.5
    while hi / lo > 1.0 + 1e-9:
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return math.sqrt(lo * hi)


def counted_young(M):
    """M with a list that records the sample count of each evaluation; the
    gauge evaluates M block by block, so passes over the samples are read
    with passes(calls, f)."""
    calls = []

    def fn(t):
        calls.append(np.size(t))
        return M.fn(t)

    return YoungFunction(name=M.name, fn=fn, dfn=M.dfn), calls


def passes(calls, f):
    """Evaluated samples over the field's size: passes of M over f."""
    return sum(calls) / f.values.size


def test_luxemburg_newton_matches_bisection():
    # the fields and pairs of acceptance criterion 08
    youngs = [power_young(2.0, normalized=True), power_young(3.0),
              power_young(1.5), exp_young(), exp_conjugate()]
    for seed in range(50):
        f = rng_field(seed, hi=1.5)
        for M in youngs:
            assert luxemburg_norm(f, M) == pytest.approx(
                bisection_gauge(f, M), rel=1e-9), (seed, M.name)


def test_luxemburg_newton_on_load_sample():
    # |F|^2 of the 256^2 manufactured load at order-4 Gauss points, the
    # sample the planar regularity study hands to the log type gauge
    prob = fem.manufactured_problem(256, p=4.0)
    blocks = []
    fem._gauss_samples(prob, np.zeros(prob.node_shape + (2,)),
                       lambda _, __, fmag, w: blocks.append((fmag, w)))
    fmag, weights = (np.concatenate(b) for b in zip(*blocks))
    f = SampledField(values=fmag ** 2, weights=weights)
    M = log_young(4.0)[0]
    counted, calls = counted_young(M)
    assert luxemburg_norm(f, counted) == pytest.approx(bisection_gauge(f, M),
                                                       rel=1e-9)
    assert 1 <= passes(calls, f) <= 10, passes(calls, f)


def signed_spread_field(seed, n):
    """Samples of either sign, log-uniform in size over [1e-3, 1e3], with
    weights of uneven size."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    return SampledField(values=values, weights=rng.uniform(0.5, 1.5, n) / n)


def test_blocked_norms_match_whole_field_sums(monkeypatch):
    # three blocks and a ragged one; with the block as large as the field
    # every sum of the gauge search runs over the whole sample at once
    n = 3 * orlicz._SAMPLE_BLOCK + 4321
    fields = [signed_spread_field(seed, n) for seed in (3, 4)]
    youngs = [log_young(4.0)[0], power_young(3.0), exp_young(),
              exp_power(4.0)]
    blocked = [(luxemburg_norm(f, M), orlicz_norm(f, M))
               for f in fields for M in youngs]
    monkeypatch.setattr(orlicz, "_SAMPLE_BLOCK", n)
    whole = [(luxemburg_norm(f, M), orlicz_norm(f, M))
             for f in fields for M in youngs]
    for got, ref in zip(blocked, whole):
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    # and the blocked gauge reads |f| of signed samples, as the bisection
    for f, (lux, _) in zip(fields, blocked[::len(youngs)]):
        assert lux == pytest.approx(bisection_gauge(f, youngs[0]), rel=1e-9)


@pytest.mark.parametrize("p", [3.0, 4.0, 7.0])
def test_joint_log_young_terms_match_separate_calls(p):
    # log_young evaluates M and M' from one log and power; the gauge sums
    # G and J must equal those of separate M and M' calls bit for bit
    M = log_young(p)[0]
    a = (p - 2.0) / p

    def dfn(t):
        L = np.log(t + math.e)
        return L ** a * (1.0 + a * t / (L * (t + math.e)))

    separate = YoungFunction(name=M.name, fn=M.fn, dfn=dfn)
    f = signed_spread_field(5, orlicz._SAMPLE_BLOCK + 777)
    for lam in (1e-3, 0.7, 1.0, 40.0, 1e6):
        assert (orlicz._gauge_terms(M, f.values, f.weights, lam)
                == orlicz._gauge_terms(separate, f.values, f.weights, lam))
    t = np.abs(f.values)
    np.testing.assert_array_equal(M._with_derivative(t)[0], M(t))


def test_gauge_terms_read_a_nan_sample_as_infinite():
    # a NaN sample makes its block's G sum NaN, which reads as inf, with a
    # zero weight on the sample too (inf times that weight was NaN)
    M = log_young(4.0)[0]
    for weights in ([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]):
        g, _ = orlicz._gauge_terms(M, np.array([1.0, 2.0, np.nan]),
                                   np.array(weights), 1.0)
        assert g == math.inf, weights
    # NaN-free samples sum as before, bit for bit
    f = signed_spread_field(6, orlicz._SAMPLE_BLOCK + 99)
    for lam in (1e-3, 1.0, 1e3):
        t = np.abs(f.values) / lam
        vals, dvals = M._with_derivative(t)
        g, j = orlicz._gauge_terms(M, f.values, f.weights, lam)
        assert g == sum(float(np.sum(f.weights[b] * vals[b]))
                        for b in orlicz._blocks(t.size))
        assert j == sum(float(np.sum(f.weights[b] * (dvals[b] * t[b])))
                        for b in orlicz._blocks(t.size))


def counted_terms(f, M):
    """The gauge terms of f and M, and the list of the lambdas they read."""
    seen = []

    def terms(lam):
        seen.append(lam)
        return orlicz._gauge_terms(M, f.values, f.weights, lam)

    return terms, seen


@pytest.mark.parametrize("M", [log_young(4.0)[0], power_young(3.0),
                               exp_young()], ids=["log", "power", "exp"])
def test_gauge_start_places_the_first_step_only(M):
    f = rng_field(11, hi=1.5)
    amax = orlicz._abs_max(f.values)
    cold_terms, cold_seen = counted_terms(f, M)
    cold = orlicz._gauge(cold_terms, amax)
    assert cold == pytest.approx(bisection_gauge(f, M), rel=1e-9)
    # a start that is zero, subnormal or non-finite falls back to max|f|,
    # and the first usable start is the one taken
    for bad in (0.0, 5e-324, math.inf, math.nan, -1.0):
        terms, seen = counted_terms(f, M)
        assert orlicz._gauge(terms, amax, bad) == cold
        assert seen == cold_seen
        terms, seen = counted_terms(f, M)
        orlicz._gauge(terms, amax, bad, 0.5 * cold)
        assert seen[0] == pytest.approx(0.5 * cold, rel=1e-14)
    # any usable start, near or far, lands on the same gauge
    for start in (cold, 1.001 * cold, 1e-3 * cold, 1e3 * cold, 1e-300,
                  1e300):
        terms, seen = counted_terms(f, M)
        assert orlicz._gauge(terms, amax, start) == pytest.approx(
            cold, rel=1e-12, abs=0.0), start
        assert seen[0] == pytest.approx(min(max(start, amax * 2.0 ** -200),
                                            amax * 2.0 ** 200), rel=1e-12)
    # a near start takes no more passes (a power's log G is linear in
    # log lambda, so Newton lands from anywhere)
    terms, seen = counted_terms(f, M)
    orlicz._gauge(terms, amax, 1.001 * cold)
    assert len(seen) <= len(cold_seen)


def test_gauge_started_on_its_root_closes_at_once():
    # G(lambda) = (2 / lambda)^2 is 1 exactly at the start lambda = 2; the
    # step past the target goes down from that upper side, so the bracket
    # closes in two passes instead of reopening an octave below
    seen = []

    def terms(lam):
        seen.append(lam)
        g = (2.0 / lam) ** 2
        return g, 2.0 * g

    assert orlicz._gauge(terms, 3.0, 2.0) == pytest.approx(2.0, rel=1e-15)
    assert len(seen) == 2


def test_gauge_start_keeps_the_range_rules():
    # the 2^200 range stays anchored at max|f|, whatever the start: G
    # above 1 everywhere is NotIntegrable, G below 1 everywhere a zero
    # gauge, and a start beyond the range begins at its end
    with pytest.raises(NotIntegrable):
        orlicz._gauge(lambda lam: (2.0, 1.0), 1.0, 1e-10)
    assert orlicz._gauge(lambda lam: (0.5, 1.0), 1.0, 1e10) == 0.0
    f = SampledField.uniform([1e-30, 1.0])
    M = power_young(2.0)
    terms, seen = counted_terms(f, M)
    assert orlicz._gauge(terms, 1.0, 1e100) == pytest.approx(
        luxemburg_norm(f, M), rel=1e-12)
    assert seen[0] == pytest.approx(2.0 ** 200, rel=1e-12)


@pytest.mark.parametrize("p", [2.5, 3.2, 4.9, 12.0])
def test_log_young_gauge_between_its_l1_bounds(p):
    # Ntilde(t) >= t, and Ntilde(t) <= t log(T + e)^a for t <= T, bound
    # the gauge of g >= 0 by ||g||_1 and ||g||_1 log(max g/||g||_1 + e)^a
    M = log_young(p)[0]
    a = (p - 2.0) / p
    for seed in range(5):
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.0, 1.0, 500) ** 4 * 10.0 ** rng.uniform(-3, 3)
        f = SampledField.uniform(g, measure=rng.uniform(0.5, 2.0))
        l1 = float(np.sum(f.weights * g))
        lux = luxemburg_norm(f, M)
        assert l1 <= lux * (1.0 + 1e-9)
        assert lux <= l1 * math.log(g.max() / l1 + math.e) ** a \
            * (1.0 + 1e-9)


def test_luxemburg_memory_bounded_by_blocks():
    # 2^22 samples, 64 MB of input: the whole-field gauge held 224 MB of
    # temporaries above it at every Newton step
    rng = np.random.default_rng(9)
    f = SampledField.uniform(rng.uniform(0.0, 3.0, 2 ** 22))
    M = log_young(4.0)[0]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lux = luxemburg_norm(f, M)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert lux > 0.0
    assert peak <= 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


# ---------------------------------------------------------------------------
# Amemiya norm and the sandwich


def test_orlicz_norm_quadratic_closed_form():
    # M = t^2/2: Luxemburg is ||f||_2/sqrt(2), Amemiya is sqrt(2)||f||_2,
    # so the sandwich factor 2 is attained exactly.
    f = rng_field(7)
    M = power_young(2.0, normalized=True)
    N = power_young(2.0, normalized=True)
    l2 = lebesgue_p(f, 2.0)
    lux = luxemburg_norm(f, M)
    amy = orlicz_norm(f, (M, N))
    assert lux == pytest.approx(l2 / math.sqrt(2.0), rel=1e-8)
    assert amy == pytest.approx(math.sqrt(2.0) * l2, rel=1e-7)
    assert amy / lux == pytest.approx(2.0, rel=1e-6)


def test_orlicz_norm_normalized_power_closed_form():
    # inf_k (1 + k^p int|f|^p/p)/k = (p')^(1/p') ||f||_p.
    f = rng_field(13)
    for p in (2.0, 3.0, 4.0):
        pp = p / (p - 1.0)
        M = power_young(p, normalized=True)
        expect = pp ** (1.0 / pp) * lebesgue_p(f, p)
        assert orlicz_norm(f, (M, power_young(pp, normalized=True))) == \
            pytest.approx(expect, rel=1e-7)


def test_sandwich_on_random_fields():
    pairs = [
        (power_young(2.0, normalized=True), power_young(2.0, normalized=True)),
        (power_young(3.0), power_young(1.5)),
        (exp_young(), exp_conjugate()),
    ]
    for seed in range(10):
        f = rng_field(seed, hi=1.5)
        for M, N in pairs:
            lux = luxemburg_norm(f, M)
            amy = orlicz_norm(f, (M, N))
            assert lux <= amy * (1.0 + 1e-7), (seed, M.name)
            assert amy <= 2.0 * lux * (1.0 + 1e-7), (seed, M.name)


def test_orlicz_zero_field():
    f = SampledField.uniform(np.zeros(32))
    assert orlicz_norm(f, (power_young(2.0), power_young(2.0))) == 0.0


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_amemiya(f, M):
    """Reference Amemiya norm: 120 golden-section steps on log k over
    [1e-6, 1e6] / |||f|||_M, minimizing (1 + int M(k|f|)) / k."""
    lux = luxemburg_norm(f, M)
    a = np.abs(f.values)

    def amemiya(logk):
        k = math.exp(logk)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = M(a * k)
        vals = np.where(np.isnan(vals), np.inf, vals)
        return (1.0 + float(np.sum(f.weights * vals))) / k

    lo, hi = math.log(1e-6 / lux), math.log(1e6 / lux)
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = amemiya(x1), amemiya(x2)
    for _ in range(120):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = amemiya(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = amemiya(x2)
    return min(f1, f2)


def spread_field(seed, n=257):
    """Samples log-uniform over [1e-3, 1e3] on unit measure."""
    rng = np.random.default_rng(seed)
    return SampledField.uniform(10.0 ** rng.uniform(-3.0, 3.0, n))


def amemiya_youngs():
    return [power_young(2.0, normalized=True), power_young(3.0),
            power_young(1.5), exp_young(), log_young(4.0)[0],
            exp_power(4.0)]


def test_orlicz_norm_matches_golden_section():
    for seed in range(20):
        f = spread_field(seed)
        for M in amemiya_youngs():
            assert orlicz_norm(f, M) == pytest.approx(
                golden_amemiya(f, M), rel=1e-12), (seed, M.name)


def test_orlicz_norm_matches_golden_section_without_derivative():
    # no dfn: P' = t M'' is a finite difference of a finite difference;
    # 2 (t/3)^(3/2) is the conjugate of t^3
    youngs = [exp_power(4.0, derivative=False),
              YoungFunction(name="conjugate(power(p=3))",
                            fn=lambda t: 2.0 * (t / 3.0) ** 1.5),
              YoungFunction(name="exp_conjugate", fn=exp_conjugate().fn),
              exp_conjugate()]
    for seed in range(10):
        f = spread_field(seed)
        for M in youngs:
            assert orlicz_norm(f, M) == pytest.approx(
                golden_amemiya(f, M), rel=1e-12), (seed, M.name)


def test_orlicz_norm_passes_over_samples():
    # each pass of the gauge search evaluates P = tM' - M and its central
    # difference, three passes of M; the golden section took 125 to 130
    for seed in range(5):
        f = spread_field(seed)
        for M in amemiya_youngs():
            counted, calls = counted_young(M)
            orlicz_norm(f, counted)
            assert 1 <= passes(calls, f) <= 40, (seed, M.name,
                                                 passes(calls, f))


def test_orlicz_norm_reads_m_once_per_gauge_step():
    # P' = t M'' from central differences of M' alone, and the final
    # functional without M': each gauge step passes once over M and three
    # times over M'.  With P' taken by differencing P, and M' evaluated for
    # the final functional, log_young(4) on 1000 samples took 19 passes of
    # M and 19 of M'.
    M = log_young(4.0)[0]
    m_calls, dm_calls = [], []

    def fn(t):
        m_calls.append(np.size(t))
        return M.fn(t)

    def dfn(t):
        dm_calls.append(np.size(t))
        return M.dfn(t)

    counted = YoungFunction(name=M.name, fn=fn, dfn=dfn)
    f = SampledField.uniform(np.random.default_rng(4).uniform(0.0, 3.0, 1000))
    assert orlicz_norm(f, counted) == pytest.approx(
        golden_amemiya(f, M), rel=1e-12)
    steps = passes(m_calls, f) - 1
    assert 1 <= steps <= 7, passes(m_calls, f)
    assert passes(dm_calls, f) == 3 * steps


def test_orlicz_norm_unattained_infimum():
    # M = sqrt(1 + t^2) - 1 grows linearly, tM' - M = 1 - 1/sqrt(1 + t^2)
    # stays below 1, and the infimum over k is int |f|, approached as k
    # grows without bound
    M = YoungFunction(name="sqrt(1+t^2)-1",
                      fn=lambda t: np.sqrt(1.0 + t * t) - 1.0,
                      dfn=lambda t: t / np.sqrt(1.0 + t * t))
    f = SampledField.uniform(np.linspace(0.1, 1.0, 100), measure=0.5)
    l1 = float(np.sum(f.weights * np.abs(f.values)))
    assert orlicz_norm(f, M) == pytest.approx(l1, rel=1e-9)


def test_orlicz_norm_unattained_infimum_passes():
    # the gauge of tM' - M is 0: the search walks down to the bracket floor
    # 2^-200 max|f| in fallback moves that double, not one octave a step
    M = YoungFunction(name="sqrt(1+t^2)-1",
                      fn=lambda t: np.sqrt(1.0 + t * t) - 1.0,
                      dfn=lambda t: t / np.sqrt(1.0 + t * t))
    f = SampledField.uniform(np.linspace(0.1, 1.0, 100), measure=0.5)
    l1 = float(np.sum(f.weights * np.abs(f.values)))
    counted, calls = counted_young(M)
    assert orlicz_norm(f, counted) == pytest.approx(l1, rel=1e-9)
    assert 1 <= passes(calls, f) <= 100, passes(calls, f)


# ---------------------------------------------------------------------------
# Holder


def test_holder_zero_cases():
    z = SampledField.uniform(np.zeros(50))
    u = rng_field(2, n=50)
    rep = holder_orlicz(z, u, (power_young(2.0), power_young(2.0)))
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.slack == 0.0


def test_holder_cauchy_schwarz_factor_two():
    # M = N = t^2: Luxemburg is the 2-norm, so rhs = 2||u||^2 against
    # lhs = ||u||^2.
    u = rng_field(21)
    pair = (power_young(2.0), power_young(2.0))
    rep = holder_orlicz(u, u, pair)
    assert rep.rhs == pytest.approx(2.0 * rep.lhs, rel=1e-7)
    assert rep.slack >= 0.0


def test_holder_saturates_at_normalized_quadratic():
    # M = N = t^2/2 halves both gauges, and rhs = lhs exactly: the
    # adversarial equality case must survive the tolerance.
    u = rng_field(22)
    pair = (power_young(2.0, normalized=True),
            power_young(2.0, normalized=True))
    rep = holder_orlicz(u, u, pair)
    assert rep.slack == pytest.approx(0.0, abs=1e-7 * rep.rhs)
    assert rep.slack >= -1e-8 * rep.rhs


def test_holder_near_equality_conjugate_shape():
    # u = v^(p'-1) saturates Young's inequality pointwise; slack stays
    # small but nonnegative.
    p = 3.0
    pp = p / (p - 1.0)
    v = rng_field(30, lo=0.1, hi=2.0)
    u = SampledField(values=v.values ** (pp - 1.0), weights=v.weights)
    pair = (power_young(p, normalized=True), power_young(pp, normalized=True))
    rep = holder_orlicz(u, v, pair)
    assert rep.slack >= 0.0
    assert rep.slack <= 0.10 * rep.rhs


def test_holder_requires_shared_grid():
    u = rng_field(1, n=16)
    v = rng_field(2, n=18)
    with pytest.raises(ValueError):
        holder_orlicz(u, v, (power_young(2.0), power_young(2.0)))


# ---------------------------------------------------------------------------
# Young function inventory


def test_log_young_values():
    n4, hyp = log_young(4.0)
    assert n4(0.0) == 0.0
    assert n4(1.0) == pytest.approx(math.log(1.0 + math.e) ** 0.5, rel=1e-12)
    # p -> infinity pushes the exponent to 1.
    n_inf, _ = log_young(1e6)
    t = 3.0
    assert n_inf(t) == pytest.approx(t * math.log(t + math.e), rel=1e-4)
    # Hypothesis functional on a constant: m * c^2 (log(c+e))^(1/2).
    c, m = 1.7, 0.8
    f = SampledField.uniform(np.full(40, c), measure=m)
    assert hyp(f) == pytest.approx(m * c * c * math.log(c + math.e) ** 0.5,
                                   rel=1e-12)


def test_log_young_derivative_consistency():
    n4, _ = log_young(4.0)
    t = np.geomspace(0.01, 100.0, 25)
    h = 1e-6 * np.maximum(t, 1.0)
    numeric = (n4(t + h) - n4(t - h)) / (2.0 * h)
    assert np.allclose(n4.derivative(t), numeric, rtol=1e-6)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 8.0])
def test_log_young_derivative_matches_two_power_form(p):
    # The slope is evaluated as L^a (1 + a t / (L (t + e))); the reference
    # is the term-by-term derivative L^a + a t L^(a-1) / (t + e).
    a = (p - 2.0) / p
    t = np.geomspace(1e-12, 1e12, 2001)
    L = np.log(t + math.e)
    ref = L ** a + t * a * L ** (a - 1.0) / (t + math.e)
    n_tilde, _ = log_young(p)
    assert np.max(np.abs(n_tilde.derivative(t) - ref) / ref) <= 1e-14


# ---------------------------------------------------------------------------
# Legendre conjugation


def test_numeric_conjugate_matches_exponential_closed_form():
    # N(t) = sup_s (s t - M(s)) by brute force on a fine grid of s
    M = exp_young()
    N_exact = exp_conjugate()
    s = np.linspace(0.0, 1.0, 200001)
    for t in (20.0, 100.0, 1e4):
        brute = float(np.max(s * t - M(s)))
        assert float(N_exact(t)) == pytest.approx(brute, rel=1e-6)
    # Below the derivative floor M'(0) = MOSER_SCALE the conjugate vanishes.
    assert float(np.max(s * 10.0 - M(s))) == 0.0
    assert float(N_exact(10.0)) == 0.0
