"""Independent reference computations for the test suite.

Everything here deliberately avoids the package's own numerics: expectations
run through QUADPACK, Gaussian conditioning through dense linear algebra (or
generalized least squares when the prior is flat), bin masses through the
stdlib error function, schedule evaluation through direct recursion, and
the deviation calculus through 60-digit mpmath arithmetic on the exact
values of the model's floats. Agreement between these routes and the
library is what the tests assert.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def pdf(mean: float, precision: float, x: float) -> float:
    sd = 1.0 / math.sqrt(precision)
    u = (x - mean) / sd
    return math.exp(-0.5 * u * u) / (sd * _SQRT_2PI)


def log_pdf(mean: float, precision: float, x: float) -> float:
    sd = 1.0 / math.sqrt(precision)
    u = (x - mean) / sd
    return -0.5 * u * u - math.log(sd * _SQRT_2PI)


def _span(p_mean, p_prec, q_mean, q_prec, sigmas=13.0):
    wide = max(1.0 / math.sqrt(p_prec), 1.0 / math.sqrt(q_prec))
    lo = min(p_mean, q_mean) - sigmas * wide
    hi = max(p_mean, q_mean) + sigmas * wide
    return lo, hi


def quad_selfdot(mean: float, precision: float) -> float:
    """integral of the squared density, by QUADPACK."""
    lo, hi = _span(mean, precision, mean, precision)
    val, _ = integrate.quad(lambda x: pdf(mean, precision, x) ** 2, lo, hi,
                            epsabs=1e-14, epsrel=1e-12, limit=200)
    return val


def quad_expected_score(rule: str, p_mean: float, p_prec: float,
                        q_mean: float, q_prec: float) -> float:
    """E_{x ~ q}[S(p, x)] by QUADPACK; rule is "logarithmic" or "quadratic"."""
    lo, hi = _span(p_mean, p_prec, q_mean, q_prec)
    pts = [p_mean, q_mean]
    if rule == "logarithmic":
        f = lambda x: pdf(q_mean, q_prec, x) * log_pdf(p_mean, p_prec, x)
        val, _ = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12,
                                limit=200, points=pts)
        return val
    if rule == "quadratic":
        f = lambda x: pdf(q_mean, q_prec, x) * 2.0 * pdf(p_mean, p_prec, x)
        val, _ = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12,
                                limit=200, points=pts)
        return val - quad_selfdot(p_mean, p_prec) - 1.0
    raise ValueError(rule)


def quad_divergence(rule: str, p_mean: float, p_prec: float,
                    q_mean: float, q_prec: float) -> float:
    """E_{x ~ q}[S(p, x) - S(q, x)] as a single integral.

    Integrating the difference directly keeps the relative accuracy of small
    divergences, which a difference of two O(1) expectations would destroy
    by cancellation. Resolution floor: values below ~1e-12 in magnitude are
    dominated by the quadrature's own error.
    """
    lo, hi = _span(p_mean, p_prec, q_mean, q_prec)
    pts = [p_mean, q_mean]
    if rule == "logarithmic":
        f = lambda x: pdf(q_mean, q_prec, x) * (
            log_pdf(p_mean, p_prec, x) - log_pdf(q_mean, q_prec, x))
        val, _ = integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12,
                                limit=200, points=pts)
        return val
    if rule == "quadratic":
        f = lambda x: pdf(q_mean, q_prec, x) * 2.0 * (
            pdf(p_mean, p_prec, x) - pdf(q_mean, q_prec, x))
        val, _ = integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12,
                                limit=200, points=pts)
        return val - quad_selfdot(p_mean, p_prec) + quad_selfdot(q_mean, q_prec)
    raise ValueError(rule)


def noise_covariance(tau_a: float, tau_b: float, rho: float) -> np.ndarray:
    cross = rho / math.sqrt(tau_a * tau_b)
    return np.array([[1.0 / tau_a, cross], [cross, 1.0 / tau_b]])


def gls_posterior(tau_a, tau_b, tau_c, rho, c0, a0, b0=None):
    """(mean, precision) of the outcome given the observations.

    Treats the observations as y = outcome + correlated noise and combines
    the generalized-least-squares estimate with the (possibly flat) prior.
    Valid for every tau_c >= 0.
    """
    if b0 is None:
        obs_prec = np.array([[tau_a]])
        y = np.array([a0])
    else:
        obs_prec = np.linalg.inv(noise_covariance(tau_a, tau_b, rho))
        y = np.array([a0, b0])
    ones = np.ones(len(y))
    info = float(ones @ obs_prec @ ones)
    precision = tau_c + info
    mean = (tau_c * c0 + float(ones @ obs_prec @ y)) / precision
    return mean, precision


def gls_pair_means(tau_a, tau_b, tau_c, rho, c0, a0, b0):
    """Posterior means on arrays of both signals, and the precision, by the
    generalized least squares of ``gls_posterior`` written out per row."""
    weights = np.linalg.inv(noise_covariance(tau_a, tau_b, rho)).sum(axis=0)
    precision = tau_c + float(weights.sum())
    return (tau_c * c0 + weights[0] * a0 + weights[1] * b0) / precision, precision


def score_array(rule: str, mean, precision: float, x):
    """Realized score of N(mean, 1/precision) at x, elementwise over arrays:
    the log density, or twice the density less its QUADPACK square integral
    and 1."""
    sd = 1.0 / math.sqrt(precision)
    u = (np.asarray(x) - mean) / sd
    log_density = -0.5 * u * u - math.log(sd * _SQRT_2PI)
    if rule == "logarithmic":
        return log_density
    if rule == "quadratic":
        return 2.0 * np.exp(log_density) - quad_selfdot(0.0, precision) - 1.0
    raise ValueError(rule)


def conditioned_posterior(tau_a, tau_b, tau_c, rho, c0, a0, b0=None):
    """(mean, precision) by dense covariance conditioning; needs tau_c > 0.

    Builds the joint covariance of (observations, outcome) and conditions
    the outcome on the observed block. A formulation independent of the
    precision-space route in gls_posterior.
    """
    if tau_c <= 0.0:
        raise ValueError("covariance conditioning needs a proper prior")
    v = 1.0 / tau_c
    if b0 is None:
        cov = np.array([[v + 1.0 / tau_a, v], [v, v]])
        y = np.array([a0])
    else:
        cross = rho / math.sqrt(tau_a * tau_b)
        cov = np.array([
            [v + 1.0 / tau_a, v + cross, v],
            [v + cross, v + 1.0 / tau_b, v],
            [v, v, v],
        ])
        y = np.array([a0, b0])
    k = len(y)
    s_oo = cov[:k, :k]
    s_lo = cov[k, :k]
    gain = np.linalg.solve(s_oo, s_lo)
    mean = c0 + float(gain @ (y - c0))
    var = cov[k, k] - float(gain @ s_lo)
    return mean, 1.0 / var


def recursive_schedule_level(kind, k0, decay, resets, t):
    """Discount level at integer t by direct recursion over t-1."""
    lookup = dict(resets)
    if t in lookup:
        return lookup[t]
    if t == 0:
        return k0
    prev = recursive_schedule_level(kind, k0, decay, resets, t - 1)
    return prev * decay if kind == "geometric_by_count" else prev


def enumerate_adjacent_pairs(slots):
    """Brute-force (expert, first, second, between-set) for every adjacent
    pair of same-expert slots in a forum schedule."""
    out = []
    for i, (t1, expert) in enumerate(slots):
        for t2, other in slots[i + 1:]:
            if other != expert:
                continue
            between = frozenset(
                name for tt, name in slots if t1 < tt < t2 and name != expert)
            out.append((expert, t1, t2, between))
            break
    return sorted(out)


def erf_bin_masses(mean, precision, edges):
    """Bin probabilities from the stdlib error function.

    Accurate for |z| up to ~5 on both sides; tails beyond that cancel to
    noise, so tests only compare bins with non-negligible mass.
    """
    sd = 1.0 / math.sqrt(precision)

    def cdf(x):
        return 0.5 * (1.0 + math.erf((x - mean) / (sd * math.sqrt(2.0))))

    return [cdf(b) - cdf(a) for a, b in zip(edges[:-1], edges[1:])]


# The deviation calculus at 60 significant digits. Each function takes the
# model's fields as floats, which mpmath holds exactly, and returns an mpf;
# a rule is "logarithmic" or "quadratic". These are the textbook forms, with
# no rearrangement against cancellation: at 60 digits none is needed.
MP = mpmath.MPContext()
MP.dps = 60


def mp_precisions(tau_a, tau_b, tau_c, rho):
    """(tau_single, tau_pool): the posterior precisions on Alice's signal
    alone and on both signals."""
    ta, tb, tc, r = (MP.mpf(v) for v in (tau_a, tau_b, tau_c, rho))
    pool = (ta - 2 * r * MP.sqrt(ta * tb) + tb) / (1 - r * r) + tc
    return ta + tc, pool


def mp_alphas(tau_a, tau_b, tau_c, rho):
    """(alpha_g, alpha_h): how far a unit shift of Alice's signal moves the
    single-signal and the pooled posterior means."""
    ta, tb, tc, r = (MP.mpf(v) for v in (tau_a, tau_b, tau_c, rho))
    cross = r * MP.sqrt(ta * tb)
    pooled = (ta - cross) / (ta - 2 * cross + tb + (1 - r * r) * tc)
    return ta / (ta + tc), pooled


def _mp_scale(rule, tau):
    """Weight W and rate q of the equal-precision divergence W phi(q d^2)."""
    if rule == "logarithmic":
        return MP.mpf(1), tau / 2
    return MP.sqrt(tau / MP.pi), tau / 4


def _mp_divergence(rule, tau, shift):
    weight, rate = _mp_scale(rule, tau)
    x = rate * shift * shift
    return weight * (-x if rule == "logarithmic" else MP.expm1(-x))


def mp_curvature_ratio(rule, tau_a, tau_b, tau_c, rho):
    """R = W(tau_pool) q(tau_pool) a_h^2 / (W(tau_single) q(tau_single) a_g^2),
    the pooled/forfeited divergence ratio as the shift tends to 0."""
    (single, pool), (a_g, a_h) = (mp_precisions(tau_a, tau_b, tau_c, rho),
                                  mp_alphas(tau_a, tau_b, tau_c, rho))
    w_single, q_single = _mp_scale(rule, single)
    w_pool, q_pool = _mp_scale(rule, pool)
    return (w_pool * q_pool * a_h**2) / (w_single * q_single * a_g**2)


def mp_quadratic_tail(tau_a, tau_b, tau_c, rho):
    """W(tau_pool)/W(tau_single) = sqrt(tau_pool/tau_single), the quadratic
    rule's ratio as the shift grows without bound."""
    single, pool = mp_precisions(tau_a, tau_b, tau_c, rho)
    return MP.sqrt(pool / single)


def mp_log_ratio_closed_form(tau_a, tau_b, tau_c, rho):
    """The log rule's minimal early/late ratio in closed form,

        K = (tau_A + tau_C) g^2
            / ( tau_A [ (1-rho^2) g^2 + (1-rho^2)^2 (tau_B + tau_C) ] ),
        g = sqrt(tau_A) - rho sqrt(tau_B),

    which is R of the log rule written out in the model's fields."""
    ta, tb, tc, r = (MP.mpf(v) for v in (tau_a, tau_b, tau_c, rho))
    gap = MP.sqrt(ta) - r * MP.sqrt(tb)
    one_minus_r2 = 1 - r * r
    return (ta + tc) * gap**2 / (
        ta * (one_minus_r2 * gap**2 + one_minus_r2**2 * (tb + tc)))


def mp_required_ratio(rule, tau_a, tau_b, tau_c, rho):
    """K for either rule: the closed form for the log rule, and for the
    quadratic rule the larger of R and the tail, or 0 where a_h = 0."""
    if rule == "logarithmic":
        return mp_log_ratio_closed_form(tau_a, tau_b, tau_c, rho)
    if mp_alphas(tau_a, tau_b, tau_c, rho)[1] == 0:
        return MP.mpf(0)
    return max(mp_curvature_ratio(rule, tau_a, tau_b, tau_c, rho),
               mp_quadratic_tail(tau_a, tau_b, tau_c, rho))


def mp_margin_sides(rule, tau_a, tau_b, tau_c, rho):
    """(lhs, rhs) of the classifier's inequality, whose margin is lhs - rhs:
    for the log rule

        (1-rho^2)^2 (1 + tau_C/tau_B) >= (rho^2 + tau_C/tau_A)(sqrt(tau_A/tau_B) - rho)^2,

    and 1 > R for the quadratic rule."""
    if rule == "quadratic":
        return MP.mpf(1), mp_curvature_ratio(rule, tau_a, tau_b, tau_c, rho)
    ta, tb, tc, r = (MP.mpf(v) for v in (tau_a, tau_b, tau_c, rho))
    return ((1 - r * r) ** 2 * (1 + tc / tb),
            (r * r + tc / ta) * (MP.sqrt(ta / tb) - r) ** 2)


def mp_gain_terms(rule, tau_a, tau_b, tau_c, rho, k1, k2, c):
    """(k1 D(tau_single, c a_g), k2 D(tau_pool, c a_h)): the weighted
    divergences of Alice's first report and of the pooled one when she
    shifts her signal by c. Her expected gain, ``analytic_gain``, is the
    first less the second."""
    single, pool = mp_precisions(tau_a, tau_b, tau_c, rho)
    a_g, a_h = mp_alphas(tau_a, tau_b, tau_c, rho)
    c = MP.mpf(c)
    return (MP.mpf(k1) * _mp_divergence(rule, single, c * a_g),
            MP.mpf(k2) * _mp_divergence(rule, pool, c * a_h))
