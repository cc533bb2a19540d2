"""Closed-form security bounds and achievable-rate formulas.

Bound evaluators keep exponents in log2 space and only exponentiate on
output, so block lengths up to 10^6 do not overflow; values that would
exceed the float range come back as inf (they are vacuous bounds anyway).
Rates clamp at zero: a negative formula value means commitment at that
parameter point is not achievable by this construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "binary_entropy",
    "completeness_bound",
    "hiding_bound",
    "binding_bound",
    "intersection_bound",
    "rate_tradeoff",
    "rate_tradeoff_inverse",
    "achievable_rate",
    "iid_rate",
    "iid_adversary_capacity",
    "iid_rate_vs_capacity",
    "iid_entropy_floor",
    "asymptotic_protocol_params",
    "RatePoint",
    "rate_surface",
]


def binary_entropy(q: float) -> float:
    """h(q) = -q log2 q - (1-q) log2(1-q), with h(0) = h(1) = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("binary entropy needs q in [0, 1], got %r" % (q,))
    if q in (0.0, 1.0):
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def completeness_bound(n: int, eps: float) -> float:
    """Honest-run failure ceiling 8 * 2^(-n eps^2)."""
    _check_n(n)
    if eps <= 0:
        raise ValueError("need eps > 0")
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")
    return _exp2(3.0 - n * eps * eps)


def hiding_bound(n: int, log_m: float, log_c: float, l_b: float,
                 eps_b: float) -> float:
    """Distinguishing-advantage ceiling 2 * 2^((n + log_m - log_c - l_b)/2) + 8 eps_b."""
    _check_n(n)
    _check_smoothing("eps_b", eps_b)
    for v in (n, log_m, log_c):
        if not math.isfinite(v):
            raise ValueError("arguments must be finite")
    if math.isnan(l_b):
        raise ValueError("l_b must not be NaN")
    # l_b = +inf leaves only the smoothing term (_exp2(-inf) is 0)
    return _exp2(1.0 + 0.5 * (n + log_m - log_c - l_b)) + 8.0 * eps_b


def binding_bound(n: int, eps: float, sigma: float, p: float, l_a: float,
                  eps_a: float) -> float:
    """Double-opening success ceiling for openings at relative distance 2*sigma.

    (sqrt(2) eps n + 1)^2 * 2^(n * bracket - l_a) + eps_a, where the bracket
    is (1-2s) h((p-s+eps)/(1-2s)) + 2s; for sigma > p + 2 eps the typical-set
    intersection is empty and only eps_a remains.
    """
    log2_count = intersection_bound_log2(n, p, eps, sigma)
    _check_smoothing("eps_a", eps_a)
    if math.isnan(l_a):
        raise ValueError("l_a must not be NaN")
    if log2_count == -math.inf:
        return eps_a
    return _exp2(log2_count - l_a) + eps_a


def intersection_bound(n: int, p: float, eps: float, sigma: float) -> float:
    """Ceiling on the typical-window overlap at HD(x, y) = 2 sigma n.

    Zero beyond sigma = p + 2 eps.
    """
    return _exp2(intersection_bound_log2(n, p, eps, sigma))


def intersection_bound_log2(n: int, p: float, eps: float,
                            sigma: float) -> float:
    """log2 of ``intersection_bound``: -inf beyond sigma = p + 2 eps, where
    the typical-set intersection is empty."""
    _check_intersection(n, p, eps, sigma)
    if sigma > p + 2 * eps:
        return -math.inf
    return (2.0 * math.log2(math.sqrt(2.0) * eps * n + 1.0)
            + n * _interval_bracket(p, eps, sigma))


def _interval_bracket(p: float, eps: float, sigma: float) -> float:
    if 1.0 - 2.0 * sigma <= 0.0:
        # degenerate sector split; 2 sigma >= 1 already majorizes 2^n
        return 2.0 * sigma
    arg = (p - sigma + eps) / (1.0 - 2.0 * sigma)
    arg = min(max(arg, 0.0), 1.0)
    return (1.0 - 2.0 * sigma) * binary_entropy(arg) + 2.0 * sigma


def rate_tradeoff(sigma: float, p: float) -> float:
    """(1-2s) h((p-s)/(1-2s)) + 2s, strictly decreasing on [0, p].

    Maps the relative-distance parameter of a code to the adversarial
    entropy rate at which double openings at that distance become useless;
    range is [2p, h(p)].
    """
    _check_p(p)
    if not 0.0 <= sigma <= p:
        raise ValueError("sigma must be in [0, p]")
    return _interval_bracket(p, 0.0, sigma)


def rate_tradeoff_inverse(y: float, p: float) -> float:
    """Inverse of rate_tradeoff on [2p, h(p)], by bisection to 1e-12.

    Endpoint inputs snap exactly: y = h(p) -> 0, y = 2p -> p.
    """
    _check_p(p)
    hi_val = binary_entropy(p)
    lo_val = 2.0 * p
    if not lo_val - 1e-12 <= y <= hi_val + 1e-12:
        raise ValueError("y=%r outside [2p, h(p)] = [%r, %r]"
                         % (y, lo_val, hi_val))
    if y >= hi_val:
        return 0.0
    if y <= lo_val:
        return p
    lo, hi = 0.0, p  # rate_tradeoff(lo) = h(p) >= y >= 2p = rate_tradeoff(hi)
    while hi - lo > 1e-12 * max(p, 1.0):
        mid = 0.5 * (lo + hi)
        if rate_tradeoff(mid, p) >= y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def achievable_rate(p: float, xi_a: float, xi_b: float) -> float:
    """Commitment bits per channel use: max(0, xi_b - h(2 * inverse(xi_a)))."""
    return max(0.0, _rate_row(p, xi_a, [xi_b])[0])


def _rate_row(p: float, xi_a: float, xi_bs) -> list[float]:
    """The unclamped xi_b - h(2 * inverse(xi_a)) for every xi_b, inverting
    once; the one evaluation of the rate formula."""
    _check_p(p)
    hp = binary_entropy(p)
    if not 2.0 * p - 1e-12 <= xi_a <= hp + 1e-12:
        raise ValueError("xi_a must be in [2p, h(p)]")
    for xi_b in xi_bs:
        if not -1e-12 <= xi_b <= hp + 1e-12:
            raise ValueError("xi_b must be in [0, h(p)]")
    sigma = rate_tradeoff_inverse(xi_a, p)
    cost = binary_entropy(min(2.0 * sigma, 1.0))
    return [xi_b - cost for xi_b in xi_bs]


def iid_rate(p: float, p_a: float, p_b: float) -> float:
    """Achievable rate when both adversarial channels are themselves BSCs:
    ``achievable_rate(p, h(p_a), h(p_b))`` for 0 < p_a, p_b <= p."""
    if not (0.0 < p_a <= p and 0.0 < p_b <= p):
        raise ValueError("need 0 < p_a <= p and 0 < p_b <= p")
    return achievable_rate(p, binary_entropy(p_a), binary_entropy(p_b))


def iid_adversary_capacity(p: float, p_a: float) -> float:
    """Known capacity h(p_a) - h((p-p_a)/(1-2p_a)) for i.i.d.-restricted adversaries."""
    if not 0.0 < p_a <= p:
        raise ValueError("need 0 < p_a <= p")
    _check_p(p)
    return binary_entropy(p_a) - binary_entropy((p - p_a) / (1.0 - 2.0 * p_a))


def iid_rate_vs_capacity(p: float, p_a: float, p_b: float):
    """(rate, capacity, capacity - rate), compared at raw formula level.

    The stronger-adversary rate formula never exceeds the i.i.d.-restricted
    capacity, with equality exactly at p_a = p; clamping either side at zero
    can flip the inequality where both formulas are negative, so the
    comparison uses the unclamped values.
    """
    c = iid_adversary_capacity(p, p_a)
    if not 0.0 < p_b <= p:
        raise ValueError("need 0 < p_b <= p")
    r = _rate_row(p, binary_entropy(p_a), [binary_entropy(p_b)])[0]
    return r, c, c - r


def iid_entropy_floor(n: int, p: float):
    """Smoothing and entropy floor certifying an n-fold BSC as an adversary.

    Returns (mu_n, l_np) with mu_n = 8 * 2^(-n^(1/3)) and
    l_np = n (h(p) - c n^(-1/3)), c = log2((1-p)/p); l_np/n -> h(p).
    """
    _check_n(n)
    _check_p(p)  # p >= 1/2 would make the constant c nonpositive
    c = math.log2((1.0 - p) / p)
    mu = _exp2(3.0 - n ** (1.0 / 3.0))
    floor = n * (binary_entropy(p) - c * n ** (-1.0 / 3.0))
    return mu, floor


@dataclass(frozen=True)
class AsymptoticParams:
    """Protocol parameters realizing a target rate point at block length n."""

    eps_n: float
    distance: float
    log_c: float
    log_m: float
    feasible: bool


def asymptotic_protocol_params(p: float, xi_a: float, xi_b: float,
                               eps_prime: float, n: int) -> AsymptoticParams:
    """Code/hash sizing that drives all three failure parameters to zero.

    distance = 2 (s* + e') n, log|C| = (1 - h(2 s* + 2 e') - e') n and
    log|M| = (xi_b - h(2 s* + 3 e') - e') n with s* the tradeoff inverse of
    xi_a. The message-size entropy argument carries +3 e': together with the
    Gilbert-Varshamov-consistent code size this makes the hiding exponent
    log|M| + n - log|C| - n xi_b strictly negative, and log|M|/n approaches
    the rate from below as e' -> 0. Negative log|M| marks the point
    rate-infeasible.
    """
    if eps_prime <= 0:
        raise ValueError("need eps_prime > 0")
    _check_n(n)
    sigma = rate_tradeoff_inverse(xi_a, p)
    hp = binary_entropy(p)
    if not -1e-12 <= xi_b <= hp + 1e-12:
        raise ValueError("xi_b must be in [0, h(p)]")
    eps_n = n ** (-1.0 / 3.0)
    distance = 2.0 * (sigma + eps_prime) * n
    log_c = (1.0 - binary_entropy(_clip01(2.0 * sigma + 2.0 * eps_prime))
             - eps_prime) * n
    log_m = (xi_b - binary_entropy(_clip01(2.0 * sigma + 3.0 * eps_prime))
             - eps_prime) * n
    return AsymptoticParams(eps_n=eps_n, distance=distance, log_c=log_c,
                            log_m=log_m, feasible=log_m > 0.0)


@dataclass(frozen=True)
class RatePoint:
    xi_a: float
    xi_b: float
    r: float


def rate_surface(p: float, grid_steps: int) -> list[RatePoint]:
    """Achievable rate on a grid over [2p, h(p)] x [0, h(p)], row-major."""
    if not 2 <= grid_steps <= 1000:  # 10^6 points take about 40 s
        raise ValueError("need 2 <= grid_steps <= 1000")
    hp = binary_entropy(p)
    xas = _grid(2.0 * p, hp, grid_steps)
    xbs = _grid(0.0, hp, grid_steps)
    return [RatePoint(xa, xb, max(0.0, r)) for xa in xas
            for xb, r in zip(xbs, _rate_row(p, xa, xbs))]


def _grid(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num).tolist()`` for num >= 2, bit for bit:
    the same float operations, i * step + start, and stop exactly last."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _exp2(log2_value: float) -> float:
    if log2_value > 1020.0:
        return math.inf
    return 2.0 ** log2_value


def _clip01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _check_p(p: float) -> None:
    if not 0.0 < p < 0.5:
        raise ValueError("need 0 < p < 1/2, got %r" % (p,))


def _check_n(n: int) -> None:
    if not n >= 1:
        raise ValueError("need n >= 1, got %r" % (n,))


def _check_smoothing(name: str, eps: float) -> None:
    if not 0.0 <= eps <= 1.0:  # also refuses NaN
        raise ValueError("need 0 <= %s <= 1, got %r" % (name, eps))


def _check_intersection(n: int, p: float, eps: float, sigma: float) -> None:
    _check_n(n)
    _check_p(p)
    if not 0.0 < eps < 0.5 - p:
        raise ValueError("need 0 < eps < 1/2 - p")
    if not sigma >= 0.0:  # also refuses NaN
        raise ValueError("sigma must be nonnegative, got %r" % (sigma,))
