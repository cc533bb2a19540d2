import math

import numpy as np
import pytest

from usnc.bounds import (_grid, _rate_row, achievable_rate, asymptotic_protocol_params,
                         binary_entropy, binding_bound, completeness_bound,
                         hiding_bound, iid_entropy_floor, iid_rate,
                         iid_rate_vs_capacity, intersection_bound,
                         rate_surface, rate_tradeoff,
                         rate_tradeoff_inverse)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_boundaries(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_reported_value(self):
        assert binary_entropy(0.1) == pytest.approx(0.469, abs=5e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestCompletenessBound:
    def test_substitutions(self):
        assert completeness_bound(1000, 0.1) == pytest.approx(0.0078125)
        assert completeness_bound(4096, 0.06) == pytest.approx(2.9e-4,
                                                               rel=2e-2)

    def test_vacuous_limit(self):
        assert completeness_bound(10, 1e-9) == pytest.approx(8.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            completeness_bound(0, 0.1)
        with pytest.raises(ValueError):
            completeness_bound(10, 0.0)

    @pytest.mark.parametrize("n", [math.nan, 0.5])
    def test_length_below_one_or_nan_refused(self, n):
        # NaN < 1 is False: completeness_bound(nan, 0.1) returned nan
        with pytest.raises(ValueError, match="need n >= 1"):
            completeness_bound(n, 0.1)
        assert completeness_bound(1, 0.1) == 2.0 ** (3.0 - 0.01)


class TestHidingBound:
    def test_substitutions(self):
        assert hiding_bound(7, 1, 4, 4, 0.0) == pytest.approx(2.0)
        assert hiding_bound(7, 1, 4, 10, 0.0) == pytest.approx(0.25)

    def test_smoothing_floor(self):
        assert hiding_bound(7, 1, 4, math.inf, 0.1) == pytest.approx(0.8)

    def test_substitution_with_smoothing(self):
        # 2 * 2^((n + log|M| - log|C| - l_b)/2) + 8 eps_b at a finite l_b:
        # 2 * 2^((7 + 1 - 4 - 10)/2) + 8 * 0.01 = 0.25 + 0.08
        assert hiding_bound(7, 1, 4, 10, 0.01) == pytest.approx(0.33,
                                                               rel=1e-12)

    def test_vacuous_at_minus_infinite_floor(self):
        assert hiding_bound(7, 1, 4, -math.inf, 0.0) == math.inf

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            hiding_bound(7, 1, 4, math.nan, 0.0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_length_below_one_refused(self, n):
        with pytest.raises(ValueError, match="need n >= 1"):
            hiding_bound(n, 1, 2, 1, 0.0)

    @pytest.mark.parametrize("eps_b", [-3.0, -1e-12, 1.5, math.nan])
    def test_smoothing_outside_unit_interval_refused(self, eps_b):
        # -3 once gave the negative "bound" -18.34
        with pytest.raises(ValueError, match="eps_b"):
            hiding_bound(5, 1, 2, 1, eps_b)
        with pytest.raises(ValueError, match="eps_b"):
            hiding_bound(5, 1, 2, math.inf, eps_b)

    def test_smoothing_at_unit_interval_ends(self):
        assert hiding_bound(7, 1, 4, math.inf, 0.0) == 0.0
        assert hiding_bound(7, 1, 4, math.inf, 1.0) == 8.0


class TestBindingBound:
    def test_empty_intersection_case(self):
        val = binding_bound(100, 0.05, 0.2, 0.05, 10.0, 0.125)
        assert val == 0.125

    def test_empty_exactly_beyond_p_plus_two_eps(self):
        # the typical-set intersection is empty for sigma > p + 2 eps only
        n, eps, p, l_a = 100, 0.05, 0.25, 10.0
        edge = p + 2 * eps
        assert binding_bound(n, eps, edge, p, l_a, 0.125) > 1.0
        assert binding_bound(n, eps, edge + 1e-9, p, l_a, 0.125) == 0.125

    def test_sigma_zero_reduction(self):
        n, eps, p, l_a = 50, 0.05, 0.25, 12.0
        want = (math.sqrt(2) * eps * n + 1) ** 2 \
            * 2.0 ** (n * binary_entropy(p + eps) - l_a)
        assert binding_bound(n, eps, 0.0, p, l_a, 0.0) == pytest.approx(want)

    def test_consistency_with_intersection_bound(self):
        for sigma in (0.0, 0.05, 0.1, 0.2):
            lhs = binding_bound(40, 0.05, sigma, 0.25, 9.0, 0.01)
            rhs = intersection_bound(40, 0.25, 0.05, sigma) * 2.0 ** -9 + 0.01
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_window_domain(self):
        with pytest.raises(ValueError):
            binding_bound(10, 0.3, 0.1, 0.25, 1.0, 0.0)  # eps >= 1/2 - p

    @pytest.mark.parametrize("n", [0, -5])
    def test_length_below_one_refused(self, n):
        with pytest.raises(ValueError, match="need n >= 1"):
            binding_bound(n, 0.05, 0.1, 0.25, 1.0, 0.0)

    @pytest.mark.parametrize("sigma", [0.1, 0.4])  # inside, beyond threshold
    @pytest.mark.parametrize("eps_a", [-0.5, 1.01, math.nan])
    def test_smoothing_outside_unit_interval_refused(self, sigma, eps_a):
        with pytest.raises(ValueError, match="eps_a"):
            binding_bound(100, 0.05, sigma, 0.25, 10.0, eps_a)

    def test_nan_sigma_refused_by_name(self):
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            binding_bound(100, 0.05, math.nan, 0.25, 10.0, 0.0)


class TestIntersectionBound:
    def test_vanishes_beyond_threshold(self):
        assert intersection_bound(20, 0.25, 0.1, 0.46) == 0.0

    def test_log_space_no_overflow(self):
        big = intersection_bound(10 ** 6, 0.25, 0.05, 0.1)
        assert math.isinf(big)  # vacuously huge, reported as inf not error

    @pytest.mark.parametrize("n", [0, -5])
    def test_length_below_one_refused(self, n):
        # n = -5 once gave 0.022
        with pytest.raises(ValueError, match="need n >= 1"):
            intersection_bound(n, 0.25, 0.05, 0.1)

    def test_nan_sigma_refused_by_name(self):
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            intersection_bound(20, 0.25, 0.05, math.nan)


class TestRateTradeoff:
    def test_endpoints(self):
        for p in (0.05, 0.1, 0.2):
            assert rate_tradeoff(0.0, p) == pytest.approx(binary_entropy(p))
            assert rate_tradeoff(p, p) == pytest.approx(2.0 * p)

    def test_anchor_value(self):
        # zero-rate boundary for p = 0.1 sits near 0.81 h(p)
        val = rate_tradeoff(0.05, 0.1)
        assert val == pytest.approx(0.3786, abs=2e-4)
        assert 0.80 < val / binary_entropy(0.1) < 0.82

    def test_strictly_decreasing(self):
        for p in (0.05, 0.1, 0.2):
            grid = np.linspace(0.0, p, 50)
            vals = [rate_tradeoff(float(s), p) for s in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.2])
    def test_roundtrip(self, p):
        ys = np.linspace(2 * p, binary_entropy(p), 100)
        for y in ys:
            sigma = rate_tradeoff_inverse(float(y), p)
            assert abs(rate_tradeoff(sigma, p) - y) <= 1e-9

    def test_endpoint_snapping(self):
        assert rate_tradeoff_inverse(binary_entropy(0.1), 0.1) == 0.0
        assert rate_tradeoff_inverse(0.2, 0.1) == 0.1

    def test_domain(self):
        with pytest.raises(ValueError):
            rate_tradeoff(0.2, 0.1)
        with pytest.raises(ValueError):
            rate_tradeoff_inverse(0.1, 0.1)  # below 2p


class TestAchievableRate:
    def test_capacity_corner(self):
        for p in (0.05, 0.1, 0.2, 0.3):
            hp = binary_entropy(p)
            assert achievable_rate(p, hp, hp) == pytest.approx(hp, abs=1e-9)

    def test_zero_receiver_floor(self):
        assert achievable_rate(0.1, binary_entropy(0.1), 0.0) == 0.0

    def test_zero_boundary(self):
        xi_a = rate_tradeoff(0.05, 0.1)  # forces h(2 sigma) = h(p)
        r = achievable_rate(0.1, xi_a, binary_entropy(0.1))
        assert r == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_both_arguments(self):
        p = 0.1
        hp = binary_entropy(p)
        xas = np.linspace(2 * p, hp, 12)
        xbs = np.linspace(0.0, hp, 12)
        grid = [[achievable_rate(p, float(a), float(b)) for b in xbs]
                for a in xas]
        for i in range(len(xas)):
            for jj in range(len(xbs) - 1):
                assert grid[i][jj + 1] >= grid[i][jj] - 1e-12
        for i in range(len(xas) - 1):
            for jj in range(len(xbs)):
                assert grid[i + 1][jj] >= grid[i][jj] - 1e-12


class TestIidComparison:
    def test_degenerate_equality(self):
        p = 0.1
        r, c, gap = iid_rate_vs_capacity(p, p, p)
        assert r == pytest.approx(binary_entropy(p), abs=1e-9)
        assert c == pytest.approx(binary_entropy(p), abs=1e-9)
        assert gap == pytest.approx(0.0, abs=1e-9)

    def test_strict_gap(self):
        r, c, gap = iid_rate_vs_capacity(0.2, 0.1, 0.1)
        assert gap > 1e-6
        assert c > r

    def test_capacity_dominates_on_grid(self):
        p = 0.25
        for p_a in np.linspace(0.16, 0.25, 8):
            if binary_entropy(float(p_a)) < 2 * p:
                continue
            r, c, gap = iid_rate_vs_capacity(p, float(p_a), float(p_a))
            assert gap >= -1e-12
            if abs(p_a - p) > 1e-9:
                assert gap > 0

    def test_domain_rejection(self):
        # h(p_a) below 2p falls outside the tradeoff curve's range
        with pytest.raises(ValueError):
            iid_rate(0.2, 0.01, 0.1)

    @pytest.mark.parametrize("p_a, p_b", [
        (0.0, 0.1), (0.21, 0.1), (0.8, 0.1), (0.1, 0.0), (0.1, 0.21),
        (0.1, 0.8), (0.1, -0.1), (math.nan, 0.1), (0.1, math.nan)])
    def test_bsc_parameters_outside_zero_to_p_refused(self, p_a, p_b):
        # h(0.8) = h(0.2) lies in [2p, h(p)], so the rate formula's own
        # domain check would pass p_a = 0.8 at p = 0.2
        for f in (iid_rate, iid_rate_vs_capacity):
            with pytest.raises(ValueError, match="<= p"):
                f(0.2, p_a, p_b)

    # every p_a with h(p_a) >= 2p, and p_b across (0, p]
    IID_GRID = [(p, p * a, p * b)
                for p in (0.05, 0.1, 0.2, 0.25, 0.3, 0.45)
                for a in (0.5, 0.6, 0.75, 0.9, 1.0)
                for b in (0.01, 0.2, 0.5, 0.8, 1.0)
                if binary_entropy(p * a) >= 2 * p]

    def test_iid_rate_is_the_rate_formula_at_bsc_entropies(self):
        raw = []
        for p, p_a, p_b in self.IID_GRID:
            h_a, h_b = binary_entropy(p_a), binary_entropy(p_b)
            assert iid_rate(p, p_a, p_b) == achievable_rate(p, h_a, h_b)
            r, c, gap = iid_rate_vs_capacity(p, p_a, p_b)
            assert r == _rate_row(p, h_a, [h_b])[0]
            assert gap == c - r
            raw.append(r)
        # the grid holds clamped points, where the two values differ
        assert min(raw) < 0.0 < max(raw) and len(raw) >= 60


class TestIidEntropyFloor:
    def test_substitution(self):
        # mu_n = 8 * 2^(-n^(1/3)), l_np = n (h(p) - log2((1-p)/p) n^(-1/3))
        mu, floor = iid_entropy_floor(1000, 0.1)
        assert mu == pytest.approx(8.0 * 2.0 ** -10, rel=1e-12)
        assert floor == pytest.approx(
            1000 * (binary_entropy(0.1) - math.log2(9.0) / 10), rel=1e-12)

    def test_floor_ratio_limit(self):
        mu, floor = iid_entropy_floor(10 ** 9, 0.1)
        assert floor / 10 ** 9 == pytest.approx(binary_entropy(0.1), abs=1e-2)

    def test_smoothing_vanishes(self):
        mu, _ = iid_entropy_floor(10 ** 6, 0.1)
        assert mu == pytest.approx(8.0 * 2.0 ** -100)
        assert mu < 1e-29

    def test_small_n_degeneracy(self):
        mu, _ = iid_entropy_floor(12, 0.1)
        assert mu > 1.0  # no meaningful smoothing at desk scale

    def test_domain(self):
        with pytest.raises(ValueError):
            iid_entropy_floor(100, 0.5)

    @pytest.mark.parametrize("n", [math.nan, 0.5])
    def test_length_below_one_or_nan_refused(self, n):
        # iid_entropy_floor(nan, 0.1) returned (nan, nan)
        with pytest.raises(ValueError, match="need n >= 1"):
            iid_entropy_floor(n, 0.1)
        assert iid_entropy_floor(1, 0.1)[0] == 4.0


class TestAsymptoticParams:
    @pytest.mark.parametrize("n", [math.nan, 0.5])
    def test_length_below_one_or_nan_refused(self, n):
        with pytest.raises(ValueError, match="need n >= 1"):
            asymptotic_protocol_params(0.1, 0.4, 0.3, 1e-3, n)
        assert asymptotic_protocol_params(0.1, 0.4, 0.3, 1e-3, 1).eps_n \
            == 1.0

    def test_substitution(self):
        # eps_n = n^(-1/3), distance = 2 (s* + e') n,
        # log|C| = (1 - h(2 s* + 2 e') - e') n,
        # log|M| = (xi_b - h(2 s* + 3 e') - e') n
        p, xi_a, xi_b, e, n = 0.1, 0.45, 0.46, 1e-3, 10 ** 6
        s = rate_tradeoff_inverse(xi_a, p)
        params = asymptotic_protocol_params(p, xi_a, xi_b, e, n)
        assert params.eps_n == pytest.approx(0.01, rel=1e-12)
        assert params.distance == pytest.approx(2 * (s + e) * n, rel=1e-12)
        assert params.log_c == pytest.approx(
            (1 - binary_entropy(2 * s + 2 * e) - e) * n, rel=1e-12)
        assert params.log_m == pytest.approx(
            (xi_b - binary_entropy(2 * s + 3 * e) - e) * n, rel=1e-12)
        assert params.feasible

    def test_hiding_exponent_negative_on_grid(self):
        for p in (0.05, 0.1):
            hp = binary_entropy(p)
            for xi_a in np.linspace(2 * p, hp, 6):
                for xi_b in (0.3 * hp, 0.7 * hp, hp):
                    for eps_prime in (1e-3, 1e-2):
                        n = 10 ** 6
                        params = asymptotic_protocol_params(
                            p, float(xi_a), float(xi_b), eps_prime, n)
                        # log|M| + n - log|C| - n xi_b
                        assert params.log_m + n - params.log_c \
                            - n * float(xi_b) < 0

    def test_binding_exponent_negative(self):
        # with sigma = inverse(xi_a) + eps', the sender exponent is
        # tradeoff(sigma) - tradeoff(sigma - eps') < 0 by strict decrease
        p, xi_a, eps_prime = 0.1, 0.35, 1e-3
        sigma = rate_tradeoff_inverse(xi_a, p) + eps_prime
        assert rate_tradeoff(sigma, p) - rate_tradeoff(sigma - eps_prime, p) < 0

    def test_zero_rate_infeasible(self):
        params = asymptotic_protocol_params(0.1, 0.4, 0.0, 1e-3, 10 ** 4)
        assert not params.feasible
        assert params.log_m < 0

    def test_code_rate_consistent_with_gv(self):
        p, xi_a = 0.1, 0.4
        params = asymptotic_protocol_params(p, xi_a, 0.3, 1e-3, 10 ** 5)
        n = 10 ** 5
        d_over_n = params.distance / n
        assert params.log_c / n <= 1 - binary_entropy(d_over_n) + 1e-12


class TestRateSurface:
    def test_corner_and_zero_row(self):
        p = 0.1
        hp = binary_entropy(p)
        pts = rate_surface(p, 9)
        corner = max(pts, key=lambda q: (q.xi_a, q.xi_b))
        assert corner.r == pytest.approx(hp, abs=1e-9)
        assert all(q.r == 0.0 for q in pts if q.xi_b == 0.0)

    def test_zero_contour_location(self):
        # along xi_b = h(p), the rate vanishes up to about 0.81 h(p)
        p = 0.1
        hp = binary_entropy(p)
        boundary = rate_tradeoff(p / 2, p)
        assert achievable_rate(p, boundary - 1e-6, hp) == 0.0
        assert achievable_rate(p, boundary + 1e-3, hp) > 0.0

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.2, 0.3, 0.45])
    def test_every_point_is_achievable_rate(self, p):
        # one inversion per row gives each point's achievable_rate bits
        pts = rate_surface(p, 13)
        assert [q.r.hex() for q in pts] == [
            achievable_rate(p, q.xi_a, q.xi_b).hex() for q in pts]
        assert len({q.xi_a for q in pts}) == 13

    def test_grid_equals_linspace_bit_for_bit(self):
        # the numpy-free axes of rate_surface are the floats np.linspace
        # gives, on both axes, for every step count up to the cap
        ps = np.linspace(0.0024, 0.4976, 200).tolist() + [
            1e-6, 0.1, 0.11, 0.25, 0.3, 0.4999]
        for p in ps:
            hp = binary_entropy(p)
            for start in (2.0 * p, 0.0):
                for steps in (2, 3, 7, 50, 60, 61, 999, 1000):
                    assert _grid(start, hp, steps) == \
                        np.linspace(start, hp, steps).tolist(), (p, steps)

    def test_grid_shape(self):
        pts = rate_surface(0.2, 5)
        assert len(pts) == 25
        with pytest.raises(ValueError):
            rate_surface(0.2, 1)
