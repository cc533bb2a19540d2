import math

import numpy as np
import pytest

from usnc.bounds import achievable_rate, binary_entropy, completeness_bound
from usnc.gf2 import BitString, random_linear_code
from usnc.nqs import (COS2_PI_8, SIN2_PI_8, NqsParams, azuma_min_entropy,
                      bounded_storage_success_log2, measure_prob,
                      nqs_channel_params, povm_verify, run_conjugate_channel)
from usnc.protocol import (ACC, CommitConfig, alice_commit, bob_receive,
                           bob_verify)


class TestMeasureProb:
    def test_aligned_basis_overlap(self):
        assert measure_prob(0, 0, 0) == pytest.approx(COS2_PI_8, abs=1e-12)
        assert COS2_PI_8 == pytest.approx(0.853553390593, abs=1e-12)

    def test_outcomes_complete(self):
        # +1/-1 outcome probabilities from orthogonal eigenvectors sum to 1
        for t in (0, 1):
            for tp in (0, 1):
                for x in (0, 1):
                    p0 = measure_prob(t, tp, x)
                    assert 0.0 <= p0 <= 1.0

    def test_corrected_flip_rate_identity(self):
        # P(Z != x) = sin^2(pi/8) in every basis cell, Z = K xor (theta theta')
        for t in (0, 1):
            for tp in (0, 1):
                for x in (0, 1):
                    p_k0 = measure_prob(t, tp, x)
                    z_of_k = {k: k ^ (t & tp) for k in (0, 1)}
                    p_flip = sum((p_k0 if k == 0 else 1 - p_k0)
                                 for k in (0, 1) if z_of_k[k] != x)
                    assert p_flip == pytest.approx(SIN2_PI_8, abs=1e-12)

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            measure_prob(2, 0, 0)


class TestConjugateChannelRun:
    def test_deterministic_transcript(self):
        x = BitString.random(64, np.random.default_rng(0))
        r1 = run_conjugate_channel(x, np.random.default_rng(7))
        r2 = run_conjugate_channel(x, np.random.default_rng(7))
        assert r1.z == r2.z
        assert np.array_equal(r1.theta, r2.theta)
        assert np.array_equal(r1.k, r2.k)

    def test_flip_rate_monte_carlo(self):
        rng = np.random.default_rng(1)
        x = BitString.random(10 ** 5, rng)
        run = run_conjugate_channel(x, rng)
        rate = np.count_nonzero(run.z.bits != x.bits) / len(x)
        assert rate == pytest.approx(SIN2_PI_8, abs=0.005)

    def test_flip_rate_per_basis_cell(self):
        rng = np.random.default_rng(2)
        x = BitString.random(2 * 10 ** 5, rng)
        run = run_conjugate_channel(x, rng)
        flips = run.z.bits != x.bits
        for t in (0, 1):
            for tp in (0, 1):
                cell = (run.theta == t) & (run.theta_prime == tp)
                assert flips[cell].mean() == pytest.approx(SIN2_PI_8,
                                                           abs=0.01)


class TestPovm:
    def test_verification_passes(self):
        report = povm_verify()
        assert report.passed
        assert report.completeness_error <= 1e-12
        assert report.min_eigenvalue >= -1e-12
        assert report.max_eigenvalue_err <= 1e-12

    def test_max_eigenvalue_value(self):
        # both operators peak at (1 + sqrt(2)/2) / 2
        assert COS2_PI_8 == pytest.approx((1 + math.sqrt(2) / 2) / 2,
                                          abs=1e-15)

    def test_per_round_entropy_floor_identity(self):
        # the uncertainty constant feeds the accumulation as a Shannon
        # floor; h(cos^2) = h(sin^2) by symmetry of the binary entropy
        assert binary_entropy(COS2_PI_8) == pytest.approx(
            binary_entropy(SIN2_PI_8), abs=1e-15)


class TestAzuma:
    def test_bound_formula(self):
        bound, eps = azuma_min_entropy(0.6, 1000, 0.1, 2)
        assert bound == pytest.approx((0.6 - 0.2) * 1000)
        want = math.exp(-0.01 * 1000 / (32 * math.log2(2 / 0.1) ** 2))
        assert eps == pytest.approx(want)

    def test_substitution_large_n(self):
        _, eps = azuma_min_entropy(0.6, 10 ** 6, 0.01, 2)
        want = math.exp(-100.0 / (32 * math.log2(200.0) ** 2))
        assert eps == pytest.approx(want)

    def test_negative_bound_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamp"):
            bound, _ = azuma_min_entropy(0.6, 100, 0.4, 2)
        assert bound == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            azuma_min_entropy(0.6, 100, 0.6, 2)


class TestBoundedStorage:
    def test_fits_exactly(self):
        assert 2.0 ** bounded_storage_success_log2(100.0, 100) == 1.0

    def test_excess_bits(self):
        assert 2.0 ** bounded_storage_success_log2(110.0, 100) \
            == pytest.approx(2.0 ** -10)

    def test_never_above_one(self):
        assert 2.0 ** bounded_storage_success_log2(5.0, 100) == 1.0


class TestChannelParams:
    def _params(self, n, d):
        lam = n ** (-1.0 / 3.0)
        return NqsParams(
            n=n, lambda_a=lam, lambda_b=lam,
            p_succ_log2=lambda bits: bounded_storage_success_log2(bits, d))

    def test_limits_at_large_n(self):
        n = 10 ** 9
        theta = nqs_channel_params(self._params(n, d=100))
        assert theta.p == SIN2_PI_8
        assert theta.l_a / n == pytest.approx(binary_entropy(SIN2_PI_8),
                                              abs=1e-2)
        assert theta.l_b / n == pytest.approx(0.5, abs=1e-2)

    def test_substitution_with_smoothing_below_one(self):
        # l_a = (h(sin^2 pi/8) - 2 lam_a) n,
        # eps_a = exp(-lam_a^2 n / (32 log2(2/lam_a)^2)),
        # l_b = -log2 p_succ((1/2 - lam_b) n) = (1/2 - lam_b) n - d,
        # eps_b = 2 exp(-(lam_b/4)^2 n / (32 (2 + log2(4/lam_b))^2))
        n, lam_a, lam_b, d = 2 ** 21, 0.01, 0.25, 100
        theta = nqs_channel_params(NqsParams(
            n=n, lambda_a=lam_a, lambda_b=lam_b,
            p_succ_log2=lambda bits: bounded_storage_success_log2(bits, d)))
        eps_a = math.exp(-lam_a ** 2 * n / (32 * math.log2(2 / lam_a) ** 2))
        eps_b = 2 * math.exp(-(lam_b / 4) ** 2 * n
                             / (32 * (2 + math.log2(4 / lam_b)) ** 2))
        assert 0.5 < eps_a < 1.0 and 0.0 < eps_b < 0.01
        assert theta.eps_a == pytest.approx(eps_a, rel=1e-12)
        assert theta.eps_b == pytest.approx(eps_b, rel=1e-12)
        assert theta.l_a == pytest.approx(
            (binary_entropy(SIN2_PI_8) - 2 * lam_a) * n, rel=1e-12)
        assert theta.l_b == (0.5 - lam_b) * n - d

    def test_smoothing_decreases_with_n(self):
        # the smoothing terms vanish, but only at a cube-root-over-log^2 pace
        values = [nqs_channel_params(self._params(n, d=100)).eps_a
                  for n in (10 ** 9, 10 ** 12, 10 ** 15)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.05

    def test_tensor_channel_floor(self):
        # p_succ <= 2^(-gamma(R/nu) n nu) lifts to l_b >= n nu gamma(R/nu);
        # the exponent is far below float range, so feed the log2 form
        n, nu, gamma = 10 ** 4, 0.5, lambda r: 0.3 * r
        lam = 0.05

        def p_succ_log2(bits):
            rate = bits / n
            return -gamma(rate / nu) * n * nu

        theta = nqs_channel_params(NqsParams(
            n=n, lambda_a=lam, lambda_b=lam, p_succ_log2=p_succ_log2))
        want = n * nu * gamma((0.5 - lam) / nu)
        assert theta.l_b == pytest.approx(want)
        assert math.isfinite(theta.l_b)

    def test_zero_success_inf_sentinel(self):
        params = NqsParams(n=100, lambda_a=0.1, lambda_b=0.1,
                           p_succ_log2=lambda bits: -math.inf)
        with pytest.warns(UserWarning, match="inf"):
            theta = nqs_channel_params(params)
        assert math.isinf(theta.l_b)

    @pytest.mark.parametrize("value", [0.5, math.nan])
    def test_success_log2_outside_domain_refused(self, value):
        params = NqsParams(n=100, lambda_a=0.1, lambda_b=0.1,
                           p_succ_log2=lambda bits: value)
        with pytest.raises(ValueError, match="<= 0"):
            nqs_channel_params(params)

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            NqsParams(n=10, lambda_a=0.5, lambda_b=0.1,
                      p_succ_log2=lambda b: 0.0)


class TestComposedCommitment:
    def test_storage_rate_is_one_half(self):
        p = SIN2_PI_8
        rate = achievable_rate(p, binary_entropy(p), 0.5)
        assert rate == 0.5  # tradeoff inverse of h(p) is exactly zero

    def test_commitment_over_conjugate_channel(self):
        # the storage-based channel feeds the commit phase as an honest BSC
        n = 1024
        code = random_linear_code(n, 12, 128, np.random.default_rng(3))
        cfg = CommitConfig(code=code, hash_m=4, p=SIN2_PI_8, eps=0.1)
        rejects = 0
        trials = 400
        for i in range(trials):
            rng = np.random.default_rng([31, i])
            m = BitString.random(4, rng)
            opening, wire, xbar = alice_commit(m, cfg, rng)
            t = bob_receive(wire, run_conjugate_channel(xbar, rng).z, cfg)
            rejects += bob_verify(t, m, opening.x, cfg) != ACC
        assert rejects / trials <= completeness_bound(n, 0.1)
