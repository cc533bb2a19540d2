import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import smooth_entropy_lp
from usnc.entropy import (ClassicalDistribution, JointDistribution,
                          cond_min_entropy, gtd, min_entropy,
                          smooth_cond_min_entropy, smooth_min_entropy)


def dist(*mass):
    return ClassicalDistribution(list(mass))


def uniform(nbits):
    return ClassicalDistribution(np.full(1 << nbits, 2.0 ** -nbits))


def point_mass(size, index):
    return ClassicalDistribution(np.eye(size)[index])


class TestGtd:
    def test_metric_identity(self):
        p = dist(0.3, 0.7)
        assert gtd(p, p) == 0.0

    def test_disjoint_support(self):
        assert gtd(dist(1.0, 0.0), dist(0.0, 1.0)) == 1.0

    def test_subnormalized_example(self):
        assert gtd(dist(0.5, 0.5), dist(0.4, 0.4)) == pytest.approx(0.2)

    def test_index_mismatch(self):
        with pytest.raises(ValueError):
            gtd(dist(1.0), dist(0.5, 0.5))

    @pytest.mark.parametrize("entry,kind", [
        (math.nan, "NaN"), (math.inf, "infinite")], ids=["nan", "inf"])
    def test_non_finite_result_refused(self, entry, kind):
        # raw vectors skip the mass check, so the result is what is tested
        for p, q in (([entry, 0.5], [0.5, 0.5]), ([0.5, 0.5], [0.5, entry])):
            with pytest.raises(ValueError,
                               match="^%s probability mass$" % kind):
                gtd(p, q)

    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, size, rnd):
        def rand_dist():
            v = np.array([rnd.random() for _ in range(size)]) + 1e-9
            return ClassicalDistribution(v / v.sum() * (0.2 + 0.8 * rnd.random()))
        p, q, r = rand_dist(), rand_dist(), rand_dist()
        assert gtd(p, r) <= gtd(p, q) + gtd(q, r) + 1e-12


class TestMinEntropy:
    def test_uniform(self):
        assert min_entropy(uniform(3)) == 3.0

    def test_point_mass(self):
        assert min_entropy(point_mass(4, 2)) == 0.0

    def test_point_mass_is_positive_zero(self):
        # -log2(1.0) is -0.0, which prints as "-0"
        for dist_ in (point_mass(4, 2), dist(1.0)):
            assert math.copysign(1.0, min_entropy(dist_)) == 1.0
        assert math.copysign(1.0, smooth_min_entropy(dist(1.0), 0.0)) == 1.0

    def test_direct(self):
        assert min_entropy(dist(0.5, 0.25, 0.25)) == 1.0

    def test_zero_distribution(self):
        with pytest.raises(ValueError):
            min_entropy(dist(0.0, 0.0))


class TestCondMinEntropy:
    def test_independent_constant_side(self):
        j = JointDistribution(np.full((8, 1), 1 / 8))
        assert cond_min_entropy(j) == 3.0

    def test_perfectly_correlated(self):
        j = JointDistribution(np.eye(4) / 4)
        assert cond_min_entropy(j) == 0.0
        assert math.copysign(1.0, cond_min_entropy(j)) == 1.0
        assert math.copysign(1.0, smooth_cond_min_entropy(j, 0.0)) == 1.0

    def test_bsc_one_bit(self):
        j = JointDistribution([[0.375, 0.125], [0.125, 0.375]])
        assert cond_min_entropy(j) == pytest.approx(-np.log2(0.75))


class TestSmoothMinEntropy:
    def test_no_smoothing(self):
        p = dist(0.5, 0.3, 0.2)
        assert smooth_min_entropy(p, 0.0) == min_entropy(p)

    def test_two_point_example(self):
        assert smooth_min_entropy(dist(0.5, 0.5), 0.2) == \
            pytest.approx(-np.log2(0.4))

    def test_point_mass_example(self):
        assert smooth_min_entropy(point_mass(2, 0), 0.5) == \
            pytest.approx(1.0)

    def test_eps_at_total_mass_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            smooth_min_entropy(dist(0.3, 0.2), 0.5)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(0)
        v = rng.random(32)
        p = ClassicalDistribution(v / v.sum())
        values = [smooth_min_entropy(p, e)
                  for e in np.linspace(0.0, 0.9, 15)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_uniform_closed_form(self):
        # capping a uniform 2^t-point distribution lowers every entry equally
        for t, eps in [(3, 0.25), (5, 0.1)]:
            p = uniform(t)
            want = t - np.log2(1.0 - eps)
            assert smooth_min_entropy(p, eps) == pytest.approx(want)

    def test_capped_witness_sits_on_ball_boundary(self):
        # the optimizer's implied witness q = min(p, t*) spends the whole
        # distance budget and realizes the reported entropy
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.random(int(rng.integers(2, 40)))
            p = ClassicalDistribution(v / v.sum())
            eps = float(rng.uniform(0.01, 0.9))
            h = smooth_min_entropy(p, eps)
            t_star = 2.0 ** -h
            q = np.minimum(p.mass, t_star)
            assert gtd(p, ClassicalDistribution(q)) == pytest.approx(eps)
            assert q.max() == pytest.approx(t_star)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_never_beaten_by_search(self, eps):
        # two-sided: the exact LP neither beats nor falls short of the cap
        rng = np.random.default_rng(42)
        for _ in range(5):
            size = int(rng.integers(3, 13))
            v = rng.random(size) ** 2
            p = ClassicalDistribution(v / v.sum())
            analytic = smooth_min_entropy(p, eps)
            assert abs(smooth_entropy_lp(p, eps) - analytic) <= 1e-9


class TestSmoothCondMinEntropy:
    def test_no_smoothing(self):
        j = JointDistribution([[0.375, 0.125], [0.125, 0.375]])
        assert smooth_cond_min_entropy(j, 0.0) == cond_min_entropy(j)

    def test_independent_uniform_stays_maximal(self):
        j = JointDistribution(np.full((8, 2), 1 / 16))
        for eps in (0.0, 0.1, 0.3):
            assert smooth_cond_min_entropy(j, eps) >= 3.0 - 1e-12

    def test_monotone_and_dominates_plain(self):
        rng = np.random.default_rng(1)
        m = rng.random((4, 4))
        j = JointDistribution(m / m.sum())
        base = cond_min_entropy(j)
        values = [smooth_cond_min_entropy(j, e)
                  for e in np.linspace(0.0, 0.5, 11)]
        assert values[0] == pytest.approx(base)
        assert all(v >= base - 1e-12 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            nx, nz = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            j = rng.random((nx, nz))
            j /= j.sum() * float(rng.uniform(1.0, 1.5))
            eps = float(rng.uniform(0.02, 0.2))
            joint = JointDistribution(j)
            assert smooth_cond_min_entropy(joint, eps) == pytest.approx(
                smooth_entropy_lp(joint, eps), abs=1e-9)

    def test_too_large_refused(self):
        with pytest.raises(ValueError, match="2\\^20"):
            JointDistribution(np.zeros((1 << 11, 1 << 11)))


class TestValidation:
    def test_negative_mass(self):
        with pytest.raises(ValueError, match="negative"):
            ClassicalDistribution([0.5, -0.1])

    @pytest.mark.parametrize("make, mass", [
        (ClassicalDistribution, [math.nan, 0.5]),
        (JointDistribution, [[0.25, 0.25], [0.25, math.nan]])],
        ids=["distribution", "joint"])
    def test_nan_mass_refused(self, make, mass):
        # NaN compares false both below zero and above a total of 1
        with pytest.raises(ValueError, match="^NaN probability mass$"):
            make(mass)

    def test_excess_mass(self):
        with pytest.raises(ValueError, match="exceeds"):
            ClassicalDistribution([0.9, 0.2])

    def test_joint_shape(self):
        with pytest.raises(ValueError):
            JointDistribution([0.5, 0.5])


HALF_QUARTERS = [0.5, 0.25, 0.25]


@pytest.mark.parametrize("smooth, law", [
    (smooth_min_entropy, ClassicalDistribution(HALF_QUARTERS)),
    (smooth_cond_min_entropy, JointDistribution(np.diag(HALF_QUARTERS))),
    (smooth_entropy_lp, ClassicalDistribution(HALF_QUARTERS)),
], ids=["smooth_min_entropy", "smooth_cond_min_entropy", "smooth_entropy_lp"])
@pytest.mark.parametrize("eps", [math.nan, -0.1])
def test_bad_radius_refused(smooth, law, eps):
    with pytest.raises(ValueError, match="eps must be nonnegative"):
        smooth(law, eps)
