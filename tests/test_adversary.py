import math

import numpy as np
import pytest

from usnc.adversary import (binding_success, hiding_advantage,
                            honest_alice_strategy, less_noisy_bob,
                            midpoint_attack)
from usnc.bounds import binding_bound, hiding_bound
from usnc.channel import UsncParams, check_c2, check_c3
from usnc.entropy import cond_min_entropy, min_entropy
from usnc.gf2 import BitString, even_weight_code, hamming_7_4
from usnc.hashing import (enumerate_full_rank_seeds,
                          exact_collision_probability)
from usnc.oracle import typical_intersection_exact
from usnc.protocol import CommitConfig


def weight_string(n, w):
    return BitString((np.arange(n) < w).astype(np.uint8))


@pytest.fixture(scope="module")
def cfg14():
    return CommitConfig(code=even_weight_code(14), hash_m=1, p=0.25, eps=0.05)


@pytest.fixture(scope="module")
def seeds13():
    return enumerate_full_rank_seeds(13, 1)


@pytest.fixture(scope="module")
def cfg74():
    return CommitConfig(code=hamming_7_4(), hash_m=1, p=0.25, eps=0.2)


def certify_sender(strategy, cfg):
    law = strategy.channel.law(strategy.channel.labels[0])
    l_a = min_entropy(law)
    params = UsncParams(n=cfg.n, p=cfg.p, eps_a=0.0, l_a=l_a,
                        eps_b=0.0, l_b=0.0)
    report = check_c2(strategy.channel, params)
    assert report.passed
    return l_a


class TestBindingSuccess:
    def test_honest_strategy_never_equivocates(self, cfg74):
        rng = np.random.default_rng(0)
        strategy = honest_alice_strategy(cfg74, BitString.from01("1"), rng,
                                         n_atoms=8)
        assert binding_success(strategy, cfg74) == 0.0

    def test_uniform_spread_matches_product_form(self, cfg14, seeds13):
        # independent decomposition: Pr[digests differ] * window mass
        w = 6
        x0, x1 = BitString.zeros(14), weight_string(14, w)
        strategy = midpoint_attack(cfg14, x0, x1, 0.5, seeds=seeds13)
        l_a = certify_sender(strategy, cfg14)
        assert l_a == pytest.approx(14.0)
        success = binding_success(strategy, cfg14, for_bound_comparison=True)
        inter = typical_intersection_exact(14, cfg14.p, cfg14.eps, x0, x1)
        p_neq = 1.0 - exact_collision_probability(13, 1)
        assert success == pytest.approx(p_neq * inter / 2 ** 14, rel=1e-12)

    def test_bounded_by_binding_bound(self, cfg14, seeds13):
        for w, spread in [(2, 0.5), (4, 0.25), (6, 0.4)]:
            x0, x1 = BitString.zeros(14), weight_string(14, w)
            strategy = midpoint_attack(cfg14, x0, x1, spread, seeds=seeds13)
            l_a = certify_sender(strategy, cfg14)
            success = binding_success(strategy, cfg14,
                                      for_bound_comparison=True)
            sigma = w / 28.0
            bound = binding_bound(14, cfg14.eps, sigma, cfg14.p, l_a, 0.0)
            assert success <= bound + 1e-12

    def test_far_openings_never_succeed(self, cfg14, seeds13):
        # sigma beyond p + 2 eps: the two typical windows cannot overlap
        for w in (12, 14):
            x0, x1 = BitString.zeros(14), weight_string(14, w)
            strategy = midpoint_attack(cfg14, x0, x1, 0.5, seeds=seeds13)
            certify_sender(strategy, cfg14)
            assert w / 28.0 > cfg14.p + 2 * cfg14.eps
            assert binding_success(strategy, cfg14,
                                   for_bound_comparison=True) == 0.0

    def test_deterministic_channel_refused_in_bound_context(self, cfg14,
                                                            seeds13):
        x0, x1 = BitString.zeros(14), weight_string(14, 2)
        strategy = midpoint_attack(cfg14, x0, x1, 0.0, seeds=seeds13)
        params = UsncParams(n=14, p=cfg14.p, eps_a=0.25, l_a=1.0,
                            eps_b=0.0, l_b=0.0)
        report = check_c2(strategy.channel, params)
        assert not report.passed  # point mass cannot meet a 1-bit floor
        with pytest.raises(ValueError, match="not certified"):
            binding_success(strategy, cfg14, for_bound_comparison=True)
        with pytest.warns(UserWarning, match="not certified"):
            binding_success(strategy, cfg14)

    def test_exact_and_monte_carlo_agree(self):
        cfg = CommitConfig(code=even_weight_code(10), hash_m=1, p=0.25,
                           eps=0.1)
        seeds = enumerate_full_rank_seeds(9, 1)
        x0, x1 = BitString.zeros(10), weight_string(10, 2)
        strategy = midpoint_attack(cfg, x0, x1, 0.3, seeds=seeds)
        exact = binding_success(strategy, cfg, mode="exact")
        trials = 20000
        mc = binding_success(strategy, cfg, mode="mc", trials=trials,
                             rng=np.random.default_rng(1))
        se = math.sqrt(exact * (1 - exact) / trials)
        assert mc == pytest.approx(exact, abs=3.5 * se)


class TestHidingAdvantage:
    def test_identity_view_reveals_everything(self, cfg74):
        strategy = less_noisy_bob(0.0, 7)
        adv = hiding_advantage(strategy, cfg74, BitString.from01("0"),
                               BitString.from01("1"))
        assert adv == pytest.approx(1.0, abs=1e-12)

    def test_constant_view_reveals_nothing(self, cfg74):
        from usnc.adversary import BobStrategy
        from usnc.channel import BobChannel
        strategy = BobStrategy(view_channel=BobChannel.constant_view(7))
        adv = hiding_advantage(strategy, cfg74, BitString.from01("0"),
                               BitString.from01("1"))
        assert adv == pytest.approx(0.0, abs=1e-12)

    def test_equal_messages_indistinguishable(self, cfg74):
        strategy = less_noisy_bob(0.1, 7)
        adv = hiding_advantage(strategy, cfg74, BitString.from01("1"),
                               BitString.from01("1"))
        assert adv == 0.0

    def test_bounded_by_hiding_bound(self, cfg74):
        strategy = less_noisy_bob(0.25, 7)
        joint = strategy.view_channel.joint_with_uniform_input()
        l_b = cond_min_entropy(joint)
        params = UsncParams(n=7, p=0.25, eps_a=0.0, l_a=0.0, eps_b=0.0,
                            l_b=l_b)
        assert check_c3(strategy.view_channel, params).passed
        adv = hiding_advantage(strategy, cfg74, BitString.from01("0"),
                               BitString.from01("1"),
                               for_bound_comparison=True)
        bound = hiding_bound(7, 1, 4, l_b, 0.0)
        assert adv <= bound

    def test_nonvacuous_bound_instance(self, cfg74):
        # a very noisy view pushes the conditional floor high enough that
        # the bound drops below 1 while still dominating the exact advantage
        from usnc.adversary import BobStrategy
        from usnc.channel import BobChannel
        strategy = BobStrategy(view_channel=BobChannel.bsc_view(7, 0.45))
        joint = strategy.view_channel.joint_with_uniform_input()
        l_b = cond_min_entropy(joint)
        params = UsncParams(n=7, p=0.25, eps_a=0.0, l_a=0.0, eps_b=0.0,
                            l_b=l_b)
        assert check_c3(strategy.view_channel, params).passed
        adv = hiding_advantage(strategy, cfg74, BitString.from01("0"),
                               BitString.from01("1"),
                               for_bound_comparison=True)
        bound = hiding_bound(7, 1, 4, l_b, 0.0)
        assert adv <= bound < 1.0

    def test_monotone_in_view_noise(self, cfg74):
        m0, m1 = BitString.from01("0"), BitString.from01("1")
        grid = [0.0, 0.0625, 0.125, 0.1875, 0.25]
        values = [hiding_advantage(less_noisy_bob(pb, 7), cfg74, m0, m1)
                  for pb in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
