"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math

import numpy as np

from usnc.adversary import (binding_success, hiding_advantage, less_noisy_bob,
                            midpoint_attack)
from usnc.bounds import (achievable_rate, binary_entropy, binding_bound,
                         completeness_bound, hiding_bound,
                         iid_rate_vs_capacity, rate_tradeoff,
                         rate_tradeoff_inverse)
from usnc.channel import UsncParams, check_c2, check_c3, typicality_tail_exact
from usnc.entropy import (ClassicalDistribution, cond_min_entropy,
                          min_entropy, smooth_min_entropy)
from usnc.gf2 import (BitString, even_weight_code, hamming_7_4,
                      random_linear_code)
from usnc.hashing import enumerate_full_rank_seeds
from usnc.nqs import (SIN2_PI_8, NqsParams, bounded_storage_success_log2,
                      nqs_channel_params, povm_verify, run_conjugate_channel)
from usnc.oracle import (clipped_bsc_construction, lhl_check,
                         smooth_entropy_lp, verify_intersection_bound)
from usnc.protocol import CommitConfig, estimate_completeness


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print("ACCEPTANCE %2d %-34s %s %s" % (num, name,
                                          "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


def test_criterion_01_intersection_bound_sweep():
    worst_ratio = 0.0
    ok = True
    for n in (8, 10, 12, 14):
        for p in (0.125, 0.25):
            report = verify_intersection_bound(n, p, 0.125)
            ok = ok and report.passed
            worst_ratio = max(worst_ratio, report.max_ratio)
            for row in report.rows:
                if row.sigma > p + 2 * 0.125:
                    ok = ok and row.exact == 0
    _report(1, "intersection bound sweep", ok,
            "max exact/bound ratio %.3g" % worst_ratio)


def test_criterion_02_window_tail_vs_exponential():
    rng = np.random.default_rng(2024)
    triples = [(10 ** 5, 0.1, 0.06), (10 ** 5, 0.25, 0.01)]
    while len(triples) < 50:
        n = int(rng.integers(8, 10 ** 5))
        p = float(rng.uniform(0.02, 0.48))
        eps = float(rng.uniform(0.005, 0.25))
        triples.append((n, p, eps))
    ok = all(typicality_tail_exact(n, p, eps) <= 8.0 * 2.0 ** (-n * eps * eps)
             for n, p, eps in triples)
    _report(2, "window tail below 8*2^(-n eps^2)", ok,
            "%d triples, n up to 1e5" % len(triples))


def test_criterion_03_completeness_monte_carlo():
    n, p, eps, trials = 4096, 0.1, 0.06, 10 ** 5
    code = random_linear_code(n, 16, 1024, np.random.default_rng(1))
    cfg = CommitConfig(code=code, hash_m=8, p=p, eps=eps)
    est = estimate_completeness(cfg, trials, master_seed=20240)
    bound = completeness_bound(n, eps)
    wilson_se = math.sqrt(bound * (1 - bound) / trials)
    ok = est.reject_rate <= bound + 3 * wilson_se
    _report(3, "completeness Monte Carlo", ok,
            "rejects %g <= %g" % (est.reject_rate, bound + 3 * wilson_se))


def test_criterion_04_hiding_exact_desk_scale():
    cfg = CommitConfig(code=hamming_7_4(), hash_m=1, p=0.25, eps=0.2)
    m0, m1 = BitString.from01("0"), BitString.from01("1")
    strategy = less_noisy_bob(0.25, 7)
    joint = strategy.view_channel.joint_with_uniform_input()
    l_b = cond_min_entropy(joint)
    params = UsncParams(n=7, p=0.25, eps_a=0.0, l_a=0.0, eps_b=0.0, l_b=l_b)
    certified = check_c3(strategy.view_channel, params).passed
    adv = hiding_advantage(strategy, cfg, m0, m1, for_bound_comparison=True)
    bound = hiding_bound(7, cfg.hash_m, cfg.code.k, l_b, 0.0)
    # identity-view anchor: certifiable only at a zero entropy floor, and
    # hiding then collapses completely
    leaky = less_noisy_bob(0.0, 7)
    zero_floor = UsncParams(n=7, p=0.25, eps_a=0.0, l_a=0.0, eps_b=0.0,
                            l_b=0.0)
    check_c3(leaky.view_channel, zero_floor)
    anchor = hiding_advantage(leaky, cfg, m0, m1, for_bound_comparison=True)
    ok = certified and adv <= bound and abs(anchor - 1.0) <= 1e-12
    _report(4, "hiding exactness at desk scale", ok,
            "advantage %.6g <= bound %.6g; identity-view anchor %.3g"
            % (adv, bound, anchor))


def test_criterion_05_binding_harness_grid():
    cfg = CommitConfig(code=even_weight_code(14), hash_m=1, p=0.25, eps=0.05)
    seeds = enumerate_full_rank_seeds(13, 1)
    x0 = BitString.zeros(14)
    ok = True
    details = []
    for w in (2, 4, 6, 8, 10, 12, 14):
        x1 = BitString((np.arange(14) < w).astype(np.uint8))
        sigma = w / 28.0
        for spread in (0.5, 0.35, 0.25):
            strategy = midpoint_attack(cfg, x0, x1, spread, seeds=seeds)
            l_a = min_entropy(strategy.channel.law(strategy.channel.labels[0]))
            params = UsncParams(n=14, p=0.25, eps_a=0.0, l_a=l_a,
                                eps_b=0.0, l_b=0.0)
            certified = check_c2(strategy.channel, params).passed
            success = binding_success(strategy, cfg,
                                      for_bound_comparison=True)
            bound = binding_bound(14, cfg.eps, sigma, cfg.p, l_a, 0.0)
            ok = ok and certified and success <= bound + 1e-12
            if sigma > cfg.p + 2 * cfg.eps:
                ok = ok and success == 0.0
        details.append("w=%d" % w)
    _report(5, "binding midpoint-attack grid", ok,
            "21 certified strategies, zero beyond sigma = p + 2 eps")


def test_criterion_06_leftover_hash_desk_check():
    strategy = less_noisy_bob(0.25, 7)
    exact = lhl_check(hamming_7_4(), 1, strategy.view_channel)  # all 15 seeds
    sampled = lhl_check(hamming_7_4(), 1, strategy.view_channel, seeds=128,
                        rng=np.random.default_rng(6))
    ok = exact.passed and sampled.passed and sampled.n_seeds >= 100
    _report(6, "leftover-hash inequality", ok,
            "lhs %.6g <= rhs %.6g (%d sampled seeds)"
            % (sampled.lhs, sampled.rhs, sampled.n_seeds))


def test_criterion_07_rate_theory_reproduction():
    h01 = binary_entropy(0.1)
    ok = abs(h01 - 0.469) < 5e-4
    for p in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
        hp = binary_entropy(p)
        ok = ok and abs(achievable_rate(p, hp, hp) - hp) <= 1e-9
    boundary = rate_tradeoff(0.05, 0.1)
    ok = ok and abs(boundary - 0.379) < 1e-3
    ok = ok and 0.79 < boundary / h01 < 0.82
    ok = ok and achievable_rate(0.1, boundary, h01) <= 1e-9
    for p_a in (0.15, 0.2, 0.25):
        r, c, gap = iid_rate_vs_capacity(0.25, p_a, p_a)
        ok = ok and gap >= -1e-12
        ok = ok and ((abs(p_a - 0.25) < 1e-12) == (abs(gap) <= 1e-9))
    _report(7, "rate theory reproduction", ok,
            "h(0.1)=%.4f, zero boundary %.4f = %.3f h(p)"
            % (h01, boundary, boundary / h01))


def test_criterion_08_tradeoff_roundtrip():
    worst = 0.0
    for p in (0.05, 0.1, 0.2):
        ys = np.linspace(2 * p, binary_entropy(p), 100)
        for y in ys:
            err = abs(rate_tradeoff(rate_tradeoff_inverse(float(y), p), p) - y)
            worst = max(worst, err)
    _report(8, "tradeoff-curve roundtrip", worst <= 1e-9,
            "max |g(g^-1(y)) - y| = %.3g" % worst)


def test_criterion_09_nqs_honest_channel():
    rng = np.random.default_rng(9)
    n = 10 ** 6
    x = BitString.random(n, rng)
    run = run_conjugate_channel(x, rng)
    flips = run.z.bits != x.bits
    ok = abs(flips.mean() - SIN2_PI_8) <= 0.002
    for t in (0, 1):
        for tp in (0, 1):
            cell = (run.theta == t) & (run.theta_prime == tp)
            ok = ok and abs(flips[cell].mean() - SIN2_PI_8) <= 0.002
    povm = povm_verify()
    ok = ok and povm.passed
    _report(9, "storage-channel honest case", ok,
            "flip rate %.5f vs %.5f; operator check %s"
            % (flips.mean(), SIN2_PI_8, povm.passed))


def test_criterion_10_storage_params_and_rate():
    n, d = 10 ** 9, 100
    lam = n ** (-1.0 / 3.0)
    theta = nqs_channel_params(NqsParams(
        n=n, lambda_a=lam, lambda_b=lam,
        p_succ_log2=lambda bits: bounded_storage_success_log2(bits, d)))
    h_round = binary_entropy(SIN2_PI_8)
    ok = abs(theta.l_a / n - h_round) <= 1e-2
    ok = ok and abs(theta.l_b / n - 0.5) <= 1e-2
    rate = achievable_rate(SIN2_PI_8, h_round, 0.5)
    ok = ok and rate == 0.5
    _report(10, "storage-model parameter limits", ok,
            "l_a/n %.4f, l_b/n %.4f, composed rate %.12g"
            % (theta.l_a / n, theta.l_b / n, rate))


def test_criterion_11_clipped_construction():
    ok = True
    for n in (10, 14):
        res = clipped_bsc_construction(n, 0.1, 0.1)
        ok = ok and abs(res.gtd_actual - res.tail) <= 1e-12
        ok = ok and res.min_entropy_per_input >= res.entropy_floor - 1e-9
        ok = ok and res.cond_min_entropy >= res.entropy_floor - 1e-9
    _report(11, "clipped-channel construction", ok, "n in {10, 14}")


def test_criterion_12_smoothing_never_beaten():
    # two-sided against the exact LP: the analytic optimum is neither beaten
    # nor undercut, so certification cannot rest on a value that is too low
    rng = np.random.default_rng(12)
    worst_gap = 0.0
    for _ in range(20):
        size = int(rng.integers(16, 1 << 10))
        shape = float(rng.uniform(0.5, 3.0))
        v = rng.random(size) ** shape
        p = ClassicalDistribution(v / v.sum())
        eps = float(rng.uniform(0.02, 0.3))
        gap = abs(smooth_entropy_lp(p, eps) - smooth_min_entropy(p, eps))
        worst_gap = max(worst_gap, gap)
    _report(12, "smoothing optimum equals the LP", worst_gap <= 1e-9,
            "worst |LP - analytic| = %.3g" % worst_gap)
