import math
import pathlib

import numpy as np
import pytest

from scipy.special import xlogy

from usnc import oracle
from usnc.adversary import less_noisy_bob
from usnc.bounds import intersection_bound
from usnc.channel import (BobChannel, bsc_law_dense, typical_window,
                          typicality_tail_exact)
from usnc.entropy import (ClassicalDistribution, JointDistribution,
                          cond_min_entropy, min_entropy,
                          smooth_cond_min_entropy, smooth_min_entropy)
from usnc.gf2 import BitString, all_bits, even_weight_code, hamming_7_4
from usnc.hashing import digest_table, enumerate_full_rank_seeds, sample_seed
from usnc.oracle import (clipped_bsc_construction, lhl_check,
                         smooth_entropy_lp, typical_intersection_exact,
                         verify_intersection_bound)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "oracle_golden.txt"


def weight_string(n, w):
    return BitString((np.arange(n) < w).astype(np.uint8))


class TestTypicalIntersection:
    def test_self_intersection_is_window_binomial_sum(self):
        n, p, eps = 12, 0.25, 0.125
        x = BitString.zeros(n)
        direct = sum(math.comb(n, w) for w in range(n + 1)
                     if n * (p - eps) <= w <= n * (p + eps))
        assert typical_intersection_exact(n, p, eps, x, x) == direct

    def test_far_pairs_empty(self):
        n, p, eps = 12, 0.125, 0.0625
        x = BitString.zeros(n)
        for w in range(n + 1):
            if w / (2 * n) > p + 2 * eps:
                assert typical_intersection_exact(n, p, eps, x,
                                                  weight_string(n, w)) == 0

    def test_weight_four_instance_below_bound(self):
        n, p, eps = 12, 0.25, 0.125
        count = typical_intersection_exact(n, p, eps, BitString.zeros(n),
                                           weight_string(n, 4))
        assert count <= intersection_bound(n, p, eps, 4 / (2 * n))

    def test_translation_invariance(self):
        n, p, eps = 10, 0.2, 0.1
        rng = np.random.default_rng(0)
        x, y, t = (BitString.random(n, rng) for _ in range(3))
        assert typical_intersection_exact(n, p, eps, x, y) == \
            typical_intersection_exact(n, p, eps, x ^ t, y ^ t)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            typical_intersection_exact(21, 0.2, 0.1, BitString.zeros(21),
                                       BitString.zeros(21))


class TestVerifyIntersectionBound:
    @pytest.mark.parametrize("n, p", [(12, 0.25), (10, 0.125)])
    def test_sweep_passes(self, n, p):
        report = verify_intersection_bound(n, p, 0.125)
        assert report.passed
        assert report.max_ratio <= 1.0
        for row in report.rows:
            assert row.exact <= row.bound
            if row.sigma > p + 2 * 0.125:
                assert row.exact == 0

    @pytest.mark.parametrize("n, p, eps", [(1, 0.25, 0.125), (7, 0.1, 0.2),
                                           (12, 0.25, 0.125),
                                           (16, 0.125, 0.0625)])
    def test_counts_equal_pairwise_reference(self, n, p, eps):
        report = verify_intersection_bound(n, p, eps)
        assert [row.exact for row in report.rows] == [
            typical_intersection_exact(n, p, eps, BitString.zeros(n),
                                       weight_string(n, w))
            for w in range(n + 1)]

    def test_max_ratio_is_tightness_diagnostic(self):
        report = verify_intersection_bound(12, 0.25, 0.125)
        assert 0.0 < report.max_ratio < 0.05  # loose but sound at n=12


class TestClippedConstruction:
    @pytest.mark.parametrize("n, p, eps", [(10, 0.1, 0.1), (12, 0.25, 0.08)])
    def test_distance_equals_window_tail(self, n, p, eps):
        res = clipped_bsc_construction(n, p, eps, with_conditional=False)
        assert res.gtd_actual == pytest.approx(
            typicality_tail_exact(n, p, eps), abs=1e-14)

    def test_entropy_floors(self):
        res = clipped_bsc_construction(10, 0.1, 0.1)
        assert res.min_entropy_per_input >= res.entropy_floor - 1e-12
        assert res.cond_min_entropy >= res.entropy_floor - 1e-12

    def test_conditional_never_below_per_input(self):
        res = clipped_bsc_construction(8, 0.25, 0.1)
        assert res.cond_min_entropy >= res.entropy_floor - 1e-12
        assert res.cond_min_entropy <= res.min_entropy_per_input + 1e-12


def float_gather_cond_min_entropy(n, p, lo, hi):
    """Reference clipped conditional min-entropy: gathers the float64 mass
    of every (z, x) distance and takes its maximum per output z."""
    w = np.arange(n + 1, dtype=np.float64)
    pmf_w = np.exp(xlogy(w, p) + xlogy(n - w, 1.0 - p))
    pmf_w = np.where((w >= lo) & (w <= hi), pmf_w, 0.0)
    size = 1 << n
    x_ints = np.arange(size, dtype=np.uint32)
    chunk = max(1, (1 << 22) // size)
    total = 0.0
    for start in range(0, size, chunk):
        zc = np.arange(start, min(start + chunk, size), dtype=np.uint32)
        dists = np.bitwise_count(zc[:, None] ^ x_ints[None, :])
        total += float(pmf_w[dists].max(axis=1).sum())
    return -float(np.log2(total / size))


def _window_nonempty(n, p, eps):
    lo, hi = typical_window(n, p, eps)
    return lo <= hi


CLIPPED_GRID = [(n, p, eps) for n in (1, 4, 7, 8, 9, 10, 12)
                for p in (0.05, 0.1, 0.25, 0.5) for eps in (0.05, 0.1, 0.2)
                if _window_nonempty(n, p, eps)]
CLIPPED_GRID += [(13, 0.1, 0.1), (14, 0.1, 0.1)]


class TestClippedRankGather:
    """The clipped oracle's byte-popcount kernel and presence scan against
    the float64 gather of every pair's mass."""

    @pytest.mark.parametrize("n, p, eps", CLIPPED_GRID)
    def test_bit_identical_to_float_gather(self, n, p, eps):
        lo, hi = typical_window(n, p, eps)
        got = oracle._clipped_cond_min_entropy(n, p, lo, hi)
        assert got == float_gather_cond_min_entropy(n, p, lo, hi)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("n", [9, 13])
    def test_row_blocks_neither_drop_nor_repeat_rows(self, monkeypatch, n,
                                                     rows):
        # 3 rows leave a short last block; 1 row makes every row its own
        monkeypatch.setattr(oracle, "_CLIPPED_BLOCK_PAIRS", rows << n)
        lo, hi = typical_window(n, 0.1, 0.1)
        got = oracle._clipped_cond_min_entropy(n, 0.1, lo, hi)
        assert got == float_gather_cond_min_entropy(n, 0.1, lo, hi)

    def test_bit_identical_to_float_gather_at_sixteen_bits(self):
        # the float gather's value, recorded: at n = 16 it takes about 30 s
        lo, hi = typical_window(16, 0.1, 0.1)
        got = oracle._clipped_cond_min_entropy(16, 0.1, lo, hi)
        assert got == 2.4320494951208156

    # n = 6, window 1..3 of p = 0.1: distance 1 has the top mass
    PMF = np.where((np.arange(7) >= 1) & (np.arange(7) <= 3),
                   0.1 ** np.arange(7) * 0.9 ** (6 - np.arange(7)), 0.0)

    @pytest.mark.parametrize("rows", [
        [[0, 2, 3, 2], [1, 1, 0, 6], [3, 3, 3, 3]],   # rows miss distance 1
        [[0, 4, 5, 6], [6, 6, 6, 6], [2, 0, 4, 1]],   # miss the whole window
        [[1, 2, 3, 0], [0, 1, 2, 3], [3, 2, 1, 0]],   # every row has all
    ])
    def test_scan_equals_gather_when_rows_miss_distances(self, rows):
        dists = np.array(rows, dtype=np.uint8)
        got = oracle._top_mass_per_row(dists, self.PMF)
        assert np.array_equal(got, self.PMF[dists].max(axis=1))


def lhl_loop_reference(code, hash_m, view_law, seeds):
    """(lhs, h_min) of the leftover-hash check by the per-codeword loop the
    table gather replaced: each codeword encoded and its view law computed
    on its own by ``view_law``, then the same sums over the seed stack."""
    laws = np.stack([view_law(code.encode(BitString(u)))
                     for u in all_bits(code.k)])
    ncw = laws.shape[0]
    h_min = cond_min_entropy(JointDistribution(laws / ncw))
    target = np.tile(laws.mean(axis=0) / (1 << hash_m), (1 << hash_m, 1))
    dist_sum = 0.0
    for seed in seeds:
        per_digest = np.zeros(((1 << hash_m), laws.shape[1]))
        np.add.at(per_digest, digest_table(seed), laws / ncw)
        dist_sum += float(np.abs(per_digest - target).sum())
    return dist_sum / len(seeds), h_min


class TestLhlCheck:
    @pytest.mark.parametrize("code, hash_m, sampled", [
        (hamming_7_4(), 1, None), (hamming_7_4(), 3, None),
        (even_weight_code(7), 1, None), (even_weight_code(7), 3, 200)],
        ids=["hamming74-m1", "hamming74-m3", "even7-m1", "even7-m3-sampled"])
    @pytest.mark.parametrize("p_b", [0.0, 0.25, None],
                             ids=["pb0", "pb0.25", "constant"])
    def test_table_rows_equal_encode_law_loop(self, code, hash_m, sampled,
                                              p_b):
        # even:7 at m = 3 has 234,360 seeds; a sample keeps the walk short
        if p_b is None:
            view, view_law = BobChannel.constant_view(code.n), \
                lambda x: np.ones(1)
        else:
            view = less_noisy_bob(p_b, code.n).view_channel
            view_law = lambda x: bsc_law_dense(code.n, x, p_b).mass
        if sampled is None:
            res = lhl_check(code, hash_m, view)
            seeds = enumerate_full_rank_seeds(code.k, hash_m)
        else:
            res = lhl_check(code, hash_m, view, seeds=sampled,
                            rng=np.random.default_rng(3))
            rng = np.random.default_rng(3)
            seeds = [sample_seed(code.k, hash_m, rng).matrix
                     for _ in range(sampled)]
        lhs, h_min = lhl_loop_reference(code, hash_m, view_law, seeds)
        assert res.n_seeds == len(seeds)
        assert res.lhs == lhs
        assert res.h_min == h_min

    @pytest.mark.parametrize("per_block", [1, 7])
    @pytest.mark.parametrize("code, sampled", [
        (hamming_7_4(), None), (even_weight_code(7), 200)],
        ids=["hamming74-m3", "even7-m3-sampled"])
    def test_seed_blocks_neither_drop_nor_repeat_seeds(
            self, monkeypatch, code, sampled, per_block):
        # 7 seeds leave a short last block (2,520 and 200 seeds); 1 seed
        # makes every seed its own
        view = less_noisy_bob(0.25, code.n).view_channel
        floats = (1 << code.k) * view.law_table().shape[1]
        monkeypatch.setattr(oracle, "_LHL_BLOCK_FLOATS", per_block * floats)
        if sampled is None:
            res = lhl_check(code, 3, view)
            seeds = enumerate_full_rank_seeds(code.k, 3)
        else:
            res = lhl_check(code, 3, view, seeds=sampled,
                            rng=np.random.default_rng(4))
            rng = np.random.default_rng(4)
            seeds = [sample_seed(code.k, 3, rng).matrix
                     for _ in range(sampled)]
        view_law = lambda x: bsc_law_dense(code.n, x, 0.25).mass
        lhs, h_min = lhl_loop_reference(code, 3, view_law, seeds)
        assert res.n_seeds == len(seeds)
        assert res.lhs == lhs
        assert res.h_min == h_min

    def test_hamming_instance(self):
        strat = less_noisy_bob(0.25, 7)
        res = lhl_check(hamming_7_4(), 1, strat.view_channel)
        assert res.passed
        assert res.n_seeds == 15
        # perfect code: every view sits at distance 0 or 1 of one codeword,
        # so the guessing mass is (16*(3/4)^7 + 112*(1/4)(3/4)^6) / 16
        guess = (16 * 0.75 ** 7 + 112 * 0.25 * 0.75 ** 6) / 16
        assert res.h_min == pytest.approx(-math.log2(guess))

    def test_independent_view_extracts_perfectly(self):
        res = lhl_check(hamming_7_4(), 1, BobChannel.constant_view(7))
        assert res.lhs == pytest.approx(0.0, abs=1e-14)

    def test_bijective_hash_still_bounded(self):
        code = even_weight_code(4)  # k = 3
        strat = less_noisy_bob(0.2, 4)
        res = lhl_check(code, 3, strat.view_channel)
        assert res.lhs <= res.rhs + 1e-12
        assert res.lhs > 0.1  # extraction genuinely fails at full rate

    def test_sampled_seeds(self):
        strat = less_noisy_bob(0.25, 7)
        res = lhl_check(hamming_7_4(), 1, strat.view_channel, seeds=128,
                        rng=np.random.default_rng(5))
        assert res.n_seeds == 128
        assert res.passed

    def test_size_refusal(self):
        big = even_weight_code(12)
        with pytest.raises(ValueError):
            lhl_check(big, 1, less_noisy_bob(0.1, 12).view_channel)

    @pytest.mark.parametrize("view_n", [6, 8])
    def test_view_channel_of_another_length_refused(self, view_n):
        def fail():
            raise AssertionError("the view table was built")

        with pytest.raises(ValueError, match="view channel has n = %d, the "
                           "code has n = 7" % view_n):
            lhl_check(hamming_7_4(), 1, BobChannel(view_n, 2, fail))
        with pytest.raises(ValueError, match="view channel has n = %d"
                           % view_n):
            lhl_check(hamming_7_4(), 1, BobChannel.bsc_view(view_n, 0.25))

    def test_seed_family_refused_before_enumeration(self, monkeypatch):
        def fail(*args):
            raise AssertionError("seeds were built")

        monkeypatch.setattr(oracle, "enumerate_full_rank_seeds", fail)
        monkeypatch.setattr(oracle, "sample_seed", fail)
        view = less_noisy_bob(0.25, 7).view_channel
        with pytest.raises(ValueError, match="13124160 full-rank seeds"):
            lhl_check(even_weight_code(7), 4, view)
        with pytest.raises(ValueError, match="300000 sampled seeds"):
            lhl_check(even_weight_code(7), 1, view, seeds=300000,
                      rng=np.random.default_rng(1))

    def test_seed_family_under_limit_accepted(self, monkeypatch):
        # even:7 with m = 3 has 234,360 seeds, under the 2^18 limit; the
        # stub keeps the first three so the walk stays short
        full = oracle.enumerate_full_rank_seeds
        monkeypatch.setattr(oracle, "enumerate_full_rank_seeds",
                            lambda k, m: full(k, m)[:3])
        res = lhl_check(even_weight_code(7), 3,
                        less_noisy_bob(0.25, 7).view_channel)
        assert res.n_seeds == 3


class TestSmoothEntropyLp:
    def test_zero_smoothing_recovers_min_entropy(self):
        rng = np.random.default_rng(1)
        v = rng.random(16)
        p = ClassicalDistribution(v / v.sum())
        assert smooth_entropy_lp(p, 0.0) == pytest.approx(min_entropy(p),
                                                          rel=1e-12)

    def test_point_mass(self):
        p = ClassicalDistribution([1.0, 0.0, 0.0, 0.0])
        assert smooth_entropy_lp(p, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_closed_form(self):
        p = ClassicalDistribution(np.full(16, 1 / 16))
        want = 4 - math.log2(1 - 0.2)
        assert smooth_min_entropy(p, 0.2) == pytest.approx(want, rel=1e-12)
        assert smooth_entropy_lp(p, 0.2) == pytest.approx(want, rel=1e-12)

    def test_one_column_joint_is_the_classical_case(self):
        rng = np.random.default_rng(4)
        v = rng.random(40) ** 2
        mass = v / v.sum()
        lp_classical = smooth_entropy_lp(ClassicalDistribution(mass), 0.15)
        lp_joint = smooth_entropy_lp(JointDistribution(mass[:, None]), 0.15)
        assert lp_classical == lp_joint
        assert smooth_cond_min_entropy(JointDistribution(mass[:, None]),
                                       0.15) == \
            pytest.approx(lp_joint, rel=1e-12)

    def test_size_refused_before_solving(self, monkeypatch):
        import scipy.optimize

        def fail(*args, **kwargs):
            raise AssertionError("the LP was solved")

        monkeypatch.setattr(scipy.optimize, "linprog", fail)
        joint = JointDistribution(np.zeros((257, 256)))
        with pytest.raises(ValueError, match="2\\^16 cells, got 65792"):
            smooth_entropy_lp(joint, 0.1)

    def test_failed_solve_raises(self, monkeypatch):
        import scipy.optimize

        class Failed:
            success = False
            message = "stub failure"

        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *args, **kwargs: Failed())
        with pytest.raises(RuntimeError, match="stub failure"):
            smooth_entropy_lp(ClassicalDistribution([0.25] * 4), 0.1)

    def test_radius_at_total_mass_refused(self):
        with pytest.raises(ValueError, match="unbounded"):
            smooth_entropy_lp(ClassicalDistribution([0.3, 0.2]), 0.5)


class TestGoldenValues:
    def test_regenerated_values_match(self):
        lines = GOLDEN.read_text().strip().splitlines()
        rep12 = verify_intersection_bound(12, 0.25, 0.125)
        rep10 = verify_intersection_bound(10, 0.125, 0.125)
        clipped = clipped_bsc_construction(10, 0.1, 0.1)
        for line in lines:
            parts = line.split()
            if parts[0] == "intersection":
                n = int(parts[1].split("=")[1])
                w = int(parts[4].split("=")[1])
                want = int(parts[5])
                rep = rep12 if n == 12 else rep10
                assert rep.rows[w].exact == want, line
            elif parts[0] == "clipped":
                want = float(parts[5])
                val = {"gtd": clipped.gtd_actual,
                       "hmin": clipped.min_entropy_per_input,
                       "cond": clipped.cond_min_entropy}[parts[4]]
                assert val == pytest.approx(want, rel=1e-11), line
            elif parts[0] == "smooth":
                seed = int(parts[1].split("=")[1])
                eps = float(parts[2].split("=")[1])
                rng = np.random.default_rng(seed)
                v = rng.random(64) ** 2
                p = ClassicalDistribution(v / v.sum())
                want = float(parts[3])
                assert smooth_entropy_lp(p, eps) == \
                    pytest.approx(want, rel=1e-11), line
                assert smooth_min_entropy(p, eps) == \
                    pytest.approx(want, rel=1e-11), line
            else:
                raise AssertionError("unknown golden line: " + line)
