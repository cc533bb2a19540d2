import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, xlogy

from reference import constant_view, smooth_entropy_lp
from usnc.channel import (AliceChannel, BobChannel, UsncParams, bsc_law_dense,
                          bsc_transmit, bsc_weight_mass, check_c2, check_c3,
                          hamming_distances, typical_membership,
                          typical_window, typical_window_mask,
                          typicality_tail_exact)
from usnc.entropy import ClassicalDistribution, smooth_min_entropy
from usnc.gf2 import BitString


class TestBscTransmit:
    def test_noiseless_limit(self):
        rng = np.random.default_rng(0)
        x = BitString.random(64, rng)
        assert bsc_transmit(x, 0.0, rng) == x

    def test_uniform_noise_boundary(self):
        # p = 1/2 is allowed for attack channels: output is uniform
        rng = np.random.default_rng(40)
        x = BitString.zeros(10 ** 4)
        z = bsc_transmit(x, 0.5, rng)
        assert abs(z.weight() / 10 ** 4 - 0.5) < 0.02
        with pytest.raises(ValueError):
            bsc_transmit(x, 0.51, rng)

    def test_flip_count_moments(self):
        rng = np.random.default_rng(1)
        n, p = 10 ** 5, 0.1
        x = BitString.random(n, rng)
        z = bsc_transmit(x, p, rng)
        d = (x ^ z).weight()
        sd = math.sqrt(n * p * (1 - p))
        assert abs(d - n * p) <= 3 * sd

    def test_positions_independent(self):
        rng = np.random.default_rng(2)
        x = BitString.zeros(2)
        flips = np.array([bsc_transmit(x, 0.3, rng).bits
                          for _ in range(10 ** 5)])
        r = np.corrcoef(flips[:, 0], flips[:, 1])[0, 1]
        assert abs(r) < 0.01

    def test_law_matches_histogram(self):
        # analytic product law vs an exhaustive histogram over all 2^4
        # outputs; one long transmission reshaped into 1e6 independent
        # 4-bit blocks exercises the same i.i.d. flipping path
        rng = np.random.default_rng(3)
        trials, nbits, p = 10 ** 6, 4, 0.2
        x_block = BitString.from01("1011")
        x_long = BitString(np.tile(x_block.bits, trials))
        z = bsc_transmit(x_long, p, rng).bits.reshape(trials, nbits)
        ints = z @ (1 << np.arange(nbits))
        counts = np.bincount(ints, minlength=1 << nbits)
        law = bsc_law_dense(nbits, x_block, p).mass
        stat = ((counts - trials * law) ** 2 / (trials * law)).sum()
        from scipy.stats import chi2
        assert stat < chi2.ppf(0.999, df=(1 << nbits) - 1)


class TestTypicalMembership:
    def test_identical_strings_below_window(self):
        x = BitString.zeros(100)
        assert not typical_membership(x, x, 0.1, 0.05)

    def test_center_of_window(self):
        x = BitString.zeros(20)
        z = BitString((np.arange(20) < 5).astype(np.uint8))  # HD = 20 * 0.25
        assert typical_membership(x, z, 0.25, 0.01)

    def test_inclusive_boundaries(self):
        x = BitString.zeros(10)
        z = BitString((np.arange(10) < 2).astype(np.uint8))
        assert typical_membership(x, z, 0.1, 0.1)  # HD = 2 = n(p + eps)
        assert typical_membership(x, x, 0.1, 0.1)  # HD = 0 = n(p - eps)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, z, y = (BitString.random(24, rng) for _ in range(3))
            assert typical_membership(x, z, 0.2, 0.1) == \
                typical_membership(x ^ y, z ^ y, 0.2, 0.1)

    def test_length_mismatch_refused(self):
        with pytest.raises(ValueError, match="length mismatch"):
            typical_membership(BitString.zeros(4), BitString.zeros(5), 0.1,
                               0.1)

    def test_integral_upper_edge_is_inclusive(self):
        # 5 * (0.02 + 0.18) evaluates to 0.9999999999999999 in floats
        x = BitString.zeros(5)
        z = BitString.from01("10000")
        assert typical_window(5, 0.02, 0.18) == (0, 1)
        assert typical_membership(x, z, 0.02, 0.18)


    def test_window_mask_matches_membership(self):
        # the grid puts an edge on an integer at n = 5 (0.02 +- 0.18),
        # n = 10 (0.1 +- 0.1, 0.25 +- 0.05, 0.3 +- 0.2) and elsewhere
        rng = np.random.default_rng(5)
        for n in range(1, 11):
            strings = [BitString.from_int(z, n) for z in range(1 << n)]
            center = BitString.random(n, rng)
            for p in (0.02, 0.1, 0.25, 0.3):
                for eps in (0.05, 0.1, 0.18, 0.2):
                    mask = typical_window_mask(n, center.to_int(), p, eps)
                    assert mask.tolist() == [
                        typical_membership(center, z, p, eps)
                        for z in strings], (n, p, eps)

    def test_window_mask_takes_centres_of_any_shape(self):
        # a (2, 3) array of centres gives one mask per centre along a new
        # last axis, as hamming_distances lays out its distances
        n, p, eps = 6, 0.25, 0.1
        centers = np.random.default_rng(6).integers(0, 1 << n, size=(2, 3))
        masks = typical_window_mask(n, centers, p, eps)
        assert masks.shape == (2, 3, 1 << n) and masks.dtype == bool
        for idx in np.ndindex(2, 3):
            assert np.array_equal(masks[idx], typical_window_mask(
                n, int(centers[idx]), p, eps))

    def test_window_mask_matches_two_compares_at_every_window(
            self, monkeypatch):
        # every window 0 <= w_lo, w_hi <= n at every n <= 16, the empty
        # ones (w_lo > w_hi) included, against d >= w_lo and d <= w_hi
        import usnc.channel as channel
        for n in range(1, 17):
            centers = np.array([0, (1 << n) - 1, 0x5A5A & ((1 << n) - 1)])
            d = hamming_distances(n, centers)
            for w_lo in range(n + 1):
                for w_hi in range(n + 1):
                    monkeypatch.setattr(channel, "typical_window",
                                        lambda *a: (w_lo, w_hi))
                    mask = typical_window_mask(n, centers, 0.25, 0.1)
                    assert mask.dtype == bool and mask.shape == d.shape
                    assert np.array_equal(mask, (d >= w_lo) & (d <= w_hi)), \
                        (n, w_lo, w_hi)


class TestTypicalWindow:
    def test_matches_integer_arithmetic_on_decimal_grid(self):
        # p = i/100 and eps = j/100 over the valid protocol range
        # (eps < 1/2 - p), every n <= 400 at which an edge n(p -/+ eps) is
        # an integer: only there can rounding move a weight across an edge
        # (the float form n * (p + eps) misses 2,570 of these edges)
        for i in range(1, 50):
            for j in range(1, 50 - i):
                for n in range(1, 401):
                    lo_num, hi_num = n * (i - j), n * (i + j)
                    if lo_num % 100 and hi_num % 100:
                        continue
                    expected = (max(0, -(-lo_num // 100)), hi_num // 100)
                    assert typical_window(n, i / 100, j / 100) == expected, \
                        (n, i, j)

    @pytest.mark.parametrize("p, eps, name", [
        (float("nan"), 0.1, "p"), (float("inf"), 0.1, "p"),
        (0.25, float("nan"), "eps"), (0.25, float("-inf"), "eps")])
    def test_non_finite_inputs_refused_by_name(self, p, eps, name):
        with pytest.raises(ValueError, match="^%s must be finite$" % name):
            typical_window(10, p, eps)

    def test_clipped_to_weights_and_possibly_empty(self):
        assert typical_window(50, 0.2, 0.8) == (0, 50)
        assert typical_window(5, 0.02, 0.01) == (1, 0)  # no weight fits
        assert typical_window(4096, np.float64(0.1), 0.06) == (164, 655)


class TestTypicalityTail:
    def test_full_window(self):
        assert typicality_tail_exact(50, 0.2, 0.8) == 0.0

    def test_matches_direct_sum(self):
        n, p, eps = 20, 0.25, 0.1
        direct = sum(math.comb(n, w) * p ** w * (1 - p) ** (n - w)
                     for w in range(n + 1)
                     if not (n * (p - eps) <= w <= n * (p + eps)))
        assert typicality_tail_exact(n, p, eps) == pytest.approx(direct,
                                                                 rel=1e-12)

    def test_bounded_by_exponential(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(10, 10 ** 5))
            p = float(rng.uniform(0.02, 0.45))
            eps = float(rng.uniform(0.01, 0.2))
            tail = typicality_tail_exact(n, p, eps)
            assert tail <= 8.0 * 2.0 ** (-n * eps * eps) + 1e-15

    def test_production_scale_instance(self):
        tail = typicality_tail_exact(4096, 0.1, 0.06)
        assert tail <= 2.9e-4

    @pytest.mark.parametrize("n, p, eps", [(200, 0.1, 0.05), (1000, 0.1, 0.01),
                                           (2000, 0.25, 0.01)])
    def test_matches_exact_integer_sum(self, n, p, eps):
        # a float p is dyadic, num / den, so the window's mass is a ratio of
        # integers; n = 4096 at p = 0.1 takes tens of seconds and is left out
        num, den = Fraction(p).as_integer_ratio()
        w_lo, w_hi = typical_window(n, p, eps)
        inside = sum(math.comb(n, w) * num ** w * (den - num) ** (n - w)
                     for w in range(w_lo, w_hi + 1))
        exact = float(1 - Fraction(inside, den ** n))
        assert typicality_tail_exact(n, p, eps) == pytest.approx(exact,
                                                                 rel=1e-12)

    @pytest.mark.parametrize("n", [4096, 10 ** 5, 10 ** 6])
    def test_matches_gammaln_logsumexp_formula(self, n):
        # 1e-9 is the float64 floor here: half an ulp of log(10^6!) is 9e-10
        p, eps = 0.1, 0.01
        w_lo, w_hi = typical_window(n, p, eps)
        w = np.arange(n + 1, dtype=np.float64)
        w = w[(w < w_lo) | (w > w_hi)]
        logpmf = (gammaln(n + 1) - gammaln(w + 1) - gammaln(n - w + 1)
                  + xlogy(w, p) + xlogy(n - w, 1.0 - p))
        reference = float(np.exp(logsumexp(logpmf)))
        assert typicality_tail_exact(n, p, eps) == pytest.approx(reference,
                                                                 rel=1e-9)


def _params(n, l_a=0.0, eps_a=0.0, l_b=0.0, eps_b=0.0, p=0.25):
    return UsncParams(n=n, p=p, eps_a=eps_a, l_a=l_a, eps_b=eps_b, l_b=l_b)


def table_channel(n, laws):
    """Sender channel with an explicit output mass vector per label; the
    entropy checks read its laws only, so it has no sampler."""
    dists = {label: ClassicalDistribution(mass)
             for label, mass in laws.items()}
    return AliceChannel(n, dists, dists.__getitem__, None)


class TestCheckC2:
    def test_uniform_output_passes_maximal_floor(self):
        n = 6
        ch = table_channel(n, {"u": np.full(1 << n, 2.0 ** -n)})
        report = check_c2(ch, _params(n, l_a=float(n)))
        assert report.passed and ch.certified

    def test_deterministic_output_fails(self):
        # a point mass smoothed by eps still has entropy only -log2(1 - eps)
        n = 5
        ch = table_channel(n, {"d": np.eye(1 << n)[3]})
        report = check_c2(ch, _params(n, l_a=0.5, eps_a=0.01))
        assert not report.passed and not ch.certified
        assert report.witness == "d"
        assert report.achieved == pytest.approx(-math.log2(0.99))

    def test_honest_bsc_achieves_exact_smooth_entropy(self):
        n, p, eps_a = 8, 0.25, 0.01
        ch = AliceChannel.bsc(n, [BitString.zeros(n)], p)
        law = bsc_law_dense(n, BitString.zeros(n), p)
        achievable = smooth_min_entropy(law, eps_a)
        report = check_c2(ch, _params(n, l_a=achievable, eps_a=eps_a, p=p))
        assert report.passed
        assert report.achieved == pytest.approx(achievable)
        report2 = check_c2(ch, _params(n, l_a=achievable + 0.1, eps_a=eps_a,
                                       p=p))
        assert not report2.passed

    def test_monotone_in_constraints(self):
        n = 6
        ch = AliceChannel.bsc(n, [BitString.zeros(n)], 0.2)
        base = check_c2(ch, _params(n, l_a=1.2, eps_a=0.05, p=0.2))
        looser_l = check_c2(ch, _params(n, l_a=0.9, eps_a=0.05, p=0.2))
        looser_eps = check_c2(ch, _params(n, l_a=1.2, eps_a=0.2, p=0.2))
        if base.passed:
            assert looser_l.passed and looser_eps.passed

    def test_every_label_law_built(self):
        # a BSC channel's labels share one entropy, and the check still
        # builds each label's law rather than trusting that symmetry
        n, built = 5, []

        def law(label):
            built.append(label)
            return bsc_law_dense(n, BitString.from_int(label, n), 0.2)

        check_c2(AliceChannel(n, range(4), law, None), _params(n, p=0.2))
        assert built == [0, 1, 2, 3]

    def test_worst_label_found_past_the_first(self):
        n = 5
        ch = table_channel(n, {"u": np.full(1 << n, 2.0 ** -n),
                               "d": np.eye(1 << n)[3]})
        report = check_c2(ch, _params(n, l_a=0.5))
        assert not report.passed and report.witness == "d"

    def test_tie_goes_to_the_first_label(self):
        n = 5
        ch = table_channel(n, {"d": np.eye(1 << n)[3],
                               "e": np.eye(1 << n)[7]})
        report = check_c2(ch, _params(n, l_a=0.5))
        assert not report.passed and report.witness == "d"

    def test_nan_spread_refused(self):
        # NaN entropies fall below no floor, so a NaN law must be refused
        ch = AliceChannel.bsc(4, [BitString.zeros(4)], math.nan)
        with pytest.raises(ValueError, match="^NaN probability mass$"):
            check_c2(ch, UsncParams(n=4, p=0.1, eps_a=0.0, l_a=3.0,
                                    eps_b=0.0, l_b=0.0))
        assert not ch.certified

    @pytest.mark.parametrize("eps_a", [0.01, 0.1])
    @pytest.mark.parametrize("n, spread", [(3, 0.1), (5, 0.25), (6, 0.2)])
    def test_certifies_at_the_lp_optimum(self, n, spread, eps_a):
        # the certified value is the least LP optimum over every label's law
        rng = np.random.default_rng(n)
        centers = [BitString.zeros(n), BitString.random(n, rng)]
        ch = AliceChannel.bsc(n, centers, spread)
        report = check_c2(ch, _params(n, eps_a=eps_a, p=spread))
        lp = min(smooth_entropy_lp(ch.law(label), eps_a)
                 for label in ch.labels)
        assert abs(report.achieved - lp) <= 1e-9

    @pytest.mark.parametrize("make", [
        lambda: AliceChannel.bsc(4, [], 0.1),
        lambda: AliceChannel(4, [], None, None)])
    def test_no_labels_refused(self, make):
        # a channel without labels has no law to check, so check_c2 would
        # certify it with an infinite entropy
        with pytest.raises(ValueError, match="^a sender channel needs at "
                           "least one label$"):
            make()

    @pytest.mark.parametrize("params_n", [7, 14])
    def test_other_block_length_refused(self, params_n):
        ch = AliceChannel.bsc(8, [BitString.zeros(8)], 0.3)
        with pytest.raises(ValueError, match="channel has n = 8, params are "
                           "for n = %d" % params_n):
            check_c2(ch, _params(params_n, l_a=1.0))
        assert not ch.certified


class TestCheckC3:
    def test_full_view_fails_any_positive_floor(self):
        n = 4
        ch = BobChannel.bsc_view(n, 0.0)
        report = check_c3(ch, _params(n, l_b=0.5))
        assert not report.passed
        assert report.achieved == pytest.approx(0.0, abs=1e-12)

    def test_independent_view_is_maximal(self):
        n = 5
        ch = constant_view(n)
        report = check_c3(ch, _params(n, l_b=float(n)))
        assert report.passed and ch.certified

    def test_bsc_view_exact_value(self):
        n, p_b = 4, 0.25
        ch = BobChannel.bsc_view(n, p_b)
        report = check_c3(ch, _params(n, l_b=0.0))
        # uniform input given a BSC view: guessing mass is (1-p_b)^n
        assert report.achieved == pytest.approx(-n * math.log2(1 - p_b))

    def test_monotone_in_constraints(self):
        n = 4
        ch = BobChannel.bsc_view(n, 0.2)
        strict = check_c3(ch, _params(n, l_b=1.0, eps_b=0.0))
        loose = check_c3(ch, _params(n, l_b=0.7, eps_b=0.1))
        if strict.passed:
            assert loose.passed

    @pytest.mark.parametrize("eps_b", [0.01, 0.1])
    @pytest.mark.parametrize("n, p_b", [(3, 0.1), (5, 0.2), (6, 0.25)])
    def test_certifies_at_the_lp_optimum(self, n, p_b, eps_b):
        ch = BobChannel.bsc_view(n, p_b)
        report = check_c3(ch, _params(n, eps_b=eps_b))
        lp = smooth_entropy_lp(ch.joint_with_uniform_input(), eps_b)
        assert abs(report.achieved - lp) <= 1e-9

    @pytest.mark.parametrize("params_n", [4, 6])
    def test_other_block_length_refused_before_building(self, params_n):
        def fail():
            raise AssertionError("the view table was built")

        ch = BobChannel(5, 2, fail)
        with pytest.raises(ValueError, match="channel has n = 5, params are "
                           "for n = %d" % params_n):
            check_c3(ch, _params(params_n))
        assert not ch.certified


class TestLawTable:
    def test_built_once_and_read_only(self):
        n = 4
        calls = []
        build = BobChannel.bsc_view(n, 0.2)._build_table

        def counting_build():
            calls.append(1)
            return build()

        ch = BobChannel(n, 1 << n, counting_build)
        assert len(calls) == 0  # nothing is built at construction
        table = ch.law_table()
        assert len(calls) == 1
        assert ch.law_table() is table
        joint = ch.joint_with_uniform_input()
        assert len(calls) == 1
        assert ch.joint_with_uniform_input() is joint  # kept as well
        assert np.array_equal(joint.mass, table / (1 << n))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        for x in range(1 << n):
            expect = bsc_law_dense(n, BitString.from_int(x, n), 0.2).mass
            assert np.array_equal(table[x], expect)
        # a fresh channel's joint builds the table once as well
        calls.clear()
        fresh = BobChannel(n, 1 << n, counting_build)
        fresh.joint_with_uniform_input()
        fresh.joint_with_uniform_input()
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [1, 4, 7, 8, 10])
    def test_view_tables_equal_per_input_laws(self, n):
        # one gather of the distance-indexed mass against a law per input
        for p_b in (0.0, 0.1, 0.25, 0.45, 0.5, 1.0):
            table = BobChannel.bsc_view(n, p_b).law_table()
            expect = np.stack([bsc_law_dense(n, BitString.from_int(x, n),
                                             p_b).mass
                               for x in range(1 << n)])
            assert table.dtype == expect.dtype
            assert np.array_equal(table, expect), (n, p_b)
        table = constant_view(n).law_table()
        assert np.array_equal(table, np.ones((1 << n, 1)))

    @pytest.mark.parametrize("rows,cols,fill,match", [
        (128, 3, 0.25, r"shape \(128, 3\), not \(2\^n, view_size\) = "
                       r"\(128, 2\)"),
        (64, 2, 0.5, r"shape \(64, 2\), not .* = \(128, 2\)"),
        (128, 2, math.nan, "^view-law table holds NaN probability mass$"),
        (128, 2, -0.5, "^view-law table holds negative probability mass$"),
        (128, 2, 0.75, "^view law of input 0 has mass 1.5 > 1$"),
        (128, 2, math.inf, "^view law of input 0 has mass inf > 1$")],
        ids=["wide", "short", "nan", "negative", "heavy", "inf"])
    def test_malformed_table_refused_on_first_call(self, rows, cols, fill,
                                                   match):
        calls = []

        def build():
            calls.append(1)
            return np.full((rows, cols), fill)

        ch = BobChannel(7, 2, build)
        for read in (ch.law_table, ch.joint_with_uniform_input):
            with pytest.raises(ValueError, match=match):
                read()
        assert len(calls) == 2  # a refused table is not kept

    def test_row_mass_tolerance_and_witness(self):
        table = np.full((16, 2), 0.5)
        table[5, 0] += 0.5e-12  # inside the tolerance, kept as given
        table[9] = [-0.5e-12, 1.0]
        kept = BobChannel(4, 2, lambda: table.copy()).law_table()
        assert np.array_equal(kept, table)
        table[11, 1] += 1e-9
        with pytest.raises(ValueError, match="^view law of input 11 has "
                           "mass 1.000000001"):
            BobChannel(4, 2, lambda: table).law_table()

    def test_int_table_kept_as_float(self):
        table = BobChannel(3, 8, lambda: np.eye(8, dtype=np.int64)) \
            .law_table()
        assert table.dtype == np.float64
        assert np.array_equal(table, np.eye(8))


def uint32_xor_distances(n, centers):
    """Reference distance table: every centre XORed against every n-bit
    string in one uint32 array, then popcounted."""
    z = np.arange(1 << n, dtype=np.uint32)
    return np.bitwise_count(np.asarray(centers, dtype=np.uint32)[..., None]
                            ^ z)


class TestHammingDistances:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_equals_uint32_xor_reference(self, n):
        top = (1 << n) - 1
        rng = np.random.default_rng(n)
        grid = rng.integers(0, 1 << n, size=(2, 3))
        grid[0, 0], grid[1, 2] = 0, top
        for centers in (0, top, [top, int(rng.integers(1 << n)), 0], grid):
            got = hamming_distances(n, centers)
            expect = uint32_xor_distances(n, centers)
            assert got.dtype == expect.dtype == np.uint8
            assert got.shape == expect.shape == np.shape(centers) + (1 << n,)
            assert np.array_equal(got, expect), (n, centers)

    @pytest.mark.parametrize("n", [1, 3, 8, 16, 20])
    def test_centre_outside_range_refused(self, n):
        for centers in (1 << n, -1, [0, 1 << n], [[0], [-1]]):
            with pytest.raises(ValueError, match=r"outside \[0, 2\^%d\)" % n):
                hamming_distances(n, centers)


class TestBscLaw:
    def test_distances_match_pairwise_popcount(self):
        rng = np.random.default_rng(6)
        for n in (1, 5, 11):
            centers = rng.integers(0, 1 << n, size=3)
            d = hamming_distances(n, centers)
            assert d.shape == (3, 1 << n) and d.dtype == np.uint8
            for c, row in zip(centers, d):
                assert row.tolist() == [
                    (BitString.from_int(int(c), n)
                     ^ BitString.from_int(z, n)).weight()
                    for z in range(1 << n)]
        assert np.array_equal(hamming_distances(5, 9),
                              hamming_distances(5, [9])[0])

    def test_weight_mass_is_the_product_law(self):
        n = 9
        for p in (0.1, 0.25, 0.5):
            expect = [p ** d * (1 - p) ** (n - d) for d in range(n + 1)]
            assert bsc_weight_mass(n, p) == pytest.approx(expect, rel=1e-12)

    @staticmethod
    def _xlogy_mass(n, p):
        d = np.arange(n + 1, dtype=np.float64)
        return np.exp(xlogy(d, p) + xlogy(n - d, 1.0 - p))

    def test_weight_mass_equals_xlogy_formula(self):
        rng = np.random.default_rng(14)
        cases = [(n, p) for n in range(1, 21)
                 for p in (0.0, 5e-324, 1e-300, 0.1, 0.25, 0.5, 1 - 2 ** -53,
                           1.0)]
        cases += [(int(n), float(p)) for n, p in
                  zip(rng.integers(1, 4097, 1000), rng.random(1000))]
        for n, p in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = bsc_weight_mass(n, p)
            assert np.array_equal(got, self._xlogy_mass(n, p)), (n, p)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_weight_mass_outside_unit_interval_is_nan(self, p):
        # NaN exactly where the xlogy formula has it, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bsc_weight_mass(7, p)
        assert np.isnan(got).any()
        assert np.array_equal(got, self._xlogy_mass(7, p), equal_nan=True)

    @pytest.mark.parametrize("p, at", [(0.0, "center"), (1.0, "complement")])
    def test_noiseless_edges_are_point_masses(self, p, at):
        # exact zeros and a single one, without a separate p = 0 formula
        n = 6
        center = BitString.from01("101100")
        target = center if at == "center" else center ^ BitString.from01(
            "111111")
        law = bsc_law_dense(n, center, p).mass
        expect = np.zeros(1 << n)
        expect[target.to_int()] = 1.0
        assert np.array_equal(law, expect)

    def test_sender_bsc_laws_and_samples(self):
        n, spread = 8, 0.3
        rng = np.random.default_rng(7)
        centers = [BitString.random(n, rng) for _ in range(4)]
        ch = AliceChannel.bsc(n, centers, spread)
        assert ch.labels == [0, 1, 2, 3]
        got_rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for i, center in enumerate(centers):
            assert np.array_equal(ch.law(i).mass,
                                  bsc_law_dense(n, center, spread).mass)
            for _ in range(5):
                assert ch.sample(i, got_rng) == bsc_transmit(center, spread,
                                                             ref_rng)


class TestSenderLaw:
    def test_latest_law_kept(self):
        n = 5
        built = []

        def law(label):
            built.append(label)
            return bsc_law_dense(n, BitString.from_int(label, n), 0.2)

        ch = AliceChannel(n, range(4), law, None)
        first = ch.law(1)
        assert built == [1]
        assert ch.law(1) is first and ch.law(1) is first
        assert built == [1]
        assert not first.mass.flags.writeable
        with pytest.raises(ValueError):
            first.mass[0] = 1.0
        other = ch.law(3)
        assert built == [1, 3]
        assert np.array_equal(other.mass,
                              bsc_law_dense(n, BitString.from_int(3, n),
                                            0.2).mass)
        assert ch.law(1) is not first  # only the latest label is kept
        assert built == [1, 3, 1]
        assert np.array_equal(ch.law(1).mass, first.mass)

    @pytest.mark.parametrize("value, bits", [(1, 3), (17, 5)],
                             ids=["shorter", "longer"])
    def test_center_of_another_length_refused(self, value, bits):
        # a short centre used to give the law around its zero-padded int,
        # a long one an IndexError
        center = BitString.from_int(value, bits)
        for build in (lambda: bsc_law_dense(4, center, 0.1),
                      lambda: AliceChannel.bsc(4, [center], 0.1).law(0)):
            with pytest.raises(ValueError, match="^center has %d bits, law "
                               "needs n = 4$" % bits):
                build()


class TestUsncParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            UsncParams(n=0, p=0.1, eps_a=0, l_a=0, eps_b=0, l_b=0)
        with pytest.raises(ValueError):
            UsncParams(n=4, p=0.5, eps_a=0, l_a=0, eps_b=0, l_b=0)
        with pytest.raises(ValueError):
            UsncParams(n=4, p=0.1, eps_a=1.5, l_a=0, eps_b=0, l_b=0)
        with pytest.raises(ValueError):
            UsncParams(n=4, p=0.1, eps_a=0, l_a=-1, eps_b=0, l_b=0)

    @pytest.mark.parametrize("name", ["l_a", "l_b"])
    def test_nan_floor_refused(self, name):
        # NaN < 0 is False: a NaN floor used to build, and check_c2 then
        # reported "required nan" for any channel
        floors = dict(l_a=0.0, l_b=0.0)
        with pytest.raises(ValueError, match="%s must be nonnegative" % name):
            UsncParams(n=4, p=0.1, eps_a=0, eps_b=0,
                       **{**floors, name: math.nan})
        assert getattr(UsncParams(n=4, p=0.1, eps_a=0, eps_b=0, **floors),
                       name) == 0.0

    def test_infinite_floor_allowed(self):
        # the unbounded receiver floor nqs_channel_params reports
        params = UsncParams(n=4, p=0.1, eps_a=0, l_a=math.inf, eps_b=0,
                            l_b=math.inf)
        assert params.l_a == params.l_b == math.inf

    @pytest.mark.parametrize("n", [2.5, 4.0, math.nan, math.inf, 0, -1])
    def test_length_not_a_positive_int_refused(self, n):
        with pytest.raises(ValueError, match="need an int n >= 1"):
            UsncParams(n=n, p=0.1, eps_a=0, l_a=0, eps_b=0, l_b=0)

    @pytest.mark.parametrize("n", [1, np.int64(4)])
    def test_positive_int_length_accepted(self, n):
        assert UsncParams(n=n, p=0.1, eps_a=0, l_a=0, eps_b=0, l_b=0).n == n
