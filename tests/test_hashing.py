import itertools

import numpy as np
import pytest
from scipy.stats import chi2

from reference import all_bits, digest_table
from usnc import hashing
from usnc.gf2 import BitString, LinearCode, even_weight_code, hamming_7_4
from usnc.hashing import (HashSeed, count_full_rank, enumerate_full_rank_seeds,
                          exact_collision_probability, hash_codeword,
                          preimage_sample, sample_seed)


def _rank_reference(mat):
    """Independent row-reduction over python tuples, no shared code."""
    rows = [list(r) for r in mat]
    k = len(rows[0])
    rank = 0
    for col in range(k):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_preimage_reference(seed, code, m_val, rng):
    """The dense-basis preimage path: reduced row echelon form of [T | m]
    on uint8 rows, the (k - m) x k uint8 kernel basis, and the preimage as
    u0 + (coeffs @ basis & 1) from the same k - m coefficient draw."""
    m, k = seed.matrix.shape
    aug = np.column_stack([seed.matrix, m_val.bits]).astype(np.uint8)
    pivots = []
    for c in range(k):
        r = len(pivots)
        hits = np.flatnonzero(aug[r:, c])
        if r == m or not hits.size:
            continue
        aug[[r, r + hits[0]]] = aug[[r + hits[0], r]]
        others = np.flatnonzero(aug[:, c])
        aug[others[others != r]] ^= aug[r]
        pivots.append(c)
    u0 = np.zeros(k, dtype=np.uint8)
    u0[pivots] = aug[:len(pivots), k]
    free = [c for c in range(k) if c not in pivots]
    basis = np.zeros((len(free), k), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        basis[i, pivots] = aug[:len(pivots), f]
    if basis.shape[0]:
        coeffs = rng.integers(0, 2, size=basis.shape[0], dtype=np.uint8)
        u0 = u0 ^ ((coeffs @ basis) & 1)
    return code.encode(BitString(u0))


@pytest.fixture(scope="module")
def hamming():
    return hamming_7_4()


class TestSampleSeed:
    def test_rank_one_row_nonzero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = sample_seed(4, 1, rng)
            assert s.matrix.any()

    def test_square_is_invertible(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = sample_seed(4, 4, rng)
            assert _rank_reference(s.matrix) == 4

    def test_rank_matches_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = sample_seed(4, 2, rng)
            assert _rank_reference(s.matrix) == 2

    def test_m_exceeding_k_rejected(self):
        with pytest.raises(ValueError):
            sample_seed(3, 4, np.random.default_rng(0))

    def test_rank_deficient_matrix_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            HashSeed(np.array([[1, 0, 1], [1, 0, 1]], dtype=np.uint8))

    def test_zero_row_seed_rejected(self):
        # a zero-bit digest hashes nothing; every seed source refuses it
        with pytest.raises(ValueError, match="at least one row"):
            HashSeed(np.zeros((0, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="1 <= m <= k"):
            sample_seed(4, 0, np.random.default_rng(0))
        for k, m in ((4, 0), (3, 4)):
            with pytest.raises(ValueError, match="1 <= m <= k"):
                enumerate_full_rank_seeds(k, m)


class TestHash:
    def test_zero_codeword(self, hamming):
        rng = np.random.default_rng(3)
        s = sample_seed(4, 2, rng)
        assert hash_codeword(s, hamming, BitString.zeros(7)).weight() == 0

    def test_linearity(self, hamming):
        rng = np.random.default_rng(4)
        s = sample_seed(4, 2, rng)
        for _ in range(30):
            c1 = hamming.encode(BitString.random(4, rng))
            c2 = hamming.encode(BitString.random(4, rng))
            assert (hash_codeword(s, hamming, c1 ^ c2)
                    == hash_codeword(s, hamming, c1)
                    ^ hash_codeword(s, hamming, c2))

    def test_coordinate_projection(self, hamming):
        seed = HashSeed(np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8))
        c = hamming.encode(BitString.from01("1011"))
        assert hash_codeword(seed, hamming, c) == BitString.from01("10")

    @pytest.mark.parametrize("code", [hamming_7_4(), even_weight_code(8)],
                             ids=["hamming74", "even:8"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_digest_table_matches_hash_codeword(self, code, m):
        # every seed, except an even stride of the 16,002 seeds of even:8 at
        # m = 2, where all 2M reference calls would take about a minute; each
        # seed alone and the whole stack at once give the same rows
        seeds = enumerate_full_rank_seeds(code.k, m)
        seeds = seeds[::max(1, len(seeds) // 128)]
        stacked = digest_table(seeds)
        assert stacked.shape == (len(seeds), 1 << code.k)
        codewords = [code.encode(BitString(u)) for u in all_bits(code.k)]
        for s, row in zip(seeds, stacked):
            table = digest_table(s)
            assert [hash_codeword(HashSeed(s), code, c).to_int()
                    for c in codewords] == table.tolist() == row.tolist()

    def test_non_codeword_rejected(self, hamming):
        s = sample_seed(4, 1, np.random.default_rng(5))
        bad = BitString.from01("1000000")
        with pytest.raises(ValueError, match="not a codeword"):
            hash_codeword(s, hamming, bad)


class TestPreimage:
    def test_bijective_seed(self, hamming):
        rng = np.random.default_rng(6)
        s = sample_seed(4, 4, rng)
        target = BitString.from01("1101")
        c1 = preimage_sample(s, hamming, target, rng)
        c2 = preimage_sample(s, hamming, target, rng)
        assert c1 == c2  # unique preimage
        assert hash_codeword(s, hamming, c1) == target

    def test_roundtrip_always(self, hamming):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = sample_seed(4, 2, rng)
            target = BitString.random(2, rng)
            c = preimage_sample(s, hamming, target, rng)
            assert hamming.contains(c)
            assert hash_codeword(s, hamming, c) == target

    def test_message_space_beyond_64_bits(self):
        code = even_weight_code(71)  # k = 70
        rng = np.random.default_rng(16)
        for m in (1, 3):
            s = sample_seed(70, m, rng)
            target = BitString.random(m, rng)
            c = preimage_sample(s, code, target, rng)
            assert code.contains(c)
            assert hash_codeword(s, code, c) == target

    @pytest.mark.parametrize("name, m", [
        ("hamming74", 1), ("hamming74", 3), ("hamming74", 4), ("even:14", 1),
        ("even:71", 1), ("even:71", 3), ("random[4096,16]", 8)])
    def test_matches_dense_basis_reference(self, name, m):
        # the int basis draws the same coefficients and selects the same
        # rows as the dense basis, so codewords and generator states agree
        code = {"hamming74": hamming_7_4, "even:14": lambda: even_weight_code(14),
                "even:71": lambda: even_weight_code(71),
                "random[4096,16]": lambda: LinearCode(np.random.default_rng(
                    17).integers(0, 2, size=(16, 4080), dtype=np.uint8)),
                }[name]()
        draws = np.random.default_rng([code.k, m])
        rng, ref_rng = np.random.default_rng(18), np.random.default_rng(18)
        for _ in range(50):
            seed = sample_seed(code.k, m, draws)
            target = BitString.random(m, draws)
            c = preimage_sample(seed, code, target, rng)
            assert c == dense_preimage_reference(seed, code, target, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert hash_codeword(seed, code, c) == target

    @pytest.mark.parametrize("k, refused", [(2048, False), (2049, True)])
    def test_kernel_basis_above_cap_refused_before_elimination(
            self, monkeypatch, k, refused):
        # with m = 1 the (k-1) x k basis crosses 2^22 bits between k = 2048
        # and k = 2049
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(hashing, "gf2_solution_space", reached)
        seed = HashSeed(np.ones((1, k), dtype=np.uint8))
        code = even_weight_code(k + 1)
        with pytest.raises(ValueError if refused else Reached) as exc:
            preimage_sample(seed, code, BitString.from01("1"), None)
        if refused:
            assert str(exc.value) == (
                "a 2049-bit message space has a kernel basis of (k-m)k = "
                "4196352 bits, above the cap of 2^22")

    def test_uniform_on_preimage_chi_square(self, hamming):
        # enumerate the exact preimage set, then test 1e5 draws against it
        rng = np.random.default_rng(8)
        s = sample_seed(4, 1, rng)
        target = BitString.from01("1")
        preimage = [hamming.encode(BitString(list(u)))
                    for u in itertools.product([0, 1], repeat=4)
                    if hash_codeword(s, hamming,
                                     hamming.encode(BitString(list(u))))
                    == target]
        assert len(preimage) == 8
        index = {c: i for i, c in enumerate(preimage)}
        counts = np.zeros(8)
        draws = 10 ** 5
        for _ in range(draws):
            counts[index[preimage_sample(s, hamming, target, rng)]] += 1
        expected = draws / 8
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, df=7)


class TestBalanced:
    """Preimage sizes counted over all 2^k messages of a k = 4 code."""

    def test_full_rank_balanced(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            s = sample_seed(4, 2, rng)
            counts = np.bincount(digest_table(s.matrix), minlength=4)
            assert np.all(counts == 4)  # four preimages of size four

    def test_rank_deficient_unbalanced(self):
        counts = np.bincount(digest_table(np.array(
            [[1, 0, 1, 0], [1, 0, 1, 0]], dtype=np.uint8)), minlength=4)
        assert (counts == 0).any()


def enumeration_reference(k, m):
    """Every full-rank seed as the itertools loop over row combinations
    builds it, one HashSeed per candidate; returns the (S, m, k) stack."""
    rows = all_bits(k)
    seeds = []
    for combo in itertools.product(range(1 << k), repeat=m):
        try:
            seeds.append(HashSeed(rows[list(combo)]).matrix)
        except ValueError:  # rank deficient
            continue
    return np.stack(seeds)


class TestEnumeration:
    @pytest.mark.parametrize("k, m", [(4, 1), (4, 2), (3, 3), (7, 1), (7, 2),
                                      (13, 1)])
    def test_matches_itertools_reference(self, k, m):
        seeds = enumerate_full_rank_seeds(k, m)
        assert seeds.dtype == np.uint8
        assert np.array_equal(seeds, enumeration_reference(k, m))

    def test_square_family_at_five_bits(self):
        # the reference takes half a minute on all 2^20 candidates at
        # (5, 4): compare the seeds with three fixed leading row pairs with
        # the reference restricted to those rows, and check the whole stack
        # by count, strict lexicographic order and a surjective digest map
        k, m = 5, 4
        seeds = enumerate_full_rank_seeds(k, m)
        assert seeds.shape == (count_full_rank(k, m), m, k)
        combos = seeds @ (1 << np.arange(k))
        keys = combos @ (1 << (k * np.arange(m - 1, -1, -1)))
        assert (np.diff(keys) > 0).all()
        table = np.sort(digest_table(seeds), axis=1)
        assert ((np.diff(table, axis=1) != 0).sum(axis=1) == (1 << m) - 1).all()
        rows = all_bits(k)
        for lead in ((1, 2), (22, 9), (31, 30)):
            ref = []
            for rest in itertools.product(range(1 << k), repeat=m - 2):
                try:
                    ref.append(HashSeed(rows[[*lead, *rest]]).matrix)
                except ValueError:
                    continue
            sel = (combos[:, :2] == lead).all(axis=1)
            assert np.array_equal(seeds[sel], np.stack(ref))


class TestTwoUniversality:
    @pytest.mark.parametrize("k, m", [(4, 1), (4, 2), (5, 2), (6, 2), (3, 3)])
    def test_exact_over_all_seeds(self, k, m):
        mats = enumerate_full_rank_seeds(k, m)
        assert len(mats) == count_full_rank(k, m)
        # rows read as integers: strictly increasing combos, so no repeats
        combos = [tuple(row) for row in (mats @ (1 << np.arange(k))).tolist()]
        assert all(a < b for a, b in zip(combos, combos[1:]))
        for w_int in range(1, 1 << k):
            w = ((w_int >> np.arange(k)) & 1).astype(np.uint8)
            collisions = ~(((mats @ w) & 1).any(axis=1))
            frac = collisions.mean()
            assert frac <= 2.0 ** -m + 1e-12
            assert frac == pytest.approx(exact_collision_probability(k, m))

    def test_empirical_estimate(self):
        # worst collision rate over 20 fixed nonzero differences, each over
        # 2000 sampled seeds
        rng = np.random.default_rng(14)
        trials, worst = 2000, 0.0
        for _ in range(20):
            w = np.zeros(6, dtype=np.uint8)
            while not w.any():
                w = rng.integers(0, 2, size=6, dtype=np.uint8)
            hits = sum(not ((sample_seed(6, 2, rng).matrix @ w) & 1).any()
                       for _ in range(trials))
            worst = max(worst, hits / trials)
        exact = exact_collision_probability(6, 2)
        se = np.sqrt(exact * (1 - exact) / trials)
        assert worst <= 2.0 ** -2 + 3 * se
        assert worst == pytest.approx(exact, abs=4 * se)
