import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usnc.gf2 import (BitString, CosetId, LinearCode, _pack_u64,
                      even_weight_code, gf2_rank, gf2_solution_space,
                      hamming_7_4, hamming_distance, load_code,
                      random_linear_code, repetition_code, save_code, xor)


def bs(s):
    return BitString.from01(s)


def gray_min_distance(code):
    """Reference minimum distance: a Gray-code walk over all 2^k - 1 nonzero
    messages, XORing one packed generator row per step."""
    if code.k == code.n:
        return 1
    packed = _pack_u64(code.gen)
    cur = np.zeros(packed.shape[1], dtype=np.uint64)
    best = code.n + 1
    for j in range(1, 1 << code.k):
        # the bit flipped between j-1 and j is j's trailing-zero count
        cur ^= packed[(j & -j).bit_length() - 1]
        best = min(best, int(np.bitwise_count(cur).sum()))
    return best


class TestBitString:
    def test_roundtrips(self):
        assert bs("0101").to01() == "0101"
        assert BitString.from_int(5, 4).to01() == "1010"
        assert BitString.from_int(5, 4).to_int() == 5
        assert BitString.zeros(3).to01() == "000"

    def test_int_roundtrip_beyond_64_bits(self):
        value = (1 << 70) | (1 << 63) | 5
        b = BitString.from_int(value, 80)
        assert np.flatnonzero(b.bits).tolist() == [0, 2, 63, 70]
        assert b.to_int() == value
        assert BitString.from_int(1 << 70, 80).to_int() == 1 << 70

    def test_validation(self):
        with pytest.raises(ValueError):
            BitString([])
        with pytest.raises(ValueError):
            BitString([0, 2])
        with pytest.raises(ValueError):
            BitString.from01("01a")
        with pytest.raises(ValueError):
            BitString.from_int(8, 3)

    def test_immutable(self):
        b = bs("010")
        with pytest.raises(ValueError):
            b.bits[0] = 1

    def test_hash_eq(self):
        assert bs("01") == bs("01")
        assert bs("01") != bs("10")
        assert len({bs("01"), bs("01"), bs("10")}) == 2


class TestHammingDistance:
    @pytest.mark.parametrize("x, y, d", [
        ("0000", "0000", 0),
        ("0000", "1111", 4),
        ("0101", "0110", 2),
    ])
    def test_examples(self, x, y, d):
        assert hamming_distance(bs(x), bs(y)) == d

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(bs("01"), bs("011"))

    @given(st.integers(1, 24), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_triangle(self, n, rnd):
        x, y, z = (BitString([rnd.randint(0, 1) for _ in range(n)])
                   for _ in range(3))
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert (hamming_distance(x, z)
                <= hamming_distance(x, y) + hamming_distance(y, z))


class TestXor:
    @pytest.mark.parametrize("x, y, out", [
        ("1010", "0000", "1010"),
        ("1010", "1010", "0000"),
        ("1100", "1010", "0110"),
    ])
    def test_examples(self, x, y, out):
        assert xor(bs(x), bs(y)) == bs(out)
        assert (bs(x) ^ bs(y)) == bs(out)

    @given(st.integers(1, 16), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_group_laws(self, n, rnd):
        x, y, z = (BitString([rnd.randint(0, 1) for _ in range(n)])
                   for _ in range(3))
        assert (x ^ y) == (y ^ x)
        assert ((x ^ y) ^ z) == (x ^ (y ^ z))
        assert (x ^ x) == BitString.zeros(n)


@pytest.fixture(scope="module")
def hamming():
    return hamming_7_4()


class TestLinearCode:
    def test_structure(self, hamming):
        g, h = hamming.gen, hamming.par
        assert gf2_rank(g) == 4 and gf2_rank(h) == 3
        assert not ((g @ h.T) % 2).any()

    def test_encode_examples(self, hamming):
        assert hamming.encode(BitString.zeros(4)) == BitString.zeros(7)
        e1 = hamming.encode(bs("1000"))
        assert np.array_equal(e1.bits, hamming.gen[0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = BitString.random(4, rng)
            cw = hamming.encode(u)
            assert not hamming.syndrome(cw).syndrome.bits.any()

    @pytest.mark.parametrize("code", [hamming_7_4(), even_weight_code(7),
                                      repetition_code(5)],
                             ids=["hamming74", "even7", "rep5"])
    def test_codeword_ints_follow_encode(self, code):
        # entry u is the int of encode(u), u read as k bits, bit i first
        expect = [code.encode(BitString.from_int(u, code.k)).to_int()
                  for u in range(1 << code.k)]
        assert code.codeword_ints().tolist() == expect

    def test_encode_length_check(self, hamming):
        with pytest.raises(ValueError):
            hamming.encode(bs("10100"))

    def test_syndrome_examples(self, hamming):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = BitString.random(7, rng)
            c = hamming.encode(BitString.random(4, rng))
            assert hamming.syndrome(x) == hamming.syndrome(x ^ c)
        e1 = BitString.from_int(1, 7)  # weight-1 at position 0
        assert np.array_equal(hamming.syndrome(e1).syndrome.bits,
                              hamming.par[:, 0])

    def test_coset_representative(self, hamming):
        zero = CosetId(BitString.zeros(3))
        assert hamming.coset_representative(zero) == BitString.zeros(7)
        # right inverse of syndrome, exhaustively over all 8 cosets
        for v in range(8):
            cid = CosetId(BitString.from_int(v, 3))
            rep = hamming.coset_representative(cid)
            assert hamming.syndrome(rep) == cid
            assert np.array_equal(rep.bits[3:], np.zeros(0)) or True
        # distinct syndromes -> distinct cosets
        r1 = hamming.coset_representative(CosetId(BitString.from_int(1, 3)))
        r2 = hamming.coset_representative(CosetId(BitString.from_int(2, 3)))
        assert not hamming.contains(r1 ^ r2)

    def test_coset_right_inverse_larger(self):
        code = random_linear_code(12, 4, 2, np.random.default_rng(3))
        for v in range(1 << 8):
            cid = CosetId(BitString.from_int(v, 8))
            assert code.syndrome(code.coset_representative(cid)) == cid

    def test_message_coords_roundtrip(self, hamming):
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = BitString.random(4, rng)
            assert hamming.message_coords(hamming.encode(u)) == u

    def test_min_distance(self, hamming):
        assert hamming.min_distance_exact() == 3
        assert repetition_code(9).min_distance_exact() == 9
        full = LinearCode(np.zeros((5, 0), dtype=np.uint8))
        assert full.min_distance_exact() == 1
        assert even_weight_code(6).min_distance_exact() == 2

    def test_min_distance_matches_pairwise_oracle(self):
        # brute force over all codeword pairs (independent arithmetic)
        rng = np.random.default_rng(7)
        for _ in range(5):
            code = LinearCode(rng.integers(0, 2, size=(5, 6), dtype=np.uint8))
            words = []
            for bits in itertools.product([0, 1], repeat=5):
                words.append(code.encode(BitString(list(bits))))
            pairwise = min(hamming_distance(a, b)
                           for a, b in itertools.combinations(words, 2))
            assert code.min_distance_exact() == pairwise

    def test_min_distance_refuses_large_k(self):
        code = LinearCode(np.zeros((25, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match=r"^exact distance enumeration "
                           r"limited to k <= 24 \(got k=25\)$"):
            code.min_distance_exact()

    def test_min_distance_refuses_beyond_word_cap(self, monkeypatch):
        # 2^20 messages of 32 words each: refused before the span is built
        def fail(self):
            raise AssertionError("generator rows packed")

        code = LinearCode(np.zeros((20, 1980), dtype=np.uint8))
        monkeypatch.setattr(LinearCode, "gen", property(fail))
        with pytest.raises(ValueError, match=r"= 33554432 words, above the "
                           r"cap of 2\^24$"):
            code.min_distance_exact()

    @pytest.mark.parametrize("n, k", [(7, 4), (7, 6), (64, 9), (64, 16),
                                      (65, 12), (130, 10), (200, 16)])
    def test_span_distance_matches_gray_walk(self, n, k):
        rng = np.random.default_rng([n, k])
        for _ in range(2):
            code = LinearCode(rng.integers(0, 2, size=(k, n - k),
                                           dtype=np.uint8))
            assert code.min_distance_exact() == gray_min_distance(code)

    @pytest.mark.parametrize("n, k", [(1000, 14), (4096, 12)])
    def test_span_distance_walks_high_rows(self, n, k):
        # wide words shrink the doubled span below k rows, so offsets run
        code = LinearCode(np.random.default_rng(n).integers(
            0, 2, size=(k, n - k), dtype=np.uint8))
        assert code.min_distance_exact() == gray_min_distance(code)

    @pytest.mark.parametrize("n, k", [(1000, 14), (4096, 12)])
    def test_span_distance_minimum_on_a_high_row(self, n, k):
        # the lightest codeword is the last generator row alone, which the
        # walk meets only as an offset onto the zero word of the block
        p = np.random.default_rng(n).integers(0, 2, size=(k, n - k),
                                              dtype=np.uint8)
        p[-1] = 0
        p[-1, :2] = 1
        code = LinearCode(p)
        assert code.min_distance_exact() == gray_min_distance(code) == 3

    @pytest.mark.parametrize("code", [
        hamming_7_4(), repetition_code(9), even_weight_code(6),
        repetition_code(1), LinearCode(np.zeros((5, 0), dtype=np.uint8)),
        LinearCode(np.zeros((3, 4), dtype=np.uint8))])
    def test_span_distance_edge_cases(self, code):
        assert code.min_distance_exact() == gray_min_distance(code)

    def test_systematic_required(self):
        gen = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        with pytest.raises(ValueError):
            LinearCode.from_generator(gen)


def check_words_reference(code, u):
    """Per-bit encoding: the packed row i of P XORed onto every message
    whose bit i is set, for i < k."""
    p_words = _pack_u64(code.p_block)
    out = np.zeros((u.shape[0], p_words.shape[1]), dtype=np.uint64)
    for i in range(code.k):
        sel = (u[:, i >> 6] >> np.uint64(i & 63)) & np.uint64(1)
        out ^= p_words[i] * sel[:, None]
    return out


class TestCheckWordsBatch:
    @pytest.mark.parametrize("k", [1, 4, 8, 9, 16, 63, 64, 65, 70, 130])
    def test_matches_per_bit_reference(self, k):
        # n - k = 65 and 129 start a new check word with one bit; padding
        # bits of u past k are set at random and must select nothing
        rng = np.random.default_rng([70, k])
        wk = (k + 63) // 64
        for r in (0, 1, 63, 64, 65, 129):
            code = LinearCode(rng.integers(0, 2, (k, r)))
            assert code._byte_table is None  # built on first use only
            words = rng.integers(0, 1 << 64, size=(300, wk + 1),
                                 dtype=np.uint64)
            u = words[:, :wk]  # a strided slice, as the verifier passes
            assert np.array_equal(code.check_words_batch(u),
                                  check_words_reference(code, u))


class TestRandomLinearCode:
    def test_verified_distance(self):
        code = random_linear_code(15, 5, 5, np.random.default_rng(11))
        assert code.d_verified
        assert code.min_distance_exact() >= 5

    def test_hamming_parameters(self):
        code = random_linear_code(7, 4, 3, np.random.default_rng(2))
        assert code.min_distance_exact() == 3

    def test_impossible_distance_errors(self):
        # no [7,4] code has distance 4
        with pytest.raises(RuntimeError, match="best distance"):
            random_linear_code(7, 4, 4, np.random.default_rng(0),
                               max_retries=60)

    def test_singleton_violation_refused_before_search(self, monkeypatch):
        def fail(self):
            raise AssertionError("distance search ran")

        monkeypatch.setattr(LinearCode, "min_distance_exact", fail)
        with pytest.raises(ValueError, match="Singleton"):
            random_linear_code(64, 16, 60, np.random.default_rng(0))
        with pytest.raises(ValueError, match="Singleton"):
            random_linear_code(64, 30, 36, np.random.default_rng(0))

    def test_singleton_bound_itself_is_searched(self):
        code = random_linear_code(6, 1, 6, np.random.default_rng(0))
        assert code.min_distance_exact() == 6

    def test_unverified_beyond_limit(self):
        with pytest.warns(UserWarning, match="unverified"):
            code = random_linear_code(64, 30, 8, np.random.default_rng(0))
        assert not code.d_verified
        assert code.d_claimed == 8

    def test_gen_rows_are_codewords(self):
        code = random_linear_code(15, 5, 5, np.random.default_rng(11))
        for row in code.gen:
            assert code.contains(BitString(row))


class TestCodeFiles:
    def test_roundtrip(self, hamming, tmp_path):
        path = tmp_path / "code.txt"
        save_code(hamming, path)
        loaded = load_code(path, d_claimed=3)
        assert loaded.n == 7 and loaded.k == 4
        assert np.array_equal(loaded.gen, hamming.gen)

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_code(path)
        path.write_text("7 4\n1010101\n")
        with pytest.raises(ValueError, match="generator rows"):
            load_code(path)
        path.write_text("4 1\n10x0\n")
        with pytest.raises(ValueError):
            load_code(path)


def test_kernel_basis_spans_kernel():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        a = rng.integers(0, 2, size=(m, k), dtype=np.uint8)
        basis = gf2_solution_space(a, np.zeros(m, dtype=np.uint8))[1]
        assert basis.shape[0] == k - gf2_rank(a)
        for row in basis:
            assert not ((a @ row) % 2).any()


def test_wide_systems_satisfy_their_equations():
    # 70 columns: packed rows and solutions are ints beyond 64 bits
    ones = np.ones((1, 70), dtype=np.uint8)
    basis = gf2_solution_space(ones, np.zeros(1, dtype=np.uint8))[1]
    assert basis.shape == (69, 70)
    assert gf2_rank(basis) == 69
    assert not ((ones @ basis.T) % 2).any()
    rng = np.random.default_rng(10)
    a = rng.integers(0, 2, size=(5, 70), dtype=np.uint8)
    rhs = rng.integers(0, 2, size=5, dtype=np.uint8)
    u, basis = gf2_solution_space(a, rhs)
    assert np.array_equal((a @ u) % 2, rhs)
    assert basis.shape == (70 - gf2_rank(a), 70)
    assert not ((a @ basis.T) % 2).any()
