import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import all_bits
from usnc.gf2 import (BitString, LinearCode, _pack_rows, _pack_u64, _xor_span,
                      even_weight_code, gf2_rank, gf2_solution_space,
                      hamming_7_4, load_code, random_linear_code,
                      repetition_code, save_code)


def bs(s):
    return BitString.from01(s)


class NoDraws:
    """Stands in for a generator; any draw fails the test."""

    def __getattr__(self, name):
        raise AssertionError("a random draw was reached")


def binary_string_int(bits):
    """0/1 entries as an int with bit i = entry i, read as a binary string
    (the last entry is the most significant digit)."""
    return int("0" + "".join(map(str, bits[::-1])), 2)


def parity_check(code):
    """The parity-check matrix H = [P^T | I_{n-k}] of a systematic code."""
    return np.hstack([code.p_block.T,
                      np.eye(code.n - code.k, dtype=np.uint8)])


def syndrome(code, x):
    """The syndrome H x mod 2 of a word, by matrix product."""
    return BitString((parity_check(code) @ x.bits) % 2)


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

    def test_int_codec_matches_binary_string(self):
        # every width from 1 to 130, across the 64-bit word edges at 63, 64,
        # 65 and 128: random strings, all ones and the top bit alone
        rng = np.random.default_rng(5)
        for width in range(1, 131):
            rows = np.vstack([rng.integers(0, 2, (3, width), dtype=np.uint8),
                              np.ones((1, width), dtype=np.uint8),
                              np.eye(width, dtype=np.uint8)[-1:]])
            for bits in rows:
                value = binary_string_int(bits)
                assert BitString(bits).to_int() == value
                assert np.array_equal(BitString.from_int(value, width).bits,
                                      bits)

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
    """The Hamming distance is the weight of the XOR: ``(x ^ y).weight()``."""

    @pytest.mark.parametrize("x, y, d", [
        ("0000", "0000", 0),
        ("0000", "1111", 4),
        ("0101", "0110", 2),
    ])
    def test_examples(self, x, y, d):
        assert (bs(x) ^ bs(y)).weight() == d

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
            bs("01") ^ bs("011")

    @given(st.integers(1, 24), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_triangle(self, n, rnd):
        x, y, z = (BitString([rnd.randint(0, 1) for _ in range(n)])
                   for _ in range(3))
        assert (x ^ y).weight() == (y ^ x).weight()
        assert (x ^ z).weight() <= (x ^ y).weight() + (y ^ z).weight()


class TestXor:
    @pytest.mark.parametrize("x, y, out", [
        ("1010", "0000", "1010"),
        ("1010", "1010", "0000"),
        ("1100", "1010", "0110"),
    ])
    def test_examples(self, x, y, out):
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
        g, h = hamming.gen, parity_check(hamming)
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
            assert not syndrome(hamming, cw).bits.any()

    @pytest.mark.parametrize("code", [hamming_7_4(), even_weight_code(7),
                                      repetition_code(5)],
                             ids=["hamming74", "even7", "rep5"])
    def test_codeword_ints_follow_encode(self, code):
        # entry u is the int of encode(u), u read as k bits, bit i first
        expect = [code.encode(BitString.from_int(u, code.k)).to_int()
                  for u in range(1 << code.k)]
        assert code.codeword_ints().tolist() == expect

    @pytest.mark.parametrize("k,r", [(4, 3), (5, 0), (8, 8), (9, 40),
                                     (16, 48)])
    def test_codeword_ints_equal_generator_matmul(self, k, r):
        # the byte-table encoding against all_bits(k) @ G; k = n has no
        # check words, k = 9 spans two message bytes
        code = LinearCode(np.random.default_rng(k).integers(0, 2, (k, r)))
        matmul = _pack_u64((all_bits(k) @ code.gen) & 1)[:, 0]
        assert code.codeword_ints().dtype == np.uint64
        assert np.array_equal(code.codeword_ints(), matmul)

    def test_encode_length_check(self, hamming):
        with pytest.raises(ValueError):
            hamming.encode(bs("10100"))

    def test_syndrome_examples(self, hamming):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = BitString.random(7, rng)
            c = hamming.encode(BitString.random(4, rng))
            assert syndrome(hamming, x) == syndrome(hamming, x ^ c)
        e1 = BitString.from_int(1, 7)  # weight-1 at position 0
        assert np.array_equal(syndrome(hamming, e1).bits,
                              parity_check(hamming)[:, 0])

    def test_coset_representative(self, hamming):
        zero = BitString.zeros(3)
        assert hamming.coset_representative(zero) == BitString.zeros(7)
        # right inverse of syndrome, exhaustively over all 8 cosets
        for v in range(8):
            coset = BitString.from_int(v, 3)
            rep = hamming.coset_representative(coset)
            assert syndrome(hamming, rep) == coset
            assert not rep.bits[:4].any()  # zero message coordinates
        # distinct syndromes -> distinct cosets
        r1 = hamming.coset_representative(BitString.from_int(1, 3))
        r2 = hamming.coset_representative(BitString.from_int(2, 3))
        assert not hamming.contains(r1 ^ r2)

    def test_coset_right_inverse_larger(self):
        code = random_linear_code(12, 4, 2, np.random.default_rng(3))
        for v in range(1 << 8):
            coset = BitString.from_int(v, 8)
            assert syndrome(code, code.coset_representative(coset)) == coset

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
            pairwise = min((a ^ b).weight()
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

    def test_systematic_required(self, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("3 2\n110\n011\n")
        with pytest.raises(ValueError, match="not in systematic form"):
            load_code(path)


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
        assert code.min_distance_exact() >= 5

    def test_hamming_parameters(self):
        code = random_linear_code(7, 4, 3, np.random.default_rng(2))
        assert code.min_distance_exact() == 3

    def test_impossible_distance_errors(self):
        # no [7,4] code has distance 4
        with pytest.raises(RuntimeError, match="best distance"):
            random_linear_code(7, 4, 4, np.random.default_rng(0))

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

    def test_refused_beyond_limit(self):
        # k > 24 has no exact distance check, so no code is drawn for it;
        # the Singleton and P-block checks still come first
        with pytest.raises(ValueError, match=r"^exact distance enumeration "
                           r"limited to k <= 24 \(got k=30\)$"):
            random_linear_code(64, 30, 8, NoDraws())
        with pytest.raises(ValueError, match="Singleton"):
            random_linear_code(64, 30, 36, NoDraws())
        with pytest.raises(ValueError, match="P block"):
            random_linear_code(300000, 30, 1, NoDraws())

    def test_gen_rows_are_codewords(self):
        code = random_linear_code(15, 5, 5, np.random.default_rng(11))
        for row in code.gen:
            assert code.contains(BitString(row))


class TestPBlockCap:
    """Named and random codes refuse a P block of more than 2^22 bits
    before they allocate or draw it."""

    @pytest.mark.parametrize("make, n, k", [
        (even_weight_code, (1 << 22) + 2, (1 << 22) + 1),
        (even_weight_code, 3 * 10 ** 9, 3 * 10 ** 9 - 1),
        (repetition_code, (1 << 22) + 2, 1),
        (repetition_code, 3 * 10 ** 9, 1)])
    def test_named_code_refused_before_allocating(self, monkeypatch, make,
                                                  n, k):
        def fail(*args, **kwargs):
            raise AssertionError("P block allocated")

        monkeypatch.setattr(np, "ones", fail)
        with pytest.raises(ValueError, match=r"^an \[%d,%d\] code has a P "
                           r"block of k\(n-k\) = %d bits, above the cap of "
                           r"2\^22$" % (n, k, n - 1)):
            make(n)

    def test_random_code_refused_before_drawing(self):
        with pytest.raises(ValueError, match=r"^an \[300000,16\] code has a "
                           r"P block of k\(n-k\) = 4799744 bits, above the "
                           r"cap of 2\^22$"):
            random_linear_code(300000, 16, 1, NoDraws())

    def test_cap_itself_is_allowed(self):
        code = repetition_code((1 << 22) + 1)
        assert code.p_block.shape == (1, 1 << 22)


class TestCodeFiles:
    def test_roundtrip(self, hamming, tmp_path):
        path = tmp_path / "code.txt"
        save_code(hamming, path)
        loaded = load_code(path)
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

    def test_header_length_checked_before_allocation(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "huge.txt"
        path.write_text("1000000000000 1\n0\n")

        def no_allocation(*args, **kwargs):
            raise AssertionError("the generator was allocated")

        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ValueError, match="row 0 is not 1000000000000 "):
            load_code(path)


def unpack_ints(values, ncols):
    """Ints as the rows of a (len(values), ncols) 0/1 matrix."""
    return np.array([BitString.from_int(v, ncols).bits for v in values],
                    dtype=np.uint8).reshape(-1, ncols)


def check_basis_order(basis, nfree):
    """Basis int i has the i-th free column as its highest bit and no other
    free column's bit: one int per free column, in increasing order."""
    free = [v.bit_length() - 1 for v in basis]
    assert free == sorted(set(free)) and len(free) == nfree
    mask = sum(1 << f for f in free)
    assert all(v & mask == 1 << f for v, f in zip(basis, free))


def test_kernel_basis_spans_kernel():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        a = rng.integers(0, 2, size=(m, k), dtype=np.uint8)
        basis = gf2_solution_space(a, np.zeros(m, dtype=np.uint8))[1]
        assert len(basis) == k - gf2_rank(a)
        for row in unpack_ints(basis, k):
            assert not ((a @ row) % 2).any()


def test_wide_systems_satisfy_their_equations():
    # 70 columns: packed rows and solutions are ints beyond 64 bits
    ones = np.ones((1, 70), dtype=np.uint8)
    basis = unpack_ints(
        gf2_solution_space(ones, np.zeros(1, dtype=np.uint8))[1], 70)
    assert basis.shape == (69, 70)
    assert gf2_rank(basis) == 69
    assert not ((ones @ basis.T) % 2).any()
    rng = np.random.default_rng(10)
    a = rng.integers(0, 2, size=(5, 70), dtype=np.uint8)
    rhs = rng.integers(0, 2, size=5, dtype=np.uint8)
    u, basis = gf2_solution_space(a, rhs)
    assert np.array_equal((a @ unpack_ints([u], 70)[0]) % 2, rhs)
    basis = unpack_ints(basis, 70)
    assert basis.shape == (70 - gf2_rank(a), 70)
    assert not ((a @ basis.T) % 2).any()


def xor_span_reference(rows):
    """Entry v: the XOR of the rows v's bits select, subset by subset."""
    r = rows.shape[-2]
    out = np.zeros(rows.shape[:-2] + (1 << r, rows.shape[-1]),
                   dtype=rows.dtype)
    for v in range(1 << r):
        for sel in itertools.compress(range(r), ((v >> i) & 1
                                                  for i in range(r))):
            out[..., v, :] ^= rows[..., sel, :]
    return out


class TestXorSpan:
    """The one doubling kernel behind the byte tables, the distance block
    and the seed enumeration's subset XORs."""

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_equals_subset_xors(self, dtype, lead):
        rng = np.random.default_rng(len(lead))
        for r in range(9):
            for w in (1, 2):
                rows = rng.integers(0, 1 << 62, size=lead + (r, w),
                                    dtype=np.int64).astype(dtype)
                span = _xor_span(rows)
                assert span.dtype == dtype
                assert np.array_equal(span, xor_span_reference(rows))


class TestIntRows:
    """The scalar solver's int rows against references that share none of
    its code: rows read as binary strings, and brute force over every
    vector."""

    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 63, 64, 65, 4096])
    def test_pack_rows_matches_per_row_packing(self, width):
        rng = np.random.default_rng(width)
        for rows in (1, 3, 8):
            mat = rng.integers(0, 3, size=(rows, width), dtype=np.uint8)
            assert _pack_rows(mat) == [binary_string_int(row & 1)
                                       for row in mat]

    def test_solution_space_equals_brute_force(self):
        rng = np.random.default_rng(11)
        outcomes = set()
        for _ in range(200):
            m, k = int(rng.integers(1, 7)), int(rng.integers(1, 11))
            a = rng.integers(0, 2, size=(m, k), dtype=np.uint8)
            rhs = rng.integers(0, 2, size=m, dtype=np.uint8)
            vectors = all_bits(k)
            hits = ((vectors @ a.T) % 2 == rhs).all(axis=1)
            solutions = set(np.flatnonzero(hits).tolist())
            u, basis = gf2_solution_space(a, rhs)
            outcomes.add(u is None)
            if u is None:
                assert basis is None and not solutions
                continue
            span = {u}
            for v in basis:
                span |= {x ^ v for x in span}
            assert span == solutions
            assert len(solutions) == 1 << len(basis)
            check_basis_order(basis, k - gf2_rank(a))
        assert outcomes == {False, True}

    @pytest.mark.parametrize("width", [63, 64, 65, 70])
    def test_wide_solution_spaces(self, width):
        rng = np.random.default_rng(width)
        for m in (1, 5, 12):
            a = rng.integers(0, 2, size=(m, width), dtype=np.uint8)
            a[-1] = a[0]  # rank deficient when m > 1
            rhs = rng.integers(0, 2, size=m, dtype=np.uint8)
            rhs[-1] = rhs[0]
            u, basis = gf2_solution_space(a, rhs)
            assert u >> width == 0
            assert np.array_equal((a @ unpack_ints([u], width)[0]) % 2, rhs)
            dense = unpack_ints(basis, width)
            assert gf2_rank(dense) == len(basis) == width - gf2_rank(a)
            assert not ((a @ dense.T) % 2).any()
            check_basis_order(basis, width - gf2_rank(a))
            if m > 1:  # the duplicated row with the other right-hand side
                rhs[-1] ^= 1
                assert gf2_solution_space(a, rhs) == (None, None)
