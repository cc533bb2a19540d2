"""Bit strings, GF(2) linear algebra, and systematic linear codes.

Everything here is deterministic and immutable after construction; randomized
constructors take an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BitString",
    "LinearCode",
    "gf2_rank",
    "gf2_solution_space",
    "random_linear_code",
    "hamming_7_4",
    "even_weight_code",
    "repetition_code",
    "load_code",
    "save_code",
]


class BitString:
    """Immutable binary string of fixed length >= 1.

    Bits are stored as a read-only uint8 array of 0/1 values; bit i of the
    integer encoding is the i-th coordinate.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("BitString needs a 1-D sequence of length >= 1")
        if arr.max(initial=0) > 1:
            raise ValueError("BitString entries must be 0 or 1")
        arr.setflags(write=False)
        self._bits = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BitString":
        # trusted fast path: arr must already be uint8 0/1
        obj = object.__new__(cls)
        arr.setflags(write=False)
        obj._bits = arr
        return obj

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls._wrap(np.zeros(n, dtype=np.uint8))

    @classmethod
    def from01(cls, s: str) -> "BitString":
        if not s or set(s) - {"0", "1"}:
            raise ValueError("expected a nonempty string over {0,1}")
        return cls._wrap(np.frombuffer(s.encode(), dtype=np.uint8) - ord("0"))

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitString":
        if value < 0 or value >> n:
            raise ValueError("value does not fit in %d bits" % n)
        raw = value.to_bytes(8 * ((n + 63) // 64), "little")
        return cls._wrap(_unpack_u64(np.frombuffer(raw, dtype=np.uint64), n))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitString":
        return cls._wrap(rng.integers(0, 2, size=n, dtype=np.uint8))

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    def __len__(self) -> int:
        return self._bits.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._bits.size == other._bits.size and bool(
            np.all(self._bits == other._bits)
        )

    def __hash__(self) -> int:
        return hash((self._bits.size, self._bits.tobytes()))

    def __xor__(self, other: "BitString") -> "BitString":
        """Coordinatewise sum mod 2."""
        if len(self) != len(other):
            raise ValueError("length mismatch: %d vs %d"
                             % (len(self), len(other)))
        return BitString._wrap(np.bitwise_xor(self._bits, other._bits))

    def weight(self) -> int:
        return int(np.count_nonzero(self._bits))

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self._bits)

    def to_int(self) -> int:
        return _pack_rows(self._bits[None])[0]

    def __repr__(self) -> str:
        s = self.to01()
        if len(s) > 48:
            s = s[:45] + "..."
        return "BitString(%r)" % s


# ---------------------------------------------------------------------------
# GF(2) matrix routines: rows packed into Python ints, bit i = column i
# ---------------------------------------------------------------------------


def _xor_span(rows: np.ndarray) -> np.ndarray:
    """Every XOR combination of rows (..., r, w): entry v of the (..., 2^r,
    w) result is the XOR of the rows v's bits select (bit i, row i), built
    by doubling."""
    r = rows.shape[-2]
    span = np.zeros(rows.shape[:-2] + (1 << r, rows.shape[-1]),
                    dtype=rows.dtype)
    for i in range(r):  # entries with top bit i: the lower ones plus row i
        np.bitwise_xor(span[..., : 1 << i, :], rows[..., i, None, :],
                       out=span[..., 1 << i: 2 << i, :])
    return span


def _pack_rows(mat: np.ndarray) -> list[int]:
    """Matrix rows as integers, bit i of a row = column i, from one
    ``packbits`` of the whole matrix (entries mod 2)."""
    packed = np.packbits(np.asarray(mat, dtype=np.uint8) & 1, axis=-1,
                         bitorder="little")
    raw, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i * w:(i + 1) * w], "little")
            for i in range(packed.shape[0])]


def _rref_ints(rows: list[int], ncols: int):
    """In-place reduced row echelon form on bitmask rows; returns pivot cols."""
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i] >> c & 1), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> c & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
    return pivots


def gf2_rank(mat: np.ndarray) -> int:
    rows = _pack_rows(mat)
    return len(_rref_ints(rows, np.asarray(mat).shape[1]))


def gf2_solution_space(mat: np.ndarray, rhs: np.ndarray):
    """(particular solution, kernel basis) of mat @ u = rhs from one
    elimination of [mat | rhs], as ints with bit i = column i.

    The basis holds one int per free column f, in increasing order: bit f
    and the pivot bits that column f of the reduced form sets. The solution
    is None when the system is inconsistent.
    """
    a = np.asarray(mat, dtype=np.uint8)
    b = np.asarray(rhs, dtype=np.uint8).reshape(-1)
    if a.shape[0] != b.size:
        raise ValueError("shape mismatch")
    ncols = a.shape[1]
    rows = _pack_rows(np.column_stack([a, b]))
    pivots = _rref_ints(rows, ncols)
    if any(rows[len(pivots):]):
        return None, None

    def on_pivots(j):  # column j of the reduced form, read at the pivots
        bits = 0
        for row, c in zip(rows, pivots):
            if row >> j & 1:
                bits |= 1 << c
        return bits

    return on_pivots(ncols), [1 << f | on_pivots(f) for f in range(ncols)
                              if f not in pivots]


# ---------------------------------------------------------------------------
# Linear codes
# ---------------------------------------------------------------------------


# Largest block of packed codewords ``min_distance_exact`` holds at once:
# 2^16 uint64 words (512 KB). Larger blocks raise peak memory, not speed.
_SPAN_BLOCK_WORDS = 1 << 16
# Most packed codeword words an exact distance enumeration visits,
# 2^k ceil(n/64): [64,24] and [4096,16] (2^22) are within it.
_DISTANCE_WORDS_CAP = 1 << 24
# Most bits of the P block a named or random code allocates (4 MB as uint8),
# and of the kernel basis ``hashing.preimage_sample`` eliminates for.
_P_BLOCK_BITS_CAP = 1 << 22
# Random codes ``random_linear_code`` draws before giving up on a distance.
_DISTANCE_RETRIES = 500


def _check_p_block(n: int, k: int) -> None:
    if k * (n - k) > _P_BLOCK_BITS_CAP:
        raise ValueError("an [%d,%d] code has a P block of k(n-k) = %d bits, "
                         "above the cap of 2^22" % (n, k, k * (n - k)))


def _check_distance_words(n: int, k: int) -> None:
    if k > 24:
        raise ValueError("exact distance enumeration limited to k <= 24 "
                         "(got k=%d)" % k)
    words = (1 << k) * ((n + 63) // 64)
    if words > _DISTANCE_WORDS_CAP:
        raise ValueError("exact distance of an [%d,%d] code enumerates "
                         "2^k ceil(n/64) = %d words, above the cap of 2^24"
                         % (n, k, words))


def _pack_u64(bits: np.ndarray) -> np.ndarray:
    """0/1 array -> little-endian uint64 words along the last axis.

    Bit i of a row lands at bit i % 64 of word i // 64; padding bits are zero.
    """
    b = np.packbits(bits, axis=-1, bitorder="little")
    pad = (-b.shape[-1]) % 8
    if pad:
        b = np.concatenate(
            [b, np.zeros(b.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1)
    return b.view(np.uint64)


def _unpack_u64(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of ``_pack_u64``: the first nbits bits of each row of 64-bit
    words, as 0/1; only the (nbits + 7) // 8 bytes kept are unpacked."""
    raw = words.view(np.uint8)[..., :(nbits + 7) // 8]
    return np.unpackbits(raw, axis=-1, bitorder="little")[..., :nbits]


class LinearCode:
    """Binary [n, k] code in systematic form, generator [I_k | P].

    Only the k x (n-k) block P is stored; generator and parity-check matrices
    are materialized on demand. The parity check is H = [P^T | I_{n-k}], so
    the syndrome of x is P^T x_msg + x_chk. Check-bit arithmetic runs on rows
    of P packed into 64-bit words.
    """

    __slots__ = ("n", "k", "p_block", "d_claimed", "_p_words", "_byte_table")

    def __init__(self, p_block: np.ndarray, d_claimed: int | None = None):
        p = np.asarray(p_block, dtype=np.uint8) & 1
        if p.ndim != 2:
            raise ValueError("P block must be a 2-D 0/1 matrix")
        k, r = p.shape
        if k < 1:
            raise ValueError("bad code dimensions")
        p.setflags(write=False)
        self.p_block = p
        self.k = k
        self.n = k + r
        self.d_claimed = d_claimed
        self._p_words = _pack_u64(p)
        self._byte_table = None  # built by the first check_words_batch

    # -- matrices -----------------------------------------------------------

    @property
    def gen(self) -> np.ndarray:
        g = np.zeros((self.k, self.n), dtype=np.uint8)
        g[:, : self.k] = np.eye(self.k, dtype=np.uint8)
        g[:, self.k:] = self.p_block
        return g

    # -- operations ---------------------------------------------------------

    def encode(self, u: BitString) -> BitString:
        """Codeword u . G for a k-bit message u."""
        if len(u) != self.k:
            raise ValueError("message length %d != k=%d" % (len(u), self.k))
        word = np.empty(self.n, dtype=np.uint8)
        word[: self.k] = u.bits
        word[self.k:] = _unpack_u64(self._check_words(u.bits),
                                    self.n - self.k)
        return BitString._wrap(word)

    def codeword_ints(self) -> np.ndarray:
        """uint64 int of the codeword of every message u in 0..2^k-1 (row
        u); n <= 64. The check bits come from ``check_words_batch``."""
        u = np.arange(1 << self.k, dtype=np.uint64)
        if self.k == self.n:
            return u
        return u | self.check_words_batch(u[:, None])[:, 0] << np.uint64(
            self.k)

    def _check_words(self, u: np.ndarray) -> np.ndarray:
        sel = np.flatnonzero(u)
        if sel.size:
            return np.bitwise_xor.reduce(self._p_words[sel], axis=0)
        return np.zeros(self._p_words.shape[1], dtype=np.uint64)

    def check_words_batch(self, u: np.ndarray) -> np.ndarray:
        """Packed check bits u P of a block of packed k-bit messages.

        ``u`` is a (T, ceil(k/64)) uint64 array laid out as ``_pack_u64``
        leaves it; the result is (T, ceil((n-k)/64)) words, one row per
        message. Byte b of a message holds message bits 8b..8b+7, and row v
        of byte b's table is the XOR of the rows of P those bits of v select
        (the "Four Russians" table of M4RI), so the check words are
        ceil(k/8) row gathers XORed together. Table rows past bit k are
        zero, so padding bits of u select nothing. The tables are built on
        the first call and kept on the code.
        """
        if self._byte_table is None:  # (ceil(k/8), 256, ceil((n-k)/64))
            nbytes = (self.k + 7) // 8
            rows = np.zeros((8 * nbytes, self._p_words.shape[1]),
                            dtype=np.uint64)
            rows[: self.k] = self._p_words
            self._byte_table = _xor_span(rows.reshape(nbytes, 8, -1))
        table = self._byte_table
        ubytes = u.view(np.uint8)
        out = np.take(table[0], ubytes[:, 0], axis=0)
        for b in range(1, table.shape[0]):
            out ^= np.take(table[b], ubytes[:, b], axis=0)
        return out

    def contains(self, x: BitString) -> bool:
        if len(x) != self.n:
            raise ValueError("length %d != n=%d" % (len(x), self.n))
        return bool(np.array_equal(self._check_words(x.bits[: self.k]),
                                   _pack_u64(x.bits[self.k:])))

    def coset_representative(self, syndrome: BitString) -> BitString:
        """Deterministic coset element: syndrome in the check positions.

        Zero syndrome maps to the all-zero string, so the code itself is its
        own representative's coset.
        """
        if len(syndrome) != self.n - self.k:
            raise ValueError("syndrome length %d != n-k=%d"
                             % (len(syndrome), self.n - self.k))
        x = np.zeros(self.n, dtype=np.uint8)
        x[self.k:] = syndrome.bits
        return BitString._wrap(x)

    def min_distance_exact(self) -> int:
        """Exact minimum distance, enumerating all 2^k - 1 nonzero codewords.

        The span of the first j generator rows is built once by
        ``_xor_span``, as a block of 2^j packed codewords, with j as large
        as keeps the block within ``_SPAN_BLOCK_WORDS`` uint64 words. A
        Gray-code walk over the remaining k - j rows then XORs one offset
        codeword onto the whole block per step and takes the least row
        popcount; the zero word is left out only at offset 0. Refuses for
        k > 24 and beyond 2^24 enumerated words.
        """
        _check_distance_words(self.n, self.k)
        if self.k == self.n:
            return 1
        packed = _pack_u64(self.gen)
        j = min(self.k, max(
            0, (_SPAN_BLOCK_WORDS // packed.shape[1]).bit_length() - 1))
        block = _xor_span(packed[:j])
        best = self.n + 1
        if j:  # offset 0: every word of the block but the zero word
            best = int(np.bitwise_count(block[1:]).sum(axis=1).min())
        shifted = np.empty_like(block)
        offset = np.zeros(packed.shape[1], dtype=np.uint64)
        for t in range(1, 1 << (self.k - j)):
            # Gray code: the row flipped between t-1 and t is t's lowest bit
            offset ^= packed[j + (t & -t).bit_length() - 1]
            np.bitwise_xor(block, offset, out=shifted)
            best = min(best, int(np.bitwise_count(shifted).sum(axis=1).min()))
        return best


def random_linear_code(n: int, k: int, target_d: int,
                       rng: np.random.Generator) -> LinearCode:
    """Random systematic [n, k] code with minimum distance >= target_d.

    The distance is verified exactly, drawing up to 500 codes. Existence
    for rates below the Gilbert-Varshamov threshold k/n <= 1 - h(target_d/n)
    is guaranteed only asymptotically, so small instances may legitimately
    exhaust the budget.
    A target above the Singleton bound n - k + 1 is refused up front: no
    such code exists. So are sizes beyond the desk caps, before anything is
    drawn: a P block of more than 2^22 bits, k > 24, and a distance check
    over more than 2^24 words.
    """
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    if not (1 <= target_d <= n - k + 1):
        raise ValueError("need 1 <= target_d <= n - k + 1 (Singleton bound)")
    _check_p_block(n, k)
    _check_distance_words(n, k)
    best = -1
    for _ in range(_DISTANCE_RETRIES):
        code = LinearCode(rng.integers(0, 2, size=(k, n - k), dtype=np.uint8))
        d = code.min_distance_exact()
        if d >= target_d:
            return LinearCode(code.p_block, d_claimed=target_d)
        best = max(best, d)
    raise RuntimeError(
        "no [%d,%d] code with distance >= %d found in %d tries "
        "(best distance seen: %d)" % (n, k, target_d, _DISTANCE_RETRIES,
                                       best))


def hamming_7_4() -> LinearCode:
    """The [7,4] Hamming code (distance 3) in systematic form."""
    p = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)
    return LinearCode(p, d_claimed=3)


def even_weight_code(n: int) -> LinearCode:
    """The [n, n-1] even-weight (single parity) code, distance 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    _check_p_block(n, n - 1)
    return LinearCode(np.ones((n - 1, 1), dtype=np.uint8), d_claimed=2)


def repetition_code(n: int) -> LinearCode:
    """The [n, 1] repetition code, distance n."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_p_block(n, 1)
    return LinearCode(np.ones((1, n - 1), dtype=np.uint8), d_claimed=n)


def save_code(code: LinearCode, path) -> None:
    """Write the header "n k", then the k generator rows as 0/1 characters."""
    with open(path, "w") as fh:
        fh.write("%d %d\n" % (code.n, code.k))
        for row in code.gen:
            fh.write("".join("1" if b else "0" for b in row) + "\n")


def load_code(path) -> LinearCode:
    """Read a ``save_code`` file; malformed files raise ValueError."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty code file")
    try:
        n, k = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise ValueError("bad header, expected 'n k'") from exc
    if len(lines) != k + 1:
        raise ValueError("expected %d generator rows, got %d"
                         % (k, len(lines) - 1))
    for i, ln in enumerate(lines[1:]):  # before allocating: n may be huge
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError("row %d is not %d characters of 0/1" % (i, n))
    gen = (np.frombuffer("".join(lines[1:]).encode(), dtype=np.uint8)
           - ord("0")).reshape(k, n)
    if k > n:
        raise ValueError("k > n")
    if not np.array_equal(gen[:, :k], np.eye(k, dtype=np.uint8)):
        raise ValueError("generator is not in systematic form [I_k | P]")
    return LinearCode(gen[:, k:])
