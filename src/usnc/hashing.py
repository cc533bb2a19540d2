"""Balanced 2-universal hashing of codewords onto message strings.

The family is the set of full-rank m x k binary matrices acting on the
systematic message coordinates of a codeword. Every member is balanced (all
preimages are affine subspaces of equal size 2^(k-m)) and the family is
2-universal; conditioning on full rank only improves the collision bound,
since Pr[T w = 0] = (2^(k-m) - 1)/(2^k - 1) < 2^-m for w != 0.

A single seed is a ``HashSeed``; a family of seeds, such as the whole
enumerated family, is one (S, m, k) uint8 stack, and ``digest_table`` digests
every message under every seed of a stack at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gf2 import (_P_BLOCK_BITS_CAP, BitString, LinearCode, _unpack_u64,
                  all_bits, gf2_rank, gf2_solution_space)

__all__ = [
    "HashSeed",
    "sample_seed",
    "hash_codeword",
    "preimage_sample",
    "digest_table",
    "exact_collision_probability",
    "enumerate_full_rank_seeds",
    "count_full_rank",
]


@dataclass(frozen=True)
class HashSeed:
    """Full-rank m x k binary matrix; rows are read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.uint8) & 1
        if m.ndim != 2 or m.shape[0] < 1:
            raise ValueError("seed must be a 2-D 0/1 matrix with at least "
                             "one row")
        if gf2_rank(m) != m.shape[0]:
            raise ValueError("seed matrix is rank deficient")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def __eq__(self, other):
        if not isinstance(other, HashSeed):
            return NotImplemented
        return (self.matrix.shape == other.matrix.shape
                and bool(np.all(self.matrix == other.matrix)))

    def __hash__(self):
        return hash((self.matrix.shape, self.matrix.tobytes()))


def sample_seed(k: int, m: int, rng: np.random.Generator) -> HashSeed:
    """Uniform full-rank m x k matrix by rejection sampling."""
    if not (1 <= m <= k):
        raise ValueError("need 1 <= m <= k")
    while True:
        try:
            return HashSeed(rng.integers(0, 2, size=(m, k), dtype=np.uint8))
        except ValueError:  # rank deficient, resample
            continue


def hash_codeword(seed: HashSeed, code: LinearCode, c: BitString) -> BitString:
    """Digest T u of the message coordinates u of codeword c."""
    if not code.contains(c):
        raise ValueError("input is not a codeword")
    if seed.k != code.k:
        raise ValueError("seed width %d != code dimension %d"
                         % (seed.k, code.k))
    u = c.bits[: code.k]
    return BitString._wrap(((seed.matrix @ u) & 1).astype(np.uint8))


def preimage_sample(seed: HashSeed, code: LinearCode, m_val: BitString,
                    rng: np.random.Generator) -> BitString:
    """Uniform codeword among those hashing to m_val.

    Full rank makes every digest's preimage a nonempty coset of the kernel,
    so the sample is a particular solution XOR the basis ints that k - m
    uniform bits select (no draw when k = m). A kernel basis of (k - m) k
    bits above the P-block cap of 2^22 is refused before any elimination.
    """
    if len(m_val) != seed.m:
        raise ValueError("digest length %d != m=%d" % (len(m_val), seed.m))
    bits = (seed.k - seed.m) * seed.k
    if bits > _P_BLOCK_BITS_CAP:
        raise ValueError("a %d-bit message space has a kernel basis of "
                         "(k-m)k = %d bits, above the cap of 2^22"
                         % (seed.k, bits))
    u0, basis = gf2_solution_space(seed.matrix, m_val.bits)
    assert u0 is not None  # guaranteed by full rank
    if basis:
        coeffs = rng.integers(0, 2, size=len(basis), dtype=np.uint8)
        for row in itertools.compress(basis, coeffs.tolist()):
            u0 ^= row
    return code.encode(BitString.from_int(u0, seed.k))


def _digests(seeds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Digest ints T u of message rows u (..., N, k) under 0/1 matrices T
    (..., m, k), broadcast over the leading axes; returns (..., N).

    Digest bit j is bit j of the int, as in ``hash_codeword(...).to_int()``.
    """
    return ((u @ np.swapaxes(seeds, -1, -2)) & 1) \
        @ (1 << np.arange(seeds.shape[-2]))


def digest_table(seeds: np.ndarray) -> np.ndarray:
    """Digest of every k-bit message under a stack (..., m, k) of matrices.

    Returns (..., 2^k): entry u is for row u of ``gf2.all_bits(k)``, as an
    int (see ``_digests``). One m x k matrix gives one row of 2^k digests.
    The matrices may be rank deficient.
    """
    return _digests(seeds, all_bits(seeds.shape[-1]))


def exact_collision_probability(k: int, m: int) -> float:
    """Pr[T w = 0] for fixed w != 0 over uniform full-rank seeds."""
    return ((1 << (k - m)) - 1) / ((1 << k) - 1)


def count_full_rank(k: int, m: int) -> int:
    """Number of full-rank m x k binary matrices."""
    cnt = 1
    for i in range(m):
        cnt *= (1 << k) - (1 << i)
    return cnt


def enumerate_full_rank_seeds(k: int, m: int) -> np.ndarray:
    """Every full-rank m x k 0/1 matrix, as one (S, m, k) uint8 stack.

    Seeds run in lexicographic order of their rows read as k-bit ints, row 0
    first: the order of ``itertools.product(range(2^k), repeat=m)``. Rows
    are full rank iff every nonempty subset of them XORs to nonzero (m <= 4
    under the cap m*k <= 24, so at most 15 subsets). The stack grows one row
    at a time: a prefix keeps each next row outside the XORs of its own
    subsets, in increasing order, which preserves the lexicographic order.
    """
    if not (1 <= m <= k):
        raise ValueError("need 1 <= m <= k")
    if m * k > 24:
        raise ValueError("enumeration of 2^(m*k) matrices needs m*k <= 24")
    rows = np.zeros((1, 0), dtype=np.int64)  # full-rank prefixes, rows as ints
    for _ in range(m):
        span = np.zeros((len(rows), 1), dtype=np.int64)  # subset XORs
        for col in rows.T:
            span = np.concatenate([span, span ^ col[:, None]], axis=1)
        free = np.ones((len(rows), 1 << k), dtype=bool)
        np.put_along_axis(free, span, False, axis=1)
        prefix, row = np.nonzero(free)  # row-major, so in lexicographic order
        rows = np.column_stack([rows[prefix], row])
    return _unpack_u64(rows[..., None], k)
