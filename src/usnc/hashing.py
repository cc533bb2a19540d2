"""Balanced 2-universal hashing of codewords onto message strings.

The family is the set of full-rank m x k binary matrices acting on the
systematic message coordinates of a codeword. Every member is balanced (all
preimages are affine subspaces of equal size 2^(k-m)) and the family is
2-universal; conditioning on full rank only improves the collision bound,
since Pr[T w = 0] = (2^(k-m) - 1)/(2^k - 1) < 2^-m for w != 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .gf2 import (BitString, LinearCode, all_bits, gf2_rank,
                  gf2_solution_space)

__all__ = [
    "HashSeed",
    "sample_seed",
    "hash_codeword",
    "preimage_sample",
    "shifted_hash",
    "digest_table",
    "verify_balanced",
    "estimate_collision_probability",
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
    so the sample is a particular solution plus a uniform kernel element.
    """
    if len(m_val) != seed.m:
        raise ValueError("digest length %d != m=%d" % (len(m_val), seed.m))
    u0, basis = gf2_solution_space(seed.matrix, m_val.bits)
    assert u0 is not None  # guaranteed by full rank
    if basis.shape[0]:
        coeffs = rng.integers(0, 2, size=basis.shape[0], dtype=np.uint8)
        u0 = u0 ^ ((coeffs @ basis) & 1)
    return code.encode(BitString._wrap(u0.astype(np.uint8)))


def shifted_hash(seed: HashSeed, code: LinearCode, cprime_rep: BitString,
                 c_in_coset: BitString) -> BitString:
    """Hash of a coset element after translating the coset back to the code.

    The input must lie in the coset identified by cprime_rep (equal
    syndromes); the digest is hash(c_in_coset + cprime_rep).
    """
    if code.syndrome(c_in_coset) != code.syndrome(cprime_rep):
        raise ValueError("input is not in the coset of the given representative")
    return hash_codeword(seed, code, c_in_coset ^ cprime_rep)


def digest_table(matrix: np.ndarray) -> np.ndarray:
    """Digest T u of every k-bit message u under an m x k 0/1 matrix T.

    Entry u is for row u of ``gf2.all_bits(k)``; digest bit j is bit j of
    the entry, as in ``hash_codeword(...).to_int()``. T may be rank
    deficient.
    """
    m, k = matrix.shape
    return ((all_bits(k) @ matrix.T) & 1) @ (1 << np.arange(m))


def verify_balanced(seed, code: LinearCode) -> dict:
    """Exhaustively check that all 2^m digests have 2^(k-m) preimages.

    Accepts a HashSeed or a raw 0/1 matrix (so deliberately rank-deficient
    matrices, which HashSeed refuses, can be shown unbalanced).
    """
    matrix = seed.matrix if isinstance(seed, HashSeed) else \
        np.asarray(seed, dtype=np.uint8) & 1
    k, m = code.k, matrix.shape[0]
    if k > 20:
        raise ValueError("balance check enumerates 2^k codewords; k <= 20 only")
    if matrix.shape[1] != k:
        raise ValueError("matrix width %d != code dimension %d"
                         % (matrix.shape[1], k))
    counts = np.bincount(digest_table(matrix), minlength=1 << m)
    expected = 1 << (k - m)
    return {
        "balanced": bool(np.all(counts == expected)),
        "counts": counts,
        "expected": expected,
    }


def estimate_collision_probability(k: int, m: int, trials: int,
                                   rng: np.random.Generator,
                                   n_pairs: int = 20) -> float:
    """Worst empirical collision rate over sampled distinct message pairs.

    For each pair u1 != u2, draws ``trials`` full-rank seeds and counts
    T u1 = T u2 events; returns the max rate over pairs.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if m == k:
        return 0.0  # injective: kernel is trivial
    worst = 0.0
    for _ in range(n_pairs):
        w = np.zeros(k, dtype=np.uint8)
        while not w.any():
            w = rng.integers(0, 2, size=k, dtype=np.uint8)
        hits = 0
        for _ in range(trials):
            t = sample_seed(k, m, rng)
            if not ((t.matrix @ w) & 1).any():
                hits += 1
        worst = max(worst, hits / trials)
    return worst


def exact_collision_probability(k: int, m: int) -> float:
    """Pr[T w = 0] for fixed w != 0 over uniform full-rank seeds."""
    return ((1 << (k - m)) - 1) / ((1 << k) - 1)


def count_full_rank(k: int, m: int) -> int:
    """Number of full-rank m x k binary matrices."""
    cnt = 1
    for i in range(m):
        cnt *= (1 << k) - (1 << i)
    return cnt


def enumerate_full_rank_seeds(k: int, m: int) -> list[HashSeed]:
    """All full-rank m x k matrices; feasible only for m*k <= 24."""
    if not (1 <= m <= k):
        raise ValueError("need 1 <= m <= k")
    if m * k > 24:
        raise ValueError("enumeration of 2^(m*k) matrices needs m*k <= 24")
    rows = all_bits(k)
    seeds = []
    for combo in product(range(1 << k), repeat=m):
        try:
            seeds.append(HashSeed(rows[list(combo)]))
        except ValueError:  # rank deficient
            continue
    return seeds
