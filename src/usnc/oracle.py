"""Brute-force ground truth for the combinatorial and entropic claims.

Everything here enumerates rather than derives: string spaces are walked as
integer ranges with the channel's distance kernel, BSC masses are the
channel's one per-distance law, and probabilities are summed directly. The
oracles refuse beyond their size limits rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import binary_entropy, intersection_bound
from .channel import (BobChannel, bsc_law_dense, bsc_weight_mass,
                      hamming_distances, typical_window, typical_window_mask,
                      typicality_tail_exact)
from .entropy import (ClassicalDistribution, JointDistribution,
                      cond_min_entropy, gtd, min_entropy)
from .gf2 import BitString, LinearCode
from .hashing import (count_full_rank, digest_table,
                      enumerate_full_rank_seeds, sample_seed)

__all__ = [
    "IntersectionRow",
    "IntersectionReport",
    "verify_intersection_bound",
    "ClippedBscResult",
    "clipped_bsc_construction",
    "LhlResult",
    "lhl_check",
]


@dataclass(frozen=True)
class IntersectionRow:
    weight: int
    sigma: float
    exact: int
    bound: float

    @property
    def ratio(self) -> float:
        return self.exact / self.bound if self.bound > 0 else 0.0


@dataclass(frozen=True)
class IntersectionReport:
    rows: tuple
    passed: bool
    max_ratio: float
    witness: IntersectionRow | None


def verify_intersection_bound(n: int, p: float, eps: float) -> IntersectionReport:
    """Exact intersection counts vs the analytic ceiling, per weight class.

    Translation invariance reduces all pairs at distance w to (0, any
    weight-w string), so one count per weight covers every pair; one
    ``typical_window_mask`` call covers the centres (1 << w) - 1. Checks the
    bound for each class and that counts vanish beyond sigma = p + 2 eps.
    n outside 1..16 is refused before anything is built.
    """
    if not 1 <= n <= 16:
        raise ValueError("weight sweep needs 1 <= n <= 16")
    masks = typical_window_mask(n, (1 << np.arange(n + 1)) - 1, p, eps)
    counts = (masks[0] & masks).sum(axis=1)
    sigmas = [w / (2.0 * n) for w in range(n + 1)]
    rows = tuple(IntersectionRow(weight=w, sigma=sigma, exact=int(counts[w]),
                                 bound=intersection_bound(n, p, eps, sigma))
                 for w, sigma in enumerate(sigmas))
    # the bound is 0 beyond sigma = p + 2 eps, so any count there is over
    over = [row for row in rows if row.exact > row.bound]
    return IntersectionReport(rows=rows, passed=not over,
                              max_ratio=max(row.ratio for row in rows),
                              witness=over[-1] if over else None)


@dataclass(frozen=True)
class ClippedBscResult:
    gtd_actual: float
    tail: float
    min_entropy_per_input: float
    entropy_floor: float
    cond_min_entropy: float | None

    @property
    def passed(self) -> bool:
        """The distance equals the tail within 1e-12, and each measured
        entropy is at least the floor - 1e-9."""
        return (abs(self.gtd_actual - self.tail) <= 1e-12
                and self.min_entropy_per_input >= self.entropy_floor - 1e-9
                and (self.cond_min_entropy is None
                     or self.cond_min_entropy >= self.entropy_floor - 1e-9))


def clipped_bsc_construction(n: int, p: float, eps: float,
                             with_conditional: bool = True) -> ClippedBscResult:
    """Zero the BSC law outside the typical window and measure what remains.

    Returns the exact distance to the unclipped law (equals the window tail:
    clipping removes precisely the tail mass), the per-input min-entropy of
    the clipped conditional law, the analytic floor
    n (h(p) - eps log2((1-p)/p)), and, with with_conditional, the
    conditional min-entropy of the clipped joint under a uniform input.
    Both enumerate densely, so n outside 1..16 is refused before anything
    is built, as are a non-finite p or eps, p outside (0, 1/2) and eps < 0.
    """
    if not 1 <= n <= 16:
        raise ValueError("dense construction needs 1 <= n <= 16")
    window = typical_window(n, p, eps)  # refuses NaN and inf first
    tail = typicality_tail_exact(n, p, eps)  # then the ranges of p and eps
    zero = BitString.zeros(n)
    full = bsc_law_dense(n, zero, p).mass
    clipped = np.where(typical_window_mask(n, 0, p, eps), full, 0.0)
    gtd_actual = gtd(ClassicalDistribution(full), ClassicalDistribution(clipped))
    h_in = min_entropy(ClassicalDistribution(clipped))
    c = np.log2((1.0 - p) / p)
    floor = n * (binary_entropy(p) - eps * float(c))
    cond = None
    if with_conditional:
        cond = _clipped_cond_min_entropy(n, p, *window)
    return ClippedBscResult(gtd_actual=gtd_actual, tail=tail,
                            min_entropy_per_input=h_in, entropy_floor=floor,
                            cond_min_entropy=cond)


# Most (z, x) pairs one row block of ``_clipped_cond_min_entropy`` holds:
# 2^19 uint8 distances (512 KiB) and their compare masks stay in a 2 MiB L2.
_CLIPPED_BLOCK_PAIRS = 1 << 19


def _clipped_cond_min_entropy(n: int, p: float, lo: int, hi: int) -> float:
    """Conditional min-entropy of the clipped joint, in cache-sized row blocks.

    The joint is 2^-n Q(z|x) over all (x, z); per output z the guessing mass
    max over x is found by enumerating every input. Each block of outputs
    takes the uint8 Hamming distance of every (z, x) pair, at most
    ``_CLIPPED_BLOCK_PAIRS`` of them, from ``hamming_distances``. The mass
    depends on x only through that distance, so ``_top_mass_per_row`` reads
    each output's maximum off which distances its row contains. The maxima
    are then summed over the rows of 2^22 pairs at a time, the order of
    gathering the float64 mass of every pair in 2^22-pair chunks, so the
    result is the same bit for bit.
    """
    w = np.arange(n + 1)
    pmf_w = np.where((w >= lo) & (w <= hi), bsc_weight_mass(n, p), 0.0)
    size = 1 << n
    best = np.zeros(size)
    block = max(1, _CLIPPED_BLOCK_PAIRS // size)
    for start in range(0, size, block):
        zc = np.arange(start, min(start + block, size))
        # named: freeing the last block's table before this one is built
        # hands its pages back to the OS to fault in again, 5x slower
        dists = hamming_distances(n, zc)
        best[start:start + len(zc)] = _top_mass_per_row(dists, pmf_w)
    chunk = max(1, (1 << 22) // size)
    total = 0.0
    for start in range(0, size, chunk):
        total += float(best[start:start + chunk].sum())
    return -float(np.log2(total / size))


def _top_mass_per_row(dists: np.ndarray, pmf_w: np.ndarray) -> np.ndarray:
    """``pmf_w[dists].max(axis=1)`` for a uint8 distance matrix, by scanning.

    Distances are tried from the highest mass down; each row takes the mass
    of the first one it contains, and the scan stops once every row has
    one. Rows need not contain every distance.
    """
    best = np.zeros(len(dists))
    todo = np.arange(len(dists))
    for d in np.argsort(pmf_w, kind="stable")[::-1]:
        if todo.size == 0:
            break
        rows = dists if todo.size == len(dists) else dists[todo]
        # a uint8 scalar keeps the comparison in uint8 (NEP 50)
        hit = (rows == np.uint8(d)).any(axis=1)
        best[todo[hit]] = pmf_w[d]
        todo = todo[~hit]
    return best


# Most seeds ``lhl_check`` walks; all 2^18 take a few seconds in seed blocks.
_LHL_MAX_SEEDS = 1 << 18
# Most codeword-row floats one seed block of ``lhl_check`` covers: 2^k rows of
# the view width per seed, 2^19 floats (4 MiB) in all.
_LHL_BLOCK_FLOATS = 1 << 19


@dataclass(frozen=True)
class LhlResult:
    lhs: float
    rhs: float
    h_min: float
    n_seeds: int

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 1e-12


def lhl_check(code: LinearCode, hash_m: int, view_channel: BobChannel,
              seeds: int | None = None,
              rng: np.random.Generator | None = None) -> LhlResult:
    """Extractor quality vs the min-entropy ceiling, by full enumeration.

    lhs: average over seeds of the l1 distance between (digest, view) and
    (uniform digest) x (view marginal), with the input uniform on the code;
    the codewords' view laws are rows of ``view_channel.law_table()``.
    rhs: 2 * 2^((hash_m - Hmin(input|view)) / 2) with the exact conditional
    min-entropy. A view channel whose n is not the code's is refused. seeds
    is None (every full-rank seed) or a sample size >= 1 drawn with rng.
    Either way a family of more than 2^18 seeds is refused before any seed
    is built.

    Seeds are walked in blocks of ``_LHL_BLOCK_FLOATS`` codeword-row floats.
    Every seed is balanced, so a stable argsort of its digest row lists each
    digest's 2^(k-m) codewords together in increasing order, and the
    digest's law is their joint rows added one group position at a time:
    the order in which ``np.add.at`` adds them. The per-seed distances are
    then summed in seed order, so ``lhs`` is the same bit for bit as adding
    one seed at a time.
    """
    k, n = code.k, code.n
    if n > 10 or k > 6:
        raise ValueError("full enumeration needs n <= 10 and k <= 6")
    if view_channel.n != n:
        raise ValueError("view channel has n = %d, the code has n = %d"
                         % (view_channel.n, n))
    if seeds is None:
        count = count_full_rank(k, hash_m)
        if count > _LHL_MAX_SEEDS:
            raise ValueError("the family of %d full-rank seeds exceeds the "
                             "%d-seed limit" % (count, _LHL_MAX_SEEDS))
        seeds = enumerate_full_rank_seeds(k, hash_m)
    else:
        if seeds < 1:
            raise ValueError("need at least one sampled seed")
        if seeds > _LHL_MAX_SEEDS:
            raise ValueError("%d sampled seeds exceed the %d-seed limit"
                             % (seeds, _LHL_MAX_SEEDS))
        if rng is None:
            raise ValueError("sampled seeds need an rng")
        seeds = np.stack([sample_seed(k, hash_m, rng).matrix
                          for _ in range(seeds)])
    laws = view_channel.law_table()[code.codeword_ints()]  # (2^k, V)
    ncw = laws.shape[0]
    marginal = laws.mean(axis=0)
    joint = laws / ncw
    h_min = cond_min_entropy(JointDistribution(joint))
    target = np.tile(marginal / (1 << hash_m), (1 << hash_m, 1))
    dists = np.zeros(len(seeds))
    block = max(1, _LHL_BLOCK_FLOATS // joint.size)
    for start in range(0, len(seeds), block):
        stack = seeds[start:start + block]
        order = np.argsort(digest_table(stack), axis=1, kind="stable")
        groups = order.reshape(len(stack), 1 << hash_m, -1)
        per_digest = joint[groups[:, :, 0]]
        for j in range(1, groups.shape[2]):
            per_digest += joint[groups[:, :, j]]
        dists[start:start + len(stack)] = np.abs(per_digest - target).reshape(
            len(stack), -1).sum(axis=1)
    lhs = float(np.cumsum(dists)[-1]) / len(seeds)  # cumsum adds in order
    rhs = 2.0 * 2.0 ** (0.5 * (hash_m - h_min))
    return LhlResult(lhs=lhs, rhs=rhs, h_min=h_min, n_seeds=len(seeds))
