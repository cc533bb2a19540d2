"""Brute-force ground truth for the combinatorial and entropic claims.

Everything here enumerates rather than derives: string spaces are walked as
integer ranges with the channel's distance kernel, BSC masses are the
channel's one per-distance law, and probabilities are summed directly (per
seed and digest in the leftover-hash check, off a Walsh-Hadamard spectrum).
The oracles refuse beyond their size limits rather than approximate.
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
from .gf2 import BitString, LinearCode, _pack_u64
from .hashing import (_digest_spectrum_l1, count_full_rank,
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
    is built, as are a non-finite p or eps, p outside (0, 1/2), eps < 0 and
    an empty window, which leaves no mass to measure.
    """
    if not 1 <= n <= 16:
        raise ValueError("dense construction needs 1 <= n <= 16")
    lo, hi = typical_window(n, p, eps)  # refuses NaN and inf first
    tail = typicality_tail_exact(n, p, eps)  # then the ranges of p and eps
    if lo > hi:
        raise ValueError("typical window of n = %d, p = %r, eps = %r is "
                         "empty: w_lo %d > w_hi %d" % (n, p, eps, lo, hi))
    zero = BitString.zeros(n)
    full = bsc_law_dense(n, zero, p).mass
    clipped = np.where(typical_window_mask(n, 0, p, eps), full, 0.0)
    gtd_actual = gtd(ClassicalDistribution(full), ClassicalDistribution(clipped))
    h_in = min_entropy(ClassicalDistribution(clipped))
    c = np.log2((1.0 - p) / p)
    floor = n * (binary_entropy(p) - eps * float(c))
    cond = None
    if with_conditional:
        cond = _clipped_cond_min_entropy(n, p, lo, hi)
    return ClippedBscResult(gtd_actual=gtd_actual, tail=tail,
                            min_entropy_per_input=h_in, entropy_floor=floor,
                            cond_min_entropy=cond)


def _clipped_cond_min_entropy(n: int, p: float, lo: int, hi: int) -> float:
    """Conditional min-entropy of the clipped joint, one high part at a time.

    The joint is 2^-n Q(z|x) over all (x, z), and Q(z|x) is the window mass
    ``pmf_w`` at d(z, x). Each output z has an input at every distance
    0..n, so its guessing mass max over x is the top window mass
    ``pmf_w[d*]``, d* = ``pmf_w.argmax()``. That is checked for every
    output, not assumed: strings split into a low byte and a high part,
    z = zh 2^8 + zl, so d(z, x) = d_low[zl, xl] + d_high[zh, xh], both
    tables from ``hamming_distances``. The low table is packed once into
    presence planes (``_presence_planes``); for each high part ``_reaches``
    tests its outputs against every input, each (z, x) pair one bit of an
    OR, and an output with no input at d* is refused as an oracle fault.
    The masses are then summed over the rows of 2^22 pairs at a time, the
    order of gathering the float64 mass of every pair in 2^22-pair chunks,
    so the result is the same bit for bit.
    """
    w = np.arange(n + 1)
    pmf_w = np.where((w >= lo) & (w <= hi), bsc_weight_mass(n, p), 0.0)
    top = int(pmf_w.argmax())
    low = min(n, 8)
    d_low = hamming_distances(low, np.arange(1 << low))
    d_high = hamming_distances(n - low, np.arange(1 << (n - low)))
    planes = _presence_planes(d_low)
    size = 1 << n
    best = np.zeros(size)
    for zh, high in enumerate(d_high):
        found = _reaches(planes, high, top)
        start = zh << low
        if not found.all():
            raise RuntimeError(
                "clipped oracle fault: output z = %d has no input at "
                "distance %d" % (start + int(found.argmin()), top))
        best[start:start + len(found)] = pmf_w[top]
    chunk = max(1, (1 << 22) // size)
    total = 0.0
    for start in range(0, size, chunk):
        total += float(best[start:start + chunk].sum())
    return -float(np.log2(total / size))


def _presence_planes(d_low: np.ndarray) -> np.ndarray:
    """Packed presence planes of a uint8 low-distance table (rows, cols):
    ``planes[t, zl]`` holds bit xl (``_pack_u64`` words) exactly where
    ``d_low[zl, xl] == t``, for t = 0..max + 1. No entry exceeds the max,
    so the last plane is all zero."""
    ts = np.arange(int(d_low.max()) + 2, dtype=np.uint8)
    return _pack_u64(d_low == ts[:, None, None])


def _reaches(planes: np.ndarray, d_high: np.ndarray, d: int) -> np.ndarray:
    """Whether each low row reaches distance d through some high offset:
    ``(d_low[:, None, :] + d_high[:, None] == d).any(axis=(1, 2))`` for the
    low table behind ``planes`` and one high part's uint8 distances
    (2^high,).

    Offset xh needs the low distance d - d_high[xh], so its plane is
    gathered for every xh and the planes are ORed over xh: each (row, xl,
    xh) pair is one bit of the OR. Below zero, uint8 d - d_high wraps to
    248 or more, and it and every target past the table's max map to the
    zero plane.
    """
    # a uint8 scalar keeps the subtraction in uint8 (NEP 50)
    target = np.minimum(np.uint8(d) - d_high, len(planes) - 1)
    return np.bitwise_or.reduce(planes[target], axis=0).any(axis=1)


# Most seeds ``lhl_check`` walks; all 2^18 take a few seconds in seed blocks.
_LHL_MAX_SEEDS = 1 << 18


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

    Under seed S the joint summed over digest d's codewords is 2^-m
    sum_a (-1)^(a.d) J^[S^T a], J^ the joint's Walsh-Hadamard spectrum over
    the message axis; its a = 0 term is the target marginal / 2^m, so the
    seed's distance is 2^-m ``hashing._digest_spectrum_l1`` over the
    characters 1..2^m - 1. The distances are summed in seed order.
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
    joint = laws / laws.shape[0]
    h_min = cond_min_entropy(JointDistribution(joint))
    dists = _digest_spectrum_l1(joint, seeds, np.arange(1, 1 << hash_m))
    lhs = float(np.cumsum(dists)[-1]) / (len(seeds) << hash_m)  # in order
    rhs = 2.0 * 2.0 ** (0.5 * (hash_m - h_min))
    return LhlResult(lhs=lhs, rhs=rhs, h_min=h_min, n_seeds=len(seeds))
