"""Test-only references: objects only the tests use, kept out of the package.

- ``smooth_entropy_lp``: the smoothing rule solved as a generic linear
  program, the cross-check of the production cap-lowering rule
  (``entropy._smooth_guess_entropy``). It is the suite's one use of
  ``scipy.optimize``.
- ``constant_view``: a receiver channel whose view is independent of its
  input.
- ``honest_alice_strategy``: the honest committer cast as a sender strategy.
- ``typical_intersection_exact``: the typical-window overlap of one pair of
  centres, counted over all 2^n strings.
- ``clipped_cond_min_entropy_blocks`` and ``top_mass_per_row``: the clipped
  oracle's conditional min-entropy from a full distance table per block of
  outputs, the loop the oracle's split tables replaced.
- ``reaches_in_slabs``: the clipped oracle's presence test in bool slabs of
  split distances, the loop its packed presence planes replaced.
- ``view_table``: exact hiding's message-free view table from a 0/1
  digest-match matmul, the reference for ``adversary.hiding_advantage``'s
  Walsh-Hadamard path.
"""

import numpy as np

from usnc.adversary import AliceStrategy, AtomTable
from usnc.channel import (AliceChannel, BobChannel, bsc_weight_mass,
                          hamming_distances, typical_window_mask)
from usnc.hashing import (count_full_rank, digest_table,
                          enumerate_full_rank_seeds)
from usnc.protocol import alice_commit

_MAX_LP_CELLS = 1 << 16


def smooth_entropy_lp(joint, eps: float) -> float:
    """Smooth conditional min-entropy solved as a linear program.

    Minimises sum_z t_z over removals r with j(x,z) - r(x,z) <= t_z,
    0 <= r <= j and sum r <= eps, by HiGHS on sparse constraints. A
    ``ClassicalDistribution`` is the joint with one side-information column.
    """
    mass = joint.mass
    if mass.ndim == 1:
        mass = mass[:, None]
    if mass.size > _MAX_LP_CELLS:
        raise ValueError("smoothing LP limited to 2^16 cells, got %d"
                         % mass.size)
    if not eps >= 0.0:  # also refuses NaN
        raise ValueError("eps must be nonnegative, got %r" % eps)
    if eps >= mass.sum():
        raise ValueError("eps >= total mass: entropy unbounded")
    # imported on call, so a test can stub scipy.optimize.linprog
    from scipy import sparse
    from scipy.optimize import linprog

    cells, nz = mass.size, mass.shape[1]
    cell = np.arange(cells)
    # rows 0..cells-1: -r(x,z) - t_z <= -j(x,z); last row: sum r <= eps
    rows = np.concatenate([cell, cell, np.full(cells, cells)])
    cols = np.concatenate([cell, cells + cell % nz, cell])
    vals = np.concatenate([-np.ones(2 * cells), np.ones(cells)])
    a_ub = sparse.csr_array((vals, (rows, cols)), shape=(cells + 1,
                                                         cells + nz))
    b_ub = np.append(-mass.ravel(), eps)
    bounds = np.zeros((cells + nz, 2))
    bounds[:cells, 1] = mass.ravel()
    bounds[cells:, 1] = np.inf
    cost = np.append(np.zeros(cells), np.ones(nz))
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError("smoothing LP failed: %s" % res.message)
    return 0.0 - float(np.log2(res.fun))


def constant_view(n: int) -> BobChannel:
    """View independent of the input (a single dummy symbol)."""
    return BobChannel(n, 1, lambda: np.ones((1 << n, 1)))


def honest_alice_strategy(cfg, m, rng, n_atoms: int = 64) -> AliceStrategy:
    """Honest committer cast as a strategy; both reveals tell the truth.

    The commit law is represented by ``n_atoms`` sampled honest draws, one
    channel label each. Both openings coincide, so the double-opening success
    is zero by definition.
    """
    draws = [alice_commit(m, cfg, rng) for _ in range(n_atoms)]
    ch = AliceChannel.bsc(cfg.n, [xbar for _, _, xbar in draws], cfg.p)
    xs = [opening.x.to_int() for opening, _, _ in draws]
    atoms = AtomTable(
        prob=np.full(n_atoms, 1.0 / n_atoms), seed=np.arange(n_atoms),
        label=np.arange(n_atoms),
        mbar=[wire.mbar.to_int() for _, wire, _ in draws],
        coset=[wire.coset.to_int() for _, wire, _ in draws], x0=xs,
        m0=np.full(n_atoms, m.to_int()), x1=xs,
        m1=np.full(n_atoms, m.to_int()))
    return AliceStrategy(
        seeds=np.stack([wire.seed.matrix for _, wire, _ in draws]),
        atoms=atoms, channel=ch)


def typical_intersection_exact(n: int, p: float, eps: float, x, y) -> int:
    """Size of the typical-window overlap, enumerating all 2^n strings."""
    if n > 20:
        raise ValueError("exact intersection enumeration needs n <= 20")
    if len(x) != n or len(y) != n:
        raise ValueError("length mismatch")
    both = typical_window_mask(n, [x.to_int(), y.to_int()], p, eps)
    return int(np.count_nonzero(both.all(axis=0)))


def clipped_cond_min_entropy_blocks(n: int, p: float, lo: int,
                                    hi: int) -> float:
    """Conditional min-entropy of the clipped joint from full distance
    tables: each block of 2^19 // 2^n outputs takes the uint8 distance of
    every (z, x) pair from ``hamming_distances`` and ``top_mass_per_row``
    reads each output's maximum off it. The maxima are summed in the
    oracle's 2^22-pair chunks."""
    w = np.arange(n + 1)
    pmf_w = np.where((w >= lo) & (w <= hi), bsc_weight_mass(n, p), 0.0)
    size = 1 << n
    best = np.zeros(size)
    block = max(1, (1 << 19) // size)
    for start in range(0, size, block):
        zc = np.arange(start, min(start + block, size))
        best[start:start + len(zc)] = top_mass_per_row(
            hamming_distances(n, zc), pmf_w)
    chunk = max(1, (1 << 22) // size)
    total = 0.0
    for start in range(0, size, chunk):
        total += float(best[start:start + chunk].sum())
    return -float(np.log2(total / size))


def top_mass_per_row(dists: np.ndarray, pmf_w: np.ndarray) -> np.ndarray:
    """``pmf_w[dists].max(axis=1)`` for a uint8 distance matrix, by scanning
    distances from the highest mass down; each row takes the mass of the
    first one it contains, and the scan stops once every row has one."""
    best = np.zeros(len(dists))
    todo = np.arange(len(dists))
    for d in np.argsort(pmf_w, kind="stable")[::-1]:
        if todo.size == 0:
            break
        rows = dists if todo.size == len(dists) else dists[todo]
        hit = (rows == np.uint8(d)).any(axis=1)
        best[todo[hit]] = pmf_w[d]
        todo = todo[~hit]
    return best


# Outputs one slab of ``reaches_in_slabs`` covers, all in one high part.
SLAB_ROWS = 64


def reaches_in_slabs(d_low: np.ndarray, d_high: np.ndarray, d: int,
                     rows: int = SLAB_ROWS) -> np.ndarray:
    """Whether each output z = zh 2^low + zl reaches distance d, i.e.
    ``d_low[zl, xl] + d_high[zh, xh] == d`` for some input, in z order, for
    uint8 split tables (2^low, 2^low) and (2^high, 2^high). Outputs go
    ``rows`` at a time within one high part, and one bool slab
    (2^high, rows, 2^low) takes d_low == d - d_high for every high offset
    at once. Below zero, uint8 d - d_high wraps to 248 or more, past every
    low distance."""
    slab = np.empty((len(d_high), rows, d_low.shape[1]), dtype=bool)
    found = []
    for high in d_high:
        for zl in range(0, len(d_low), rows):
            block = d_low[zl:zl + rows]
            hits = slab[:, :len(block)]
            # a uint8 scalar keeps the subtraction in uint8 (NEP 50)
            np.equal(block, (np.uint8(d) - high)[:, None, None], out=hits)
            found.append(np.logical_or.reduce(hits, axis=0).any(axis=1))
    return np.concatenate(found)


def view_table(strategy, cfg) -> np.ndarray:
    """Message-free view table, axes (seed, digest, coset x view symbol).

    Cell (S, d, C') sums the view laws of c + rep(C') over the codewords c
    whose digest under S is d: one 0/1 match of the digest table against
    every digest, times the table of shifted view laws, in seed chunks that
    keep every intermediate within 2^24 entries. Normalised as a joint, its
    digest m + Mbar is the cell (S, Mbar, C') of message m's joint, so the
    hiding advantage is ``gtd`` of the table read at m0 + Mbar and at
    m1 + Mbar. Refuses what ``hiding_advantage`` refuses, with its texts.
    """
    code, hm = cfg.code, cfg.hash_m
    if code.k > 16 or code.k * hm > 24:
        raise ValueError("exact hiding enumeration is desk-scale only")
    n_cosets = 1 << (code.n - code.k)
    view = strategy.view_channel
    n_seeds = count_full_rank(code.k, hm)
    cells = n_seeds * (1 << hm) * n_cosets * view.view_size
    if cells > 1 << 24:
        raise ValueError("view space too large for exact mode "
                         "(%d cells > 2^24)" % cells)
    seeds = enumerate_full_rank_seeds(code.k, hm)
    # codeword u shifted into coset c: its int with c in the check positions
    shifted = code.codeword_ints()[:, None] ^ (
        np.arange(n_cosets, dtype=np.uint64) << np.uint64(code.k))
    laws = view.law_table()[shifted].reshape(1 << code.k, -1)
    out = np.empty((n_seeds, 1 << hm, laws.shape[1]))
    step = max(1, (1 << 24) >> (hm + code.k))
    for lo in range(0, n_seeds, step):
        match = digest_table(seeds[lo: lo + step])[:, None, :] \
            == np.arange(1 << hm)[:, None]
        out[lo: lo + step] = (match.reshape(-1, 1 << code.k) @ laws) \
            .reshape(-1, 1 << hm, laws.shape[1])
    # priors 1/(#seeds * |M| * #cosets), preimage weight |M|/|C|
    out /= n_seeds * (1 << hm) * n_cosets
    out /= 1 << (code.k - hm)
    return out
