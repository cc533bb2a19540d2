"""Concrete cheating strategies and harnesses measuring their success.

Strategies are finite explicit objects, not quantified adversaries: the
harness can falsify a security bound but never prove one. A cheating sender
is a (S, m, k) seed stack plus a columnar table of atoms that also holds
both openings it announces per atom; its channel is BSC noise around one
string per label (``AliceChannel.bsc``). Both harnesses are exact: they sum
the strategy's joint law against dense channel laws. Binding checks both
openings of every atom with the receiver's packed opening test, groups the
valid atoms by one ``np.unique`` of a packed (label, coset, x0, x1) int64
key and sums each group once under popcount window masks. Hiding reads the
trace distance off the Walsh-Hadamard spectrum, over the message axis, of
the receiver's view laws gathered at coset-shifted codeword ints: in the
difference of the two messages' joints only the characters odd on m0 + m1
survive. Binding also has a Monte Carlo mode that samples
channel outputs and runs the batched verifier, an independent code path
cross-checked against the exact sum. Hiding has none: its view space is the
exact mode's own enumeration, and an empirical trace distance over it only
adds upward-biased sampling noise.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import AliceChannel, BobChannel, typical_window_mask
# gtd and hash_codeword are not called here; benchmarks/tracing.py wraps
# them by name
from .entropy import gtd
from .gf2 import BitString, _pack_u64
from .hashing import (_digest_spectrum_l1, _digests, count_full_rank,
                      enumerate_full_rank_seeds, hash_codeword)
from .protocol import (BLOCK, CommitConfig, TranscriptBatch, _nwords,
                       _openings_pass, _pack_split, bob_verify_batch)

__all__ = [
    "AliceStrategy",
    "AtomTable",
    "BobStrategy",
    "binding_success",
    "midpoint_attack",
    "hiding_advantage",
    "less_noisy_bob",
]

# Most Monte Carlo binding trials: their atom picks are drawn at once, 8
# bytes each, so 10^7 trials hold 80 MB of picks.
_MC_TRIALS_CAP = 10 ** 7


@dataclass(frozen=True)
class AtomTable:
    """A sender's atoms, one per commit-phase outcome (S, input label, Mbar,
    C'), as one C-contiguous 1-D column per field.

    ``prob`` (float64) is the atom's probability; the int64 columns are
    ``seed`` and ``label``, indices into the strategy's seeds and its
    channel's labels, ``mbar``, ``coset`` (the syndrome of C') and the
    openings (``x0``, ``m0``), (``x1``, ``m1``) of the two reveals. Strings
    are ints, bit j being coordinate j. Columns are converted to their dtype
    on construction (an int64 column as it is); columns whose values change
    in the conversion, that are not 1-D or that differ in length are
    refused, and so is a negative or non-finite probability (weights above
    1 are allowed). ``len`` is the number of atoms.
    """

    prob: np.ndarray
    seed: np.ndarray
    label: np.ndarray
    mbar: np.ndarray
    coset: np.ndarray
    x0: np.ndarray
    m0: np.ndarray
    x1: np.ndarray
    m1: np.ndarray

    def __post_init__(self):
        for field in fields(self):
            col = np.asarray(getattr(self, field.name))
            dtype = np.float64 if field.name == "prob" else np.int64
            if col.dtype != dtype:
                col = _cast_exact(col, dtype, field.name)
            col = np.array(col, copy=None, order="C")
            if col.ndim != 1:
                raise ValueError("atom column %s is %d-D, not 1-D"
                                 % (field.name, col.ndim))
            if len(col) != len(self.prob):
                raise ValueError("atom column %s has %d atoms, prob has %d"
                                 % (field.name, len(col), len(self.prob)))
            if field.name == "prob" and not (
                    (col >= 0.0) & (col < np.inf)).all():  # NaN fails both
                raise ValueError("atom column prob holds a negative or "
                                 "non-finite probability")
            object.__setattr__(self, field.name, col)

    def __len__(self) -> int:
        return len(self.prob)


def _cast_exact(values: np.ndarray, dtype, name: str) -> np.ndarray:
    """Atom column ``name`` converted to ``dtype``, refused where the
    conversion changes a value."""
    try:
        # NaN and floats past 2^63 convert to int64 changed, with a warning;
        # ints past 2^64 do not convert at all
        with np.errstate(invalid="ignore"):
            col = values.astype(dtype)
        if np.array_equal(col, values):
            return col
    except (OverflowError, TypeError, ValueError):
        pass
    raise ValueError("atom column %s holds values that %s does not keep"
                     % (name, np.dtype(dtype)))


@dataclass(frozen=True)
class AliceStrategy:
    """Cheating sender: seed stack, atom table and output channel.

    ``seeds`` stacks (S, m, k) 0/1 matrices that the table's ``seed`` column
    indexes. Reveal-phase private randomness is assumed folded into the law
    (standard derandomization).
    """

    seeds: np.ndarray
    atoms: AtomTable
    channel: AliceChannel

    @functools.cached_property
    def seed_words(self) -> np.ndarray:
        """``seeds`` packed once: (S, m, words(k)) uint64 rows."""
        return _pack_u64(self.seeds)


@dataclass(frozen=True)
class BobStrategy:
    """Cheating receiver: a view channel applied to the transmitted string."""

    view_channel: BobChannel


def _require_certifiable(channel, for_bound_comparison: bool):
    if channel.certified:
        return
    if for_bound_comparison:
        raise ValueError("channel is not certified against the entropic "
                         "constraint; run the channel check first")
    warnings.warn("channel not certified; measured value is not comparable "
                  "against the security bounds")


def binding_success(strategy: AliceStrategy, cfg: CommitConfig,
                    mode: str = "exact", trials: int = 10 ** 5,
                    rng: np.random.Generator | None = None,
                    for_bound_comparison: bool = False) -> float:
    """Probability that both reveals get accepted with distinct messages.

    Exact mode enumerates all 2^n channel outputs per group of atoms
    (n <= 16); Monte Carlo mode samples transcripts and runs the verifier,
    and refuses more than 10^7 trials before it draws anything.
    """
    _check_table(strategy, cfg)
    _require_certifiable(strategy.channel, for_bound_comparison)
    if mode == "exact":
        return _binding_exact(strategy, cfg)
    if mode == "mc":
        if rng is None:
            raise ValueError("Monte Carlo mode needs an rng")
        if trials < 1:
            raise ValueError("need trials >= 1")
        if trials > _MC_TRIALS_CAP:
            raise ValueError("%d Monte Carlo trials are above the cap of "
                             "10^7" % trials)
        return _binding_mc(strategy, cfg, trials, rng)
    raise ValueError("mode must be 'exact' or 'mc'")


def _check_table(strategy: AliceStrategy, cfg: CommitConfig) -> None:
    """Refuse a strategy whose seeds, indices or strings do not fit cfg."""
    n, k, hm = cfg.n, cfg.code.k, cfg.hash_m
    if strategy.seeds.shape[1:] != (hm, k) or strategy.channel.n != n:
        raise ValueError("strategy does not match the configuration")
    limits = dict(seed=len(strategy.seeds), label=len(strategy.channel.labels),
                  mbar=1 << hm, coset=1 << (n - k), x0=1 << n, m0=1 << hm,
                  x1=1 << n, m1=1 << hm)
    for name, limit in limits.items():
        col = getattr(strategy.atoms, name)
        if col.size and not 0 <= col.min() <= col.max() < limit:
            raise ValueError("atom column %s outside [0, %d)" % (name, limit))


def _int_words(values: np.ndarray, nbits: int) -> np.ndarray:
    """int64 strings of nbits <= 63 bits packed as by ``_pack_u64`` (a
    view: one word, or none at nbits = 0)."""
    return values[:, None].view(np.uint64)[:, :_nwords(nbits)]


def _split_words(values: np.ndarray, k: int, n: int) -> np.ndarray:
    """int64 strings of n <= 63 bits packed as by ``_pack_split``."""
    words = np.empty((len(values), 1 + _nwords(n - k)), dtype=np.int64)
    np.bitwise_and(values, (1 << k) - 1, out=words[:, 0])
    np.right_shift(values[:, None], k, out=words[:, 1:])
    return words.view(np.uint64)


def _binding_exact(strategy: AliceStrategy, cfg: CommitConfig) -> float:
    """Sum each group of valid atoms' probability times its window mass.

    Openings are checked by ``_openings_pass``. Valid atoms are grouped by
    one ``np.unique`` of the key ((label << (n-k) | coset) << n | x0) << n
    | x1, refused before any work if it needs more than 63 bits. Its fields
    are bounded (``_check_table``), so key order is the row order that
    ``np.unique(axis=0)`` gives: the groups, their order and the atom order
    of each group's weight sum, and hence the float result, match the
    row-sorting grouping bit for bit. Groups come label-major, so the
    channel, which keeps its latest law, builds each label's law at most
    once per call.
    """
    n, k, hm, a = cfg.n, cfg.code.k, cfg.hash_m, strategy.atoms
    if n > 16:
        raise ValueError("exact binding enumeration needs n <= 16")
    bits = (len(strategy.channel.labels) - 1).bit_length() + 3 * n - k
    if bits > 63:
        raise ValueError("exact binding's group key needs %d > 63 bits" % bits)
    seed = np.take(strategy.seed_words, a.seed, axis=0)
    mbar = _int_words(a.mbar, hm)
    valid = (a.m0 != a.m1) & _openings_pass(
        cfg, seed, mbar, _int_words(a.m0, hm), _split_words(a.x0, k, n)) \
        & _openings_pass(cfg, seed, mbar, _int_words(a.m1, hm),
                         _split_words(a.x1, k, n))
    key = ((a.label << (n - k) | a.coset) << n | a.x0) << n | a.x1
    _, first, group = np.unique(key[valid], return_index=True,
                                return_inverse=True)
    heads = np.flatnonzero(valid)[first]  # each group's first atom
    channel = strategy.channel
    group_mass = np.empty(len(heads))
    for g, (label, coset, x0, x1) in enumerate(np.column_stack(
            [a.label[heads], a.coset[heads], a.x0[heads], a.x1[heads]])
            .tolist()):
        rep = coset << k  # the coset representative as an int
        both = typical_window_mask(n, [x0 ^ rep, x1 ^ rep], cfg.p,
                                   cfg.eps).all(axis=0)
        group_mass[g] = channel.law(channel.labels[label]).mass[both].sum()
    weight = np.bincount(group, weights=a.prob[valid], minlength=len(heads))
    return float(weight @ group_mass)


def _binding_mc(strategy: AliceStrategy, cfg: CommitConfig, trials: int,
                rng: np.random.Generator) -> float:
    a, channel = strategy.atoms, strategy.channel
    picks = rng.choice(len(a), size=trials, p=a.prob / a.prob.sum())
    k, n, hm = cfg.code.k, cfg.n, cfg.hash_m
    wins = 0
    for start in range(0, trials, BLOCK):  # picks are capped, batches BLOCK
        i = picks[start: start + BLOCK]
        m0, m1 = a.m0[i], a.m1[i]
        z = np.stack([channel.sample(channel.labels[label], rng).bits
                      for label in a.label[i]])
        batch = TranscriptBatch(
            seed=strategy.seed_words[a.seed[i]],
            mbar=_int_words(a.mbar[i], hm),
            coset=_int_words(a.coset[i], n - k), z=_pack_split(z, k),
            m=_int_words(m0, hm), x=_split_words(a.x0[i], k, n))
        accepted = bob_verify_batch(batch, cfg) & bob_verify_batch(
            replace(batch, m=_int_words(m1, hm),
                    x=_split_words(a.x1[i], k, n)), cfg)
        wins += int((accepted & (m0 != m1)).sum())
    return wins / trials


def midpoint_attack(cfg: CommitConfig, x0: BitString, x1: BitString,
                    spread: float,
                    seeds: np.ndarray | None = None) -> AliceStrategy:
    """Double-opening attempt aiming the channel output halfway between the
    two codewords.

    The channel concentrates BSC(spread) noise around a Hamming midpoint of
    the (coset-shifted) codewords; each reveal announces one codeword with
    the message that makes its digest check pass, so the attack succeeds
    exactly when the output lands in both typical windows and the two digests
    differ. The coset is fixed to the code itself (zero syndrome); success is
    translation invariant in the coset choice. ``seeds`` is a (S, m, k)
    stack, by default every full-rank seed; atoms run over seeds, then masks.
    """
    code = cfg.code
    if x0 == x1 or not (code.contains(x0) and code.contains(x1)):
        raise ValueError("need two distinct codewords")
    if not 0.0 <= spread <= 0.5:
        raise ValueError("need 0 <= spread <= 1/2")
    if cfg.n > 63:
        raise ValueError("strategy tables hold strings of at most 63 bits")
    diff = np.flatnonzero((x0 ^ x1).bits)
    center = x0.bits.copy()
    center[diff[: diff.size // 2]] ^= 1
    channel = AliceChannel.bsc(cfg.n, [BitString(center)], spread)
    if seeds is None:
        seeds = enumerate_full_rank_seeds(code.k, cfg.hash_m)
    d0, d1 = _digests(seeds, np.stack([x0.bits[: code.k],
                                       x1.bits[: code.k]])).T
    seed = np.repeat(np.arange(len(seeds)), 1 << cfg.hash_m)
    mbar = np.tile(np.arange(1 << cfg.hash_m), len(seeds))
    size = seed.size
    atoms = AtomTable(
        prob=np.full(size, 1.0 / size), seed=seed,
        label=np.zeros(size, np.int64), mbar=mbar,
        coset=np.zeros(size, np.int64), x0=np.full(size, x0.to_int()),
        m0=d0[seed] ^ mbar, x1=np.full(size, x1.to_int()),
        m1=d1[seed] ^ mbar)
    return AliceStrategy(seeds=seeds, atoms=atoms, channel=channel)


def hiding_advantage(strategy: BobStrategy, cfg: CommitConfig,
                     m0: BitString, m1: BitString,
                     for_bound_comparison: bool = False) -> float:
    """Trace distance between the receiver's full commit-phase views.

    The view is (channel output, S, Mbar, C') conditioned on the committed
    message; the joint is enumerated exactly over all full-rank seeds, masks,
    cosets and view symbols, and read off the Walsh-Hadamard spectrum of the
    codewords' view laws over the message axis. With L[u] the view law of
    codeword u shifted into coset C' and L^[b] = sum_u (-1)^(b.u) L[u], the
    cell of digest d under seed S is

        sum_{u : S u = d} L[u] = 2^-hm sum_{a in F2^hm} (-1)^(a.d) L^[S^T a],

    and in T[S, d] - T[S, d + delta], delta = m0 + m1, only the characters a
    with a.delta odd survive, so (``hashing._digest_spectrum_l1`` over them)

        advantage = sum_{S, d, C', v} |sum_{a.delta odd} (-1)^(a.d)
                    L^[S^T a, C', v]| / (#seeds * #cosets * 2^k * 2^hm).

    m0 = m1 has no odd character and gives exactly 0.0. The desk-scale and
    2^24-cell refusals run before the view-law table is built. A view channel
    whose n is not the code's is refused.
    """
    if strategy.view_channel.n != cfg.n:
        raise ValueError("view channel has n = %d, the code has n = %d"
                         % (strategy.view_channel.n, cfg.n))
    _require_certifiable(strategy.view_channel, for_bound_comparison)
    if len(m0) != cfg.hash_m or len(m1) != cfg.hash_m:
        raise ValueError("message length mismatch")
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
    # codeword u shifted into coset c: its int with c in the check positions
    shifted = code.codeword_ints()[:, None] ^ (
        np.arange(n_cosets, dtype=np.uint64) << np.uint64(code.k))
    laws = view.law_table()[shifted].reshape(1 << code.k, -1)
    chars = np.arange(1 << hm)
    odd = chars[np.bitwise_count(chars & (m0 ^ m1).to_int()) & 1 == 1]
    total = _digest_spectrum_l1(
        laws, enumerate_full_rank_seeds(code.k, hm), odd).sum()
    return float(total / (n_seeds * n_cosets * (1 << (code.k + hm))))


def less_noisy_bob(p_b: float, n: int) -> BobStrategy:
    """Receiver who downgrades the channel to BSC(p_b); p_b = 0 sees the input."""
    if not 0.0 <= p_b <= 1.0:  # also refuses NaN
        raise ValueError("need 0 <= p_b <= 1")
    return BobStrategy(view_channel=BobChannel.bsc_view(n, p_b))
