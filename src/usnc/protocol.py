"""Commit and reveal phases of the string commitment protocol.

Commit: the sender draws a hash seed S, a mask Mbar, and a coset C'
(uniform syndrome), masks the message, lifts it to a uniform codeword
preimage X, and transmits X + x_C' through the noisy channel while S, Mbar,
C' travel noiselessly. ``alice_commit`` returns the opening, the noiseless
wire and the string X + x_C'; ``run_honest`` sends that string through
BSC(p), and callers with another channel apply their own. Reveal: the sender
announces (M, X); the receiver outputs M unconditionally and accepts iff X is
a codeword, the stored channel output is typical for X + x_C', and the hash
of X matches M + Mbar. Consumers must gate on the flag, not on the returned
message.

The completeness Monte Carlo runs on the batched engine: ``run_honest_batch``
commits and opens a whole block of BLOCK trials at once as packed uint64
words, and ``bob_verify_batch`` applies the three accept tests to every
opening of a block; its codeword-and-digest half, ``_openings_pass``, is
also the one opening test of exact binding. Block b of a run draws all its
randomness from ``default_rng([master_seed, b])``, and a run of T trials
counts the first T verdicts of its blocks, so results depend only on the
configuration, the trial count and the master seed, never on how blocks are
grouped into calls. The scalar ``run_honest``/``bob_verify`` remain the
reference the batch path is tested against. Both send X + x_C' through
BSC(p) with the same law, that of ``Generator.random() < p`` per bit, but
not from the same stream: ``bsc_transmit`` draws one ``random()`` per bit,
while the batch engine draws its noise bit-sliced, 64 bits per raw output
(``_bsc_words``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import bsc_transmit, typical_membership, typical_window
from .gf2 import BitString, LinearCode, _pack_u64, _unpack_u64
from .hashing import HashSeed, hash_codeword, preimage_sample, sample_seed

__all__ = [
    "ACC",
    "REJ",
    "CommitConfig",
    "CommitWire",
    "Opening",
    "CommitmentTranscript",
    "alice_commit",
    "bob_receive",
    "bob_verify",
    "run_honest",
    "HonestRun",
    "BLOCK",
    "TranscriptBatch",
    "run_honest_batch",
    "bob_verify_batch",
    "estimate_completeness",
    "CompletenessEstimate",
    "transcript_to_json",
    "transcript_from_json",
]

ACC = "acc"
REJ = "rej"


@dataclass(frozen=True)
class CommitConfig:
    """Protocol instance: code, digest length, channel noise, window width."""

    code: LinearCode
    hash_m: int
    p: float
    eps: float

    def __post_init__(self):
        if self.code.k == self.code.n:
            raise ValueError("an [n, n] code has no syndrome to name a coset; "
                             "the protocol needs k < n")
        if self.code.d_claimed is None:
            raise ValueError("protocol code needs a (possibly unverified) distance")
        if not self.code.d_claimed < self.code.n / 2:
            raise ValueError("code distance must be < n/2")
        if not 1 <= self.hash_m <= self.code.k:
            raise ValueError("need 1 <= hash_m <= k")
        if not 0.0 < self.p < 0.5:
            raise ValueError("need 0 < p < 1/2")
        if not 0.0 < self.eps < 0.5 - self.p:
            raise ValueError("need 0 < eps < 1/2 - p")

    @property
    def n(self) -> int:
        return self.code.n


@dataclass(frozen=True)
class CommitWire:
    """Noiseless part of the commit message: (S, Mbar, C')."""

    seed: HashSeed
    mbar: BitString
    coset: BitString  # syndrome of C'


@dataclass(frozen=True)
class Opening:
    m: BitString
    x: BitString


@dataclass(frozen=True)
class CommitmentTranscript:
    """What the receiver stores: (S, Mbar, C', Z), plus the opening if revealed."""

    seed: HashSeed
    mbar: BitString
    coset: BitString  # syndrome of C'
    z: BitString
    opening: Opening | None = None


def alice_commit(m: BitString, cfg: CommitConfig, rng: np.random.Generator):
    """Commit phase; returns (opening, noiseless wire, transmitted string).

    The transmitted string is the masked-codeword lift X + x_C'; its syndrome
    always equals C', and the seed hash of X always equals m + Mbar. The
    caller sends it through the channel (``run_honest`` uses BSC(p)).
    """
    if len(m) != cfg.hash_m:
        raise ValueError("message length %d != hash_m=%d" % (len(m), cfg.hash_m))
    code = cfg.code
    seed = sample_seed(code.k, cfg.hash_m, rng)
    mbar = BitString.random(cfg.hash_m, rng)
    coset = BitString.random(code.n - code.k, rng)  # a uniform coset
    x = preimage_sample(seed, code, m ^ mbar, rng)
    return (Opening(m=m, x=x), CommitWire(seed=seed, mbar=mbar, coset=coset),
            x ^ code.coset_representative(coset))


def _check_shape(t: CommitmentTranscript, cfg: CommitConfig) -> None:
    """Refuse a transcript, naming its first field that does not fit cfg."""
    n, k, hm = cfg.n, cfg.code.k, cfg.hash_m
    fields = [("seed shape", "%dx%d" % t.seed.matrix.shape, "%dx%d" % (hm, k)),
              ("mask length", len(t.mbar), hm),
              ("syndrome length", len(t.coset), n - k),
              ("z length", len(t.z), n)]
    if t.opening is not None:
        fields += [("opening m length", len(t.opening.m), hm),
                   ("opening x length", len(t.opening.x), n)]
    for what, got, need in fields:
        if got != need:
            raise ValueError("transcript %s is %s, the configuration needs %s"
                             % (what, got, need))


def bob_receive(wire: CommitWire, z: BitString,
                cfg: CommitConfig) -> CommitmentTranscript:
    """Store the commitment; rejects malformed wires."""
    if not isinstance(wire, CommitWire):
        raise ValueError("malformed wire")
    t = CommitmentTranscript(seed=wire.seed, mbar=wire.mbar, coset=wire.coset,
                             z=z)
    _check_shape(t, cfg)
    return t


def bob_verify(t: CommitmentTranscript, m: BitString, x: BitString,
               cfg: CommitConfig) -> str:
    """Deterministic accept test: codeword, typical window, digest match."""
    code = cfg.code
    if len(x) != cfg.n or len(m) != cfg.hash_m:
        return REJ
    if not code.contains(x):
        return REJ
    sent = x ^ code.coset_representative(t.coset)
    if not typical_membership(sent, t.z, cfg.p, cfg.eps):
        return REJ
    if hash_codeword(t.seed, code, x) != (m ^ t.mbar):
        return REJ
    return ACC


@dataclass(frozen=True)
class HonestRun:
    m_hat: BitString
    flag: str
    transcript: CommitmentTranscript


def run_honest(m: BitString, cfg: CommitConfig,
               rng: np.random.Generator) -> HonestRun:
    """Commit + reveal with both parties honest; m_hat always equals m."""
    opening, wire, xbar = alice_commit(m, cfg, rng)
    t = bob_receive(wire, bsc_transmit(xbar, cfg.p, rng), cfg)
    flag = bob_verify(t, opening.m, opening.x, cfg)
    return HonestRun(m_hat=opening.m, flag=flag,
                     transcript=replace(t, opening=opening))


# ---------------------------------------------------------------------------
# Batched honest engine: one block of trials as packed uint64 words
# ---------------------------------------------------------------------------

BLOCK = 1000  # trials per random stream; a block's arrays stay a few MB
_BLOCK_WORDS_CAP = 1 << 20  # words of one n-bit field of a block: 8 MB
# Most completeness trials: at about 1.2 * 10^5 trials a second (n = 4096,
# one core of a shared 2-core Xeon), 10^8 run for about 14 minutes.
_COMPLETENESS_TRIALS_CAP = 10 ** 8
_NOISE_CHUNK_WORDS = 1 << 16  # noise words drawn per chunk: 512 KB of uint64
_NOISE_DENSE_PASSES = 8  # U bits drawn for every word of a chunk


def _nwords(nbits: int) -> int:
    return (nbits + 63) // 64


def _random_words(rng: np.random.Generator, shape: tuple,
                  nbits: int) -> np.ndarray:
    """Uniform nbits-bit strings, packed as ``_pack_u64`` lays them out."""
    words = rng.integers(0, 1 << 64, size=shape + (_nwords(nbits),),
                         dtype=np.uint64)
    if nbits % 64:
        words[..., -1] &= np.uint64((1 << (nbits % 64)) - 1)
    return words


def _pack_split(bits: np.ndarray, k: int) -> np.ndarray:
    """n-bit 0/1 rows -> message words then check words (systematic split)."""
    return np.concatenate([_pack_u64(bits[..., :k]), _pack_u64(bits[..., k:])],
                          axis=-1)


@dataclass(frozen=True)
class TranscriptBatch:
    """Stored commitments with their openings, one row per trial.

    Every field holds little-endian uint64 words: bit i of a string sits at
    bit i % 64 of word i // 64, and padding bits are zero. An n-bit string
    is kept in the code's systematic split, its k message coordinates and
    then its n - k check coordinates starting on a fresh word, so encoding,
    the coset shift and the membership test work on whole words.
    """

    seed: np.ndarray   # (T, hash_m, words(k)): rows of S
    mbar: np.ndarray   # (T, words(hash_m))
    coset: np.ndarray  # (T, words(n - k)): syndrome of C'
    z: np.ndarray      # (T, words(k) + words(n - k)): channel output
    m: np.ndarray      # (T, words(hash_m)): announced message
    x: np.ndarray      # (T, words(k) + words(n - k)): announced codeword

    def __len__(self) -> int:
        return self.m.shape[0]

    @classmethod
    def from_transcripts(cls, transcripts,
                         cfg: CommitConfig) -> "TranscriptBatch":
        """Pack opened scalar transcripts whose fields fit ``cfg``."""
        for t in transcripts:
            if t.opening is None:
                raise ValueError("transcript has no opening")
            _check_shape(t, cfg)
        k = cfg.code.k

        def stack(get):
            return np.stack([get(t) for t in transcripts])

        return cls(seed=_pack_u64(stack(lambda t: t.seed.matrix)),
                   mbar=_pack_u64(stack(lambda t: t.mbar.bits)),
                   coset=_pack_u64(stack(lambda t: t.coset.bits)),
                   z=_pack_split(stack(lambda t: t.z.bits), k),
                   m=_pack_u64(stack(lambda t: t.opening.m.bits)),
                   x=_pack_split(stack(lambda t: t.opening.x.bits), k))


def _gauss_jordan(rows: np.ndarray, rhs: np.ndarray):
    """Reduce every system rows @ u = rhs over GF(2) at once.

    ``rows`` is (T, h, words(k)) packed rows, ``rhs`` (T, h) 0/1. Returns
    reduced copies of both (the right-hand sides as bool) and the pivot
    column of every row, -1 where a row found none (a rank deficiency).
    The rows are taken in order: row j's pivot is its lowest set bit left
    after the earlier rows' clears, and step j clears that bit from every
    other row and right-hand side by XOR with row j under an all-ones or
    all-zero word mask, so h steps reduce a block. Row j comes up empty
    exactly when it lies in the span of rows 0..j-1. A later step XORs into
    row j only rows whose pivots lie above row j's, so the bit found at
    step j is still the reduced row's lowest; the pivot columns are worked
    out from those bits once, after the last step. A full-rank system ends
    in its unique reduced row echelon form, every row paired with the same
    pivot and right-hand side as under column-by-column elimination.

    The work runs on an (h, words(k), T) copy, so every step's word
    operations run along the T systems, and each step reads the word that
    holds row j's lowest set bit, in every row, with one gather; the
    reduced rows come back as a (T, h, words(k)) view of that copy.
    """
    t, h, w = rows.shape
    work = rows.transpose(1, 2, 0).copy()  # C order, never a view
    flat = work.reshape(h, w * t)
    rhs = rhs.T.astype(bool)
    ar = np.arange(t)
    lowest = np.empty((h, t), dtype=np.uint64)  # row j's pivot bit ...
    word = np.empty((h, t), dtype=np.int64)     # ... and its word
    clear = np.empty_like(work)
    for j in range(h):
        row = work[j]
        word[j] = (row != 0).argmax(axis=0)  # first nonzero word, 0 if none
        at = word[j] * t + ar
        low = np.take(row, at)
        low &= np.uint64(0) - low  # lowest set bit; 0 for an empty row
        lowest[j] = low
        hit = (np.take(flat, at, axis=1) & low) != 0
        hit[j] = False
        np.bitwise_and(row, (np.uint64(0) - hit)[:, None, :], out=clear)
        work ^= clear
        rhs ^= hit & rhs[j]
    pivot = np.where(lowest != 0, 64 * word
                     + np.bitwise_count(lowest - np.uint64(1)), -1)
    return work.transpose(2, 0, 1), rhs.T, pivot.T


def _seeds_and_preimages(rng: np.random.Generator, digests: np.ndarray,
                         k: int):
    """Uniform full-rank seeds S and uniform u with S u = digest, per row.

    Seeds are uniform matrices; those the elimination finds rank deficient
    are redrawn, and only those, until none is left. The reduced systems
    then give u: free coordinates uniform, pivot coordinates solved.
    """
    t, hm = digests.shape
    seed = _random_words(rng, (t, hm), k)
    rows, rhs, pivot = _gauss_jordan(seed, digests)
    bad = np.flatnonzero((pivot < 0).any(axis=1))
    while bad.size:
        seed[bad] = _random_words(rng, (bad.size, hm), k)
        rows[bad], rhs[bad], pivot[bad] = _gauss_jordan(seed[bad],
                                                        digests[bad])
        bad = bad[(pivot[bad] < 0).any(axis=1)]
    word, bit = pivot >> 6, (pivot & 63).astype(np.uint64)
    # (T, hm, words(k)): row j's pivot bit, alone in its word
    one_hot = np.where(np.arange(_nwords(k)) == word[..., None],
                       np.uint64(1) << bit[..., None], np.uint64(0))
    u = _random_words(rng, (t,), k) & ~np.bitwise_or.reduce(one_hot, axis=1)
    solved = (np.bitwise_count(np.bitwise_xor.reduce(rows & u[:, None, :],
                                                     axis=2)) & 1) ^ rhs
    u |= np.bitwise_or.reduce(one_hot & (np.uint64(0) - solved)[..., None],
                              axis=1)
    return seed, u


def _flip_threshold(p: float) -> int:
    """The 53-bit T with (raw >> 11) < T exactly when ``random() < p``.

    For PCG64, ``Generator.random`` turns a raw 64-bit output into
    U 2^-53 with U = raw >> 11, and that is below p exactly when
    U < ceil(p 2^53). For 0 < p < 1/2, T is at most 2^52.
    """
    return math.ceil(p * 2.0 ** 53)


def _bsc_words(bitgen, lanes: np.ndarray, flip: np.ndarray,
               threshold: int) -> None:
    """BSC flips of the rows of ``flip``, set in place, bit-sliced.

    ``flip`` is a zeroed C-contiguous (rows, ``lanes.size``) uint64 array.
    Every bit set in the word mask ``lanes`` is a lane: one channel bit of
    a row. A lane flips when its 53-bit U, built most significant bit
    first, is below ``threshold`` T, and one raw output of ``bitgen`` gives
    the next bit of U to all 64 lanes of a word. At a T bit of 1 an
    undecided lane with a U bit of 0 is decided as a flip; at a T bit of 0
    one with a U bit of 1 is decided as no flip. A lane still undecided
    after T's last 1 bit has U >= T and does not flip. Every lane therefore
    flips independently with probability exactly T 2^-53, the law of
    ``random() < p`` at T = ``_flip_threshold(p)``, and a word of 64 lanes
    takes about ``_NOISE_DENSE_PASSES`` raw outputs, not 64.

    The first ``_NOISE_DENSE_PASSES`` bits of U are drawn for every word,
    row by row; each later bit only for the words that still hold an
    undecided lane, in increasing word order. Bits outside ``lanes`` (the
    padding) start decided and stay zero.
    """
    flip = flip.reshape(-1)
    live = np.tile(lanes, flip.size // lanes.size)  # lanes still undecided
    at = slice(None)  # words of flip that live covers
    for j, bit in enumerate(format(threshold, "053b").rstrip("0")):
        if j >= _NOISE_DENSE_PASSES:  # only the words still undecided
            held = np.flatnonzero(live != 0)  # far faster on bool than uint64
            if not held.size:
                break
            at = held if j == _NOISE_DENSE_PASSES else at[held]
            live = live[held]
        u = bitgen.random_raw(live.size)
        u &= live  # undecided lanes whose U bit is 1
        live ^= u  # undecided lanes whose U bit is 0
        if bit == "1":  # U < T on the lanes of live: they flip
            flip[at] |= live
            live = u
        # at a T bit of 0, U > T on the lanes of u: they do not flip
        del u  # freed before the next pass draws


def run_honest_batch(cfg: CommitConfig, master_seed: int,
                     block: int) -> TranscriptBatch:
    """Block ``block`` of BLOCK honest commit + open runs on uniform messages.

    Every draw comes from ``default_rng([master_seed, block])``: messages,
    masks, seeds (rank-deficient ones redrawn), free preimage coordinates
    and cosets for all BLOCK trials, then the BSC noise. The noise is drawn
    in row chunks of about ``_NOISE_CHUNK_WORDS`` words, whose size depends
    on the code alone, for cache locality. A block whose n-bit fields would
    hold more than 2^20 words each (n above about 67,000) is refused before
    anything is drawn.

    Seeds are reduced row by row (``_gauss_jordan``), which finds the same
    rank deficiencies, pivots and reduced rows as column-wise elimination,
    and encoding gathers from byte tables (``check_words_batch``); both
    leave the streams of the draws before the noise as they were. The noise
    is bit-sliced (``_bsc_words``): each bit flips with the probability
    ``Generator.random() < p`` has, but a chunk of 64-bit words takes about
    ``_NOISE_DENSE_PASSES`` raw outputs per word instead of one per bit, so
    the flips and the generator state after them are not those of
    ``random()``. The flips are drawn straight into a zeroed ``z``, which
    then takes X + x_C' by two in-place XORs, so no block-sized copy of
    ``x`` or of the flips is made.
    """
    code, hm = cfg.code, cfg.hash_m
    k, n = code.k, code.n
    words = BLOCK * (_nwords(k) + _nwords(n - k))
    if words > _BLOCK_WORDS_CAP:
        raise ValueError("an honest block of %d runs at n=%d holds %d words "
                         "per n-bit field, above the cap of 2^20"
                         % (BLOCK, n, words))
    rng = np.random.default_rng([master_seed, block])
    m = _random_words(rng, (BLOCK,), hm)
    mbar = _random_words(rng, (BLOCK,), hm)
    seed, u = _seeds_and_preimages(rng, _unpack_u64(m ^ mbar, hm), k)
    coset = _random_words(rng, (BLOCK,), n - k)
    x = np.concatenate([u, code.check_words_batch(u)], axis=1)
    lanes = _pack_split(np.ones(n, dtype=np.uint8), k)
    threshold = _flip_threshold(cfg.p)
    chunk = max(1, _NOISE_CHUNK_WORDS // lanes.size)
    z = np.zeros((BLOCK, lanes.size), dtype=np.uint64)
    for start in range(0, BLOCK, chunk):
        _bsc_words(rng.bit_generator, lanes, z[start: start + chunk],
                   threshold)
    np.bitwise_xor(z, x, out=z)  # the noise on the transmitted lift X + x_C'
    np.bitwise_xor(z[:, _nwords(k):], coset, out=z[:, _nwords(k):])
    return TranscriptBatch(seed=seed, mbar=mbar, coset=coset, z=z, m=m, x=x)


def _padding_clear(words: np.ndarray, nbits: int) -> bool:
    """No bit at or beyond nbits is set in rows of packed nbits-bit strings."""
    return not nbits % 64 or not np.any(words[..., -1]
                                        >> np.uint64(nbits % 64))


def _check_layout(t: TranscriptBatch, cfg: CommitConfig) -> None:
    """Refuse a batch whose shapes or padding bits do not fit ``cfg``."""
    k, r, hm = cfg.code.k, cfg.n - cfg.code.k, cfg.hash_m
    wk, size = _nwords(k), len(t)
    split = (size, wk + _nwords(r))
    shapes = {"seed": (size, hm, wk), "mbar": (size, _nwords(hm)),
              "coset": (size, _nwords(r)), "z": split,
              "m": (size, _nwords(hm)), "x": split}
    for name, shape in shapes.items():
        arr = getattr(t, name)
        if arr.dtype != np.uint64 or arr.shape != shape:
            raise ValueError("batch field %s is %s %s, expected uint64 %s"
                             % (name, arr.dtype, arr.shape, shape))
    if not (_padding_clear(t.seed, k) and _padding_clear(t.mbar, hm)
            and _padding_clear(t.m, hm) and _padding_clear(t.coset, r)
            and all(_padding_clear(a[:, :wk], k)
                    and _padding_clear(a[:, wk:], r) for a in (t.z, t.x))):
        raise ValueError("batch has bits set beyond a string's length")


def bob_verify_batch(t: TranscriptBatch, cfg: CommitConfig) -> np.ndarray:
    """Accept mask of the receiver's test on every opening of a batch.

    Trial i is accepted iff HD(x_i + x_C', z_i) lies in ``typical_window``
    and the opening (m_i, x_i) passes ``_openings_pass``: the three tests of
    ``bob_verify``, applied to arbitrary openings. The batch's shapes and
    padding bits are checked first (``_check_layout``); the completeness
    run, which scores batches it has just built, calls ``_accepts``
    directly.
    """
    _check_layout(t, cfg)
    return _accepts(t, cfg)


def _accepts(t: TranscriptBatch, cfg: CommitConfig) -> np.ndarray:
    """``bob_verify_batch`` on a batch whose layout fits ``cfg``."""
    # the opening test first, so its block-sized temporaries are freed
    # before the weight test allocates its own
    opened = _openings_pass(cfg, t.seed, t.mbar, t.m, t.x)
    wk = _nwords(cfg.code.k)
    diff = t.x ^ t.z
    diff[:, wk:] ^= t.coset
    weight = np.bitwise_count(diff).sum(axis=1)
    w_lo, w_hi = typical_window(cfg.n, cfg.p, cfg.eps)
    return opened & (weight >= w_lo) & (weight <= w_hi)


def _openings_pass(cfg: CommitConfig, seed: np.ndarray, mbar: np.ndarray,
                  m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether each packed opening (row of ``TranscriptBatch`` fields) has a
    codeword x_i whose seed hash, packed into words, equals m_i + Mbar_i."""
    code, hm = cfg.code, cfg.hash_m
    wk = _nwords(code.k)
    u = x[:, :wk]
    member = (code.check_words_batch(u) == x[:, wk:]).all(axis=1)
    parity = np.bitwise_count(np.bitwise_xor.reduce(seed & u[:, None, :],
                                                    axis=2)) & np.uint8(1)
    digest = np.zeros_like(m)
    for j in range(hm):
        digest[:, j >> 6] |= parity[:, j] << np.uint64(j & 63)
    return member & (digest == m ^ mbar).all(axis=1)


@dataclass(frozen=True)
class CompletenessEstimate:
    reject_rate: float
    wilson_low: float
    wilson_high: float
    trials: int


def estimate_completeness(cfg: CommitConfig, trials: int,
                          master_seed: int) -> CompletenessEstimate:
    """Monte Carlo rejection-rate estimate over uniformly sampled messages.

    Trials run on the batched engine in whole blocks of BLOCK, block b
    drawing from its own stream ``default_rng([master_seed, b])`` (see
    ``run_honest_batch``); of the last block only the first trials are
    counted, so trial j is the same for every trial count above j. The
    acceptance probability is message-independent (the noise weight test
    does not see the message, and the other two tests pass identically on
    honest runs), so the rate is pooled over all messages. The interval is
    a two-sided 99% Wilson interval on the pooled rate. Fewer than 10^3 or
    more than 10^8 trials are refused before any draw.
    """
    if trials < 10 ** 3:
        raise ValueError("need trials >= 1000")
    if trials > _COMPLETENESS_TRIALS_CAP:
        raise ValueError("%d completeness trials are above the cap of 10^8"
                         % trials)
    rejects = _completeness_counts(cfg, trials, master_seed)
    low, high = _wilson_99(rejects, trials)
    return CompletenessEstimate(reject_rate=rejects / trials, wilson_low=low,
                                wilson_high=high, trials=trials)


def _completeness_counts(cfg: CommitConfig, trials: int,
                         master_seed: int) -> int:
    """Rejects over the first ``trials`` honest runs of blocks 0, 1, ..."""
    rejects = 0
    for block, start in enumerate(range(0, trials, BLOCK)):
        accepted = _accepts(run_honest_batch(cfg, master_seed, block), cfg)
        rejects += int((~accepted[:trials - start]).sum())
    return rejects


def _wilson_99(successes: int, trials: int):
    z = 2.5758293035489004  # two-sided 99%
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = phat + z * z / (2 * trials)
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials))
    return max(0.0, (center - half) / denom), min(1.0, (center + half) / denom)


# ---------------------------------------------------------------------------
# Transcript JSON codec (hex-encoded bit strings, replayable)
# ---------------------------------------------------------------------------


def _bits_to_hex(b: BitString) -> dict:
    return {"len": len(b), "hex": np.packbits(b.bits).tobytes().hex()}


def _json_object(obj, path: str, *keys: str) -> dict:
    """``obj``, refused unless it is a JSON object holding every key; an
    error names the field's path (empty at the top level)."""
    where = "transcript field %s" % path if path else "transcript"
    if not isinstance(obj, dict):
        raise ValueError("%s is not a JSON object" % where)
    for key in keys:
        if key not in obj:
            raise ValueError("%s missing field %r" % (where, key))
    return obj


def _field_bits(obj, path: str, *shape_keys: str) -> np.ndarray:
    """The bits of transcript field ``path``, shaped by its integer keys.

    The payload ``obj["hex"]`` must be exactly ceil(nbits / 8) bytes, nbits
    the product of the shape, with every padding bit clear; each shape key
    must be a nonnegative JSON integer (not a float, string or bool). An
    error names the field and the bad key, never the payload.
    """
    obj = _json_object(obj, path, *shape_keys, "hex")
    shape = [obj[key] for key in shape_keys]
    for key, value in zip(shape_keys, shape):
        if type(value) is not int or value < 0:
            raise ValueError("transcript field %s: %r is not a nonnegative "
                             "integer" % (path, key))
    nbits = math.prod(shape)
    try:
        raw = bytes.fromhex(obj["hex"])
    except (TypeError, ValueError):
        raise ValueError("transcript field %s: 'hex' is not a hex string"
                         % path) from None
    if len(raw) != (nbits + 7) // 8:
        raise ValueError("transcript field %s: %d bits do not fit its "
                         "payload of %d bytes" % (path, nbits, len(raw)))
    for key, value in zip(shape_keys, shape):
        # past the size check, only a zero key lets another exceed it
        if value > 8 * len(raw):
            raise ValueError("transcript field %s: %r is above the %d bits "
                             "of its payload" % (path, key, 8 * len(raw)))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits[nbits:].any():
        raise ValueError("transcript field %s has padding bits set" % path)
    return bits[:nbits].reshape(shape)


def transcript_to_json(t: CommitmentTranscript) -> str:
    obj = {
        "seed": {"m": t.seed.m, "k": t.seed.k,
                 "hex": np.packbits(t.seed.matrix.ravel()).tobytes().hex()},
        "mbar": _bits_to_hex(t.mbar),
        "coset": _bits_to_hex(t.coset),
        "z": _bits_to_hex(t.z),
        "opening": None if t.opening is None else {
            "m": _bits_to_hex(t.opening.m),
            "x": _bits_to_hex(t.opening.x),
        },
    }
    return json.dumps(obj, indent=2, sort_keys=True)


def transcript_from_json(text: str) -> CommitmentTranscript:
    """Parse ``transcript_to_json`` output; malformed input raises ValueError."""
    obj = _json_object(json.loads(text), "", "seed", "mbar", "coset", "z",
                       "opening")
    seed = HashSeed(_field_bits(obj["seed"], "seed", "m", "k"))
    mbar, coset, z = (BitString(_field_bits(obj[name], name, "len"))
                      for name in ("mbar", "coset", "z"))
    opening = obj["opening"]
    if opening is not None:
        opening = _json_object(opening, "opening", "m", "x")
        opening = Opening(
            m=BitString(_field_bits(opening["m"], "opening.m", "len")),
            x=BitString(_field_bits(opening["x"], "opening.x", "len")))
    return CommitmentTranscript(seed=seed, mbar=mbar, coset=coset, z=z,
                                opening=opening)
