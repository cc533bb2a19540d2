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
commits and opens a block of trials at once as packed uint64 words, and
``bob_verify_batch`` applies the three accept tests to every opening of a
block; its codeword-and-digest half, ``_openings_pass``, is also the one
opening test of exact binding. Block b of a run draws all its randomness
from ``default_rng([master_seed, b])``, so results depend only on the
configuration, the trial count and the master seed, never on how blocks are
grouped into calls. The scalar ``run_honest``/``bob_verify`` remain the
reference the batch path is tested against.
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
    coset = code.random_coset(rng)
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
# Most completeness trials: at about 3 * 10^4 trials a second, 10^8 run for
# about 50 minutes.
_COMPLETENESS_TRIALS_CAP = 10 ** 8
_NOISE_CHUNK_BITS = 1 << 18  # BSC draws per chunk: 2 MB of uint64


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
    reduced copies of both and the pivot column of every row, -1 where a
    row found none (a rank deficiency). The rows are taken in order: row
    j's pivot is its lowest set bit left after the earlier rows' clears,
    and that bit is cleared from every other row and right-hand side, so
    h steps reduce a block. Row j comes up empty exactly when it lies in
    the span of rows 0..j-1. A full-rank system ends in its unique reduced
    row echelon form, every row paired with the same pivot and right-hand
    side as under column-by-column elimination.
    """
    rows, rhs = rows.copy(), rhs.copy()
    t, h, _ = rows.shape
    ar = np.arange(t)
    pivot = np.full((t, h), -1, dtype=np.int64)
    for j in range(h):
        row = rows[:, j].copy()
        word = (row != 0).argmax(axis=1)  # first nonzero word, 0 if none
        low = row[ar, word]
        low &= ~low + np.uint64(1)  # lowest set bit; 0 for an empty row
        hit = (rows[ar, :, word] & low[:, None]) != 0
        hit[:, j] = False
        rows ^= np.where(hit[:, :, None], row[:, None, :], np.uint64(0))
        rhs ^= hit & rhs[:, j, None].astype(bool)
        pivot[:, j] = np.where(low != 0, 64 * word
                               + np.bitwise_count(low - np.uint64(1)), -1)
    return rows, rhs, pivot


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
    ar = np.arange(t)
    word, bit = pivot >> 6, (pivot & 63).astype(np.uint64)
    pivot_mask = np.zeros((t, _nwords(k)), dtype=np.uint64)
    for j in range(hm):
        pivot_mask[ar, word[:, j]] |= np.uint64(1) << bit[:, j]
    u = _random_words(rng, (t,), k) & ~pivot_mask
    solved = (np.bitwise_count(rows & u[:, None, :]).sum(axis=2) & 1) ^ rhs
    for j in range(hm):
        u[ar, word[:, j]] |= solved[:, j].astype(np.uint64) << bit[:, j]
    return seed, u


def _flip_threshold(p: float) -> np.uint64:
    """The t with raw < t exactly when ``Generator.random() < p`` flips.

    For PCG64, ``random`` turns a raw 64-bit output into (raw >> 11) 2^-53,
    and that is below p exactly when raw >> 11 < ceil(p 2^53), i.e. when
    raw < ceil(p 2^53) << 11. For 0 < p < 1/2 this is at most 2^63.
    """
    return np.uint64(math.ceil(p * 2.0 ** 53) << 11)


def run_honest_batch(cfg: CommitConfig, master_seed: int, block: int,
                     size: int = BLOCK) -> TranscriptBatch:
    """Block ``block`` of honest commit + open runs on uniform messages.

    Every draw comes from ``default_rng([master_seed, block])``: messages,
    masks, seeds (rank-deficient ones redrawn), free preimage coordinates
    and cosets for all BLOCK trials, then the BSC noise in row chunks for
    the first ``size`` trials only. Trial j of a block is therefore the
    same for every ``size`` > j. A block whose n-bit fields would hold
    more than 2^20 words each (n above about 67,000) is refused before
    anything is drawn.

    The kernels are exact rewrites that leave every stream as it was:
    seeds are reduced row by row (``_gauss_jordan``), which finds the same
    rank deficiencies, pivots and reduced rows as column-wise elimination;
    encoding gathers from byte tables (``check_words_batch``); and a BSC
    flip compares a raw PCG64 output with an integer threshold, the same
    test ``Generator.random() < p`` makes on the same outputs, so the
    flips and the generator state after them are unchanged.
    """
    if not 1 <= size <= BLOCK:
        raise ValueError("need 1 <= size <= %d" % BLOCK)
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
    m, mbar, seed, u, coset = (a[:size] for a in (m, mbar, seed, u, coset))
    x = np.concatenate([u, code.check_words_batch(u)], axis=1)
    z = x.copy()
    z[:, _nwords(k):] ^= coset  # the transmitted lift X + x_C'
    threshold = _flip_threshold(cfg.p)
    chunk = max(1, _NOISE_CHUNK_BITS // n)
    for start in range(0, size, chunk):
        rows = min(chunk, size - start)
        flips = rng.bit_generator.random_raw(rows * n) < threshold
        z[start: start + rows] ^= _pack_split(flips.reshape(rows, n), k)
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
    ``bob_verify``, applied to arbitrary openings.
    """
    _check_layout(t, cfg)
    wk = _nwords(cfg.code.k)
    diff = t.x ^ t.z
    diff[:, wk:] ^= t.coset
    weight = np.bitwise_count(diff).sum(axis=1)
    w_lo, w_hi = typical_window(cfg.n, cfg.p, cfg.eps)
    typical = (weight >= w_lo) & (weight <= w_hi)
    return typical & _openings_pass(cfg, t.seed, t.mbar, t.m, t.x)


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

    Trials run on the batched engine in blocks of BLOCK, block b drawing
    from its own stream ``default_rng([master_seed, b])`` (see
    ``run_honest_batch``); the last block may be cut short. The acceptance
    probability is message-independent (the noise weight test does not see
    the message, and the other two tests pass identically on honest runs),
    so the rate is pooled over all messages. The interval is a two-sided
    99% Wilson interval on the pooled rate. Fewer than 10^3 or more than
    10^8 trials are refused before any draw.
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
    """Rejects over ``trials`` honest runs in blocks 0, 1, ..."""
    rejects = 0
    for block, start in enumerate(range(0, trials, BLOCK)):
        batch = run_honest_batch(cfg, master_seed, block,
                                 min(BLOCK, trials - start))
        rejects += int((~bob_verify_batch(batch, cfg)).sum())
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


def _bits_from_hex(obj) -> BitString:
    try:
        nbits = int(obj["len"])
        raw = bytes.fromhex(obj["hex"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed bit-string field: %r" % (obj,)) from exc
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits.size < nbits or bits.size - nbits >= 8:
        raise ValueError("bit-string length does not match payload")
    return BitString(bits[:nbits])


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
    try:
        obj = json.loads(text)
        seed_obj = obj["seed"]
        m, k = int(seed_obj["m"]), int(seed_obj["k"])
        raw = np.unpackbits(
            np.frombuffer(bytes.fromhex(seed_obj["hex"]), dtype=np.uint8))
        if m < 1 or k < 1 or raw.size < m * k:
            raise ValueError("seed shape %dx%d does not fit its payload"
                             % (m, k))
        seed = HashSeed(raw[: m * k].reshape(m, k))
        mbar = _bits_from_hex(obj["mbar"])
        coset = _bits_from_hex(obj["coset"])
        z = _bits_from_hex(obj["z"])
        opening = obj["opening"]
        if opening is not None:
            opening = Opening(m=_bits_from_hex(opening["m"]),
                              x=_bits_from_hex(opening["x"]))
    except KeyError as exc:
        raise ValueError("transcript missing field %s" % exc) from exc
    except (TypeError, OverflowError) as exc:
        # a JSON value of the wrong type where an object, an integer or a
        # hex string belongs
        raise ValueError("malformed transcript: %s" % exc) from exc
    return CommitmentTranscript(seed=seed, mbar=mbar, coset=coset, z=z,
                                opening=opening)
