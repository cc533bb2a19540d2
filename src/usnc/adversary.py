"""Concrete cheating strategies and harnesses measuring their success.

Strategies are finite explicit objects, not quantified adversaries: the
harness can falsify a security bound but never prove one. Both harnesses are
exact: they sum the strategy's joint law against dense channel laws. Binding
also has a Monte Carlo mode that replays the actual receiver verification on
sampled runs, an independent code path cross-checked against the exact sum.
Hiding has none: its view space is the exact mode's own enumeration, and an
empirical trace distance over it only adds upward-biased sampling noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import AliceChannel, BobChannel, typical_window_mask
from .entropy import gtd
from .gf2 import BitString, CosetId, all_bits
from .hashing import (HashSeed, digest_table, enumerate_full_rank_seeds,
                      hash_codeword)
from .protocol import ACC, CommitConfig, CommitmentTranscript, alice_commit, \
    bob_verify

__all__ = [
    "StrategyAtom",
    "AliceStrategy",
    "BobStrategy",
    "binding_success",
    "midpoint_attack",
    "honest_alice_strategy",
    "hiding_advantage",
    "less_noisy_bob",
]


@dataclass(frozen=True)
class StrategyAtom:
    """One outcome of the commit-phase law: (S, input label, Mbar, C', aux).

    ``aux`` is the extra register carried from commit to reveal; reveal-phase
    private randomness is assumed folded into the law (standard
    derandomization).
    """

    prob: float
    seed: HashSeed
    label: object
    mbar: BitString
    coset: CosetId
    aux: object = None


@dataclass(frozen=True)
class AliceStrategy:
    """Cheating sender: commit-phase law plus two deterministic reveal maps.

    Each reveal map takes an atom to the announced (codeword, message) pair.
    """

    atoms: tuple
    reveal0: object
    reveal1: object
    channel: AliceChannel
    name: str = ""


@dataclass(frozen=True)
class BobStrategy:
    """Cheating receiver: a view channel applied to the transmitted string."""

    view_channel: BobChannel
    name: str = ""


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
    """Probability that both reveal maps get accepted with distinct messages.

    Exact mode enumerates all 2^n channel outputs per atom (n <= 16);
    Monte Carlo mode samples transcripts and calls the real verifier.
    """
    _require_certifiable(strategy.channel, for_bound_comparison)
    if mode == "exact":
        return _binding_exact(strategy, cfg)
    if mode == "mc":
        if rng is None:
            raise ValueError("Monte Carlo mode needs an rng")
        return _binding_mc(strategy, cfg, trials, rng)
    raise ValueError("mode must be 'exact' or 'mc'")


def _binding_exact(strategy: AliceStrategy, cfg: CommitConfig) -> float:
    n = cfg.n
    if n > 16:
        raise ValueError("exact binding enumeration needs n <= 16")
    code = cfg.code
    window_cache: dict[int, np.ndarray] = {}

    def window_mask(center: BitString) -> np.ndarray:
        key = center.to_int()
        mask = window_cache.get(key)
        if mask is None:
            mask = typical_window_mask(center, cfg.p, cfg.eps)
            window_cache[key] = mask
        return mask

    law_cache: dict[object, np.ndarray] = {}
    total = 0.0
    for atom in strategy.atoms:
        x0, m0 = strategy.reveal0(atom)
        x1, m1 = strategy.reveal1(atom)
        if m0 == m1:
            continue
        ok = True
        for x, m in ((x0, m0), (x1, m1)):
            if not code.contains(x) or \
                    hash_codeword(atom.seed, code, x) != (m ^ atom.mbar):
                ok = False
                break
        if not ok:
            continue
        rep = code.coset_representative(atom.coset)
        mask = window_mask(x0 ^ rep) & window_mask(x1 ^ rep)
        if atom.label not in law_cache:
            law_cache[atom.label] = strategy.channel.law(atom.label).mass
        total += atom.prob * float(law_cache[atom.label][mask].sum())
    return total


def _binding_mc(strategy: AliceStrategy, cfg: CommitConfig, trials: int,
                rng: np.random.Generator) -> float:
    probs = np.array([a.prob for a in strategy.atoms])
    picks = rng.choice(len(strategy.atoms), size=trials, p=probs / probs.sum())
    wins = 0
    for i in picks:
        atom = strategy.atoms[i]
        z = strategy.channel.sample(atom.label, rng)
        t = CommitmentTranscript(seed=atom.seed, mbar=atom.mbar,
                                 coset=atom.coset, z=z)
        x0, m0 = strategy.reveal0(atom)
        x1, m1 = strategy.reveal1(atom)
        if m0 == m1:
            continue
        if (bob_verify(t, m0, x0, cfg) == ACC
                and bob_verify(t, m1, x1, cfg) == ACC):
            wins += 1
    return wins / trials


def midpoint_attack(cfg: CommitConfig, x0: BitString, x1: BitString,
                    spread: float,
                    seeds: list[HashSeed] | None = None) -> AliceStrategy:
    """Double-opening attempt aiming the channel output halfway between the
    two codewords.

    The channel concentrates BSC(spread) noise around a Hamming midpoint of
    the (coset-shifted) codewords; each reveal map announces one codeword
    with the message that makes its digest check pass, so the attack succeeds
    exactly when the output lands in both typical windows and the two digests
    differ. The coset is fixed to the code itself (zero syndrome); success is
    translation invariant in the coset choice.
    """
    code = cfg.code
    if x0 == x1 or not (code.contains(x0) and code.contains(x1)):
        raise ValueError("need two distinct codewords")
    if not 0.0 <= spread <= 0.5:
        raise ValueError("need 0 <= spread <= 1/2")
    diff = np.flatnonzero((x0 ^ x1).bits)
    center = x0.bits.copy()
    center[diff[: diff.size // 2]] ^= 1
    channel = AliceChannel.centered_bsc(cfg.n, BitString(center), spread)
    if seeds is None:
        seeds = enumerate_full_rank_seeds(code.k, cfg.hash_m)
    mbars = [BitString.from_int(v, cfg.hash_m) for v in range(1 << cfg.hash_m)]
    zero_coset = CosetId(BitString.zeros(code.n - code.k))
    prob = 1.0 / (len(seeds) * len(mbars))
    atoms = tuple(
        StrategyAtom(prob=prob, seed=s, label=channel.labels[0],
                     mbar=mb, coset=zero_coset)
        for s in seeds for mb in mbars)

    def reveal(x):
        def announce(atom):
            return x, hash_codeword(atom.seed, code, x) ^ atom.mbar
        return announce

    return AliceStrategy(atoms=atoms, reveal0=reveal(x0), reveal1=reveal(x1),
                         channel=channel,
                         name="midpoint(hd=%d, spread=%g)"
                              % ((x0 ^ x1).weight(), spread))


def honest_alice_strategy(cfg: CommitConfig, m: BitString,
                          rng: np.random.Generator,
                          n_atoms: int = 64) -> AliceStrategy:
    """Honest committer cast as a strategy; both reveal maps tell the truth.

    The commit law is represented by ``n_atoms`` sampled honest draws. Both
    openings coincide, so the double-opening success is zero by definition.
    """
    atoms = []
    table = {}
    for i in range(n_atoms):
        opening, wire, table[i] = alice_commit(m, cfg, rng)
        atoms.append(StrategyAtom(prob=1.0 / n_atoms, seed=wire.seed,
                                  label=i, mbar=wire.mbar, coset=wire.coset,
                                  aux=opening.x))
    from .channel import bsc_law_dense, bsc_transmit

    ch = AliceChannel(cfg.n, list(table),
                      lambda label: bsc_law_dense(cfg.n, table[label], cfg.p),
                      lambda label, r: bsc_transmit(table[label], cfg.p, r),
                      name="honest", symmetric=True)

    def reveal(atom):
        return atom.aux, m

    return AliceStrategy(atoms=tuple(atoms), reveal0=reveal, reveal1=reveal,
                         channel=ch, name="honest")


def hiding_advantage(strategy: BobStrategy, cfg: CommitConfig,
                     m0: BitString, m1: BitString,
                     for_bound_comparison: bool = False) -> float:
    """Trace distance between the receiver's full commit-phase views.

    The view is (channel output, S, Mbar, C') conditioned on the committed
    message; the joint is enumerated exactly over all full-rank seeds, masks,
    cosets, and view symbols.
    """
    _require_certifiable(strategy.view_channel, for_bound_comparison)
    if len(m0) != cfg.hash_m or len(m1) != cfg.hash_m:
        raise ValueError("message length mismatch")
    return gtd(_view_joint(strategy, cfg, m0), _view_joint(strategy, cfg, m1))


def _view_joint(strategy: BobStrategy, cfg: CommitConfig,
                m: BitString) -> np.ndarray:
    """Dense view distribution given the committed message, flattened over
    axes (seed, mask, coset, view symbol)."""
    code = cfg.code
    if code.k > 16 or code.k * cfg.hash_m > 24:
        raise ValueError("exact hiding enumeration is desk-scale only")
    n_cosets = 1 << (code.n - code.k)
    view = strategy.view_channel
    seeds = enumerate_full_rank_seeds(code.k, cfg.hash_m)
    cells = len(seeds) * (1 << cfg.hash_m) * n_cosets * view.view_size
    if cells > 1 << 24:
        raise ValueError("view space too large for exact mode "
                         "(%d cells > 2^24)" % cells)
    codewords = [BitString(row @ code.gen & 1) for row in all_bits(code.k)]
    reps = [code.coset_representative(
        CosetId(BitString.from_int(ci, code.n - code.k)))
        for ci in range(n_cosets)]
    out = np.zeros((len(seeds), 1 << cfg.hash_m, n_cosets, view.view_size))
    law_cache: dict[int, np.ndarray] = {}
    for si, seed in enumerate(seeds):
        digests = digest_table(seed.matrix)
        for mbar_int in range(1 << cfg.hash_m):
            masked = (m ^ BitString.from_int(mbar_int, cfg.hash_m)).to_int()
            sel = np.flatnonzero(digests == masked)
            for ci, rep in enumerate(reps):
                acc = out[si, mbar_int, ci]
                for idx in sel:
                    shifted = codewords[idx] ^ rep
                    key = shifted.to_int()
                    lawvec = law_cache.get(key)
                    if lawvec is None:
                        lawvec = view.law(shifted).mass
                        law_cache[key] = lawvec
                    acc += lawvec
    # priors 1/(#seeds * |M| * #cosets), preimage weight |M|/|C|
    out /= len(seeds) * (1 << cfg.hash_m) * n_cosets
    out /= 1 << (code.k - cfg.hash_m)
    return out.ravel()


def less_noisy_bob(p_b: float, n: int) -> BobStrategy:
    """Receiver who downgrades the channel to BSC(p_b); p_b = 0 sees the input."""
    if p_b < 0:
        raise ValueError("need p_b >= 0")
    return BobStrategy(view_channel=BobChannel.bsc_view(n, p_b),
                       name="less_noisy_bob(p_b=%g)" % p_b)
