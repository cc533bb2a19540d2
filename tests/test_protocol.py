import hashlib
import json
import math

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from usnc import cli, protocol
from usnc.bounds import completeness_bound
from usnc.channel import bsc_transmit, typical_window, typicality_tail_exact
from usnc.gf2 import (BitString, LinearCode, _unpack_u64, even_weight_code,
                      hamming_7_4, random_linear_code)
from usnc.hashing import HashSeed, count_full_rank, hash_codeword
from usnc.protocol import (ACC, BLOCK, REJ, CommitConfig, CommitWire,
                           CommitmentTranscript, Opening, TranscriptBatch,
                           _completeness_counts, _flip_threshold,
                           _gauss_jordan, _nwords, _random_words,
                           alice_commit, bob_receive, bob_verify,
                           bob_verify_batch, estimate_completeness, run_honest,
                           run_honest_batch, transcript_from_json,
                           transcript_to_json)


def batch_transcript(batch, i, cfg):
    """Trial i of a ``TranscriptBatch`` as a scalar transcript carrying its
    opening."""
    k, n, hm, wk = cfg.code.k, cfg.n, cfg.hash_m, _nwords(cfg.code.k)

    def split(words):  # message words, then check words
        return BitString(np.concatenate([_unpack_u64(words[:wk], k),
                                         _unpack_u64(words[wk:], n - k)]))

    return CommitmentTranscript(
        seed=HashSeed(_unpack_u64(batch.seed[i], k)),
        mbar=BitString(_unpack_u64(batch.mbar[i], hm)),
        coset=BitString(_unpack_u64(batch.coset[i], n - k)),
        z=split(batch.z[i]),
        opening=Opening(m=BitString(_unpack_u64(batch.m[i], hm)),
                        x=split(batch.x[i])))


@pytest.fixture(scope="module")
def cfg():
    return CommitConfig(code=hamming_7_4(), hash_m=1, p=0.25, eps=0.2)


class TestConfigValidation:
    def test_distance_constraint(self):
        wide = random_linear_code(6, 1, 6, np.random.default_rng(0))  # d = 6
        with pytest.raises(ValueError, match="n/2"):
            CommitConfig(code=wide, hash_m=1, p=0.1, eps=0.05)

    def test_window_constraint(self):
        with pytest.raises(ValueError, match="eps"):
            CommitConfig(code=hamming_7_4(), hash_m=1, p=0.25, eps=0.3)

    def test_hash_width(self):
        with pytest.raises(ValueError):
            CommitConfig(code=hamming_7_4(), hash_m=5, p=0.25, eps=0.1)


class TestCommitPhase:
    def test_transmitted_syndrome_is_coset(self, cfg):
        for i in range(30):
            rng = np.random.default_rng([10, i])
            m = BitString.random(1, rng)
            opening, wire, xbar = alice_commit(m, cfg, rng)
            assert xbar == opening.x ^ cfg.code.coset_representative(
                wire.coset)
            assert cfg.code.syndrome(xbar) == wire.coset

    def test_hash_equation_holds(self, cfg):
        for i in range(30):
            rng = np.random.default_rng([11, i])
            m = BitString.random(1, rng)
            opening, wire, _ = alice_commit(m, cfg, rng)
            assert opening.m == m
            assert hash_codeword(wire.seed, cfg.code, opening.x) == \
                (m ^ wire.mbar)

    def test_noiseless_double_delivers_shifted_codeword(self, cfg):
        # a noiseless channel hands the receiver the returned string, the
        # coset-shifted codeword; run_honest draws BSC(p) noise on exactly
        # that string, after the commit draws
        m = BitString.from01("1")
        rng = np.random.default_rng(12)
        opening, wire, xbar = alice_commit(m, cfg, rng)
        z = bsc_transmit(xbar, cfg.p, rng)
        run = run_honest(m, cfg, np.random.default_rng(12))
        assert run.transcript == replace(bob_receive(wire, z, cfg),
                                         opening=opening)


class TestBobReceive:
    def test_wire_validation(self, cfg):
        rng = np.random.default_rng(13)
        _, wire, z = alice_commit(BitString.from01("0"), cfg, rng)
        t = bob_receive(wire, z, cfg)
        assert t.z == z and t.opening is None
        with pytest.raises(ValueError, match="length"):
            bob_receive(wire, BitString.zeros(6), cfg)
        with pytest.raises(ValueError, match="malformed"):
            bob_receive(("not", "a", "wire"), z, cfg)
        bad = CommitWire(seed=wire.seed, mbar=BitString.zeros(2),
                         coset=wire.coset)
        with pytest.raises(ValueError):
            bob_receive(bad, z, cfg)


class TestBobVerify:
    def test_non_codeword_rejected(self, cfg):
        rng = np.random.default_rng(14)
        opening, wire, xbar = alice_commit(BitString.from01("0"), cfg, rng)
        t = bob_receive(wire, xbar, cfg)
        bad = opening.x ^ BitString.from_int(1, 7)  # weight-1 offset
        assert bob_verify(t, BitString.from01("0"), bad, cfg) == REJ

    def test_tampered_message_rejected(self):
        # window floor below zero so the noiseless run is typical; with a
        # 1-bit digest, flipping m then always breaks the hash equation
        cfg = CommitConfig(code=hamming_7_4(), hash_m=1, p=0.2, eps=0.24)
        rng = np.random.default_rng(15)
        m = BitString.from01("0")
        opening, wire, xbar = alice_commit(m, cfg, rng)
        t = bob_receive(wire, xbar, cfg)
        assert bob_verify(t, m, opening.x, cfg) == ACC
        assert bob_verify(t, m ^ BitString.from01("1"), opening.x, cfg) == REJ

    def test_accept_iff_noise_weight_in_window(self, cfg):
        n, p, eps = 7, 0.25, 0.2
        for i in range(200):
            rng = np.random.default_rng([16, i])
            m = BitString.random(1, rng)
            run = run_honest(m, cfg, rng)
            opening = run.transcript.opening
            sent = opening.x ^ cfg.code.coset_representative(
                run.transcript.coset)
            w = np.count_nonzero(sent.bits != run.transcript.z.bits)
            expected = ACC if n * (p - eps) <= w <= n * (p + eps) else REJ
            assert run.flag == expected

    def test_exact_acceptance_probability(self, cfg):
        # oracle: enumerate noise weights against the window predicate
        n, p, eps = 7, 0.25, 0.2
        exact = sum(math.comb(n, w) * p ** w * (1 - p) ** (n - w)
                    for w in range(n + 1)
                    if n * (p - eps) <= w <= n * (p + eps))
        trials = 20000
        acc = 0
        for i in range(trials):
            rng = np.random.default_rng([17, i])
            acc += run_honest(BitString.random(1, rng), cfg, rng).flag == ACC
        se = math.sqrt(exact * (1 - exact) / trials)
        assert acc / trials == pytest.approx(exact, abs=3.5 * se)


class TestRunHonest:
    def test_message_always_returned(self, cfg):
        for i in range(50):
            rng = np.random.default_rng([18, i])
            m = BitString.random(1, rng)
            assert run_honest(m, cfg, rng).m_hat == m

    def test_deterministic_replay(self, cfg):
        m = BitString.from01("1")
        r1 = run_honest(m, cfg, np.random.default_rng([19, 0]))
        r2 = run_honest(m, cfg, np.random.default_rng([19, 0]))
        assert transcript_to_json(r1.transcript) == \
            transcript_to_json(r2.transcript)
        assert r1.flag == r2.flag


class TestCosetHiding:
    def test_transmitted_string_uniform_on_coset(self, cfg):
        # for a fixed seed and coset, a uniform masked digest plus uniform
        # preimage sampling puts the transmitted string uniformly on the
        # coset; this is the rearrangement the hiding argument relies on
        from usnc.hashing import hash_codeword, sample_seed
        code = cfg.code
        rng = np.random.default_rng(30)
        seed = sample_seed(4, 1, rng)
        coset = code.syndrome(BitString.from01("0000011"))
        rep = code.coset_representative(coset)
        weights = {}
        for u_int in range(16):
            c = code.encode(BitString.from_int(u_int, 4))
            digest = hash_codeword(seed, code, c)
            # uniform masked digest (1/2) and uniform choice within the
            # 8-element preimage (1/8)
            weights[(c ^ rep).to_int()] = weights.get((c ^ rep).to_int(), 0.0) \
                + 0.5 / 8.0
        assert len(weights) == 16
        for xbar_int, w in weights.items():
            assert w == pytest.approx(1 / 16)
            assert code.syndrome(BitString.from_int(xbar_int, 7)) == coset


class TestTranscriptCodec:
    def test_roundtrip(self, cfg):
        rng = np.random.default_rng(20)
        run = run_honest(BitString.from01("1"), cfg, rng)
        text = transcript_to_json(run.transcript)
        back = transcript_from_json(text)
        assert back == run.transcript
        assert transcript_to_json(back) == text

    def test_missing_field_rejected(self, cfg):
        rng = np.random.default_rng(21)
        run = run_honest(BitString.from01("0"), cfg, rng)
        obj = json.loads(transcript_to_json(run.transcript))
        del obj["coset"]
        with pytest.raises(ValueError, match="missing field"):
            transcript_from_json(json.dumps(obj))

    def test_corrupt_payload_rejected(self, cfg):
        rng = np.random.default_rng(22)
        run = run_honest(BitString.from01("0"), cfg, rng)
        obj = json.loads(transcript_to_json(run.transcript))
        obj["z"]["len"] = 200
        with pytest.raises(ValueError, match="length"):
            transcript_from_json(json.dumps(obj))

    def test_roundtrip_arbitrary_shapes(self):
        # codec handles bit lengths away from byte boundaries
        from usnc.hashing import sample_seed
        rng = np.random.default_rng(24)
        for _ in range(25):
            k = int(rng.integers(2, 12))
            m = int(rng.integers(1, k + 1))
            n = k + int(rng.integers(1, 9))
            t = CommitmentTranscript(
                seed=sample_seed(k, m, rng),
                mbar=BitString.random(m, rng),
                coset=BitString.random(n - k, rng),
                z=BitString.random(n, rng),
                opening=Opening(m=BitString.random(m, rng),
                                x=BitString.random(n, rng)))
            assert transcript_from_json(transcript_to_json(t)) == t


def test_wilson_interval_known_value():
    # zero successes out of 100 at 99%: upper = (z^2/100) / (1 + z^2/100)
    from usnc.protocol import _wilson_99
    lo, hi = _wilson_99(0, 100)
    z = 2.5758293035489004
    assert lo == 0.0
    assert hi == pytest.approx((z * z / 100) / (1 + z * z / 100))


class TestCompleteness:
    def test_estimate_below_bound_and_deterministic(self):
        code = random_linear_code(64, 8, 12, np.random.default_rng(1))
        cfg = CommitConfig(code=code, hash_m=4, p=0.1, eps=0.25)
        est1 = estimate_completeness(cfg, 2000, 99)
        est2 = estimate_completeness(cfg, 2000, 99)
        assert est1 == est2  # counter-based per-block randomness
        assert est1.reject_rate <= completeness_bound(64, 0.25)
        assert 0.0 <= est1.wilson_low <= est1.wilson_high <= 1.0

    def test_rejects_everything_when_noiseless_and_window_above_zero(self):
        # eps < p with a noiseless channel puts HD = 0 below the window
        code = hamming_7_4()
        cfg = CommitConfig(code=code, hash_m=1, p=0.25, eps=0.1)
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = BitString.random(1, rng)
            opening, wire, xbar = alice_commit(m, cfg, rng)
            t = bob_receive(wire, xbar, cfg)
            assert bob_verify(t, m, opening.x, cfg) == REJ

    def test_trials_floor(self):
        cfg = CommitConfig(code=hamming_7_4(), hash_m=1, p=0.25, eps=0.2)
        with pytest.raises(ValueError):
            estimate_completeness(cfg, 10, 0)

    def test_trials_refused_above_cap_before_drawing(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a block of trials was drawn")

        monkeypatch.setattr(protocol, "_completeness_counts", fail)
        cfg = CommitConfig(code=hamming_7_4(), hash_m=1, p=0.25, eps=0.2)
        for trials in (10 ** 8 + 1, 10 ** 20):
            with pytest.raises(ValueError, match=r"^%d completeness trials "
                               r"are above the cap of 10\^8$" % trials):
                estimate_completeness(cfg, trials, 0)


# ---------------------------------------------------------------------------
# Batched honest engine, pinned against the scalar path
# ---------------------------------------------------------------------------

BATCH_CONFIGS = {
    "hamming74": lambda: CommitConfig(code=hamming_7_4(), hash_m=1, p=0.25,
                                      eps=0.2),
    "even:14": lambda: CommitConfig(code=even_weight_code(14), hash_m=1,
                                    p=0.25, eps=0.05),
    "random[4096,16]": lambda: CommitConfig(
        code=random_linear_code(4096, 16, 1024, np.random.default_rng(1)),
        hash_m=8, p=0.1, eps=0.01),
    # k and hash_m past one 64-bit word; the distance is only declared
    "random[200,70]": lambda: CommitConfig(
        code=LinearCode(np.random.default_rng(2).integers(0, 2, (70, 130)),
                        d_claimed=5),
        hash_m=66, p=0.1, eps=0.05),
}


def _noise_of_weight(n, w, rng):
    bits = np.zeros(n, dtype=np.uint8)
    bits[rng.choice(n, size=w, replace=False)] = 1
    return BitString(bits)


def _tampered(t, cfg, rng):
    """Honest transcript t plus openings and channel outputs that break one
    accept test each, and channel outputs at and just beyond both window
    edges."""
    code, op = cfg.code, t.opening
    sent = op.x ^ code.coset_representative(t.coset)
    flip_m = BitString.from_int(1, cfg.hash_m)
    off_code = op.x ^ BitString.from_int(1, cfg.n)  # message coordinate 0
    other = t.coset ^ BitString.from_int(1, cfg.n - code.k)
    out = [t,
           replace(t, opening=Opening(m=op.m ^ flip_m, x=op.x)),
           replace(t, opening=Opening(m=op.m, x=off_code)),
           replace(t, coset=other)]
    w_lo, w_hi = typical_window(cfg.n, cfg.p, cfg.eps)
    for w in (w_lo - 1, w_lo, w_hi, w_hi + 1):
        if 0 <= w <= cfg.n:
            out.append(replace(t, z=sent ^ _noise_of_weight(cfg.n, w, rng)))
    return out


class TestBatchEngine:
    @pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
    def test_batch_and_scalar_verdicts_agree(self, name):
        cfg = BATCH_CONFIGS[name]()
        rng = np.random.default_rng(40)
        honest = run_honest_batch(cfg, master_seed=41, block=3, size=40)
        transcripts = []
        for i in range(len(honest)):
            transcripts += _tampered(batch_transcript(honest, i, cfg), cfg,
                                     rng)
        batch = TranscriptBatch.from_transcripts(transcripts, cfg)
        scalar = np.array([bob_verify(t, t.opening.m, t.opening.x, cfg) == ACC
                           for t in transcripts])
        assert np.array_equal(bob_verify_batch(batch, cfg), scalar)
        assert scalar.any() and not scalar.all()

    @pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
    def test_replay_verdicts_equal_scalar(self, name, monkeypatch, tmp_path,
                                          capsys):
        # commit replay decides through a one-row batch; the code comes
        # from the configuration, as the random codes have no CLI spec
        cfg = BATCH_CONFIGS[name]()
        monkeypatch.setattr(cli, "_code_from_spec", lambda spec: cfg.code)
        rng = np.random.default_rng(48)
        honest = run_honest_batch(cfg, master_seed=49, block=0, size=3)
        path = tmp_path / "t.json"
        flags = set()
        for i in range(len(honest)):
            for t in _tampered(batch_transcript(honest, i, cfg), cfg, rng):
                path.write_text(transcript_to_json(t))
                assert cli.main(["commit", "replay", "--transcript",
                                 str(path), "--code", name, "--hash-m",
                                 str(cfg.hash_m), "--p", repr(cfg.p),
                                 "--eps", repr(cfg.eps)]) == 0
                flag = bob_verify(t, t.opening.m, t.opening.x, cfg)
                assert capsys.readouterr().out == "flag: %s\nm_hat: %s\n" \
                    % (flag, t.opening.m.to01())
                flags.add(flag)
        assert flags == {ACC, REJ}

    @pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
    def test_honest_runs_fail_only_on_noise_weight(self, name):
        # the lift, encoding and coset shift are right exactly when every
        # honest verdict is the window test on the channel noise alone
        cfg = BATCH_CONFIGS[name]()
        batch = run_honest_batch(cfg, master_seed=42, block=0, size=200)
        w_lo, w_hi = typical_window(cfg.n, cfg.p, cfg.eps)
        for i in range(len(batch)):
            t = batch_transcript(batch, i, cfg)
            sent = t.opening.x ^ cfg.code.coset_representative(t.coset)
            w = (sent ^ t.z).weight()
            assert bob_verify(t, t.opening.m, t.opening.x, cfg) == \
                (ACC if w_lo <= w <= w_hi else REJ)
        assert bob_verify_batch(batch, cfg).any()

    def test_seeds_and_preimages_uniform(self):
        # (S, u) must be uniform over full-rank seeds x all k-bit messages,
        # independently of the committed message m; with k = 4 and
        # hash_m = 2 every field is one word per row
        cfg = CommitConfig(code=hamming_7_4(), hash_m=2, p=0.25, eps=0.2)
        cols = []
        for block in range(20):
            b = run_honest_batch(cfg, 43, block)
            cols.append(np.stack([b.seed[:, 0, 0], b.seed[:, 1, 0], b.m[:, 0],
                                  b.x[:, 0]], axis=1))
        draws = np.concatenate(cols)
        seeds, seed_counts = np.unique(draws[:, :2], axis=0,
                                       return_counts=True)
        assert len(seeds) == count_full_rank(4, 2)
        for rows in seeds:
            HashSeed(((rows[:, None] >> np.arange(4, dtype=np.uint64)) & 1)
                     .astype(np.uint8))
        _, mu_counts = np.unique(draws[:, 2:], axis=0, return_counts=True)
        assert len(mu_counts) == 4 * 16
        for counts in (seed_counts, mu_counts):
            expected = counts.sum() / counts.size
            stat = float(((counts - expected) ** 2 / expected).sum())
            assert stat < chi2.ppf(0.999, df=counts.size - 1)

    def test_blocks_independent_of_call_partition(self):
        cfg = BATCH_CONFIGS["even:14"]()
        whole = _completeness_counts(cfg, 10 * BLOCK, 44)
        rejects = sum(int((~bob_verify_batch(run_honest_batch(cfg, 44, block),
                                             cfg)).sum())
                      for block in range(10))
        assert whole == rejects
        assert 0 < rejects < 10 * BLOCK

    def test_short_block_is_prefix_of_full_block(self):
        cfg = BATCH_CONFIGS["hamming74"]()
        full = run_honest_batch(cfg, 45, 2)
        short = run_honest_batch(cfg, 45, 2, size=123)
        for f in ("seed", "mbar", "coset", "z", "m", "x"):
            assert np.array_equal(getattr(short, f), getattr(full, f)[:123])

    def test_rejection_rate_matches_exact_window_tail(self):
        cfg = BATCH_CONFIGS["hamming74"]()
        tail = typicality_tail_exact(7, cfg.p, cfg.eps)
        trials = 20 * BLOCK
        est = estimate_completeness(cfg, trials, 46)
        se = math.sqrt(tail * (1 - tail) / trials)
        assert est.reject_rate == pytest.approx(tail, abs=4 * se)

    def test_malformed_batch_refused(self):
        cfg = BATCH_CONFIGS["hamming74"]()
        batch = run_honest_batch(cfg, 47, 0, size=5)
        with pytest.raises(ValueError, match="expected"):
            bob_verify_batch(replace(batch, z=batch.z[:, :1]), cfg)
        padded = batch.x.copy()
        padded[0, 0] |= np.uint64(1) << np.uint64(4)  # beyond k = 4
        with pytest.raises(ValueError, match="beyond"):
            bob_verify_batch(replace(batch, x=padded), cfg)
        with pytest.raises(ValueError):
            run_honest_batch(cfg, 47, 0, size=BLOCK + 1)


# ---------------------------------------------------------------------------
# Stream pins: the honest engine's draws, digested
# ---------------------------------------------------------------------------

# k = 4 with a square 4 x 4 seed: about 69% of seeds are rank deficient, so
# most blocks redraw seeds over several rounds
STREAM_CONFIGS = dict(BATCH_CONFIGS, **{
    "hamming74 m=4": lambda: CommitConfig(code=hamming_7_4(), hash_m=4,
                                          p=0.25, eps=0.2)})
STREAM_BLOCKS = [(name, BLOCK) for name in sorted(STREAM_CONFIGS)] + [
    ("random[4096,16]", 123)]  # a short block ending inside a noise chunk


def _field_digest(words: np.ndarray) -> str:
    """First 16 hex digits of the sha256 of a field's little-endian words."""
    raw = np.ascontiguousarray(words, dtype="<u8").tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


# run_honest_batch(cfg, 51, 2, size) field digests and the rejects of
# _completeness_counts(cfg, 2500, 52) (two full blocks and a 500-trial
# one), recorded before the encoding, elimination and BSC kernels were
# rewritten. A kernel rewrite must reproduce these exactly; a change here
# is a change of every `commit complete` result.
STREAM_PINS = {
    ("even:14", BLOCK): {
        "rejects": 1360,
        "fields": {
            "seed": "94b5ec3f72a4aae4", "mbar": "d297a0991671e698",
            "coset": "0610c16518714267", "z": "170d2307d674c81b",
            "m": "8151e8b0bf2144ef", "x": "9769f553f752eb2f",
        },
    },
    ("hamming74", BLOCK): {
        "rejects": 494,
        "fields": {
            "seed": "d404d3fb01443647", "mbar": "d297a0991671e698",
            "coset": "896143773f32bc08", "z": "da73f0e8648e909d",
            "m": "8151e8b0bf2144ef", "x": "2d8c8fdcd1fde57a",
        },
    },
    ("hamming74 m=4", BLOCK): {
        "rejects": 509,
        "fields": {
            "seed": "fcf6f73e794c999b", "mbar": "999e213e09414061",
            "coset": "014b9dda0d4135be", "z": "4544362687e6d983",
            "m": "894a38b6513ae4db", "x": "6ad6bab3ab379d19",
        },
    },
    ("random[200,70]", BLOCK): {
        "rejects": 27,
        "fields": {
            "seed": "b4a9ccc7bc9f63a2", "mbar": "a4300a0393b4b6c5",
            "coset": "91655e6970538f73", "z": "43442001a2a96436",
            "m": "f6dece3bcaa20361", "x": "26f0d93aa71d7b0a",
        },
    },
    ("random[4096,16]", BLOCK): {
        "rejects": 63,
        "fields": {
            "seed": "9ac6a8583ff01384", "mbar": "b24d2e848eceb07a",
            "coset": "c9bc3f4a879c72b3", "z": "c055dcf0a951fb9e",
            "m": "9329f94acef3aaed", "x": "659d0fcbcb561ab2",
        },
    },
    ("random[4096,16]", 123): {
        "fields": {
            "seed": "6cda292e46444ae7", "mbar": "030b9ca8b51c6070",
            "coset": "f5f3fced15ee1c69", "z": "68d879318a694e97",
            "m": "8abd1bf36bd20f13", "x": "99329ebcb4f0b987",
        },
    },
}


class TestStreamPins:
    @pytest.mark.parametrize("name,size", STREAM_BLOCKS)
    def test_batch_fields_pinned(self, name, size):
        batch = run_honest_batch(STREAM_CONFIGS[name](), 51, 2, size)
        got = {f: _field_digest(getattr(batch, f))
               for f in ("seed", "mbar", "coset", "z", "m", "x")}
        assert got == STREAM_PINS[name, size]["fields"]

    @pytest.mark.parametrize("name", sorted(STREAM_CONFIGS))
    def test_completeness_counts_pinned(self, name):
        cfg = STREAM_CONFIGS[name]()
        assert _completeness_counts(cfg, 2500, 52) == \
            STREAM_PINS[name, BLOCK]["rejects"]


# ---------------------------------------------------------------------------
# Honest-engine kernels pinned against the references they replaced
# ---------------------------------------------------------------------------


def gauss_jordan_reference(rows, rhs, k):
    """Column-wise elimination: for each column in turn, the first row
    without a pivot that has the bit takes it as its pivot, and the column
    is cleared from every other row and right-hand side."""
    rows, rhs = rows.copy(), rhs.copy()
    pivot = np.full(rhs.shape, -1, dtype=np.int64)
    for c in range(k):
        bit = ((rows[:, :, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)) \
            .astype(bool)
        cand = bit & (pivot < 0)
        sel = np.flatnonzero(cand.any(axis=1))
        if not sel.size:
            continue
        prow = cand[sel].argmax(axis=1)
        clear = bit[sel]
        clear[np.arange(sel.size), prow] = False
        rows[sel] ^= np.where(clear[:, :, None], rows[sel, prow][:, None, :],
                              np.uint64(0))
        rhs[sel] ^= clear & rhs[sel, prow][:, None].astype(bool)
        pivot[sel, prow] = c
        if (pivot >= 0).all():
            break
    return rows, rhs, pivot


class TestKernels:
    @pytest.mark.parametrize("k", [1, 4, 8, 9, 16, 63, 64, 65, 70, 130])
    def test_gauss_jordan_matches_column_reference(self, k):
        # h up to 66 rows, as many as hash_m allows; in the first 100
        # systems the last row is an XOR of earlier ones (zero when h = 1),
        # so every shape has rank-deficient systems
        rng = np.random.default_rng([60, k])
        for h in sorted({1, min(k, 3), min(k, 8), min(k, 66)}):
            rows = _random_words(rng, (400, h), k)
            pick = rng.integers(0, 2, (100, h - 1, 1)).astype(bool)
            rows[:100, -1] = np.bitwise_xor.reduce(
                np.where(pick, rows[:100, :-1], np.uint64(0)), axis=1)
            rhs = rng.integers(0, 2, (400, h), dtype=np.uint8)
            got = _gauss_jordan(rows, rhs)
            want = gauss_jordan_reference(rows, rhs, k)
            deficient = (want[2] < 0).any(axis=1)
            assert deficient[:100].all() and not deficient.all()
            assert np.array_equal((got[2] < 0).any(axis=1), deficient)
            for g, w in zip(got, want):  # full rank: the same reduced rows
                assert np.array_equal(g[~deficient], w[~deficient])

    @pytest.mark.parametrize("p", [1e-9, 0.1, 0.25, 0.5 - 2.0 ** -53])
    def test_flip_threshold_is_random_below_p(self, p):
        # 0.25 * 2^53 is an integer; 1/2 - 2^-53 is the largest p < 1/2
        t = int(_flip_threshold(p))
        edge = np.array([v for v in (t - 2049, t - 2048, t - 1, t, t + 1,
                                     t + 2047, t + 2048) if 0 <= v < 2 ** 64],
                        dtype=np.uint64)
        scaled = (edge >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        assert np.array_equal(edge < np.uint64(t), scaled < p)
        raw, gen = np.random.default_rng(61), np.random.default_rng(61)
        flips = raw.bit_generator.random_raw(50_000) < np.uint64(t)
        assert np.array_equal(flips, gen.random(50_000) < p)
        assert raw.bit_generator.state == gen.bit_generator.state
        assert np.array_equal(raw.random(100), gen.random(100))
