import math
from dataclasses import fields, replace

import numpy as np
import pytest

from reference import (constant_view, honest_alice_strategy,
                       typical_intersection_exact)
from usnc.adversary import (AliceStrategy, AtomTable, BobStrategy,
                            _int_words, _split_words, _view_table,
                            binding_success, hiding_advantage,
                            less_noisy_bob, midpoint_attack)
from usnc.bounds import binding_bound, hiding_bound
from usnc.channel import (AliceChannel, BobChannel, UsncParams, bsc_law_dense,
                          check_c2, check_c3, hamming_distances,
                          typical_window, typical_window_mask)
from usnc.entropy import ClassicalDistribution, cond_min_entropy, min_entropy
from usnc.gf2 import (BitString, LinearCode, _pack_u64, _unpack_u64,
                      all_bits, even_weight_code, hamming_7_4)
from usnc.hashing import (HashSeed, _digests, digest_table,
                          enumerate_full_rank_seeds,
                          exact_collision_probability, hash_codeword,
                          sample_seed)
from usnc.protocol import (ACC, CommitConfig, CommitmentTranscript,
                           _openings_pass, _pack_split, bob_verify)


def weight_string(n, w):
    return BitString((np.arange(n) < w).astype(np.uint8))


@pytest.fixture(scope="module")
def cfg14():
    return CommitConfig(code=even_weight_code(14), hash_m=1, p=0.25, eps=0.05)


@pytest.fixture(scope="module")
def seeds13():
    return enumerate_full_rank_seeds(13, 1)


@pytest.fixture(scope="module")
def cfg74():
    return CommitConfig(code=hamming_7_4(), hash_m=1, p=0.25, eps=0.2)


def _atom(strategy, cfg, i):
    """Atom i of a strategy table as scalar objects:
    (seed, Mbar, C', (x0, m0), (x1, m1))."""
    a, n, hm = strategy.atoms, cfg.n, cfg.hash_m

    def bits(value, nbits):
        return BitString.from_int(int(value), nbits)

    return (HashSeed(strategy.seeds[a.seed[i]]), bits(a.mbar[i], hm),
            bits(a.coset[i], n - cfg.code.k),
            (bits(a.x0[i], n), bits(a.m0[i], hm)),
            (bits(a.x1[i], n), bits(a.m1[i], hm)))


def binding_exact_reference(strategy, cfg):
    """Per-atom reference for exact binding: each atom's two openings go
    through the scalar membership and digest tests, and a valid atom adds
    its probability times the law mass of both typical windows."""
    code, a = cfg.code, strategy.atoms
    total = 0.0
    for i in range(len(a)):
        seed, mbar, coset, (x0, m0), (x1, m1) = _atom(strategy, cfg, i)
        if m0 == m1:
            continue
        if not all(code.contains(x) and hash_codeword(seed, code, x)
                   == (m ^ mbar) for x, m in ((x0, m0), (x1, m1))):
            continue
        rep = code.coset_representative(coset)
        mask = typical_window_mask(cfg.n, (x0 ^ rep).to_int(), cfg.p,
                                   cfg.eps) \
            & typical_window_mask(cfg.n, (x1 ^ rep).to_int(), cfg.p, cfg.eps)
        law = strategy.channel.law(strategy.channel.labels[a.label[i]])
        total += a.prob[i] * float(law.mass[mask].sum())
    return total


def binding_mc_reference(strategy, cfg, trials, rng):
    """Per-trial reference for Monte Carlo binding: the same draws as the
    batched harness, each opening checked by the scalar verifier."""
    a, channel = strategy.atoms, strategy.channel
    picks = rng.choice(len(a), size=trials, p=a.prob / a.prob.sum())
    wins = 0
    for i in picks:
        z = channel.sample(channel.labels[a.label[i]], rng)
        seed, mbar, coset, (x0, m0), (x1, m1) = _atom(strategy, cfg, i)
        t = CommitmentTranscript(seed=seed, mbar=mbar, coset=coset, z=z)
        if m0 != m1 and bob_verify(t, m0, x0, cfg) == ACC \
                and bob_verify(t, m1, x1, cfg) == ACC:
            wins += 1
    return wins / trials


def binding_grouped_reference(strategy, cfg):
    """Row-sorting reference for exact binding: openings unpacked to bit
    rows and checked by matmul, valid atoms grouped by ``np.unique(axis=0)``
    over (label, coset, x0, x1) key rows, one window mass per group."""
    n, code, a = cfg.n, cfg.code, strategy.atoms
    xs, which = np.unique(np.concatenate([a.x0, a.x1]), return_inverse=True)
    xbits = _unpack_u64(xs[:, None], n)
    member = ~((xbits[:, :code.k] @ code.p_block + xbits[:, code.k:]) & 1) \
        .any(axis=1)
    digest = _digests(strategy.seeds[np.concatenate([a.seed, a.seed])],
                      xbits[which, None, :code.k])[:, 0]
    ok = member[which] & (digest == np.concatenate([a.m0 ^ a.mbar,
                                                    a.m1 ^ a.mbar]))
    valid = ok[:len(a)] & ok[len(a):] & (a.m0 != a.m1)
    keys = np.stack([a.label, a.coset, a.x0, a.x1], axis=1)[valid]
    groups, group = np.unique(keys, axis=0, return_inverse=True)
    w_lo, w_hi = typical_window(n, cfg.p, cfg.eps)
    group_mass = np.empty(len(groups))
    for g, (label, coset, x0, x1) in enumerate(groups.tolist()):
        rep = coset << code.k
        d = hamming_distances(n, [x0 ^ rep, x1 ^ rep])
        both = ((d >= w_lo) & (d <= w_hi)).all(axis=0)
        law = strategy.channel.law(strategy.channel.labels[label])
        group_mass[g] = law.mass[both].sum()
    weight = np.bincount(group.ravel(), weights=a.prob[valid],
                         minlength=len(groups))
    return float(weight @ group_mass)


def exact_binding_checked(strategy, cfg):
    """Exact value, equal to the row-sorting reference and within 1e-12 of
    the per-atom loop."""
    # a zero entropy floor certifies any channel
    check_c2(strategy.channel, UsncParams(n=cfg.n, p=cfg.p, eps_a=0.0,
                                          l_a=0.0, eps_b=0.0, l_b=0.0))
    exact = binding_success(strategy, cfg, for_bound_comparison=True)
    assert exact == binding_grouped_reference(strategy, cfg)
    assert abs(exact - binding_exact_reference(strategy, cfg)) <= 1e-12
    return exact


def assert_matches_references(strategy, cfg, trials=2000, seed=7):
    """Exact value checked by ``exact_binding_checked``, Monte Carlo
    estimate equal to the per-trial loop's; returns the exact value."""
    exact = exact_binding_checked(strategy, cfg)
    mc = binding_success(strategy, cfg, mode="mc", trials=trials,
                         rng=np.random.default_rng(seed),
                         for_bound_comparison=True)
    assert mc == binding_mc_reference(strategy, cfg, trials,
                                      np.random.default_rng(seed))
    return exact


def certify_sender(strategy, cfg):
    law = strategy.channel.law(strategy.channel.labels[0])
    l_a = min_entropy(law)
    params = UsncParams(n=cfg.n, p=cfg.p, eps_a=0.0, l_a=l_a,
                        eps_b=0.0, l_b=0.0)
    report = check_c2(strategy.channel, params)
    assert report.passed
    return l_a


class TestBindingSuccess:
    def test_honest_strategy_never_equivocates(self, cfg74):
        rng = np.random.default_rng(0)
        strategy = honest_alice_strategy(cfg74, BitString.from01("1"), rng,
                                         n_atoms=8)
        with pytest.warns(UserWarning, match="not certified"):
            assert binding_success(strategy, cfg74) == 0.0

    def test_uniform_spread_matches_product_form(self, cfg14, seeds13):
        # independent decomposition: Pr[digests differ] * window mass
        w = 6
        x0, x1 = BitString.zeros(14), weight_string(14, w)
        strategy = midpoint_attack(cfg14, x0, x1, 0.5, seeds=seeds13)
        assert len(strategy.atoms) == 2 * 8191  # every seed and mask
        l_a = certify_sender(strategy, cfg14)
        assert l_a == pytest.approx(14.0)
        success = binding_success(strategy, cfg14, for_bound_comparison=True)
        inter = typical_intersection_exact(14, cfg14.p, cfg14.eps, x0, x1)
        p_neq = 1.0 - exact_collision_probability(13, 1)
        assert success == pytest.approx(p_neq * inter / 2 ** 14, rel=1e-12)

    def test_bounded_by_binding_bound(self, cfg14, seeds13):
        for w, spread in [(2, 0.5), (4, 0.25), (6, 0.4)]:
            x0, x1 = BitString.zeros(14), weight_string(14, w)
            strategy = midpoint_attack(cfg14, x0, x1, spread, seeds=seeds13)
            l_a = certify_sender(strategy, cfg14)
            success = binding_success(strategy, cfg14,
                                      for_bound_comparison=True)
            sigma = w / 28.0
            bound = binding_bound(14, cfg14.eps, sigma, cfg14.p, l_a, 0.0)
            assert success <= bound + 1e-12

    def test_far_openings_never_succeed(self, cfg14, seeds13):
        # sigma beyond p + 2 eps: the two typical windows cannot overlap
        for w in (12, 14):
            x0, x1 = BitString.zeros(14), weight_string(14, w)
            strategy = midpoint_attack(cfg14, x0, x1, 0.5, seeds=seeds13)
            certify_sender(strategy, cfg14)
            assert w / 28.0 > cfg14.p + 2 * cfg14.eps
            assert binding_success(strategy, cfg14,
                                   for_bound_comparison=True) == 0.0

    def test_deterministic_channel_refused_in_bound_context(self, cfg14,
                                                            seeds13):
        x0, x1 = BitString.zeros(14), weight_string(14, 2)
        strategy = midpoint_attack(cfg14, x0, x1, 0.0, seeds=seeds13)
        params = UsncParams(n=14, p=cfg14.p, eps_a=0.25, l_a=1.0,
                            eps_b=0.0, l_b=0.0)
        report = check_c2(strategy.channel, params)
        assert not report.passed  # point mass cannot meet a 1-bit floor
        with pytest.raises(ValueError, match="not certified"):
            binding_success(strategy, cfg14, for_bound_comparison=True)
        with pytest.warns(UserWarning, match="not certified"):
            binding_success(strategy, cfg14)

    def test_exact_and_monte_carlo_agree(self):
        cfg = CommitConfig(code=even_weight_code(10), hash_m=1, p=0.25,
                           eps=0.1)
        seeds = enumerate_full_rank_seeds(9, 1)
        x0, x1 = BitString.zeros(10), weight_string(10, 2)
        strategy = midpoint_attack(cfg, x0, x1, 0.3, seeds=seeds)
        trials = 20000
        with pytest.warns(UserWarning, match="not certified"):
            exact = binding_success(strategy, cfg, mode="exact")
        with pytest.warns(UserWarning, match="not certified"):
            mc = binding_success(strategy, cfg, mode="mc", trials=trials,
                                 rng=np.random.default_rng(1))
        se = math.sqrt(exact * (1 - exact) / trials)
        assert mc == pytest.approx(exact, abs=3.5 * se)


    @pytest.mark.filterwarnings("ignore:channel not certified")
    def test_monte_carlo_trials_refused_above_cap_before_drawing(self,
                                                                 cfg74):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError("a random draw was reached")

        strategy = midpoint_attack(cfg74, BitString.zeros(7),
                                   codeword(cfg74.code, 15), 0.5)
        for trials in (10 ** 7 + 1, 10 ** 12):
            with pytest.raises(ValueError, match=r"^%d Monte Carlo trials "
                               r"are above the cap of 10\^7$" % trials):
                binding_success(strategy, cfg74, mode="mc", trials=trials,
                                rng=NoDraws())


def codeword(code, value):
    return code.encode(BitString.from_int(value, code.k))


def random_systematic_code(k, r, seed):
    """Random [k + r, k] code [I_k | P] with its exact distance."""
    p_block = np.random.default_rng(seed).integers(0, 2, size=(k, r))
    distance = LinearCode(p_block).min_distance_exact()
    return LinearCode(p_block, d_claimed=distance)


def hand_built_strategy(cfg, rows, seeds, laws):
    """Strategy over explicit rows (prob, seed, label, mbar, coset, x0, m0,
    x1, m1), strings as BitStrings and seeds as indices into the (S, m, k)
    stack ``seeds``; label i outputs z with probability ``laws[i][z]``."""
    dists = [ClassicalDistribution(mass) for mass in laws]

    def sample(label, rng):
        mass = dists[label].mass
        return BitString.from_int(
            int(rng.choice(mass.size, p=mass / mass.sum())), cfg.n)

    channel = AliceChannel(cfg.n, range(len(dists)), dists.__getitem__,
                           sample)
    columns = zip(*([v.to_int() if isinstance(v, BitString) else v
                     for v in row] for row in rows))
    return AliceStrategy(seeds=seeds, atoms=AtomTable(*columns),
                         channel=channel)


class TestGroupedBindingMatchesReference:
    """The array harnesses against the per-atom and per-trial loops."""

    @pytest.mark.parametrize("code,hash_m,eps", [
        (hamming_7_4(), 1, 0.2), (hamming_7_4(), 2, 0.2),
        (even_weight_code(8), 1, 0.125)],
        ids=["hamming74-m1", "hamming74-m2", "even8-m1"])
    def test_midpoint_all_seeds(self, code, hash_m, eps):
        cfg = CommitConfig(code=code, hash_m=hash_m, p=0.25, eps=eps)
        rng = np.random.default_rng(hash_m)
        seeds = enumerate_full_rank_seeds(code.k, hash_m)
        values = []
        for spread in (0.5, 0.3, 0.1):
            x0 = codeword(code, int(rng.integers(1 << code.k)))
            x1 = x0 ^ codeword(code, int(rng.integers(1, 1 << code.k)))
            strategy = midpoint_attack(cfg, x0, x1, spread, seeds=seeds)
            assert len(strategy.atoms) == len(seeds) << hash_m
            values.append(assert_matches_references(strategy, cfg))
        assert max(values) > 0.0

    def test_midpoint_even14_seed_subsample(self, cfg14, seeds13):
        for w, spread in [(2, 0.5), (6, 0.35), (10, 0.25)]:
            strategy = midpoint_attack(cfg14, BitString.zeros(14),
                                       weight_string(14, w), spread,
                                       seeds=seeds13[::64])
            assert len(strategy.atoms) == 2 * 128
            assert_matches_references(strategy, cfg14)

    def test_honest_strategy_with_a_second_opening(self, cfg74):
        # 64 labels and random cosets; truthful reveals give zero, and a
        # second digest-matched codeword opening turns every atom whose
        # digests differ into a candidate
        strategy = honest_alice_strategy(cfg74, BitString.from01("1"),
                                         np.random.default_rng(3))
        a = strategy.atoms
        assert len(set(a.label.tolist())) == 64
        assert len(set(a.coset.tolist())) > 1
        assert assert_matches_references(strategy, cfg74) == 0.0
        shift = codeword(cfg74.code, 0b1011)
        x1 = [_atom(strategy, cfg74, i)[3][0] ^ shift for i in range(len(a))]
        m1 = [(hash_codeword(HashSeed(strategy.seeds[a.seed[i]]),
                             cfg74.code, x) ^ BitString.from_int(
                                 int(a.mbar[i]), 1)).to_int()
              for i, x in enumerate(x1)]
        equivocating = replace(strategy, atoms=replace(
            a, x1=[x.to_int() for x in x1], m1=m1))
        assert assert_matches_references(equivocating, cfg74) > 0.0

    def test_hand_built_tables_with_invalid_reveals(self):
        cfg = CommitConfig(code=hamming_7_4(), hash_m=2, p=0.25, eps=0.2)
        code = cfg.code
        seeds = enumerate_full_rank_seeds(4, 2)[[0, 57, 150]]
        rng = np.random.default_rng(11)
        laws = [rng.dirichlet(np.ones(1 << 7)) for _ in range(3)]

        def digest(si, x, mbar):
            return (hash_codeword(HashSeed(seeds[si]), code, x)
                    ^ BitString.from_int(mbar, 2)).to_int()

        def opening_pair(si, label, mbar, coset, u0, u1):
            x0, x1 = codeword(code, u0), codeword(code, u1)
            return [1.0, si, label, mbar, coset, x0, digest(si, x0, mbar),
                    x1, digest(si, x1, mbar)]

        valid = opening_pair(0, 1, 2, 5, 0b0001, 0b0111)
        assert valid[6] != valid[8]
        non_codeword = list(valid)
        non_codeword[7] = valid[7] ^ BitString.from_int(1 << 6, 7)
        wrong_digest = list(valid)
        wrong_digest[8] = valid[8] ^ 1
        same_message = list(valid)
        same_message[8] = valid[6]
        same_message[7] = valid[5]
        assert assert_matches_references(
            hand_built_strategy(cfg, [valid], seeds, laws), cfg) > 0.0
        for bad in (non_codeword, wrong_digest, same_message):
            assert assert_matches_references(
                hand_built_strategy(cfg, [bad], seeds, laws), cfg) == 0.0
        # a mixed table: random atoms over three labels, three seeds and all
        # cosets, repeated rows sharing a group, and the invalid rows
        rows = [valid, valid, non_codeword, wrong_digest, same_message]
        for _ in range(60):
            row = opening_pair(int(rng.integers(3)), int(rng.integers(3)),
                               int(rng.integers(4)), int(rng.integers(8)),
                               int(rng.integers(16)), int(rng.integers(16)))
            row[0] = float(rng.random())
            rows += [row] * int(rng.integers(1, 3))
        strategy = hand_built_strategy(cfg, rows, seeds, laws)
        assert assert_matches_references(strategy, cfg, trials=3000) > 0.0

    def test_benchmark_grid_equals_grouped_reference(self, cfg14, seeds13):
        # the binding-exact workload's shape: even:14, every full-rank seed
        # and mask, 4 opening weights x 3 spreads, hash_m = 1
        code, rng = cfg14.code, np.random.default_rng(5)
        values = []
        for w in (2, 6, 10, 14):
            x0 = codeword(code, int(rng.integers(1 << code.k)))
            diff = np.zeros(14, dtype=np.uint8)
            diff[rng.choice(14, size=w, replace=False)] = 1
            for spread in (0.5, 0.35, 0.25):
                strategy = midpoint_attack(cfg14, x0, x0 ^ BitString(diff),
                                           spread, seeds=seeds13)
                assert len(strategy.atoms) == 2 * 8191
                certify_sender(strategy, cfg14)
                values.append(binding_success(strategy, cfg14,
                                              for_bound_comparison=True))
                assert values[-1] == binding_grouped_reference(strategy,
                                                               cfg14)
        assert min(values) == 0.0 < max(values)

    @pytest.mark.parametrize("code,hash_m", [
        (hamming_7_4(), 2), (hamming_7_4(), 3),
        (LinearCode([[1, 0, 0, 0]], d_claimed=2), 1),
        (random_systematic_code(6, 6, 12), 2)],
        ids=["hamming74-m2", "hamming74-m3", "5x1-m1", "random12x6-m2"])
    def test_random_tables_with_invalid_openings(self, code, hash_m):
        # several parity rows and digest bits, so a wrong bit order in the
        # packed checks rejects valid openings or accepts invalid ones; the
        # [5,1] code has rep:5's four parity rows but distance 2, as the
        # protocol refuses distances >= n/2
        cfg = CommitConfig(code=code, hash_m=hash_m, p=0.25, eps=0.2)
        n, k = cfg.n, code.k
        rng = np.random.default_rng(hash_m)
        seeds = np.stack([sample_seed(k, hash_m, rng).matrix
                          for _ in range(4)])
        laws = [rng.dirichlet(np.ones(1 << n)) for _ in range(3)]
        rows, faults = [], set()
        while len(rows) < 150:
            si, mbar = int(rng.integers(4)), int(rng.integers(1 << hash_m))
            xs = [codeword(code, int(u)) for u in rng.integers(1 << k, size=2)]
            ms = [(hash_codeword(HashSeed(seeds[si]), code, x)
                   ^ BitString.from_int(mbar, hash_m)).to_int() for x in xs]
            fault, side = int(rng.integers(4)), int(rng.integers(2))
            if fault == 1:  # one flipped bit: off the code when d >= 2
                xs[side] = xs[side] ^ BitString.from_int(
                    1 << int(rng.integers(n)), n)
            elif fault == 2:  # one wrong digest bit
                ms[side] ^= 1 << int(rng.integers(hash_m))
            elif fault == 3:  # the same message twice
                ms[side] = ms[1 - side]
            faults.add(fault)
            row = [float(rng.random()), si, int(rng.integers(3)), mbar,
                   int(rng.integers(1 << (n - k))), xs[0], ms[0], xs[1], ms[1]]
            rows += [row] * int(rng.integers(1, 3))  # repeated rows
        assert faults == {0, 1, 2, 3}
        strategy = hand_built_strategy(cfg, rows, seeds, laws)
        assert exact_binding_checked(strategy, cfg) > 0.0

    @pytest.mark.parametrize("column,shift", [
        ("x1", 1 << 7), ("m0", 2), ("coset", 8), ("seed", 1), ("label", 1),
        ("mbar", -2)])
    def test_table_outside_configuration_refused(self, cfg74, column, shift):
        strategy = midpoint_attack(cfg74, codeword(cfg74.code, 0),
                                   codeword(cfg74.code, 0b0011), 0.3)
        atoms = replace(strategy.atoms, **{
            column: getattr(strategy.atoms, column) + shift})
        for mode in ("exact", "mc"):
            with pytest.raises(ValueError, match="column %s outside" % column):
                binding_success(replace(strategy, atoms=atoms), cfg74,
                                mode=mode, rng=np.random.default_rng(0))
        other = CommitConfig(code=hamming_7_4(), hash_m=2, p=0.25, eps=0.2)
        with pytest.raises(ValueError, match="does not match"):
            binding_success(strategy, other)

    def test_attack_sequence_builds_one_law(self, cfg74, monkeypatch):
        # the floor, check_c2 and exact binding all read label 0's law, as
        # `usnc attack binding` does; the channel builds it once
        strategy = midpoint_attack(cfg74, codeword(cfg74.code, 0),
                                   codeword(cfg74.code, 0b0011), 0.3)
        built = []

        def counting_law(n, center, p):
            built.append(center)
            return bsc_law_dense(n, center, p)

        monkeypatch.setattr("usnc.channel.bsc_law_dense", counting_law)
        certify_sender(strategy, cfg74)
        first = binding_success(strategy, cfg74, for_bound_comparison=True)
        assert binding_success(strategy, cfg74) == first > 0.0
        assert len(built) == 1

    def test_each_label_built_once_per_call(self):
        # atoms of three labels in mixed order: the groups come label-major,
        # so the channel, which keeps only its latest law, builds each
        # label once per call
        cfg = CommitConfig(code=hamming_7_4(), hash_m=1, p=0.25, eps=0.2)
        code = cfg.code
        x0, x1 = codeword(code, 0b0001), codeword(code, 0b0111)
        seeds = enumerate_full_rank_seeds(4, 1)
        d0, d1 = _digests(seeds, np.stack([x0.bits[:4], x1.bits[:4]])).T
        seeds = seeds[d0 != d1][:3]  # every atom is a valid double opening
        rng = np.random.default_rng(4)
        laws = [rng.dirichlet(np.ones(1 << 7)) for _ in range(3)]
        rows = []
        for label in (2, 0, 1, 2, 0, 1, 1):
            si, mbar = int(rng.integers(3)), int(rng.integers(2))
            rows.append([1.0 / 7, si, label, mbar, int(rng.integers(8))]
                        + [v for x in (x0, x1) for v in (
                            x, (hash_codeword(HashSeed(seeds[si]), code, x)
                                ^ BitString.from_int(mbar, 1)).to_int())])
        strategy = hand_built_strategy(cfg, rows, seeds, laws)
        built = []

        def law(label):
            built.append(label)
            return ClassicalDistribution(laws[label])

        counted = replace(strategy, channel=AliceChannel(
            cfg.n, range(3), law, strategy.channel.sample))
        for s in (strategy, counted):
            s.channel.certified = True
        value = binding_success(counted, cfg)
        assert value == binding_grouped_reference(strategy, cfg) > 0.0
        assert built == [0, 1, 2]
        counted.channel.law(2)  # the last label's law outlives the call
        assert built == [0, 1, 2]
        assert binding_success(counted, cfg) == value
        assert built == [0, 1, 2] * 2

    @pytest.mark.parametrize("n_labels, refused", [(1 << 16, False),
                                                   ((1 << 16) + 1, True)])
    def test_label_capacity_of_the_packed_key(self, n_labels, refused):
        # a [16, 1] code: 15 coset bits and two 16-bit openings leave 16
        # bits of the 63-bit group key for the label
        cfg = CommitConfig(code=LinearCode([[1] + [0] * 14], d_claimed=2),
                           hash_m=1, p=0.25, eps=0.05)
        strategy = midpoint_attack(cfg, codeword(cfg.code, 0),
                                   codeword(cfg.code, 1), 0.3)
        built = []

        def law(label):
            built.append(label)
            return strategy.channel.law(strategy.channel.labels[0])

        lazy = replace(strategy, channel=AliceChannel(
            cfg.n, range(n_labels), law, strategy.channel.sample))
        for s in (strategy, lazy):
            s.channel.certified = True
        if refused:
            with pytest.raises(ValueError, match="needs 64 > 63 bits"):
                binding_success(lazy, cfg)
            assert built == []
        else:
            assert binding_success(lazy, cfg) \
                == binding_success(strategy, cfg) > 0.0
            assert built == [0]


class TestAtomTable:
    """The columnar table: one contiguous typed column per field, all of one
    length."""

    @pytest.fixture
    def atoms(self, cfg74):
        return midpoint_attack(cfg74, codeword(cfg74.code, 0),
                               codeword(cfg74.code, 0b0011), 0.3).atoms

    def test_midpoint_columns_contiguous_and_typed(self, atoms):
        assert len(atoms) == 2 * 15  # every full-rank 1 x 4 seed and mask
        for field in fields(atoms):
            col = getattr(atoms, field.name)
            assert col.flags.c_contiguous and col.shape == (len(atoms),)
            assert col.dtype == (np.float64 if field.name == "prob"
                                 else np.int64), field.name

    @pytest.mark.parametrize("column",
                             [f.name for f in fields(AtomTable)][1:])
    def test_columns_of_unequal_length_refused(self, atoms, column):
        size = len(atoms)  # prob's length
        with pytest.raises(ValueError, match=r"^atom column %s has %d "
                           r"atoms, prob has %d$" % (column, size - 1, size)):
            replace(atoms, **{column: getattr(atoms, column)[:-1]})

    @pytest.mark.parametrize("column", ["prob", "label", "m1"])
    def test_columns_that_are_not_1d_refused(self, atoms, column):
        col = getattr(atoms, column)
        for bad, ndim in ((col[:, None], 2), (col[0], 0)):
            with pytest.raises(ValueError, match=r"^atom column %s is "
                               r"%d-D, not 1-D$" % (column, ndim)):
                replace(atoms, **{column: bad})

    def test_int64_columns_kept_without_a_copy(self, atoms):
        kept = replace(atoms)
        for field in fields(atoms):
            assert getattr(kept, field.name) is getattr(atoms, field.name)

    @pytest.mark.parametrize("column, values", [
        ("seed", [1.5]), ("seed", [2 ** 63]), ("seed", [2 ** 64]),
        ("x0", [float("nan")]), ("x0", [1e19]), ("label", [-0.5]),
        ("m1", ["1"]), ("prob", ["0.5"])],
        ids=["fraction", "2^63", "2^64", "nan", "1e19", "negative-fraction",
             "int-string", "float-string"])
    def test_values_the_cast_changes_refused(self, column, values):
        row = {f.name: [0] for f in fields(AtomTable)}
        with pytest.raises(ValueError, match=r"^atom column %s holds values "
                           r"that %s does not keep$" % (column, "float64"
                           if column == "prob" else "int64")):
            AtomTable(**{**row, "prob": [1.0], column: values})

    @pytest.mark.parametrize("bad", [-1e-3, -math.inf, math.inf, math.nan])
    def test_negative_or_non_finite_probability_refused(self, atoms, bad):
        prob = atoms.prob.copy()
        prob[-1] = bad
        with pytest.raises(ValueError, match=r"^atom column prob holds a "
                           r"negative or non-finite probability$"):
            replace(atoms, prob=prob)
        prob[-1] = 1.5  # weights above 1 stay allowed
        assert replace(atoms, prob=prob).prob[-1] == 1.5

    def test_negated_midpoint_table_refused(self):
        # negated, this table's exact binding success would read -0.0118,
        # under every bound
        cfg = CommitConfig(code=even_weight_code(8), hash_m=1, p=0.25,
                           eps=0.05)
        atoms = midpoint_attack(cfg, BitString.zeros(8),
                                BitString.from01("11110000"), 0.5).atoms
        with pytest.raises(ValueError, match="^atom column prob holds"):
            replace(atoms, prob=-atoms.prob)

    def test_values_the_cast_keeps_accepted(self):
        atoms = AtomTable([1], [1.0], [True], np.array([3], np.uint64),
                          [2 ** 63 - 1], [-(2 ** 63)], [0], [5], [1])
        assert atoms.prob.tolist() == [1.0] and atoms.seed.tolist() == [1]
        assert atoms.label.tolist() == [1] and atoms.mbar.tolist() == [3]
        assert atoms.coset.tolist() == [2 ** 63 - 1]
        assert atoms.x0.tolist() == [-(2 ** 63)]


OPENING_CODES = {
    # one check bit: CommitConfig refuses k = n, which has no syndrome
    "k=6,n=7": lambda: LinearCode(np.zeros((6, 1), dtype=np.uint8),
                                  d_claimed=1),
    "k=8": lambda: random_systematic_code(8, 2, 21),  # one message byte
    "k=9": lambda: random_systematic_code(9, 2, 22),  # two message bytes
}


class TestPackedOpeningTest:
    """The receiver's packed codeword-and-digest test, as exact binding
    runs it on atom ints, against the scalar checks per atom."""

    @staticmethod
    def faulted_rows(cfg, seeds, rng):
        """(fault, row) pairs: each row breaks at most one check."""
        code, n, k, hm = cfg.code, cfg.n, cfg.code.k, cfg.hash_m

        def digest(si, x):
            return hash_codeword(HashSeed(seeds[si]), code, x).to_int()

        def draw():
            return codeword(code, int(rng.integers(1 << k)))

        kinds = ("valid", "digest", "equal", "membership")
        out = []
        while len(out) < 12:
            si, mbar = int(rng.integers(len(seeds))), int(rng.integers(1 << hm))
            x0, x1 = draw(), draw()
            m0, m1 = digest(si, x0) ^ mbar, digest(si, x1) ^ mbar
            fault = kinds[len(out) % len(kinds)]
            if fault == "valid" and m0 == m1:
                continue
            if fault == "membership":
                x1 = x1 ^ BitString.from_int(1 << int(rng.integers(k, n)), n)
            elif fault == "digest":
                m1 ^= 1 << int(rng.integers(hm))
            elif fault == "equal":
                if m0 != m1 or x0 == x1:
                    continue  # two codewords that hash alike
            row = [float(rng.random()), si, int(rng.integers(2)), mbar,
                   int(rng.integers(1 << (n - k))), x0, m0, x1, m1]
            out.append((fault, row))
        return out

    @pytest.mark.parametrize("hash_m", [1, 3])
    @pytest.mark.parametrize("name", sorted(OPENING_CODES))
    def test_one_check_faults_match_scalar_reference(self, name, hash_m):
        code = OPENING_CODES[name]()
        cfg = CommitConfig(code=code, hash_m=hash_m, p=0.25, eps=0.2)
        n, k = cfg.n, code.k
        rng = np.random.default_rng([k, hash_m])
        seeds = np.stack([sample_seed(k, hash_m, rng).matrix
                          for _ in range(3)])
        laws = [rng.dirichlet(np.ones(1 << n)) for _ in range(2)]
        rows = self.faulted_rows(cfg, seeds, rng)
        strategy = hand_built_strategy(cfg, [row for _, row in rows], seeds,
                                       laws)
        a = strategy.atoms
        # the int-to-word helpers lay strings out as the batch packers do
        assert np.array_equal(_split_words(a.x1, k, n),
                              _pack_split(_unpack_u64(a.x1[:, None], n), k))
        assert np.array_equal(_int_words(a.m1, hash_m),
                              _pack_u64(_unpack_u64(a.m1[:, None], hash_m)))
        for side in ("0", "1"):
            packed = _openings_pass(
                cfg, strategy.seed_words[a.seed], _int_words(a.mbar, hash_m),
                _int_words(getattr(a, "m" + side), hash_m),
                _split_words(getattr(a, "x" + side), k, n))
            scalar = []
            for i in range(len(a)):
                seed, mbar, _, *openings = _atom(strategy, cfg, i)
                x, m = openings[int(side)]
                scalar.append(code.contains(x) and hash_codeword(
                    seed, code, x) == m ^ mbar)
            assert packed.tolist() == scalar
        assert {fault for fault, _ in rows} == {"valid", "membership",
                                                 "digest", "equal"}
        for fault, row in rows:
            value = exact_binding_checked(
                hand_built_strategy(cfg, [row], seeds, laws), cfg)
            assert fault == "valid" or value == 0.0
        assert assert_matches_references(strategy, cfg, trials=300) > 0.0


class TestHidingAdvantage:
    def test_identity_view_reveals_everything(self, cfg74):
        strategy = less_noisy_bob(0.0, 7)
        with pytest.warns(UserWarning, match="not certified"):
            adv = hiding_advantage(strategy, cfg74, BitString.from01("0"),
                                   BitString.from01("1"))
        assert adv == pytest.approx(1.0, abs=1e-12)

    def test_constant_view_reveals_nothing(self, cfg74):
        strategy = BobStrategy(view_channel=constant_view(7))
        with pytest.warns(UserWarning, match="not certified"):
            adv = hiding_advantage(strategy, cfg74, BitString.from01("0"),
                                   BitString.from01("1"))
        assert adv == pytest.approx(0.0, abs=1e-12)

    def test_equal_messages_indistinguishable(self, cfg74):
        strategy = less_noisy_bob(0.1, 7)
        with pytest.warns(UserWarning, match="not certified"):
            adv = hiding_advantage(strategy, cfg74, BitString.from01("1"),
                                   BitString.from01("1"))
        assert adv == 0.0

    def test_bounded_by_hiding_bound(self, cfg74):
        strategy = less_noisy_bob(0.25, 7)
        joint = strategy.view_channel.joint_with_uniform_input()
        l_b = cond_min_entropy(joint)
        params = UsncParams(n=7, p=0.25, eps_a=0.0, l_a=0.0, eps_b=0.0,
                            l_b=l_b)
        assert check_c3(strategy.view_channel, params).passed
        adv = hiding_advantage(strategy, cfg74, BitString.from01("0"),
                               BitString.from01("1"),
                               for_bound_comparison=True)
        bound = hiding_bound(7, 1, 4, l_b, 0.0)
        assert adv <= bound

    def test_nonvacuous_bound_instance(self, cfg74):
        # a very noisy view pushes the conditional floor high enough that
        # the bound drops below 1 while still dominating the exact advantage
        strategy = BobStrategy(view_channel=BobChannel.bsc_view(7, 0.45))
        joint = strategy.view_channel.joint_with_uniform_input()
        l_b = cond_min_entropy(joint)
        params = UsncParams(n=7, p=0.25, eps_a=0.0, l_a=0.0, eps_b=0.0,
                            l_b=l_b)
        assert check_c3(strategy.view_channel, params).passed
        adv = hiding_advantage(strategy, cfg74, BitString.from01("0"),
                               BitString.from01("1"),
                               for_bound_comparison=True)
        bound = hiding_bound(7, 1, 4, l_b, 0.0)
        assert adv <= bound < 1.0

    @pytest.mark.parametrize("code", [hamming_7_4(), even_weight_code(6)],
                             ids=["hamming74", "even6"])
    @pytest.mark.parametrize("p_b", [0.0, 0.1, 0.25])
    @pytest.mark.filterwarnings("ignore:channel not certified")
    def test_every_message_pair_gives_one_advantage(self, code, p_b):
        # the advantage depends on the seed's row space and on m0 + m1 only,
        # and over all full-rank seeds every nonzero m0 + m1 is as likely
        cfg = CommitConfig(code=code, hash_m=2, p=0.25, eps=0.2)
        strategy = less_noisy_bob(p_b, code.n)
        messages = [BitString.from_int(v, 2) for v in range(4)]
        values = {(i, j): hiding_advantage(strategy, cfg, mi, mj)
                  for i, mi in enumerate(messages)
                  for j, mj in enumerate(messages)}
        distinct = [v for (i, j), v in values.items() if i != j]
        assert max(distinct) - min(distinct) <= 1e-15
        assert all(values[i, i] == 0.0 for i in range(4))

    def test_monotone_in_view_noise(self, cfg74):
        m0, m1 = BitString.from01("0"), BitString.from01("1")
        grid = [0.0, 0.0625, 0.125, 0.1875, 0.25]
        with pytest.warns(UserWarning, match="not certified"):
            values = [hiding_advantage(less_noisy_bob(pb, 7), cfg74, m0, m1)
                      for pb in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("view_n", [6, 8])
    def test_view_channel_of_another_length_refused(self, cfg74, view_n):
        def fail():
            raise AssertionError("the view table was built")

        m0, m1 = BitString.from01("0"), BitString.from01("1")
        for strategy in (BobStrategy(view_channel=BobChannel(view_n, 2, fail)),
                         less_noisy_bob(0.1, view_n)):
            with pytest.raises(ValueError, match="view channel has n = %d, "
                               "the code has n = 7" % view_n):
                hiding_advantage(strategy, cfg74, m0, m1)


def view_joint_reference(strategy, cfg, m, view_law):
    """Loop reference for the exact hiding joint: per seed, mask, coset and
    matching codeword, add the view law of the shifted codeword, computed
    by ``view_law`` on its own rather than read off the channel's table."""
    code = cfg.code
    n_cosets = 1 << (code.n - code.k)
    view = strategy.view_channel
    seeds = enumerate_full_rank_seeds(code.k, cfg.hash_m)
    codewords = [BitString(row @ code.gen & 1) for row in all_bits(code.k)]
    reps = [code.coset_representative(BitString.from_int(ci, code.n - code.k))
            for ci in range(n_cosets)]
    out = np.zeros((len(seeds), 1 << cfg.hash_m, n_cosets, view.view_size))
    law_cache = {}
    for si, seed in enumerate(seeds):
        digests = digest_table(seed)
        for mbar_int in range(1 << cfg.hash_m):
            masked = (m ^ BitString.from_int(mbar_int, cfg.hash_m)).to_int()
            for ci, rep in enumerate(reps):
                for idx in np.flatnonzero(digests == masked):
                    shifted = codewords[idx] ^ rep
                    key = shifted.to_int()
                    if key not in law_cache:
                        law_cache[key] = view_law(shifted)
                    out[si, mbar_int, ci] += law_cache[key]
    out /= len(seeds) * (1 << cfg.hash_m) * n_cosets
    out /= 1 << (code.k - cfg.hash_m)
    return out.ravel()


class TestViewJointMatchesReference:
    @pytest.mark.parametrize("code,hash_m", [
        (hamming_7_4(), 1), (hamming_7_4(), 2), (even_weight_code(8), 1)],
        ids=["hamming74-m1", "hamming74-m2", "even8-m1"])
    @pytest.mark.parametrize("p_b", [0.0, 0.1, 0.25, None],
                             ids=["pb0", "pb0.1", "pb0.25", "constant"])
    def test_array_joint_equals_loop(self, code, hash_m, p_b):
        cfg = CommitConfig(code=code, hash_m=hash_m, p=0.25, eps=0.2)
        if p_b is None:
            view = constant_view(code.n)
            view_law = lambda x: np.ones(1)
        else:
            view = BobChannel.bsc_view(code.n, p_b)
            view_law = lambda x: bsc_law_dense(code.n, x, p_b).mass
        strategy = BobStrategy(view_channel=view)
        table = _view_table(strategy, cfg)
        masks = np.arange(1 << hash_m)
        for m_int in (0, (1 << hash_m) - 1):
            m = BitString.from_int(m_int, hash_m)
            joint = table[:, m_int ^ masks].ravel()
            ref = view_joint_reference(strategy, cfg, m, view_law)
            assert joint.shape == ref.shape
            assert np.abs(joint - ref).max() <= 1e-15
            assert joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_refusals_keep_their_texts(self):
        big = CommitConfig(code=even_weight_code(18), hash_m=1, p=0.25,
                           eps=0.05)
        wide = CommitConfig(code=even_weight_code(14), hash_m=2, p=0.25,
                            eps=0.05)
        many = CommitConfig(code=even_weight_code(14), hash_m=1, p=0.25,
                            eps=0.05)
        for cfg in (big, wide):
            strategy = less_noisy_bob(0.1, cfg.n)
            with pytest.raises(ValueError, match="desk-scale only"):
                _view_table(strategy, cfg)
        with pytest.raises(ValueError, match=r"\(%d cells > 2\^24\)"
                           % (8191 * 2 * 2 * (1 << 14))):
            _view_table(less_noisy_bob(0.1, 14), many)
