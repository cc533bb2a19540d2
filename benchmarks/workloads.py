"""The three benchmark workloads: instance builders, timed jobs and checks.

Each workload turns a seed into inputs for the library (``build``), runs one
job of timed work on them (``job``), and checks the outputs after the timed
phase (``check``). Library functions are always looked up on their module at
call time (``protocol.estimate_completeness``, not a name imported here), so
the tracer in ``tracing.py`` sees every call.

``check`` returns one list of ``(label, ok, detail)`` outcomes per job, with
``outcomes_per_job`` entries each, plus a list of run-level outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from usnc import adversary, bounds, channel, entropy, gf2, hashing, oracle, \
    protocol

# Standard errors a binomial reject count may stray from the exact window
# tail before the honest-mc check fails (false alarm below 1e-8 per check).
REJECT_SE = 6.0
# Standard errors the Monte Carlo binding estimate may stray from exact.
BINDING_MC_SE = 5.0


def _binomial_se(trials: int, q: float) -> float:
    return math.sqrt(trials * q * (1.0 - q))


def min_distance_reference(code: gf2.LinearCode) -> int:
    """Minimum distance by enumerating all 2^k codewords as uint64 words.

    Independent of ``LinearCode.min_distance_exact``: the span is built by
    doubling (each generator row XORed onto every word so far) and the
    weights come from one vectorized popcount.
    """
    if code.n > 64:
        raise ValueError("reference enumeration packs a codeword in 64 bits")
    shifts = np.arange(code.n, dtype=np.uint64)
    rows = np.bitwise_or.reduce(code.gen.astype(np.uint64) << shifts, axis=1)
    words = np.zeros(1, dtype=np.uint64)
    for row in rows:
        words = np.concatenate([words, words ^ row])
    return int(np.bitwise_count(words[1:]).min())


# ---------------------------------------------------------------------------
# honest-mc
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HonestMc:
    """Completeness Monte Carlo on a random code, in blocks of trials."""

    n: int = 4096
    k: int = 16
    target_d: int = 1024
    hash_m: int = 8
    p: float = 0.1
    eps: float = 0.01
    block: int = 1000

    name = "honest-mc"
    item = "trials"
    rate_name = "trials_per_s"
    outcomes_per_job = 2
    trace_jobs = 20

    def build(self, seed: int):
        code = gf2.random_linear_code(self.n, self.k, self.target_d,
                                      np.random.default_rng([seed, 1]))
        cfg = protocol.CommitConfig(code=code, hash_m=self.hash_m, p=self.p,
                                    eps=self.eps)
        tail = channel.typicality_tail_exact(self.n, self.p, self.eps)
        return {"seed": seed, "cfg": cfg, "tail": tail}

    def job(self, inst, i: int):
        master_seed = (inst["seed"] << 32) + i
        est = protocol.estimate_completeness(inst["cfg"], self.block,
                                             master_seed)
        return est, est.trials

    def _reject_check(self, label, rejects, trials, tail):
        se = _binomial_se(trials, tail)
        ok = abs(rejects - trials * tail) <= REJECT_SE * se
        return (label, ok, "%d rejects in %d trials, exact tail %.6g, "
                "|dev| <= %g SE" % (rejects, trials, tail, REJECT_SE))

    def check(self, inst, outputs):
        return ([self._check_job(inst, e) for e in outputs],
                self._check_run(inst, outputs))

    def _check_job(self, inst, est):
        rejects = round(est.reject_rate * est.trials)
        checks = [self._reject_check("block reject rate", rejects,
                                     est.trials, inst["tail"])]
        # completeness verdict as the acceptance suite states it
        bound = bounds.completeness_bound(self.n, self.eps)
        wilson_se = math.sqrt(bound * (1 - bound) / est.trials) \
            if bound < 1 else 0.0
        checks.append(("completeness verdict",
                       est.trials == self.block
                       and est.reject_rate <= bound + 3 * wilson_se,
                       "rate %.6g vs bound %.6g" % (est.reject_rate, bound)))
        return checks

    def _check_run(self, inst, outputs):
        trials = sum(e.trials for e in outputs)
        rejects = sum(round(e.reject_rate * e.trials) for e in outputs)
        if not trials:
            return [("pooled reject rate", False, "no completed blocks")]
        return [self._reject_check("pooled reject rate", rejects, trials,
                                   inst["tail"])]

    def reject_ratio(self, outputs) -> float:
        trials = sum(e.trials for e in outputs)
        return sum(e.reject_rate * e.trials for e in outputs) / trials


# ---------------------------------------------------------------------------
# binding-exact
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BindingJobResult:
    strategy_index: int
    certified: bool
    success: float
    bound: float
    sigma: float
    atoms: int


@dataclass(frozen=True)
class BindingExact:
    """Exact double-opening success of midpoint strategies on even:n.

    The seed picks, per opening weight, a random codeword and a random
    even-weight difference of that weight. Strategies cycle over the grid
    weights x spreads; every job certifies its channel and then sums the
    exact success over all atoms (every full-rank seed and mask).
    """

    n: int = 14
    hash_m: int = 1
    p: float = 0.25
    eps: float = 0.05
    weights: tuple = (2, 6, 10, 14)
    spreads: tuple = (0.5, 0.35, 0.25)
    mc_trials: int = 20000

    name = "binding-exact"
    item = "atoms"
    rate_name = "atoms_per_s"
    outcomes_per_job = 1
    trace_jobs = 6

    def build(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        code = gf2.even_weight_code(self.n)
        cfg = protocol.CommitConfig(code=code, hash_m=self.hash_m, p=self.p,
                                    eps=self.eps)
        seeds = hashing.enumerate_full_rank_seeds(code.k, self.hash_m)
        strategies = []
        for w in self.weights:
            x0 = code.encode(gf2.BitString.random(code.k, rng))
            diff = np.zeros(self.n, dtype=np.uint8)
            diff[rng.choice(self.n, size=w, replace=False)] = 1
            x1 = x0 ^ gf2.BitString(diff)
            for spread in self.spreads:
                strategies.append((w, adversary.midpoint_attack(
                    cfg, x0, x1, spread, seeds=seeds)))
        return {"seed": seed, "cfg": cfg, "strategies": strategies}

    def _certify(self, strategy):
        """check_c2 at the floor l_a = min-entropy of the output law."""
        law = strategy.channel.law(strategy.channel.labels[0])
        l_a = entropy.min_entropy(law)
        params = channel.UsncParams(n=self.n, p=self.p, eps_a=0.0, l_a=l_a,
                                    eps_b=0.0, l_b=0.0)
        return l_a, channel.check_c2(strategy.channel, params).passed

    def job(self, inst, i: int):
        cfg = inst["cfg"]
        idx = i % len(inst["strategies"])
        w, strategy = inst["strategies"][idx]
        l_a, certified = self._certify(strategy)
        success = adversary.binding_success(strategy, cfg,
                                            for_bound_comparison=True)
        sigma = w / (2.0 * self.n)
        bound = bounds.binding_bound(self.n, self.eps, sigma, self.p, l_a,
                                     0.0)
        result = BindingJobResult(strategy_index=idx, certified=certified,
                                  success=success, bound=bound, sigma=sigma,
                                  atoms=len(strategy.atoms))
        return result, result.atoms

    def check(self, inst, outputs):
        return ([self._check_job(r) for r in outputs],
                self._check_run(inst, outputs))

    def _check_job(self, r: BindingJobResult):
        beyond = r.sigma > self.p + 2 * self.eps
        ok = r.certified and r.success <= r.bound + 1e-12 \
            and (not beyond or r.success == 0.0)
        return [("strategy %d" % r.strategy_index, ok,
                 "certified=%s success %.6g <= bound %.6g%s"
                 % (r.certified, r.success, r.bound,
                    " (must be 0: sigma > p + 2 eps)" if beyond else ""))]

    def _check_run(self, inst, outputs):
        if not outputs:
            return [("Monte Carlo cross-check", False, "no completed jobs")]
        top = max(outputs, key=lambda r: r.success)
        _, strategy = inst["strategies"][top.strategy_index]
        self._certify(strategy)
        mc = adversary.binding_success(
            strategy, inst["cfg"], mode="mc", trials=self.mc_trials,
            rng=np.random.default_rng([inst["seed"], 99]),
            for_bound_comparison=True)
        q = min(max(top.success, 0.0), 1.0)
        se = math.sqrt(q * (1.0 - q) / self.mc_trials)
        ok = abs(mc - top.success) <= BINDING_MC_SE * se
        return [("Monte Carlo cross-check", ok,
                 "strategy %d: mc %.6g vs exact %.6g, |dev| <= %g SE (%.3g)"
                 % (top.strategy_index, mc, top.success, BINDING_MC_SE, se))]


# ---------------------------------------------------------------------------
# desk-oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeskOracles:
    """One pass over a fixed list of brute-force jobs.

    Only the minimum-distance code depends on the seed; the other four jobs
    are fixed instances, so every pass does the same enumeration work. Sizes
    keep a pass near two seconds, a dozen or more per run for the median,
    with the Gray-code distance loop about half of it as at k = 20.
    """

    dist_n: int = 64
    dist_k: int = 18
    clipped_n: int = 13
    clipped_p: float = 0.1
    clipped_eps: float = 0.1
    hiding_n: int = 8
    hiding_p_b: float = 0.25
    inter_n: int = 16
    inter_p: float = 0.25
    inter_eps: float = 0.125

    name = "desk-oracles"
    item = "oracle jobs"
    rate_name = "jobs_per_s"
    outcomes_per_job = 5
    trace_jobs = 5

    def build(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        dist_code = gf2.LinearCode(rng.integers(
            0, 2, size=(self.dist_k, self.dist_n - self.dist_k),
            dtype=np.uint8))
        hiding_cfg = protocol.CommitConfig(
            code=gf2.even_weight_code(self.hiding_n), hash_m=1, p=0.25,
            eps=0.05)
        return {"seed": seed, "dist_code": dist_code, "hiding_cfg": hiding_cfg,
                "lhl_code": gf2.hamming_7_4(),
                "lhl_view": adversary.less_noisy_bob(0.25, 7).view_channel}

    def _hiding(self, cfg, p_b: float, floor_from_view: bool):
        """check_c3 then exact hiding advantage; returns (adv, bound, ok)."""
        strategy = adversary.less_noisy_bob(p_b, cfg.n)
        l_b = 0.0
        if floor_from_view:
            joint = strategy.view_channel.joint_with_uniform_input()
            l_b = entropy.cond_min_entropy(joint)
        params = channel.UsncParams(n=cfg.n, p=cfg.p, eps_a=0.0, l_a=0.0,
                                    eps_b=0.0, l_b=l_b)
        certified = channel.check_c3(strategy.view_channel, params).passed
        m0 = gf2.BitString.from_int(0, cfg.hash_m)
        m1 = gf2.BitString.from_int(1, cfg.hash_m)
        adv = adversary.hiding_advantage(strategy, cfg, m0, m1,
                                         for_bound_comparison=True)
        bound = bounds.hiding_bound(cfg.n, cfg.hash_m, cfg.code.k, l_b, 0.0)
        return adv, bound, certified

    def job(self, inst, i: int):
        out = {"min_distance": inst["dist_code"].min_distance_exact(),
               "clipped": oracle.clipped_bsc_construction(
                   self.clipped_n, self.clipped_p, self.clipped_eps),
               "hiding": self._hiding(inst["hiding_cfg"], self.hiding_p_b,
                                      floor_from_view=True),
               "intersection": oracle.verify_intersection_bound(
                   self.inter_n, self.inter_p, self.inter_eps),
               "lhl": oracle.lhl_check(inst["lhl_code"], 1, inst["lhl_view"])}
        return out, self.outcomes_per_job

    def check(self, inst, outputs):
        ref = min_distance_reference(inst["dist_code"])
        anchor, _, certified = self._hiding(inst["hiding_cfg"], 0.0,
                                            floor_from_view=False)
        return ([self._check_job(out, ref) for out in outputs],
                [("identity-view anchor",
                  certified and abs(anchor - 1.0) <= 1e-12,
                  "advantage %.15g (must be 1)" % anchor)])

    def _check_job(self, out, ref: int):
        c = out["clipped"]
        adv, bound, certified = out["hiding"]
        return [
            ("min distance", out["min_distance"] == ref,
             "exact %d vs vectorized reference %d" % (out["min_distance"],
                                                     ref)),
            ("clipped channel",
             abs(c.gtd_actual - c.tail) <= 1e-12
             and c.min_entropy_per_input >= c.entropy_floor - 1e-9
             and c.cond_min_entropy >= c.entropy_floor - 1e-9,
             "gtd %.15g vs tail %.15g; entropies %.6g, %.6g >= floor %.6g"
             % (c.gtd_actual, c.tail, c.min_entropy_per_input,
                c.cond_min_entropy, c.entropy_floor)),
            ("hiding", certified and adv <= bound,
             "certified=%s advantage %.6g <= bound %.6g"
             % (certified, adv, bound)),
            ("intersection", out["intersection"].passed,
             "max exact/bound ratio %.6g" % out["intersection"].max_ratio),
            ("leftover hash", out["lhl"].passed,
             "lhs %.6g <= rhs %.6g" % (out["lhl"].lhs, out["lhl"].rhs)),
        ]


WORKLOADS = {w.name: w for w in (HonestMc(), BindingExact(), DeskOracles())}
