"""Command-line front end: protocol runs, bounds, oracles, rate surfaces.

Every randomized command requires --seed and is bit-reproducible: the same
command line writes byte-identical outputs. Numbers print with 12 significant
digits. Exit codes: 0 success, 1 a verified check failed, 2 usage error.
Flag values override --config (key=value lines) which overrides defaults;
``attack`` reads its descriptor file the same way, and the descriptor's fields
override --config.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import adversary, bounds, nqs, oracle, protocol
from .channel import UsncParams, check_c2, check_c3
from .entropy import cond_min_entropy, min_entropy
from .gf2 import (BitString, LinearCode, even_weight_code, hamming_7_4,
                  load_code, random_linear_code, repetition_code)

USAGE_ERROR = 2
CHECK_FAILED = 1
# Most rounds ``nqs simulate`` draws and prints (one CSV line each).
_NQS_ROUNDS_CAP = 1 << 20
# How far below 2p or above h(p) a rounded ``rate point`` anchor may lie.
_CLAMP_TOL = 1e-3


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    return "%.12g" % x


def _pass_line(name: str, ok: bool) -> bool:
    print("%s: %s" % (name, "PASS" if ok else "FAIL"))
    return ok


def _read_config(path) -> dict:
    values = {}
    if path is None:
        return values
    with open(path) as fh:
        for ln in fh:
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ValueError("bad config line: %r" % ln)
            key, val = (t.strip() for t in ln.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _resolve(args, config, name, type_fn, default=None, required=False):
    val = getattr(args, name, None)
    if val is None:
        raw = config.get(name)
        val = type_fn(raw) if raw is not None else default
    if val is None and required:
        raise UsageError("missing required option --%s" % name.replace("_", "-"))
    return val


def _code_from_spec(spec: str) -> LinearCode:
    if spec == "hamming74":
        return hamming_7_4()
    if spec.startswith("even:"):
        return even_weight_code(int(spec.split(":", 1)[1]))
    if spec.startswith("rep:"):
        return repetition_code(int(spec.split(":", 1)[1]))
    code = load_code(spec)
    if code.k <= 24:
        d = code.min_distance_exact()
        code = LinearCode(code.p_block, d_claimed=d, d_verified=True)
    return code


def _check_code_length(args, config, code: LinearCode) -> None:
    """Refuse an --n (flag or config) other than the code's length."""
    n = _resolve(args, config, "n", int, default=code.n)
    if n != code.n:
        raise UsageError("--n %d does not match the code length %d" % (n, code.n))


def _commit_config(args, config, code: LinearCode) -> protocol.CommitConfig:
    """Protocol instance over ``code``, its fields from flags over config."""
    return protocol.CommitConfig(
        code=code, hash_m=_resolve(args, config, "hash_m", int, required=True),
        p=_resolve(args, config, "p", float, required=True),
        eps=_resolve(args, config, "eps", float, required=True))


def _message_bits(hex_str: str, nbits: int) -> BitString:
    value = int(hex_str, 16)
    if value >> nbits:
        raise ValueError("message %r does not fit in %d bits" % (hex_str, nbits))
    return BitString.from_int(value, nbits)


# ---------------------------------------------------------------------------
# commit
# ---------------------------------------------------------------------------


def _cmd_commit_run(args, config) -> int:
    code = _code_from_spec(_resolve(args, config, "code", str, required=True))
    _check_code_length(args, config, code)
    cfg = _commit_config(args, config, code)
    seed = _resolve(args, config, "seed", int, required=True)
    m = _message_bits(_resolve(args, config, "message", str, required=True),
                      cfg.hash_m)
    run = protocol.run_honest(m, cfg, np.random.default_rng([seed, 0]))
    text = protocol.transcript_to_json(run.transcript)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print("flag: %s" % run.flag)
    print("m_hat: %s" % run.m_hat.to01())
    return 0


def _cmd_commit_replay(args, config) -> int:
    code = _code_from_spec(_resolve(args, config, "code", str, required=True))
    cfg = _commit_config(args, config, code)
    with open(args.transcript) as fh:
        t = protocol.transcript_from_json(fh.read())
    if t.opening is None:
        raise UsageError("transcript has no opening to replay")
    batch = protocol.TranscriptBatch.from_transcripts([t], cfg)
    accepted = protocol.bob_verify_batch(batch, cfg)[0]
    flag = protocol.ACC if accepted else protocol.REJ
    print("flag: %s" % flag)
    print("m_hat: %s" % t.opening.m.to01())
    return 0


def _cmd_commit_complete(args, config) -> int:
    seed = _resolve(args, config, "seed", int, required=True)
    trials = _resolve(args, config, "trials", int, default=10 ** 4)
    code_spec = _resolve(args, config, "code", str)
    if code_spec:
        code = _code_from_spec(code_spec)
        _check_code_length(args, config, code)
    else:
        n = _resolve(args, config, "n", int, required=True)
        k = _resolve(args, config, "k", int, default=16)
        target_d = _resolve(args, config, "target_d", int,
                            default=max(1, n // 4))
        code = random_linear_code(n, k, target_d,
                                  np.random.default_rng([seed, 9000]))
    cfg = _commit_config(args, config, code)
    est = protocol.estimate_completeness(cfg, trials, seed)
    bound = bounds.completeness_bound(cfg.n, cfg.eps)
    print("reject_rate: %s" % _fmt(est.reject_rate))
    print("wilson_99: [%s, %s]" % (_fmt(est.wilson_low), _fmt(est.wilson_high)))
    print("bound: %s" % _fmt(bound))
    ok = _pass_line("completeness tail bound", est.reject_rate <= bound
                    or est.wilson_low <= bound)
    return 0 if ok else CHECK_FAILED


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------


def _build_binding_strategy(args, desc: dict):
    code = _code_from_spec(_resolve(args, desc, "code", str, required=True))
    cfg = _commit_config(args, desc, code)
    if desc.get("strategy", "midpoint") != "midpoint":
        raise ValueError("unknown binding strategy %r" % desc.get("strategy"))
    if "x0" in desc or "x1" in desc:
        x0 = _resolve(args, desc, "x0", BitString.from01, required=True)
        x1 = _resolve(args, desc, "x1", BitString.from01, required=True)
    else:
        w = _resolve(args, desc, "weight", int, required=True)
        if not 1 <= w <= code.n:
            raise ValueError("need 1 <= weight <= %d" % code.n)
        x0 = BitString.zeros(code.n)
        bits = np.zeros(code.n, dtype=np.uint8)
        bits[:w] = 1
        x1 = BitString(bits)
        if not code.contains(x1):
            raise ValueError("weight-%d prefix string is not a codeword; "
                             "give x0/x1 explicitly" % w)
    spread = float(desc.get("spread", 0.5))
    strategy = adversary.midpoint_attack(cfg, x0, x1, spread)
    return strategy, cfg, (x0 ^ x1).weight()


def _cmd_attack(args, config) -> int:
    if args.kind == "hiding" and args.mode == "mc":
        raise UsageError("--mode mc is for binding only; hiding is exact")
    # descriptor fields win over --config; descriptors commit to a one-bit
    # message unless one of them says otherwise
    desc = {"hash_m": "1", **config, **_read_config(args.strategy)}
    kind = desc.get("kind", args.kind)
    if kind != args.kind:
        raise UsageError("strategy file is for %r, command expects %r"
                         % (kind, args.kind))
    mode = args.mode
    rng = None
    if mode == "mc":
        if args.seed is None:
            raise UsageError("--seed is required in Monte Carlo mode")
        rng = np.random.default_rng([args.seed, 77])
    if args.kind == "binding":
        strategy, cfg, distance = _build_binding_strategy(args, desc)
        law = strategy.channel.law(strategy.channel.labels[0])
        l_a = min_entropy(law)
        params = UsncParams(n=cfg.n, p=cfg.p, eps_a=0.0, l_a=l_a,
                            eps_b=0.0, l_b=0.0)
        report = check_c2(strategy.channel, params)
        print("channel check: %s" % report)
        success = adversary.binding_success(
            strategy, cfg, mode=mode, trials=args.trials, rng=rng,
            for_bound_comparison=True)
        sigma = distance / (2.0 * cfg.n)
        bound = bounds.binding_bound(cfg.n, cfg.eps, sigma, cfg.p, l_a, 0.0)
        print("success: %s" % _fmt(success))
        print("bound: %s" % _fmt(bound))
        slack = 0.0 if mode == "exact" else 3.0 * np.sqrt(
            max(success, bound) / max(args.trials, 1))
        ok = _pass_line("double-opening success bound", success <= bound + slack)
        return 0 if ok else CHECK_FAILED
    # hiding
    code = _code_from_spec(_resolve(args, desc, "code", str, required=True))
    cfg = _commit_config(args, desc, code)
    if desc.get("strategy", "less_noisy_bob") != "less_noisy_bob":
        raise ValueError("unknown hiding strategy %r" % desc.get("strategy"))
    strategy = adversary.less_noisy_bob(
        _resolve(args, desc, "p_b", float, required=True), cfg.n)
    joint = strategy.view_channel.joint_with_uniform_input()
    l_b = cond_min_entropy(joint)
    params = UsncParams(n=cfg.n, p=cfg.p, eps_a=0.0, l_a=0.0,
                        eps_b=0.0, l_b=l_b)
    report = check_c3(strategy.view_channel, params)
    print("channel check: %s" % report)
    m0 = _message_bits(desc.get("m0", "0"), cfg.hash_m)
    m1 = _message_bits(desc.get("m1", "1"), cfg.hash_m)
    adv = adversary.hiding_advantage(strategy, cfg, m0, m1,
                                     for_bound_comparison=True)
    bound = bounds.hiding_bound(cfg.n, cfg.hash_m, code.k, l_b, 0.0)
    print("advantage: %s" % _fmt(adv))
    print("bound: %s" % _fmt(bound))
    ok = _pass_line("view-distance bound", adv <= bound)
    return 0 if ok else CHECK_FAILED


# ---------------------------------------------------------------------------
# bounds / rate
# ---------------------------------------------------------------------------


def _cmd_bounds_eval(args, config) -> int:
    which = args.which
    n = _resolve(args, config, "n", int, required=True)
    get = lambda name: _resolve(args, config, name, float, required=True)
    if which == "dc":
        val = bounds.completeness_bound(n, get("eps"))
    elif which == "dh":
        val = bounds.hiding_bound(n, get("log_m"), get("log_c"), get("l_b"),
                                  get("eps_b"))
    elif which == "db":
        val = bounds.binding_bound(n, get("eps"), get("sigma"), get("p"),
                                   get("l_a"), get("eps_a"))
    else:  # the typical-window intersection ceiling
        val = bounds.intersection_bound(n, get("p"), get("eps"),
                                        get("sigma"))
    print(_fmt(val))
    return 0


def _cmd_rate_surface(args, config) -> int:
    p = _resolve(args, config, "p", float, required=True)
    steps = _resolve(args, config, "steps", int, default=50)
    points = bounds.rate_surface(p, steps)
    lines = ["xi_a,xi_b,rate"]
    lines += ["%s,%s,%s" % (_fmt(pt.xi_a), _fmt(pt.xi_b), _fmt(pt.r))
              for pt in points]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("wrote %d points to %s" % (len(points), args.out))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_rate_point(args, config) -> int:
    p = _resolve(args, config, "p", float, required=True)
    xia = _resolve(args, config, "xia", float, required=True)
    xib = _resolve(args, config, "xib", float, required=True)
    # accept anchor values rounded to a few decimals at the domain edges
    hp = bounds.binary_entropy(p)
    xia = _clamp_near(xia, 2.0 * p, hp)
    xib = _clamp_near(xib, 0.0, hp)
    print(_fmt(bounds.achievable_rate(p, xia, xib)))
    return 0


def _clamp_near(value: float, lo: float, hi: float) -> float:
    if lo - _CLAMP_TOL <= value <= lo:
        return lo
    if hi <= value <= hi + _CLAMP_TOL:
        return hi
    return value


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _cmd_oracle_intersection(args, config) -> int:
    n = _resolve(args, config, "n", int, required=True)
    p = _resolve(args, config, "p", float, required=True)
    eps = _resolve(args, config, "eps", float, required=True)
    report = oracle.verify_intersection_bound(n, p, eps)
    for row in report.rows:
        print("w=%2d exact=%8d bound=%s" % (row.weight, row.exact,
                                            _fmt(row.bound)))
    print("max_ratio: %s" % _fmt(report.max_ratio))
    ok = _pass_line("typical-set intersection bound", report.passed)
    return 0 if ok else CHECK_FAILED


def _cmd_oracle_lhl(args, config) -> int:
    code = _code_from_spec(_resolve(args, config, "code", str,
                                    default="hamming74"))
    hash_m = _resolve(args, config, "hash_m", int, default=1)
    p_b = _resolve(args, config, "p_b", float, default=0.25)
    n_seeds = _resolve(args, config, "seeds", int, default=0)
    strategy = adversary.less_noisy_bob(p_b, code.n)
    if n_seeds:
        seed = _resolve(args, config, "seed", int, required=True)
        res = oracle.lhl_check(code, hash_m, strategy.view_channel,
                               seeds=n_seeds,
                               rng=np.random.default_rng([seed, 5]))
    else:
        res = oracle.lhl_check(code, hash_m, strategy.view_channel)
    print("lhs: %s" % _fmt(res.lhs))
    print("rhs: %s" % _fmt(res.rhs))
    print("h_min: %s" % _fmt(res.h_min))
    ok = _pass_line("leftover-hash inequality", res.passed)
    return 0 if ok else CHECK_FAILED


def _cmd_oracle_clipped(args, config) -> int:
    n = _resolve(args, config, "n", int, required=True)
    p = _resolve(args, config, "p", float, required=True)
    eps = _resolve(args, config, "eps", float, required=True)
    res = oracle.clipped_bsc_construction(n, p, eps)
    print("gtd_actual: %s" % _fmt(res.gtd_actual))
    print("tail: %s" % _fmt(res.tail))
    print("min_entropy_per_input: %s" % _fmt(res.min_entropy_per_input))
    print("entropy_floor: %s" % _fmt(res.entropy_floor))
    print("cond_min_entropy: %s" % _fmt(res.cond_min_entropy))
    ok = (abs(res.gtd_actual - res.tail) <= 1e-12
          and res.min_entropy_per_input >= res.entropy_floor - 1e-9
          and res.cond_min_entropy >= res.entropy_floor - 1e-9)
    ok = _pass_line("clipped-channel construction", ok)
    return 0 if ok else CHECK_FAILED


# ---------------------------------------------------------------------------
# nqs
# ---------------------------------------------------------------------------


def _cmd_nqs_simulate(args, config) -> int:
    n = _resolve(args, config, "n", int, required=True)
    if not 1 <= n <= _NQS_ROUNDS_CAP:
        raise UsageError("need 1 <= n <= 2^20 rounds, got %d" % n)
    seed = _resolve(args, config, "seed", int, required=True)
    rng = np.random.default_rng([seed, 1])
    x = BitString.random(n, rng)
    run = nqs.run_conjugate_channel(x, rng)
    lines = ["round,x,theta,theta_prime,k,z"]
    zbits = run.z.bits
    for i in range(n):
        lines.append("%d,%d,%d,%d,%d,%d" % (i, x.bits[i], run.theta[i],
                                            run.theta_prime[i], run.k[i],
                                            zbits[i]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("wrote %d rounds to %s" % (n, args.out))
    else:
        sys.stdout.write(text)
    flips = int(np.count_nonzero(zbits != x.bits))
    print("flip_rate: %s" % _fmt(flips / n))
    return 0


def _cmd_nqs_params(args, config) -> int:
    n = _resolve(args, config, "n", int, required=True)
    lam_a = _resolve(args, config, "lambda_a", float, required=True)
    lam_b = _resolve(args, config, "lambda_b", float, required=True)
    d = _resolve(args, config, "storage_dim", int, required=True)
    params = nqs.NqsParams(
        n=n, lambda_a=lam_a, lambda_b=lam_b,
        p_succ_log2=lambda bits: nqs.bounded_storage_success_log2(bits, d))
    theta = nqs.nqs_channel_params(params)
    print("p: %s" % _fmt(theta.p))
    print("eps_a: %s" % _fmt(theta.eps_a))
    print("l_a: %s" % _fmt(theta.l_a))
    print("eps_b: %s" % _fmt(theta.eps_b))
    print("l_b: %s" % _fmt(theta.l_b))
    return 0


def _cmd_nqs_povm(args, config) -> int:
    report = nqs.povm_verify()
    print("completeness_error: %s" % _fmt(report.completeness_error))
    print("min_eigenvalue: %s" % _fmt(report.min_eigenvalue))
    print("max_eigenvalue_err: %s" % _fmt(report.max_eigenvalue_err))
    ok = _pass_line("measurement operator pair", report.passed)
    return 0 if ok else CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# every command as (group or None, name, handler, options); an option is a
# flag with its add_argument keywords, and every command also takes --config
_S, _I, _F = {}, {"type": int}, {"type": float}
_COMMANDS = [
    ("commit", "run", _cmd_commit_run, [
        ("--code", _S), ("--message", _S), ("--n", _I), ("--hash-m", _I),
        ("--seed", _I), ("--p", _F), ("--eps", _F), ("--out", _S)]),
    ("commit", "replay", _cmd_commit_replay, [
        ("--transcript", {"required": True}), ("--code", _S),
        ("--hash-m", _I), ("--p", _F), ("--eps", _F)]),
    ("commit", "complete", _cmd_commit_complete, [
        ("--code", _S), ("--n", _I), ("--k", _I), ("--target-d", _I),
        ("--hash-m", _I), ("--trials", _I), ("--seed", _I), ("--p", _F),
        ("--eps", _F)]),
    (None, "attack", _cmd_attack, [
        ("kind", {"choices": ["binding", "hiding"]}),
        ("--strategy", {"required": True}),
        ("--mode", {"choices": ["exact", "mc"], "default": "exact"}),
        ("--trials", {"type": int, "default": 10 ** 5}), ("--seed", _I)]),
    ("bounds", "eval", _cmd_bounds_eval, [
        ("--which", {"choices": ["dc", "dh", "db", "intersection"],
                     "required": True}), ("--n", _I)]
     + [(flag, _F) for flag in ("--eps", "--p", "--sigma", "--l-a", "--eps-a",
                                "--l-b", "--eps-b", "--log-m", "--log-c")]),
    ("rate", "surface", _cmd_rate_surface, [
        ("--p", _F), ("--steps", _I), ("--out", _S)]),
    ("rate", "point", _cmd_rate_point, [
        ("--p", _F), ("--xia", _F), ("--xib", _F)]),
    ("oracle", "intersection", _cmd_oracle_intersection, [
        ("--n", _I), ("--p", _F), ("--eps", _F)]),
    ("oracle", "lhl", _cmd_oracle_lhl, [
        ("--code", _S), ("--hash-m", _I), ("--p-b", _F), ("--seeds", _I),
        ("--seed", _I)]),
    ("oracle", "clipped", _cmd_oracle_clipped, [
        ("--n", _I), ("--p", _F), ("--eps", _F)]),
    ("nqs", "simulate", _cmd_nqs_simulate, [
        ("--n", _I), ("--seed", _I), ("--out", _S)]),
    ("nqs", "params", _cmd_nqs_params, [
        ("--n", _I), ("--lambda-a", _F), ("--lambda-b", _F),
        ("--storage-dim", _I)]),
    ("nqs", "povm-verify", _cmd_nqs_povm, []),
]


def build_parser() -> argparse.ArgumentParser:
    """The ``usnc`` parser; no parser takes abbreviated option names."""
    ap = argparse.ArgumentParser(
        prog="usnc", allow_abbrev=False,
        description="String commitment over unstructured noisy channels")
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {None: sub}
    for group, name, func, options in _COMMANDS:
        if group not in groups:
            groups[group] = sub.add_parser(
                group, allow_abbrev=False).add_subparsers(dest="sub",
                                                          required=True)
        sp = groups[group].add_parser(name, allow_abbrev=False)
        for flag, kwargs in options + [("--config", _S)]:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One ``build_parser()`` per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _read_config(getattr(args, "config", None))
        return args.func(args, config)
    except (UsageError, ValueError, OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
