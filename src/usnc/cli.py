"""Command-line front end: protocol runs, bounds, oracles, rate surfaces.

Every randomized command requires --seed and is bit-reproducible: the same
command line writes byte-identical outputs. Every handler ends in
``_report``: one ``key: value`` line per field, numbers with 12 significant
digits, then its check's ``<name>: PASS|FAIL`` line. Exit codes: 0 success,
1 exactly when that line reads FAIL, 2 usage error. Every option of a
command is declared once in ``_COMMANDS`` and resolved in ``_set_options``:
its flag, else ``attack``'s descriptor field, else its ``--config`` key, else
its default.

Each handler imports the modules its command needs, so the closed-form
commands (``bounds eval``, ``rate point``, ``rate surface``) start without
numpy.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TYPE_CHECKING

from . import bounds

if TYPE_CHECKING:
    from .gf2 import BitString, LinearCode
    from .protocol import CommitConfig

USAGE_ERROR = 2
CHECK_FAILED = 1
# Most rounds ``nqs simulate`` draws and prints (one CSV line each).
_NQS_ROUNDS_CAP = 1 << 20
# How far below 2p or above h(p) a rounded ``rate point`` anchor may lie.
_CLAMP_TOL = 1e-3
# The files other options are read from, by precedence; no file sets them.
_FILES = ("--strategy", "--config")


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    return "%.12g" % x


def _report(lines, check=None) -> int:
    """Print each (key, value) line, a number with ``_fmt`` and a None key
    as the bare value, then the (name, ok) check's verdict; the exit code."""
    for key, value in lines:
        if isinstance(value, (int, float)):
            value = _fmt(value)
        print(value if key is None else "%s: %s" % (key, value))
    if check is None:
        return 0
    name, ok = check
    print("%s: %s" % (name, "PASS" if ok else "FAIL"))
    return 0 if ok else CHECK_FAILED


def _write(text: str, out, wrote=None) -> list:
    """Write an --out body to the file ``out``, else to stdout; the report
    line naming ``wrote`` and the file, if both are given."""
    if not out:
        sys.stdout.write(text)
        return []
    with open(out, "w") as fh:
        fh.write(text)
    return [(None, "wrote %s to %s" % (wrote, out))] if wrote else []


def _read_config(flag: str, path) -> dict:
    """The ``key = value`` lines of the file given to ``flag``; a key that
    occurs twice is refused once every line has parsed."""
    values, repeated = {}, []
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
            key = key.replace("-", "_")
            if key in values:
                repeated.append(key)
            values[key] = val
    if repeated:
        raise UsageError("%s key %s: given more than once"
                         % (flag, repeated[0]))
    return values


def _set_options(args) -> None:
    """Set each option of the command on ``args``: its flag, else attack's
    descriptor field, else its --config key, else its default. Each value's
    source goes to ``args.sources``: its flag, ``<file flag> key <key>`` or
    ``default``. File values are converted and choice-checked as flags are.
    A descriptor's kind is resolved first, so a file of the other kind is
    refused by its kind; then a file key that names no option is refused."""
    files = []
    for flag in _FILES:  # each is an append flag: one path or None
        paths = getattr(args, flag[2:], None) or [None]
        if len(paths) > 1:
            raise UsageError("%s given more than once" % flag)
        files.append((flag, _read_config(flag, paths[0])))
    args.sources = {}
    kind = [option for option in args.options if option[0] == "kind"]
    for option in kind:
        _resolve(args, files, *option)
    known = {name.lstrip("-").replace("-", "_") for name, *_ in args.options}
    for src, values in files:
        unknown = [key for key in values if key not in known]
        if unknown:
            raise UsageError("%s key %s: not an option of this command"
                             % (src, unknown[0]))
    for option in args.options:
        if option not in kind:
            _resolve(args, files, *option)


def _resolve(args, files, name, type_fn, default, choices) -> None:
    """Set one option's value and its source on ``args``."""
    key = name.lstrip("-").replace("-", "_")
    value = getattr(args, key) if name[0] == "-" else None
    source = name if value is not None else "default"
    for src, values in files:
        if value is not None or key not in values or name in _FILES:
            continue
        source = "%s key %s" % (src, key)
        try:
            value = type_fn(values[key])
        except ValueError as exc:
            raise UsageError("%s: %s" % (source, exc)) from None
        if choices and value not in choices:
            raise UsageError("%s: invalid choice %r (choose from %s)"
                             % (source, value, ", ".join(choices)))
    if value is None and default is not _REQ:
        value = default
    setattr(args, key, value)
    args.sources[key] = source
    if default is _REQ:
        _need(args, key)


def _need(args, *keys: str) -> list:
    """The values of ``keys``, refusing the run if one is unset; the error
    names its flag, or its descriptor field if no flag sets it."""
    values = [getattr(args, key) for key in keys]
    if None in values:
        key = keys[values.index(None)]
        flag = "--" + key.replace("_", "-")
        if any(name == flag for name, *_ in args.options):
            raise UsageError("missing required option %s" % flag)
        raise UsageError("missing required descriptor field %s" % key)
    return values


def _code_from_spec(spec: str) -> LinearCode:
    from .gf2 import (LinearCode, even_weight_code, hamming_7_4, load_code,
                      repetition_code)
    if spec == "hamming74":
        return hamming_7_4()
    if spec.startswith("even:"):
        return even_weight_code(int(spec.split(":", 1)[1]))
    if spec.startswith("rep:"):
        return repetition_code(int(spec.split(":", 1)[1]))
    code = load_code(spec)
    if code.k <= 24:
        code = LinearCode(code.p_block, d_claimed=code.min_distance_exact())
    return code


def _check_code_params(code: LinearCode, n, k=None, target_d=None) -> None:
    """Refuse an --n other than the code's length, a --k other than its
    dimension and a --target-d above its distance."""
    if n not in (None, code.n):
        raise UsageError("--n %d does not match the code length %d" % (n, code.n))
    if k not in (None, code.k):
        raise UsageError("--k %d does not match the code dimension %d"
                         % (k, code.k))
    if (target_d is not None and code.d_claimed is not None
            and target_d > code.d_claimed):
        raise UsageError("--target-d %d is above the code distance %d"
                         % (target_d, code.d_claimed))


def _commit_config(args, code: LinearCode) -> CommitConfig:
    """Protocol instance over ``code`` with the resolved hash_m, p and eps.

    A code file with k > 24 has no distance (``_code_from_spec`` computes
    one only up to k = 24), and the protocol needs one, so it is refused.
    """
    from .protocol import CommitConfig
    if code.d_claimed is None:
        raise UsageError("the code file's k = %d is above 24, so no distance "
                         "is computed for it, and the protocol needs one"
                         % code.k)
    return CommitConfig(code=code, hash_m=args.hash_m, p=args.p, eps=args.eps)


def _message_bits(hex_str: str, nbits: int) -> BitString:
    from .gf2 import BitString
    value = int(hex_str, 16)
    if value >> nbits:
        raise ValueError("message %r does not fit in %d bits" % (hex_str, nbits))
    return BitString.from_int(value, nbits)


# ---------------------------------------------------------------------------
# commit
# ---------------------------------------------------------------------------


def _cmd_commit_run(args) -> int:
    import numpy as np

    from . import protocol
    code = _code_from_spec(args.code)
    _check_code_params(code, args.n)
    cfg = _commit_config(args, code)
    m = _message_bits(args.message, cfg.hash_m)
    run = protocol.run_honest(m, cfg, np.random.default_rng([args.seed, 0]))
    _write(protocol.transcript_to_json(run.transcript) + "\n", args.out)
    return _report([("flag", run.flag), ("m_hat", run.m_hat.to01())])


def _cmd_commit_replay(args) -> int:
    from . import protocol
    cfg = _commit_config(args, _code_from_spec(args.code))
    with open(args.transcript) as fh:
        t = protocol.transcript_from_json(fh.read())
    if t.opening is None:
        raise UsageError("transcript has no opening to replay")
    batch = protocol.TranscriptBatch.from_transcripts([t], cfg)
    accepted = protocol.bob_verify_batch(batch, cfg)[0]
    return _report([("flag", protocol.ACC if accepted else protocol.REJ),
                    ("m_hat", t.opening.m.to01())])


def _cmd_commit_complete(args) -> int:
    import numpy as np

    from . import protocol
    from .gf2 import random_linear_code
    if args.code:
        code = _code_from_spec(args.code)
        _check_code_params(code, args.n, args.k, args.target_d)
    else:
        n, = _need(args, "n")
        code = random_linear_code(
            n, 16 if args.k is None else args.k,
            max(1, n // 4) if args.target_d is None else args.target_d,
            np.random.default_rng([args.seed, 9000]))
    cfg = _commit_config(args, code)
    est = protocol.estimate_completeness(cfg, args.trials, args.seed)
    bound = bounds.completeness_bound(cfg.n, cfg.eps)
    return _report(
        [("reject_rate", est.reject_rate),
         ("wilson_99", "[%s, %s]" % (_fmt(est.wilson_low),
                                     _fmt(est.wilson_high))),
         ("bound", bound)],
        ("completeness tail bound",
         est.reject_rate <= bound or est.wilson_low <= bound))


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------


def _cmd_attack_binding(args) -> int:
    import numpy as np

    from . import adversary
    from .channel import UsncParams, check_c2
    from .entropy import min_entropy
    from .gf2 import BitString
    rng = None
    if args.mode == "mc":
        seed, = _need(args, "seed")
        rng = np.random.default_rng([seed, 77])
    code = _code_from_spec(args.code)
    cfg = _commit_config(args, code)
    if args.x0 is not None or args.x1 is not None:
        x0, x1 = map(BitString.from01, _need(args, "x0", "x1"))
    else:
        w, = _need(args, "weight")
        if not 1 <= w <= code.n:
            raise ValueError("need 1 <= weight <= %d" % code.n)
        x0 = BitString.zeros(code.n)
        bits = np.zeros(code.n, dtype=np.uint8)
        bits[:w] = 1
        x1 = BitString(bits)
        if not code.contains(x1):
            raise ValueError("weight-%d prefix string is not a codeword; "
                             "give x0/x1 explicitly" % w)
    strategy = adversary.midpoint_attack(cfg, x0, x1, args.spread)
    law = strategy.channel.law(strategy.channel.labels[0])
    l_a = min_entropy(law)
    params = UsncParams(n=cfg.n, p=cfg.p, eps_a=0.0, l_a=l_a,
                        eps_b=0.0, l_b=0.0)
    _report([("channel check", check_c2(strategy.channel, params))])
    success = adversary.binding_success(
        strategy, cfg, mode=args.mode, trials=args.trials, rng=rng,
        for_bound_comparison=True)
    sigma = (x0 ^ x1).weight() / (2.0 * cfg.n)
    bound = bounds.binding_bound(cfg.n, cfg.eps, sigma, cfg.p, l_a, 0.0)
    slack = 0.0 if args.mode == "exact" else 3.0 * np.sqrt(
        max(success, bound) / max(args.trials, 1))
    return _report([("success", success), ("bound", bound)],
                   ("double-opening success bound", success <= bound + slack))


def _cmd_attack_hiding(args) -> int:
    from . import adversary
    from .channel import UsncParams, check_c3
    from .entropy import cond_min_entropy
    if args.mode == "mc":
        raise UsageError("--mode mc is for binding only; hiding is exact")
    code = _code_from_spec(args.code)
    cfg = _commit_config(args, code)
    strategy = adversary.less_noisy_bob(args.p_b, cfg.n)
    joint = strategy.view_channel.joint_with_uniform_input()
    l_b = cond_min_entropy(joint)
    params = UsncParams(n=cfg.n, p=cfg.p, eps_a=0.0, l_a=0.0,
                        eps_b=0.0, l_b=l_b)
    _report([("channel check", check_c3(strategy.view_channel, params))])
    m0 = _message_bits(args.m0, cfg.hash_m)
    m1 = _message_bits(args.m1, cfg.hash_m)
    adv = adversary.hiding_advantage(strategy, cfg, m0, m1,
                                     for_bound_comparison=True)
    bound = bounds.hiding_bound(cfg.n, cfg.hash_m, code.k, l_b, 0.0)
    return _report([("advantage", adv), ("bound", bound)],
                   ("view-distance bound", adv <= bound))


# ---------------------------------------------------------------------------
# bounds / rate
# ---------------------------------------------------------------------------


# each --which as its bound and the options it takes after --n
_BOUNDS = {"dc": (bounds.completeness_bound, "eps"),
           "dh": (bounds.hiding_bound, "log_m", "log_c", "l_b", "eps_b"),
           "db": (bounds.binding_bound, "eps", "sigma", "p", "l_a", "eps_a"),
           "intersection": (bounds.intersection_bound, "p", "eps", "sigma")}


def _cmd_bounds_eval(args) -> int:
    bound, *keys = _BOUNDS[args.which]
    for name, *_ in args.options:
        key = name[2:].replace("-", "_")
        if key not in ("which", "n", *keys) and getattr(args, key) is not None:
            raise UsageError("--which %s does not read %s"
                             % (args.which, args.sources[key]))
    return _report([(None, bound(args.n, *_need(args, *keys)))])


def _cmd_rate_surface(args) -> int:
    points = bounds.rate_surface(args.p, args.steps)
    lines = ["xi_a,xi_b,rate"]
    lines += ["%s,%s,%s" % (_fmt(pt.xi_a), _fmt(pt.xi_b), _fmt(pt.r))
              for pt in points]
    return _report(_write("\n".join(lines) + "\n", args.out,
                          "%d points" % len(points)))


def _cmd_rate_point(args) -> int:
    # accept anchor values rounded to a few decimals at the domain edges
    hp = bounds.binary_entropy(args.p)
    xia = _clamp_near(args.xia, 2.0 * args.p, hp)
    xib = _clamp_near(args.xib, 0.0, hp)
    return _report([(None, bounds.achievable_rate(args.p, xia, xib))])


def _clamp_near(value: float, lo: float, hi: float) -> float:
    if lo - _CLAMP_TOL <= value <= lo:
        return lo
    if hi <= value <= hi + _CLAMP_TOL:
        return hi
    return value


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _cmd_oracle_intersection(args) -> int:
    from . import oracle
    report = oracle.verify_intersection_bound(args.n, args.p, args.eps)
    rows = [(None, "w=%2d exact=%8d bound=%s"
             % (row.weight, row.exact, _fmt(row.bound)))
            for row in report.rows]
    return _report(rows + [("max_ratio", report.max_ratio)],
                   ("typical-set intersection bound", report.passed))


def _cmd_oracle_lhl(args) -> int:
    import numpy as np

    from . import adversary, oracle
    code = _code_from_spec(args.code)
    strategy = adversary.less_noisy_bob(args.p_b, code.n)
    rng = None
    if args.seeds:  # 0: every full-rank seed
        seed, = _need(args, "seed")
        rng = np.random.default_rng([seed, 5])
    res = oracle.lhl_check(code, args.hash_m, strategy.view_channel,
                           seeds=args.seeds or None, rng=rng)
    return _report([("lhs", res.lhs), ("rhs", res.rhs), ("h_min", res.h_min)],
                   ("leftover-hash inequality", res.passed))


def _cmd_oracle_clipped(args) -> int:
    from . import oracle
    res = oracle.clipped_bsc_construction(args.n, args.p, args.eps)
    fields = ("gtd_actual", "tail", "min_entropy_per_input", "entropy_floor",
              "cond_min_entropy")
    return _report([(f, getattr(res, f)) for f in fields],
                   ("clipped-channel construction", res.passed))


# ---------------------------------------------------------------------------
# nqs
# ---------------------------------------------------------------------------


def _cmd_nqs_simulate(args) -> int:
    import numpy as np

    from . import nqs
    from .gf2 import BitString
    n = args.n
    if not 1 <= n <= _NQS_ROUNDS_CAP:
        raise UsageError("need 1 <= n <= 2^20 rounds, got %d" % n)
    rng = np.random.default_rng([args.seed, 1])
    x = BitString.random(n, rng)
    run = nqs.run_conjugate_channel(x, rng)
    lines = ["round,x,theta,theta_prime,k,z"]
    zbits = run.z.bits
    for i in range(n):
        lines.append("%d,%d,%d,%d,%d,%d" % (i, x.bits[i], run.theta[i],
                                            run.theta_prime[i], run.k[i],
                                            zbits[i]))
    wrote = _write("\n".join(lines) + "\n", args.out, "%d rounds" % n)
    flips = int(np.count_nonzero(zbits != x.bits))
    return _report(wrote + [("flip_rate", flips / n)])


def _cmd_nqs_params(args) -> int:
    from . import nqs
    params = nqs.NqsParams(
        n=args.n, lambda_a=args.lambda_a, lambda_b=args.lambda_b,
        p_succ_log2=lambda bits: nqs.bounded_storage_success_log2(
            bits, args.storage_dim))
    theta = nqs.nqs_channel_params(params)
    return _report([(f, getattr(theta, f))
                    for f in ("p", "eps_a", "l_a", "eps_b", "l_b")])


def _cmd_nqs_povm(args) -> int:
    from . import nqs
    report = nqs.povm_verify()
    return _report([(f, getattr(report, f)) for f in (
        "completeness_error", "min_eigenvalue", "max_eigenvalue_err")],
        ("measurement operator pair", report.passed))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# Every command as (group, name, handler, options). An option is (name,
# type[, default[, choices]]), always required if its default is _REQ; a
# name without dashes is a descriptor field and no flag (the field strategy
# replaces the --strategy path once the file is read). All take --config.
_REQ = object()
# the options both attack kinds read; each kind adds its own, and its
# descriptor's kind and strategy may name only that kind and its strategy
_ATTACK = [
    ("--strategy", str, _REQ), ("--mode", str, "exact", ("exact", "mc")),
    ("code", str, _REQ), ("hash_m", int, 1), ("p", float, _REQ),
    ("eps", float, _REQ)]
_COMMANDS = [
    ("commit", "run", _cmd_commit_run, [
        ("--code", str, _REQ), ("--message", str, _REQ), ("--n", int),
        ("--hash-m", int, _REQ), ("--seed", int, _REQ), ("--p", float, _REQ),
        ("--eps", float, _REQ), ("--out", str)]),
    ("commit", "replay", _cmd_commit_replay, [
        ("--transcript", str, _REQ), ("--code", str, _REQ),
        ("--hash-m", int, _REQ), ("--p", float, _REQ),
        ("--eps", float, _REQ)]),
    ("commit", "complete", _cmd_commit_complete, [
        ("--code", str), ("--n", int), ("--k", int), ("--target-d", int),
        ("--hash-m", int, _REQ), ("--trials", int, 10 ** 4),
        ("--seed", int, _REQ), ("--p", float, _REQ), ("--eps", float, _REQ)]),
    ("attack", "binding", _cmd_attack_binding, _ATTACK + [
        ("--trials", int, 10 ** 5), ("--seed", int), ("weight", int),
        ("spread", float, 0.5), ("x0", str), ("x1", str),
        ("kind", str, None, ("binding",)),
        ("strategy", str, None, ("midpoint",))]),
    ("attack", "hiding", _cmd_attack_hiding, _ATTACK + [
        ("p_b", float, _REQ), ("m0", str, "0"), ("m1", str, "1"),
        ("kind", str, None, ("hiding",)),
        ("strategy", str, None, ("less_noisy_bob",))]),
    ("bounds", "eval", _cmd_bounds_eval, [
        ("--which", str, _REQ, tuple(_BOUNDS)), ("--n", int, _REQ)]
     + [(flag, float) for flag in ("--eps", "--p", "--sigma", "--l-a",
                                   "--eps-a", "--l-b", "--eps-b", "--log-m",
                                   "--log-c")]),
    ("rate", "surface", _cmd_rate_surface, [
        ("--p", float, _REQ), ("--steps", int, 50), ("--out", str)]),
    ("rate", "point", _cmd_rate_point, [
        ("--p", float, _REQ), ("--xia", float, _REQ), ("--xib", float, _REQ)]),
    ("oracle", "intersection", _cmd_oracle_intersection, [
        ("--n", int, _REQ), ("--p", float, _REQ), ("--eps", float, _REQ)]),
    ("oracle", "lhl", _cmd_oracle_lhl, [
        ("--code", str, "hamming74"), ("--hash-m", int, 1),
        ("--p-b", float, 0.25), ("--seeds", int, 0), ("--seed", int)]),
    ("oracle", "clipped", _cmd_oracle_clipped, [
        ("--n", int, _REQ), ("--p", float, _REQ), ("--eps", float, _REQ)]),
    ("nqs", "simulate", _cmd_nqs_simulate, [
        ("--n", int, _REQ), ("--seed", int, _REQ), ("--out", str)]),
    ("nqs", "params", _cmd_nqs_params, [
        ("--n", int, _REQ), ("--lambda-a", float, _REQ),
        ("--lambda-b", float, _REQ), ("--storage-dim", int, _REQ)]),
    ("nqs", "povm-verify", _cmd_nqs_povm, []),
]


def build_parser() -> argparse.ArgumentParser:
    """The ``usnc`` parser; no parser takes abbreviated option names."""
    ap = argparse.ArgumentParser(
        prog="usnc", allow_abbrev=False,
        description="String commitment over unstructured noisy channels")
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {}
    for group, name, func, options in _COMMANDS:
        if group not in groups:  # argparse's errors name a group's dest
            groups[group] = sub.add_parser(
                group, allow_abbrev=False).add_subparsers(dest="subcommand",
                                                          required=True)
        sp = groups[group].add_parser(name, allow_abbrev=False)
        options = [(*opt, None, None)[:4] for opt in options]
        for flag, type_fn, _, choices in options:
            if flag[0] == "-":  # no default: a file may supply the value
                sp.add_argument(flag, type=type_fn, choices=choices,
                                action="append" if flag in _FILES else None)
        sp.add_argument("--config", action="append")
        sp.set_defaults(func=func, options=options)
    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One ``build_parser()`` per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _set_options(args)
        return args.func(args)
    except (UsageError, ValueError, OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
