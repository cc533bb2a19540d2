import argparse
import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import usnc
from usnc import bounds, oracle, protocol
from usnc.cli import _COMMANDS, build_parser, main
from usnc.gf2 import BitString, LinearCode, hamming_7_4, save_code
from usnc.protocol import (CommitConfig, run_honest, transcript_from_json,
                           transcript_to_json)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


class NoDraws:
    """Stands in for a generator; any draw fails the test."""

    def __getattr__(self, name):
        raise AssertionError("a random draw was reached")


def _no_allocation(*args, **kwargs):
    raise AssertionError("an oversized array was allocated")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=8)

VALID_TRANSCRIPT = json.loads(transcript_to_json(run_honest(
    BitString.from01("1"),
    CommitConfig(code=hamming_7_4(), hash_m=1, p=0.25, eps=0.2),
    np.random.default_rng(8)).transcript))

FIELD_PATHS = [("seed",), ("seed", "m"), ("seed", "k"), ("seed", "hex"),
               ("mbar",), ("mbar", "len"), ("coset",), ("coset", "hex"),
               ("z",), ("z", "len"), ("opening",), ("opening", "m"),
               ("opening", "x"), ("opening", "x", "hex")]


def _with_field(path, value):
    """The valid transcript with the field at ``path`` set to ``value``."""
    obj = json.loads(json.dumps(VALID_TRANSCRIPT))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


class TestBoundsEval:
    def test_completeness_substitution(self, capsys):
        code, out = run_cli(capsys, "bounds", "dc", "--n", "1000", "--eps",
                            "0.1")
        assert code == 0
        assert out.strip() == "0.0078125"

    def test_binding_zero_case(self, capsys):
        code, out = run_cli(capsys, "bounds", "db",
                            "--n", "100", "--eps", "0.05", "--sigma", "0.4",
                            "--p", "0.25", "--l-a", "10", "--eps-a", "0.125")
        assert code == 0
        assert float(out.strip()) == 0.125

    @pytest.mark.parametrize("which, reads", [
        ("dc", ["--eps", "0.1"]),
        ("dh", ["--log-m", "1", "--log-c", "4", "--l-b", "3", "--eps-b",
                "0"]),
        ("db", ["--eps", "0.05", "--sigma", "0.1", "--p", "0.25", "--l-a",
                "40", "--eps-a", "0"]),
        ("intersection", ["--p", "0.25", "--eps", "0.05", "--sigma", "0.1"])],
        ids=["dc", "dh", "db", "intersection"])
    def test_flag_its_bound_does_not_read_is_usage_error(self, capsys,
                                                         tmp_path, which,
                                                         reads):
        # bounds eval --which dc --p 0.3 used to print the dc bound and
        # exit 0; each bound's parser now refuses the flag, and the config
        # file its key
        argv = ["bounds", which, "--n", "100", *reads]
        assert run_cli(capsys, *argv)[0] == 0
        unread = [flag for flag in ("--eps", "--p", "--sigma", "--l-a",
                                    "--eps-a", "--l-b", "--eps-b", "--log-m",
                                    "--log-c") if flag not in reads]
        conf = tmp_path / "conf.txt"
        for flag in unread:
            with pytest.raises(SystemExit) as exc:
                main(argv + [flag, "0.3"])
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out) == (2, ""), flag
            assert "unrecognized arguments: %s 0.3" % flag in captured.err
            key = flag[2:].replace("-", "_")
            conf.write_text("%s = 0.3\n" % key)
            code = main(argv + ["--config", str(conf)])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), key
            assert captured.err == "error: --config key %s: not an option " \
                "of this command\n" % key

    def test_missing_argument_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "bounds", "dc", "--n", "1000")
        assert code == 2

    @pytest.mark.parametrize("args", [
        ("dc", "--n", "10", "--eps", "nan"),
        ("dc", "--n", "10", "--eps", "inf"),
        ("db", "--n", "10", "--eps", "0.05", "--sigma", "0.1", "--p", "0.1",
         "--l-a", "nan", "--eps-a", "0"),
        ("db", "--n", "10", "--eps", "0.05", "--sigma", "0.1", "--p", "0.1",
         "--l-a", "5", "--eps-a", "nan"),
        ("db", "--n", "10", "--eps", "0.05", "--sigma", "0.4", "--p", "0.1",
         "--l-a", "5", "--eps-a", "nan")],
        ids=["dc-eps-nan", "dc-eps-inf", "db-l_a-nan", "db-eps_a-nan",
             "db-eps_a-nan-beyond"])
    def test_non_finite_inputs_are_usage_errors(self, capsys, args):
        code = main(["bounds", *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("args,err", [
        (("dh", "--n", "5", "--log-m", "1", "--log-c", "2", "--l-b", "1",
          "--eps-b", "-3"), "need 0 <= eps_b <= 1, got -3.0"),
        (("intersection", "--n", "-5", "--eps", "0.05", "--sigma", "0.1",
          "--p", "0.25"), "need n >= 1, got -5")],
        ids=["dh-eps_b-negative", "intersection-n-negative"])
    def test_out_of_domain_inputs_are_usage_errors(self, capsys, args, err):
        code = main(["bounds", *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: %s\n" % err

    @pytest.mark.parametrize("n, err", [
        ("inf", "invalid literal for int() with base 10: 'inf'"),
        ("-inf", "invalid literal for int() with base 10: '-inf'"),
        ("1.5", "invalid literal for int() with base 10: '1.5'")])
    def test_config_n_is_an_int(self, capsys, tmp_path, n, err):
        # as the --n flag is: no float read and then cut to an int; the
        # error names the file's flag and the key
        cfg = tmp_path / "conf.txt"
        cfg.write_text("n = %s\n" % n)
        code = main(["bounds", "dc", "--eps", "0.1", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --config key n: %s\n" % err

    def test_infinite_entropy_floor_leaves_smoothing_term(self, capsys):
        code, out = run_cli(capsys, "bounds", "db",
                            "--n", "10", "--eps", "0.05", "--sigma", "0.1",
                            "--p", "0.1", "--l-a", "inf", "--eps-a", "0.01")
        assert code == 0
        assert out == "0.01\n"


class TestRate:
    def test_point_maximum(self, capsys):
        code, out = run_cli(capsys, "rate", "point", "--p", "0.1",
                            "--xia", "0.469", "--xib", "0.469")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.469, abs=1e-3)

    def test_surface_deterministic_bytes(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["rate", "surface", "--p", "0.1", "--steps", "12",
                     "--out", str(out1)]) == 0
        assert main(["rate", "surface", "--p", "0.1", "--steps", "12",
                     "--out", str(out2)]) == 0
        capsys.readouterr()
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        lines = b1.decode().splitlines()
        assert lines[0] == "xi_a,xi_b,rate"
        assert len(lines) == 1 + 12 * 12

    def test_surface_steps_above_cap_refused_before_allocating(
            self, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated before the steps check")

        monkeypatch.setattr(bounds, "_grid", no_grid)
        for steps in ("1001", "100000000"):
            code = main(["rate", "surface", "--p", "0.1", "--steps", steps])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == "error: need 2 <= grid_steps <= 1000\n"


class TestCommit:
    def test_run_writes_replayable_transcript(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        args = ["commit", "run", "--code", "hamming74", "--hash-m", "1",
                "--p", "0.25", "--eps", "0.2", "--message", "1",
                "--seed", "42", "--out", str(out)]
        assert main(list(args)) == 0
        first = capsys.readouterr().out
        assert "flag:" in first and "m_hat: 1" in first
        text1 = out.read_text()
        transcript_from_json(text1)  # parses
        assert main(list(args)) == 0
        capsys.readouterr()
        assert out.read_text() == text1  # same seed, identical bytes

    def test_run_accepts_code_file(self, capsys, tmp_path):
        # distance is verified on load for enumerable dimensions
        path = tmp_path / "code.txt"
        save_code(hamming_7_4(), path)
        out_path = tmp_path / "t.json"
        code, out = run_cli(capsys, "commit", "run", "--code", str(path),
                            "--hash-m", "1", "--p", "0.25", "--eps", "0.2",
                            "--message", "0", "--seed", "7",
                            "--out", str(out_path))
        assert code == 0
        transcript_from_json(out_path.read_text())

    def test_n_other_than_the_code_length_is_usage_error(self, capsys):
        code = main(["commit", "complete", "--trials", "10", "--code",
                     "hamming74", "--n", "99",
                     "--hash-m", "1", "--p", "0.1", "--eps", "0.3",
                     "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == \
            "error: --n 99 does not match the code length 7\n"

    @pytest.mark.parametrize("flags, config, err", [
        (["--k", "9", "--target-d", "6"], "",
         "--k 9 does not match the code dimension 4"),
        (["--target-d", "4"], "",
         "--target-d 4 is above the code distance 3"),
        ([], "k = 9\n", "--k 9 does not match the code dimension 4"),
        ([], "target_d = 4\n", "--target-d 4 is above the code distance 3")])
    def test_complete_refuses_k_and_target_d_the_code_lacks(
            self, capsys, tmp_path, flags, config, err):
        # --k and --target-d size the random code; next to --code they
        # must describe it, as --n must
        cfg = tmp_path / "c.txt"
        cfg.write_text(config)
        code = main(["commit", "complete", "--code", "hamming74", *flags,
                     "--hash-m", "1", "--p", "0.1", "--eps", "0.3",
                     "--trials", "1000", "--seed", "1",
                     "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: %s\n" % err

    def test_complete_accepts_the_code_own_k_and_distance(
            self, capsys):
        code, out = run_cli(capsys, "commit", "complete", "--code",
                            "hamming74", "--k", "4", "--target-d", "3",
                            "--hash-m", "1", "--p", "0.1", "--eps", "0.3",
                            "--trials", "1000", "--seed", "1")
        assert code == 0
        assert out == run_cli(capsys, "commit", "complete", "--code",
                              "hamming74", "--hash-m", "1", "--p", "0.1",
                              "--eps", "0.3", "--trials", "1000",
                              "--seed", "1")[1]

    @pytest.mark.parametrize("argv", [
        ["commit", "run", "--message", "1", "--seed", "1"],
        ["commit", "replay", "--transcript", "t.json"],
        ["commit", "complete", "--trials", "1000", "--seed", "1"]],
        ids=["run", "replay", "complete"])
    def test_code_file_without_distance_refused(self, capsys, tmp_path,
                                                argv):
        # a code file's distance is computed only up to k = 24, and the
        # protocol needs one: the refusal names the file's k
        path = tmp_path / "k30.txt"
        save_code(LinearCode(np.random.default_rng(5).integers(0, 2,
                                                               (30, 10))),
                  path)
        code = main(argv + ["--code", str(path), "--hash-m", "1", "--p",
                            "0.1", "--eps", "0.05"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: the code file's k = 30 is above 24, so no distance is "
            "computed for it, and the protocol needs one\n")

    def test_run_with_message_space_beyond_64_bits(self, capsys):
        # even:65 has k = 64: the preimage lift eliminates on 65-bit rows
        code, out = run_cli(capsys, "commit", "run", "--code", "even:65",
                            "--hash-m", "1", "--p", "0.1", "--eps", "0.05",
                            "--seed", "1", "--message", "1")
        assert code == 0
        assert "m_hat: 1" in out

    def test_replay_reproduces_flag(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        assert main(["commit", "run", "--code", "hamming74", "--hash-m", "1",
                     "--p", "0.25", "--eps", "0.2", "--message", "1",
                     "--seed", "42", "--out", str(out)]) == 0
        first = capsys.readouterr().out
        flag_line = next(ln for ln in first.splitlines()
                         if ln.startswith("flag:"))
        code, replay_out = run_cli(capsys, "commit", "replay",
                                   "--transcript", str(out),
                                   "--code", "hamming74", "--hash-m", "1",
                                   "--p", "0.25", "--eps", "0.2")
        assert code == 0
        assert flag_line in replay_out

    @pytest.mark.parametrize("flags,field,need", [
        (["--code", "even:8"], None, "seed shape is 1x4, the configuration "
         "needs 1x7"),
        (["--code", "even:7"], None, "seed shape is 1x4, the configuration "
         "needs 1x6"),
        (["--hash-m", "2"], None, "seed shape is 1x4, the configuration "
         "needs 2x4"),
        ([], ("mbar", "len"), "mask length is 2, the configuration needs 1"),
        ([], ("coset", "len"), "syndrome length is 4, the configuration "
         "needs 3"),
        ([], ("z", "len"), "z length is 8, the configuration needs 7"),
        ([], ("opening", "m", "len"), "opening m length is 2, the "
         "configuration needs 1"),
        ([], ("opening", "x", "len"), "opening x length is 8, the "
         "configuration needs 7")],
        ids=["even8", "even7", "hash-m2", "mask", "syndrome", "z",
             "opening-m", "opening-x"])
    def test_replay_shape_mismatch_is_usage_error(self, capsys, tmp_path,
                                                  flags, field, need):
        # the transcript is the hamming74, hash_m = 1 one; a field one bit
        # longer still parses, as its hex holds a whole byte
        transcript = VALID_TRANSCRIPT
        if field is not None:
            length = VALID_TRANSCRIPT
            for key in field:
                length = length[key]
            transcript = _with_field(field, length + 1)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(transcript))
        code = main(["commit", "replay", "--transcript", str(path),
                     "--code", "hamming74", "--hash-m", "1", "--p", "0.25",
                     "--eps", "0.2"] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: transcript %s\n" % need

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(transcript=JSON_VALUES | st.builds(
        _with_field, st.sampled_from(FIELD_PATHS), JSON_VALUES))
    @example(transcript=[])
    @example(transcript={"seed": 5})
    @example(transcript=_with_field(("opening",), 5))
    @example(transcript=_with_field(("seed", "m"), float("inf")))
    def test_replay_any_json_replays_or_is_usage_error(self, capsys, tmp_path,
                                                       transcript):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(transcript))
        capsys.readouterr()
        code = main(["commit", "replay", "--transcript", str(path),
                     "--code", "hamming74", "--hash-m", "1", "--p", "0.25",
                     "--eps", "0.2"])
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_complete_small(self, capsys):
        code, out = run_cli(capsys, "commit", "complete", "--code", "even:64",
                            "--hash-m", "1", "--p", "0.1", "--eps", "0.25",
                            "--trials", "1000", "--seed", "3")
        assert code == 0
        assert "completeness tail bound: PASS" in out

    def test_complete_beyond_singleton_is_usage_error(self, capsys,
                                                      monkeypatch):
        def fail(self):
            raise AssertionError("distance search ran")

        monkeypatch.setattr(LinearCode, "min_distance_exact", fail)
        code = main(["commit", "complete", "--n", "64", "--k", "16",
                     "--target-d", "60", "--hash-m", "8", "--p", "0.1",
                     "--eps", "0.05", "--trials", "10", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Singleton" in captured.err

    def test_complete_beyond_k24_is_usage_error(self, capsys, monkeypatch):
        # a random code with k > 24 once ran on an unverified distance
        monkeypatch.setattr(np.random, "default_rng", lambda *args: NoDraws())
        code = main(["commit", "complete", "--n", "40", "--k", "26",
                     "--target-d", "5", "--hash-m", "2", "--p", "0.1",
                     "--eps", "0.05", "--trials", "1000", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: exact distance enumeration limited " \
            "to k <= 24 (got k=26)\n"

    @pytest.mark.parametrize("n,k,cap", [
        ("100000000", "16", "2^22"),  # the P block alone is 1.6 GB
        ("2000", "20", "2^24"),  # distance check over 2^25 words
        ("100000", "2", "2^20")])  # 1.56M words per field of a block
    def test_complete_oversized_is_refused_before_allocating(
            self, capsys, monkeypatch, n, k, cap):
        def fail(*args):
            raise AssertionError("an oversized allocation was reached")

        if cap == "2^20":  # the small [100000,2] code is drawn and checked
            monkeypatch.setattr(protocol, "_random_words", fail)
        else:
            monkeypatch.setattr(np.random, "default_rng",
                                lambda *args: NoDraws())
            monkeypatch.setattr(LinearCode, "min_distance_exact", fail)
        code = main(["commit", "complete", "--n", n, "--k", k, "--hash-m",
                     "1", "--p", "0.1", "--eps", "0.2", "--trials", "1000",
                     "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "cap of " + cap in captured.err

    @pytest.mark.parametrize("args, stub, err", [
        (["run", "--code", "even:100000", "--message", "1"],
         (usnc.hashing, "gf2_solution_space"),
         "error: a 99999-bit message space has a kernel basis of (k-m)k = "
         "9999700002 bits, above the cap of 2^22\n"),
        (["complete", "--code", "hamming74",
          "--trials", "99999999999999999999"],
         (protocol, "_completeness_counts"),
         "error: 99999999999999999999 completeness trials are above the "
         "cap of 10^8\n")], ids=["kernel-basis", "trials"])
    def test_oversized_scalar_inputs_refused_before_allocating(
            self, capsys, monkeypatch, args, stub, err):
        monkeypatch.setattr(*stub, _no_allocation)
        code = main(["commit"] + args + ["--hash-m", "1", "--p", "0.1",
                                         "--eps", "0.2", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == err

    def test_mismatched_n_rejected(self, capsys):
        # commit run has no --n: the code alone gives the length
        with pytest.raises(SystemExit) as exc:
            main(["commit", "run", "--code", "hamming74", "--n", "9",
                  "--hash-m", "1", "--p", "0.25", "--eps", "0.2",
                  "--message", "1", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n 9" in capsys.readouterr().err


ATTACKS = {
    "binding": {"code": "even:14", "hash_m": "1", "p": "0.25", "eps": "0.05",
                "weight": "6"},
    "binding-pair": {"code": "even:14", "p": "0.25", "eps": "0.05",
                     "x0": "0" * 14, "x1": "1" * 6 + "0" * 8},
    "hiding": {"code": "hamming74", "hash_m": "1", "p": "0.25", "eps": "0.2",
               "p_b": "0.25"},
}


def _attack(name, drop=(), **changes):
    """argv of the ``ATTACKS`` instance ``name`` with ``changes`` made to its
    fields, leaving out the fields in ``drop``."""
    argv = ["attack", name.split("-")[0]]
    for key, value in {**ATTACKS[name], **changes}.items():
        if key not in drop:
            argv += ["--" + key.replace("_", "-"), value]
    return argv


class TestAttack:
    def test_binding_exact(self, capsys):
        argv = _attack("binding", spread="0.5")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "success: 0.00549383469662\n" in out
        assert "double-opening success bound: PASS" in out
        code, out = run_cli(capsys, *argv, "--mode", "mc", "--seed", "11",
                            "--trials", "20000")
        assert code == 0
        assert "success: 0.00545\n" in out
        code = main(argv + ["--mode", "mc", "--seed", "11", "--trials", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: need trials >= 1\n"

    @pytest.mark.parametrize("via", ["flag", "--config"])
    @pytest.mark.parametrize("name, key, value, why", [
        ("binding", "trials", "20000", "under --mode exact"),
        ("binding", "seed", "11", "under --mode exact"),
        ("binding-pair", "weight", "6", "with --x0 and --x1")])
    def test_binding_value_it_never_reads_is_usage_error(
            self, capsys, tmp_path, via, name, key, value, why):
        argv = _attack(name, spread="0.5")
        if via == "flag":
            argv += ["--" + key, value]
        else:
            conf = tmp_path / "conf.txt"
            conf.write_text("%s = %s\n" % (key, value))
            argv += ["--config", str(conf)]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: --%s is not read %s\n" % (key, why)

    def test_binding_reads_trials_and_seed_in_mc_and_weight_alone(
            self, capsys, monkeypatch):
        # the other side of the refusals: --trials and --seed under --mode
        # mc and --weight without --x0/--x1 run, and 10^5 trials are the
        # default in mc mode only
        from usnc import adversary
        seen = []

        def success(strategy, cfg, mode, trials, rng, for_bound_comparison):
            seen.append((mode, trials, rng is None))
            return 0.0

        monkeypatch.setattr(adversary, "binding_success", success)
        mc = ["--mode", "mc", "--seed", "3"]
        for argv in ([], mc, mc + ["--trials", "7"]):
            assert main(_attack("binding", weight="6") + argv) == 0
        assert main(_attack("binding-pair") + mc) == 0
        assert seen == [("exact", None, True), ("mc", 10 ** 5, False),
                        ("mc", 7, False), ("mc", 10 ** 5, False)]

    def test_hiding_exact(self, capsys):
        code, out = run_cli(capsys, *_attack("hiding", m0="0", m1="1"))
        assert code == 0
        assert "view-distance bound: PASS" in out

    @pytest.mark.parametrize("name, key", [
        ("binding", "code"), ("binding", "p"), ("binding", "eps"),
        ("binding", "weight"), ("binding-pair", "x0"),
        ("binding-pair", "x1"), ("hiding", "code"), ("hiding", "p"),
        ("hiding", "eps"), ("hiding", "p_b")])
    def test_missing_required_flag_is_usage_error(self, capsys, name, key):
        code = main(_attack(name, drop=(key,)))
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: missing required option --%s\n" \
            % key.replace("_", "-")

    def test_hiding_monte_carlo_is_usage_error(self, capsys):
        # hiding is exact only, so it has no --mode
        with pytest.raises(SystemExit) as exc:
            main(_attack("hiding") + ["--mode", "mc"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert sum("error:" in ln for ln in err.splitlines()) == 1
        assert "unrecognized arguments: --mode mc" in err

    @pytest.mark.parametrize("weight", ["-2", "0", "15", "100"])
    def test_binding_weight_outside_length_is_usage_error(self, capsys,
                                                          weight):
        # a slice bits[:w] would silently run another weight's instance
        code = main(_attack("binding", weight=weight))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: need 1 <= weight <= 14\n"

    @pytest.mark.parametrize("kind, field", [
        ("binding", ("spread", "0")), ("hiding", ("p_b", "1"))])
    def test_point_mass_channel_check_prints_positive_zero(self, capsys,
                                                           kind, field):
        code, out = run_cli(capsys, *_attack(kind, **dict([field])))
        assert code == 0
        assert out.startswith(
            "channel check: pass: achieved 0, required 0\n")

    @pytest.mark.parametrize("via", ["flag", "--config"])
    @pytest.mark.parametrize("kind, line", [
        ("hiding", "weight = 6"), ("hiding", "spread = 0.1"),
        ("hiding", "x0 = 0000000"), ("hiding", "x1 = 1100000"),
        ("binding", "p_b = 0.1"), ("binding", "m0 = 0"),
        ("binding", "m1 = 1")],
        ids=lambda v: v.split(" = ")[0])
    def test_field_of_the_other_kind_is_usage_error(self, capsys, tmp_path,
                                                    via, kind, line):
        # a hiding file holding weight, spread and x0 used to run, ignore
        # them and print PASS
        key, value = line.split(" = ")
        if via == "flag":
            with pytest.raises(SystemExit) as exc:
                main(_attack(kind) + ["--" + key.replace("_", "-"), value])
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out) == (2, "")
            assert "unrecognized arguments: --%s" % key.replace("_", "-") \
                in captured.err
            return
        conf = tmp_path / "conf.txt"
        conf.write_text(line + "\n")
        code = main(_attack(kind) + ["--config", str(conf)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: --config key %s: not an option of " \
            "this command\n" % key

    @pytest.mark.parametrize("flag", ["--trials", "--seed"])
    def test_binding_flag_on_hiding_is_usage_error(self, capsys, flag):
        # hiding is exact and draws nothing: it used to take both and
        # ignore them
        with pytest.raises(SystemExit) as exc:
            main(_attack("hiding") + [flag, "7"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert sum("error:" in ln for ln in err.splitlines()) == 1
        assert "unrecognized arguments: %s 7" % flag in err

    @pytest.mark.parametrize("kind, line", [
        ("binding", "kind = hiding"), ("binding", "strategy = honest"),
        ("hiding", "strategy = midpoint")],
        ids=["binding-kind", "binding-strategy", "hiding-strategy"])
    def test_other_kind_or_strategy_name_is_usage_error(self, capsys,
                                                        tmp_path, kind, line):
        # each command is one kind with one strategy, so neither is an
        # option: a config file that names either is refused
        conf = tmp_path / "conf.txt"
        conf.write_text(line + "\n")
        code = main(_attack(kind) + ["--config", str(conf)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: --config key %s: not an option of " \
            "this command\n" % line.split(" = ")[0]

    def test_kind_mismatch(self, capsys):
        # the binding instance on attack hiding: --weight is not its flag
        argv = _attack("binding")
        with pytest.raises(SystemExit) as exc:
            main(["attack", "hiding"] + argv[2:])
        assert exc.value.code == 2
        assert "unrecognized arguments: --weight 6" in capsys.readouterr().err


class TestOracleCommands:
    def test_intersection(self, capsys):
        code, out = run_cli(capsys, "oracle", "intersection", "--n", "10",
                            "--p", "0.25", "--eps", "0.125")
        assert code == 0
        assert "typical-set intersection bound: PASS" in out
        assert "max_ratio:" in out

    @pytest.mark.parametrize("n", ["-3", "0", "17"])
    def test_intersection_length_outside_range_is_usage_error(self, capsys,
                                                              n):
        code = main(["oracle", "intersection", "--n", n, "--p", "0.25",
                     "--eps", "0.125"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: weight sweep needs 1 <= n <= 16\n"

    @pytest.mark.parametrize("command", ["intersection", "clipped"])
    @pytest.mark.parametrize("p, eps, name", [
        ("nan", "0.1", "p"), ("inf", "0.1", "p"), ("0.1", "nan", "eps")])
    def test_non_finite_window_inputs_are_usage_errors(self, capsys, command,
                                                       p, eps, name):
        code = main(["oracle", command, "--n", "10", "--p", p,
                     "--eps", eps])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: %s must be finite\n" % name

    def test_lhl(self, capsys):
        code, out = run_cli(capsys, "oracle", "lhl", "--seeds", "100",
                            "--seed", "5")
        assert code == 0
        assert "leftover-hash inequality: PASS" in out

    @pytest.mark.parametrize("extra", [(), ("--seeds", "5", "--seed", "1")])
    def test_lhl_zero_digest_bits_is_usage_error(self, capsys, extra):
        code = main(["oracle", "lhl", "--hash-m", "0", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert "PASS" not in captured.out
        assert captured.err == "error: need 1 <= m <= k\n"

    def test_lhl_sampled_seed_count(self, capsys):
        code = main(["oracle", "lhl", "--seeds", "-3", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: need at least one sampled seed\n"
        # zero means every full-rank seed, as without the option
        assert run_cli(capsys, "oracle", "lhl", "--seeds", "0") \
            == run_cli(capsys, "oracle", "lhl")

    @pytest.mark.parametrize("extra, count", [
        (("--hash-m", "4"), "13124160 full-rank seeds"),
        (("--seeds", "300000", "--seed", "1"), "300000 sampled seeds")])
    def test_lhl_oversized_seed_family_is_usage_error(self, capsys,
                                                      monkeypatch, extra,
                                                      count):
        def fail(*args):
            raise AssertionError("seeds were built")

        monkeypatch.setattr(oracle, "enumerate_full_rank_seeds", fail)
        monkeypatch.setattr(oracle, "sample_seed", fail)
        code = main(["oracle", "lhl", "--code", "even:7", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert count in captured.err

    @pytest.mark.parametrize("p_b", ["nan", "1.5"])
    def test_lhl_view_noise_outside_unit_interval_is_usage_error(self, capsys,
                                                                p_b):
        code = main(["oracle", "lhl", "--p-b", p_b])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: need 0 <= p_b <= 1\n"

    def test_clipped(self, capsys):
        code, out = run_cli(capsys, "oracle", "clipped", "--n", "10",
                            "--p", "0.1", "--eps", "0.1")
        assert code == 0
        assert "clipped-channel construction: PASS" in out

    def test_clipped_conditional_beyond_fourteen(self, capsys):
        code, out = run_cli(capsys, "oracle", "clipped", "--n", "15",
                            "--p", "0.1", "--eps", "0.1")
        assert code == 0
        assert "cond_min_entropy: " in out
        assert "clipped-channel construction: PASS" in out

    @pytest.mark.parametrize("p, eps", [("-0.1", "0.1"), ("0", "0.1"),
                                        ("0.5", "0.1"), ("0.7", "0.1"),
                                        ("0.1", "-0.1")])
    def test_clipped_crossover_outside_range_is_usage_error(self, capsys, p,
                                                            eps):
        # refused before any law is built from the out-of-range p
        code = main(["oracle", "clipped", "--n", "8", "--p", p, "--eps", eps])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: need 0 < p < 1/2 and eps >= 0\n"

    @pytest.mark.parametrize("n", ["-1", "0", "17"])
    def test_clipped_length_outside_range_is_usage_error(self, capsys, n):
        code = main(["oracle", "clipped", "--n", n, "--p", "0.1",
                     "--eps", "0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: dense construction needs 1 <= n <= 16\n"

    def test_clipped_empty_window_is_usage_error(self, capsys):
        # n (p - eps) = 1.8 and n (p + eps) = 1.8: no weight in between
        code = main(["oracle", "clipped", "--n", "9", "--p", "0.2",
                     "--eps", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: typical window of n = 9, p = 0.2, "
                                "eps = 0.0 is empty: w_lo 2 > w_hi 1\n")


class TestNqsCommands:
    def test_simulate_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rounds.csv"
        code, out = run_cli(capsys, "nqs", "simulate", "--n", "200",
                            "--seed", "1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "round,x,theta,theta_prime,k,z"
        assert len(lines) == 201
        assert "flip_rate:" in out

    def test_params(self, capsys):
        code, out = run_cli(capsys, "nqs", "params", "--n", "4096",
                            "--lambda-a", "0.0625", "--lambda-b", "0.0625",
                            "--storage-dim", "100")
        assert code == 0
        values = dict(ln.split(": ") for ln in out.strip().splitlines())
        assert float(values["p"]) == pytest.approx(0.146446609407)
        assert float(values["l_b"]) == pytest.approx(
            (0.5 - 0.0625) * 4096 - 100)

    def test_povm(self, capsys):
        code, out = run_cli(capsys, "nqs", "povm-verify")
        assert code == 0
        assert "measurement operator pair: PASS" in out


class TestOversizedInputs:
    """Sizes whose arrays would not fit in memory exit 2 with one error
    line, refused before anything is drawn or allocated."""

    def assert_refused(self, capsys, argv, err, out=""):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == out
        assert captured.err == "error: %s\n" % err

    @pytest.mark.parametrize("spec, k", [("even:3000000000", 2999999999),
                                         ("rep:3000000000", 1)])
    def test_named_code_p_block(self, capsys, monkeypatch, spec, k):
        monkeypatch.setattr(np, "ones", _no_allocation)
        self.assert_refused(
            capsys, ["oracle", "lhl", "--code", spec],
            "an [3000000000,%d] code has a P block of k(n-k) = 2999999999 "
            "bits, above the cap of 2^22" % k)

    @pytest.mark.parametrize("argv", [
        ["commit", "run", "--hash-m", "1", "--p", "0.1", "--eps", "0.3",
         "--message", "1", "--seed", "1"],
        ["commit", "replay", "--transcript", "t.json", "--hash-m", "1",
         "--p", "0.1", "--eps", "0.3"],
        ["commit", "complete", "--hash-m", "1", "--p", "0.1", "--eps", "0.3",
         "--seed", "1"],
        ["oracle", "lhl"]], ids=["run", "replay", "complete", "lhl"])
    def test_code_file_header(self, capsys, monkeypatch, tmp_path, argv):
        # every row is checked against the header before the generator is
        # allocated, so the allocation is bounded by the file
        path = tmp_path / "code.txt"
        path.write_text("1000000000000 1\n0\n")
        monkeypatch.setattr(np, "zeros", _no_allocation)
        self.assert_refused(capsys, argv + ["--code", str(path)],
                            "row 0 is not 1000000000000 characters of 0/1")

    @pytest.mark.parametrize("n", ["3000000000", "1048577", "0"])
    def test_nqs_simulate_rounds(self, capsys, monkeypatch, n):
        monkeypatch.setattr(np.random, "default_rng", lambda *args: NoDraws())
        self.assert_refused(capsys, ["nqs", "simulate", "--n", n, "--seed",
                                     "1"],
                            "need 1 <= n <= 2^20 rounds, got %s" % n)

    def test_binding_monte_carlo_trials(self, capsys, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", lambda *args: NoDraws())
        # the channel check runs before the trial count is read
        self.assert_refused(
            capsys, _attack("binding") + ["--mode", "mc", "--seed", "3",
                                          "--trials", str(10 ** 12)],
            "1000000000000 Monte Carlo trials are above the cap of 10^7",
            out="channel check: pass: achieved 14, required 14\n")


class TestConfigPrecedence:
    def test_flag_then_config_then_default(self, tmp_path):
        from usnc.cli import _set_options
        conf = tmp_path / "conf.txt"
        conf.write_text("eps = 0.2\np = 0.3\np-b = 0.1\nm1 = 3\n")
        args = build_parser().parse_args(
            ["attack", "hiding", "--code", "hamming74", "--p", "0.25",
             "--config", str(conf)])
        _set_options(args)
        assert (args.code, args.hash_m, args.p, args.eps, args.p_b, args.m0,
                args.m1) == ("hamming74", 1, 0.25, 0.2, 0.1, "0", "3")

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("n = 1000\neps = 0.2\n")
        # config supplies n, flag overrides eps
        code, out = run_cli(capsys, "bounds", "dc", "--eps", "0.1",
                            "--config", str(cfg))
        assert code == 0
        assert out.strip() == "0.0078125"
        code2, out2 = run_cli(capsys, "bounds", "dc", "--config", str(cfg))
        assert code2 == 0
        assert float(out2.strip()) == pytest.approx(8 * 2 ** (-1000 * 0.04))


# desk-scale values for every key an attack or commit run config reads,
# valid and invalid; the codes keep each exact harness call short
KEY_VALUES = {
    "code": ["hamming74", "even:5", "even:6", "rep:3", "even:1", "even:40",
             "even:x", "no-such-file"],
    "hash_m": ["0", "1", "2", "5", "-1", "1.5", "x"],
    "p": ["0.1", "0.25", "0", "0.5", "-1", "nan", "inf", "x"],
    "eps": ["0.05", "0.2", "0", "0.4", "-1", "nan", "x"],
    "p_b": ["0", "0.1", "0.25", "0.5", "0.7", "-0.1", "nan", "x"],
    "spread": ["0", "0.3", "0.5", "0.7", "nan", "x"],
    "weight": ["0", "2", "3", "4", "6", "9", "-1", "x"],
    "x0": ["000000", "0000000", "110000", "1110000", "11", "01x"],
    "x1": ["000000", "0000000", "110000", "1110000", "11", "01x"],
    "m0": ["0", "1", "3", "ff", "-1", "zz"],
    "m1": ["0", "1", "3", "ff", "-1", "zz"],
    "message": ["0", "1", "3", "zz"],
    "seed": ["0", "7", "-1", "x"],
}
# complete files each fuzzed input starts from
BASE_FIELDS = {
    "binding": {"code": "even:6", "hash_m": "1", "p": "0.25", "eps": "0.2",
                "weight": "2", "spread": "0.5"},
    "hiding": ATTACKS["hiding"],
    "commit": {"code": "hamming74", "hash_m": "1", "p": "0.25", "eps": "0.2",
               "message": "1", "seed": "7"},
}
# the keys each command's files may hold; any other key exits 2 at once
FILE_KEYS = {"attack": sorted(set(KEY_VALUES) - {"message"}),
             "commit": ["code", "hash_m", "p", "eps", "message", "seed"]}
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


def kv_pair(command):
    """A (key, value) pair of ``KEY_VALUES`` for one of command's keys."""
    return st.sampled_from(FILE_KEYS[command]).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(KEY_VALUES[key])))


JUNK_LINE = (st.builds("{} = {}".format, _TEXT, _TEXT)
             | st.builds("# {}".format, _TEXT) | _TEXT)


@st.composite
def kv_file(draw, base, command):
    """``base`` with a few keys dropped, a few drawn values of command's
    keys and junk lines, as the text of a key = value file."""
    fields = dict(base)
    for key in draw(st.sets(st.sampled_from(sorted(fields)), max_size=3)):
        del fields[key]
    fields.update(draw(st.lists(kv_pair(command), max_size=3)))
    lines = ["%s = %s" % item for item in fields.items()]
    lines += draw(st.lists(JUNK_LINE, max_size=2))
    return "".join(line + "\n" for line in draw(st.permutations(lines)))


class TestKeyValueFiles:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(),
           command=st.sampled_from(["binding", "hiding", "commit"]))
    def test_any_config_exits_cleanly(self, capsys, tmp_path, data, command):
        # the --config file gives ``commit run`` or the attack every option
        # before the draw drops, adds and garbles lines
        kind = "commit" if command == "commit" else "attack"
        text = data.draw(kv_file(BASE_FIELDS[command], kind), label="config")
        path = tmp_path / "conf.txt"
        path.write_text(text, encoding="utf-8")
        argv = ["commit", "run"] if kind == "commit" else ["attack", command]
        capsys.readouterr()
        code = main(argv + ["--config", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1


class TestOptionNames:
    @pytest.mark.parametrize("group", list(dict.fromkeys(
        group for group, *_ in _COMMANDS)))
    def test_unknown_subcommand_names_the_argument(self, capsys, group):
        # the error used to name argparse's internal dest: "argument sub"
        with pytest.raises(SystemExit) as exc:
            main([group, "foo"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        error, = [ln for ln in captured.err.splitlines() if "error:" in ln]
        prefix = "usnc %s: error: argument subcommand: invalid choice: " \
            "'foo' (choose from " % group
        assert error.startswith(prefix)
        assert re.findall(r"[\w-]+", error[len(prefix):]) == [
            name for group_, name, *_ in _COMMANDS if group_ == group]

    def test_abbreviated_option_is_usage_error(self, capsys):
        # argparse's prefix matching once read --p as --p-b and passed
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "lhl", "--seeds", "4", "--seed", "1",
                  "--p", "0.7"])
        assert exc.value.code == 2
        assert "PASS" not in capsys.readouterr().out

    def test_every_parser_refuses_abbreviations(self):
        parsers, seen = [build_parser()], 0
        while parsers:
            parser = parsers.pop()
            assert parser.allow_abbrev is False, parser.prog
            seen += 1
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers += action.choices.values()
        # the root, one parser per command group and one per command
        groups = {group for group, *_ in _COMMANDS}
        assert seen == 1 + len(groups) + len(_COMMANDS)

    def test_main_parses_with_one_parser_per_process(self, capsys):
        # main reuses one parser; an option given in one call does not
        # carry over to the next, which gets the defaults of a fresh parser
        from usnc import cli
        parser = cli._parser()
        argv = ["attack", "binding", "--code", "even:14"]
        parser.parse_args(argv + ["--mode", "mc", "--trials", "7"])
        assert vars(parser.parse_args(argv)) == \
            vars(build_parser().parse_args(argv))
        assert run_cli(capsys, "rate", "point", "--p", "0.1", "--xia",
                       "0.4", "--xib", "0.4")[0] == 0
        assert cli._parser() is parser


def test_bounds_import_loads_no_numpy():
    # the closed-form bounds need only math: a fresh import of usnc.bounds
    # loads the package root and that module, and no numpy module
    src = str(pathlib.Path(usnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, usnc.bounds\n"
             "print(' '.join(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('usnc', 'numpy'))))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["usnc", "usnc.bounds"]


@pytest.mark.parametrize("argv", [
    ["bounds", "dc", "--n", "1000", "--eps", "0.1"],
    ["rate", "point", "--p", "0.1", "--xia", "0.469", "--xib", "0.469"]],
    ids=["bounds-eval", "rate-point"])
def test_closed_form_commands_load_no_numpy(argv):
    # cli imports each command's modules inside its handler: a fresh run
    # of a closed-form command loads the package root, bounds and cli, and
    # no numpy module
    src = str(pathlib.Path(usnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys\n"
             "from usnc.cli import main\n"
             "assert main(sys.argv[1:]) == 0\n"
             "print(' '.join(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('usnc', 'numpy'))))")
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, check=True)
    value, modules = done.stdout.splitlines()  # the command prints one line
    assert modules.split() == ["usnc", "usnc.bounds", "usnc.cli"]


def test_package_imports_only_its_runtime_dependencies():
    # every import statement of the package, at module level or inside a
    # function: none names scipy, and the top-level names outside the
    # standard library are exactly pyproject.toml's runtime dependencies
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parents[1]
    names = set()
    for path in (root / "src" / "usnc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    assert "scipy" not in names
    with open(root / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in
                dependencies}
    assert names - set(sys.stdlib_module_names) == declared
