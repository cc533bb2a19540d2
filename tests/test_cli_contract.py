"""The CLI contract on every option of every README example.

Each README example (and the golden file's Monte Carlo binding run) runs at
small sizes with one option replaced, or added, at a time: every option the
command's parser takes, except the file, mode and selector options and
``attack``'s ``--trials``, set to each value of ``VALUES`` in turn. A second
arm moves each such option out of argv into a ``--config`` file instead, set
to each value of ``CONFIG_VALUES``, so config values are read through the
same checks as flags. Every run must exit 0, 1 or 2 without a traceback, and
an exit of 2 prints exactly one ``error:`` line. The cases are fixed lists,
and derandomised hypothesis at ``max_examples = len(cases)`` visits each of
them once (it draws a choice it has not drawn before until the budget runs
out); a failure shrinks to the earliest failing case. A third arm moves each
option an example gives, but the two files, with the example's own value
into ``--config`` (and for ``attack`` into the descriptor): the exit code
and stdout must stay the example's. Each of the seven check commands'
README example, with its library result stubbed to a failing one, must
print its check's FAIL line last and exit 1. A file key that names no
option of its command, and an [n, n] code in any protocol command, exit 2
with one ``error:`` line. No command starts a thread or a process, so no
value can ask for many of them.
"""

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import os
import shlex

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli_golden import EXTRA, readme_commands, write_descriptors
from usnc.cli import _COMMANDS, build_parser, main
from usnc.gf2 import BitString, random_linear_code
from usnc.protocol import CommitConfig, run_honest, transcript_to_json

VALUES = ["0", "-1", "nan", "inf", "-inf", "1e300", str(10 ** 20), "junk",
          "0.5", "1", "2", "64", "65", str(10 ** 5)]
CONFIG_VALUES = ["inf", "-inf", "nan", "1.5", "junk", "-1", str(10 ** 20),
                 "1e300", "0"]
CONFIG_FILE = "probe.cfg"
# file, mode and selector options keep the example's value
KEPT = {"-h", "--strategy", "--transcript", "--mode", "--which", "--out",
        "--config"}
# README sizes -> small ones; attack --trials is kept, so it is set small
SMALL = [("--n 4096 --k 16 --target-d 1024 --hash-m 8",
          "--n 64 --k 8 --target-d 8 --hash-m 2"),
         ("--trials 20000", "--trials 2000"), ("--steps 60", "--steps 6"),
         ("intersection --n 12", "intersection --n 8"),
         ("--seeds 128", "--seeds 16"), ("clipped --n 10", "clipped --n 6"),
         ("simulate --n 1000", "simulate --n 100"),
         ("--mode mc --seed 3", "--mode mc --seed 3 --trials 2000")]


def small_examples():
    """The README examples plus the golden Monte Carlo run, at small sizes,
    as argv lists."""
    examples = []
    for command in readme_commands() + EXTRA:
        for readme, small in SMALL:
            command = command.replace(readme, small)
        examples.append(shlex.split(command)[1:])
    return examples


def probed_options(argv):
    """The options of argv's command in ``build_parser()``'s table that the
    probe replaces."""
    parser, words = build_parser(), list(argv)
    while True:
        sub = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
        if not sub:
            break
        parser = sub[0].choices[words.pop(0)]
    flags = [a.option_strings[0] for a in parser._actions if a.option_strings]
    return [flag for flag in flags if flag not in KEPT
            and not (argv[0] == "attack" and flag == "--trials")]


def renamed_out(argv):
    """argv with its --out file renamed, so the replay example's transcript
    stays the unmodified run's."""
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = "probe-" + argv[i]
    return argv


def with_value(argv, flag, value):
    """argv with ``flag`` set to ``value``."""
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return renamed_out(argv), None


def with_config(argv, flag, value):
    """argv without ``flag`` and reading ``CONFIG_FILE``, and that file's
    text, which sets ``flag``'s key to ``value``."""
    argv = list(argv)
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    return (renamed_out(argv + ["--config", CONFIG_FILE]),
            "%s = %s\n" % (flag[2:], value))


EXAMPLES = small_examples()
CASES = [(argv, flag, value) for argv in EXAMPLES
         for flag in probed_options(argv) for value in VALUES]
CONFIG_CASES = [(argv, flag, value) for argv in EXAMPLES
                for flag in probed_options(argv) for value in CONFIG_VALUES]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with the README descriptors and the transcript that the
    unmodified small examples write; each of them exits 0."""
    path = tmp_path_factory.mktemp("cli-contract")
    write_descriptors(path)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        for argv in EXAMPLES:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return path


def test_every_command_has_an_example():
    commands = {tuple(argv[:2]) for argv in EXAMPLES}
    assert commands == {(group, name) for group, name, *_ in _COMMANDS}


def probe(cases, arm, workdir):
    """Run every case once, as ``arm`` turns it into argv and config text,
    and check the exit code and stderr of each."""
    @settings(max_examples=len(cases), derandomize=True, database=None,
              deadline=None)
    @given(case=st.sampled_from(cases))
    def run(case):
        argv, config = arm(*case)
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            if config is not None:
                with open(CONFIG_FILE, "w") as fh:
                    fh.write(config)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        finally:
            os.chdir(cwd)
        err = err.getvalue()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, \
                (argv, config, err)

    run()


@pytest.mark.filterwarnings("ignore")
def test_one_option_at_a_time_exits_cleanly(workdir):
    probe(CASES, with_value, workdir)


@pytest.mark.filterwarnings("ignore")
def test_one_config_value_at_a_time_exits_cleanly(workdir):
    probe(CONFIG_CASES, with_config, workdir)


# the options naming the files; every other option may be given in one
FILES = ("--config", "--strategy")
MOVES = [(i, flag) for i, argv in enumerate(EXAMPLES) for flag in argv
         if flag.startswith("--") and flag not in FILES]


def run_quietly(workdir, argv):
    """Exit code, stdout and stderr of argv run in ``workdir``."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def readme_example(words):
    """The README example of the command ``words``, as argv."""
    return next(a for a in (shlex.split(c)[1:] for c in readme_commands())
                if a[:len(words)] == words)


@pytest.fixture(scope="module")
def expected(workdir):
    """Exit code and stdout of each unmodified small example."""
    return [run_quietly(workdir, argv)[:2] for argv in EXAMPLES]


@pytest.mark.parametrize("i, flag", MOVES, ids=[
    "%d-%s%s" % (i, "-".join(EXAMPLES[i][:2]), flag) for i, flag in MOVES])
def test_option_moved_into_a_file_keeps_the_output(workdir, expected, i,
                                                    flag):
    # the example's own value moved out of argv into --config, and for
    # attack into its descriptor too, is read as the flag was: one
    # resolution order for every option but the two files
    argv = list(EXAMPLES[i])
    at = argv.index(flag)
    line = "%s = %s\n" % (flag[2:], argv[at + 1])
    del argv[at:at + 2]
    with open(os.path.join(workdir, CONFIG_FILE), "w") as fh:
        fh.write(line)
    assert run_quietly(workdir, argv + ["--config", CONFIG_FILE])[:2] \
        == expected[i]
    if argv[0] == "attack":
        at = argv.index("--strategy") + 1
        with open(os.path.join(workdir, argv[at])) as fh:
            text = fh.read()
        argv[at] = "probe-descriptor.txt"
        with open(os.path.join(workdir, argv[at]), "w") as fh:
            fh.write(text + line)
        assert run_quietly(workdir, argv)[:2] == expected[i]


def replay(workdir, edit):
    """Exit code, stdout and stderr of the README's replay example on its
    transcript after ``edit`` changes the parsed JSON in place."""
    argv = next(a for a in EXAMPLES if a[:2] == ["commit", "replay"])
    where = argv.index("--transcript") + 1
    with open(os.path.join(workdir, argv[where])) as fh:
        obj = json.load(fh)
    edit(obj)
    name = os.path.join(workdir, "probe-lax.json")
    with open(name, "w") as fh:
        json.dump(obj, fh)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(err):
        code = main(argv[:where] + [name] + argv[where + 1:])
    return code, out.getvalue(), err.getvalue()


def setter(path, value):
    """An edit that sets the JSON value at ``path`` to ``value(old)``."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value(obj[path[-1]])
    return edit


def test_replay_refuses_lax_seed_payload_and_shapes(workdir):
    # the README's transcript with 50 bytes after its seed, or with a
    # float m or len that int() would truncate: each exits 2 with one error
    edits = [(("seed", "hex"), lambda hex_: hex_ + "00" * 50),
             (("seed", "m"), lambda m: 1.9),
             (("z", "len"), lambda nbits: nbits + 0.5)]
    for path, value in edits:
        code, out, err = replay(workdir, setter(path, value))
        assert (code, out) == (2, ""), path
        assert err.startswith("error: "), path
        assert err.count("\n") == 1, (path, err)


@pytest.mark.parametrize("path", [("z",), ("opening", "x"), ("seed",)],
                         ids=["z", "opening.x", "seed"])
def test_replay_refuses_set_padding_bit(workdir, path):
    # the README's hamming74 transcript: z and x hold 7 bits and the seed 4
    # in one byte each; setting the byte's last bit used to replay as acc
    def set_last_bit(hex_):
        raw = bytearray.fromhex(hex_)
        raw[-1] |= 1
        return raw.hex()

    code, out, err = replay(workdir, setter(path + ("hex",), set_last_bit))
    assert (code, out) == (2, "")
    assert err == "error: transcript field %s has padding bits set\n" \
        % ".".join(path)


def test_replay_error_line_is_short_at_n4096(workdir):
    # a non-integer len in an n = 4096 transcript's z names the field and
    # key; it used to print the field's whole 1,024-digit payload
    cfg = CommitConfig(code=random_linear_code(
        4096, 16, 1024, np.random.default_rng([7, 9000])), hash_m=8, p=0.1,
        eps=0.06)
    run = run_honest(BitString.zeros(8), cfg, np.random.default_rng(3))
    big = json.loads(transcript_to_json(run.transcript))
    assert len(big["z"]["hex"]) == 1024

    def edit(obj):
        obj.update(big)
        obj["z"]["len"] = 4096.5

    code, out, err = replay(workdir, edit)
    assert (code, out) == (2, "")
    assert err == "error: transcript field z: 'len' is not a nonnegative " \
        "integer\n"
    assert len(err) < 200


@pytest.mark.parametrize("edit, err", [
    (lambda obj: obj["opening"]["x"].pop("len"),
     "transcript field opening.x missing field 'len'"),
    (setter(("z",), lambda z: 5), "transcript field z is not a JSON object"),
    (setter(("mbar",), lambda mbar: [1]),
     "transcript field mbar is not a JSON object")],
    ids=["opening.x.len-deleted", "z-int", "mbar-list"])
def test_replay_names_the_path_of_a_wrong_shape(workdir, edit, err):
    # these printed "missing field 'len'", "'int' object is not
    # subscriptable" and "list indices must be integers or slices, not str"
    code, out, err_text = replay(workdir, edit)
    assert (code, out) == (2, "")
    assert err_text == "error: %s\n" % err


# each check command, its check line, and the library results stubbed to
# fail it: (module, function, the failing result's fields or the value)
FAILING = [
    ("commit complete", "completeness tail bound",
     [("protocol", "estimate_completeness",
       {"reject_rate": 1.0, "wilson_low": 1.0, "wilson_high": 1.0})]),
    ("attack binding", "double-opening success bound",
     [("adversary", "binding_success", 1.0)]),
    ("attack hiding", "view-distance bound",
     [("adversary", "hiding_advantage", 1.0)]),
    ("oracle intersection", "typical-set intersection bound",
     [("oracle", "verify_intersection_bound", {"passed": False})]),
    ("oracle lhl", "leftover-hash inequality",
     [("oracle", "lhl_check", {"lhs": 2.0, "rhs": 1.0})]),
    ("oracle clipped", "clipped-channel construction",
     [("oracle", "clipped_bsc_construction", {"tail": 1.0})]),
    ("nqs povm-verify", "measurement operator pair",
     [("nqs", "povm_verify", {"passed": False})]),
]


def failing(real, result):
    """``real`` with its result's fields replaced, or returning a value."""
    if isinstance(result, dict):
        return lambda *a, **kw: dataclasses.replace(real(*a, **kw), **result)
    return lambda *a, **kw: result


@pytest.mark.parametrize("command, check, stubs", FAILING,
                         ids=[c.replace(" ", "-") for c, _, _ in FAILING])
def test_failed_check_exits_1(tmp_path, monkeypatch, command, check, stubs):
    # the README example with a failing library result prints the FAIL
    # line last and exits 1, with nothing on stderr: the one signal that a
    # bound broke
    argv = readme_example(command.split())
    for module, name, result in stubs:
        module = importlib.import_module("usnc." + module)
        monkeypatch.setattr(module, name,
                            failing(getattr(module, name), result))
    write_descriptors(tmp_path)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code == 1
    assert out.getvalue().splitlines()[-1] == "%s: FAIL" % check
    assert err.getvalue() == ""


@pytest.mark.parametrize("edit, err", [
    # a typo used to run the README instance at spread 0.5 and print PASS
    (("spread = 0.5", "sprad = 0.1"), "--strategy key sprad"),
    (("weight = 6", "weigth = 6"), "--strategy key weigth"),
    (("kind = binding", "kind = binding\nconfig = x.cfg"),
     "--strategy key config")], ids=["sprad", "weigth", "config"])
def test_descriptor_key_naming_no_option_exits_2(tmp_path, edit, err):
    write_descriptors(tmp_path)
    desc = tmp_path / "binding.txt"
    text = desc.read_text()
    assert text.count(edit[0]) == 1
    desc.write_text(text.replace(*edit))
    code, out, err_text = run_quietly(tmp_path, readme_example(["attack"]))
    assert (code, out) == (2, "")
    assert err_text == "error: %s: not an option of this command\n" % err


@pytest.mark.parametrize("command, lines, key", [
    # a config file with these keys ran commit run unchanged, exit 0
    (["commit", "run"], "hashm = 9\nbogus = 1\n", "hashm"),
    (["commit", "run"], "bogus = 1\nhashm = 9\n", "bogus"),
    (["commit", "run"], "kind = binding\n", "kind"),
    (["rate", "point"], "steps = 5\n", "steps"),
    (["attack"], "sprad = 0.1\n", "sprad")],
    ids=["hashm-first", "bogus-first", "kind", "rate-point", "attack"])
def test_config_key_naming_no_option_exits_2(tmp_path, command, lines, key):
    write_descriptors(tmp_path)
    (tmp_path / "probe.cfg").write_text(lines)
    argv = readme_example(command) + ["--config", "probe.cfg"]
    code, out, err = run_quietly(tmp_path, argv)
    assert (code, out) == (2, "")
    assert err == "error: --config key %s: not an option of this command\n" \
        % key


def test_attack_files_may_name_the_kind(tmp_path):
    # attack's kind field stays legal in either file
    write_descriptors(tmp_path)
    argv = readme_example(["attack"])
    expected = run_quietly(tmp_path, argv)
    assert expected[0] == 0
    (tmp_path / "probe.cfg").write_text("kind = binding\n")
    assert run_quietly(tmp_path, argv + ["--config", "probe.cfg"]) == expected


def test_missing_descriptor_field_is_named_as_a_field(tmp_path):
    # "weigth = 6" left the field unset; the error named a --weight flag
    # that attack does not have
    write_descriptors(tmp_path)
    desc = tmp_path / "binding.txt"
    desc.write_text("".join(line for line in desc.read_text().splitlines(
        keepends=True) if not line.startswith("weight")))
    code, out, err = run_quietly(tmp_path, readme_example(["attack"]))
    assert (code, out) == (2, "")
    assert err == "error: missing required descriptor field weight\n"


@pytest.mark.parametrize("argv, lines, key", [
    # this file ran bounds eval at eps 0.2 and exited 0
    (["bounds", "eval", "--which", "dc"], "n = 1000\neps = 0.1\neps = 0.2\n",
     "eps"),
    (["commit", "run"], "hash-m = 1\nhash_m = 2\n", "hash_m")],
    ids=["eps", "dash-and-underscore"])
def test_config_key_given_twice_exits_2(tmp_path, argv, lines, key):
    (tmp_path / "probe.cfg").write_text(lines)
    if argv[0] == "commit":
        argv = readme_example(argv)
    code, out, err = run_quietly(tmp_path, argv + ["--config", "probe.cfg"])
    assert (code, out) == (2, "")
    assert err == "error: --config key %s: given more than once\n" % key


def test_descriptor_key_given_twice_exits_2(tmp_path):
    write_descriptors(tmp_path)
    desc = tmp_path / "binding.txt"
    desc.write_text(desc.read_text() + "spread = 0.1\n")
    code, out, err = run_quietly(tmp_path, readme_example(["attack"]))
    assert (code, out) == (2, "")
    assert err == "error: --strategy key spread: given more than once\n"


def test_bad_line_refused_before_a_repeated_key(tmp_path):
    (tmp_path / "probe.cfg").write_text("eps = 0.1\neps = 0.2\nno value\n")
    code, out, err = run_quietly(tmp_path, [
        "bounds", "eval", "--which", "dc", "--n", "10", "--config",
        "probe.cfg"])
    assert (code, out) == (2, "")
    assert err == "error: bad config line: 'no value'\n"


@pytest.mark.parametrize("flag, words", [("--config", ["commit", "run"]),
                                         ("--strategy", ["attack"])])
def test_file_flag_given_twice_exits_2(tmp_path, flag, words):
    # a second --config used to drop the first file unread
    write_descriptors(tmp_path)
    (tmp_path / "a.cfg").write_text("n = 7\n")
    argv = readme_example(words)
    path = "a.cfg" if flag == "--config" else "binding.txt"
    code, out, err = run_quietly(tmp_path, argv + [flag, path, flag, path])
    assert (code, out) == (2, "")
    assert err == "error: %s given more than once\n" % flag


def code_file(path, header, rows):
    path.write_text(header + "\n" + "".join(row + "\n" for row in rows))
    return str(path)


PROTOCOL_COMMANDS = [
    ["commit", "run", "--message", "1", "--seed", "3", "--out", "t.json"],
    ["commit", "replay", "--transcript", "t.json"],
    ["commit", "complete", "--trials", "1000", "--seed", "3"],
    ["attack", "binding", "--strategy", "square.txt"],
    ["attack", "hiding", "--strategy", "square.txt"]]


@pytest.mark.parametrize("argv", PROTOCOL_COMMANDS,
                         ids=["-".join(a[:2]) for a in PROTOCOL_COMMANDS])
def test_square_code_refused_by_every_protocol_command(tmp_path, argv):
    # an [n, n] code used to commit with an empty coset, and the replay of
    # that transcript failed on the empty bit string
    code = code_file(tmp_path / "square.code", "4 4",
                     ["1000", "0100", "0010", "0001"])
    (tmp_path / "t.json").write_text("{}")
    kind = argv[1] if argv[0] == "attack" else None
    own = {"binding": "weight = 1", "hiding": "p_b = 0.1"}.get(kind)
    (tmp_path / "square.txt").write_text(
        "kind = %s\ncode = %s\np = 0.1\neps = 0.1\n%s\n" % (kind, code, own))
    if kind is None:
        argv = argv + ["--code", code, "--hash-m", "1", "--p", "0.1",
                       "--eps", "0.1"]
    result = run_quietly(tmp_path, argv)
    assert result == (2, "", "error: an [n, n] code has no syndrome to name "
                      "a coset; the protocol needs k < n\n")


def test_one_check_bit_code_round_trips(tmp_path):
    # [4, 3] with distance 1: the coset is one bit, and replay reads it
    code = code_file(tmp_path / "c.code", "4 3", ["1000", "0101", "0011"])
    common = ["--code", code, "--hash-m", "2", "--p", "0.1", "--eps", "0.1"]
    flags = set()
    for seed in ("1", "2", "3"):
        code_run, out_run, err_run = run_quietly(tmp_path, [
            "commit", "run", "--message", "2", "--seed", seed,
            "--out", "t.json"] + common)
        assert (code_run, err_run) == (0, "")
        transcript = json.loads((tmp_path / "t.json").read_text())
        assert transcript["coset"]["len"] == 1
        flags.add(out_run.splitlines()[0])
        assert run_quietly(tmp_path, ["commit", "replay", "--transcript",
                                 "t.json"] + common) == (0, out_run, "")
    # the window at n = 4 is HD 0 only: seed 1 is accepted, seed 2 not
    assert flags == {"flag: acc", "flag: rej"}
