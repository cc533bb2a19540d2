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
out); a failure shrinks to the earliest failing case. No command starts a
thread or a process, so no value can ask for many of them.
"""

import argparse
import contextlib
import io
import os
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli_golden import EXTRA, readme_commands, write_descriptors
from usnc.cli import build_parser, main

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
    commands = {tuple(argv[:1 if argv[0] == "attack" else 2])
                for argv in EXAMPLES}
    assert len(commands) == 13  # build_parser's 13 commands


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
