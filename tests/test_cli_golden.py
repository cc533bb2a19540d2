"""Golden stdout and exit codes of the README's CLI examples.

Every ``usnc ...`` line of the README's code blocks runs in a scratch
directory that holds the README's two strategy descriptors, and its stdout,
the sha256 of each ``--out`` file and its exit code must equal
``golden/cli_golden.txt`` byte for byte. The completeness example runs at
20,000 trials instead of the README's 100,000, and the golden file adds one
Monte Carlo binding run. Run this file as a script to rewrite the golden
file from the current code.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import re
import shlex
import sys
import tempfile

from usnc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
GOLDEN = ROOT / "tests" / "golden" / "cli_golden.txt"
README_TRIALS, GOLDEN_TRIALS = "--trials 100000", "--trials 20000"
EXTRA = ["usnc attack binding --strategy binding.txt --mode mc --seed 3"]


def _readme_blocks():
    return re.findall(r"^```\n(.*?)^```", README.read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def readme_commands():
    """The README's example commands, continuations joined, at golden
    trial counts."""
    commands = []
    for block in _readme_blocks():
        for line in block.replace("\\\n", " ").splitlines():
            line = " ".join(line.split())
            if line.startswith("usnc "):
                commands.append(line.replace(README_TRIALS, GOLDEN_TRIALS))
    return commands


def write_descriptors(directory: pathlib.Path) -> None:
    """The README's descriptor blocks as ``<kind>.txt`` files."""
    for block in _readme_blocks():
        if block.startswith("kind = "):
            kind = block.split("\n", 1)[0].split("=", 1)[1].strip()
            (directory / ("%s.txt" % kind)).write_text(block)


def render(commands) -> str:
    """Each command, its stdout, its ``--out`` file digests and exit code."""
    chunks = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_descriptors(pathlib.Path(tmp))
        os.chdir(tmp)
        try:
            for command in commands:
                argv = shlex.split(command)[1:]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                chunks.append("$ %s\n%s" % (command, out.getvalue()))
                for i, arg in enumerate(argv[:-1]):
                    if arg == "--out":
                        digest = hashlib.sha256(
                            pathlib.Path(argv[i + 1]).read_bytes()).hexdigest()
                        chunks.append("sha256 %s %s\n" % (argv[i + 1], digest))
                chunks.append("exit %d\n" % code)
        finally:
            os.chdir(cwd)
    return "".join(chunks)


def golden_commands():
    return [line[2:] for line in GOLDEN.read_text().splitlines()
            if line.startswith("$ usnc ")]


def test_golden_covers_every_readme_example():
    assert set(golden_commands()) == set(readme_commands() + EXTRA)


def test_readme_examples_print_golden_bytes():
    assert render(golden_commands()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render(readme_commands() + EXTRA))
    sys.stdout.write("wrote %s\n" % GOLDEN)
