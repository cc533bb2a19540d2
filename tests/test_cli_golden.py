"""Golden stdout and exit codes of the README's CLI examples.

Every ``usnc ...`` line of the README's code blocks runs in a scratch
directory, and its stdout, the sha256 of each ``--out`` file and its exit
code must equal ``golden/cli_golden.txt`` byte for byte, rendered in a fresh
interpreter that refuses to import scipy. The completeness example runs at
20,000 trials instead of the README's 100,000, and the golden file adds one
Monte Carlo binding run, with its openings given as ``--x0`` and ``--x1``,
and one run of each bound the README shows no example of. Run this file as
a script to rewrite the golden file from the current code.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile

import usnc
from usnc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
GOLDEN = ROOT / "tests" / "golden" / "cli_golden.txt"
README_TRIALS, GOLDEN_TRIALS = "--trials 100000", "--trials 20000"
EXTRA = ["usnc attack binding --code even:14 --hash-m 1 --p 0.25 --eps 0.05 "
         "--x0 00000000000000 --x1 11111100000000 --spread 0.5 --mode mc "
         "--seed 3",
         "usnc bounds dh --n 8 --log-m 1 --log-c 7 --l-b 5.89572 --eps-b 0",
         "usnc bounds intersection --n 12 --p 0.25 --eps 0.125 --sigma 0.25"]


def readme_commands():
    """The README's example commands, continuations joined, at golden
    trial counts."""
    commands = []
    for block in re.findall(r"^```\n(.*?)^```", README.read_text(),
                            flags=re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            line = " ".join(line.split())
            if line.startswith("usnc "):
                commands.append(line.replace(README_TRIALS, GOLDEN_TRIALS))
    return commands


def render(commands) -> str:
    """Each command, its stdout, its ``--out`` file digests and exit code."""
    chunks = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
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


# Renders the golden commands in a fresh interpreter whose first finder
# refuses every scipy module: the package's runtime needs numpy alone.
NO_SCIPY_RENDER = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is not a runtime dependency: " + name)
        return None


sys.meta_path.insert(0, NoScipy())
from test_cli_golden import golden_commands, render
sys.stdout.write(render(golden_commands()))
"""


def test_readme_examples_print_golden_bytes():
    src = str(pathlib.Path(usnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "tests"), src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_RENDER], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render(readme_commands() + EXTRA))
    sys.stdout.write("wrote %s\n" % GOLDEN)
