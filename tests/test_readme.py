"""README's examples run: each ``invalg`` line of its shell blocks through
``cli.main`` (pipes stripped, ``--out`` pointed into a temporary directory)
exits 0, and the Library tour prints what its comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from invalg.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


COMMANDS = [line.split("#")[0].split("|")[0].strip()
            for block in _blocks("sh") for line in block.splitlines()
            if line.startswith("invalg ")]


def test_examples_found():
    assert len(COMMANDS) == 8
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("line", COMMANDS)
def test_shell_example_exits_0(line, tmp_path):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    else:
        argv += ["--out", str(tmp_path / "out.json")]
    assert main(argv) == 0


def test_library_tour_prints_its_comments():
    (block,) = _blocks("python")
    printed = [line.partition("#")[2].strip() or None
               for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(printed)
    assert all(want is None or got == want for got, want in zip(lines, printed))
