"""The README's examples run as written, and what it names exists.

A broken example, a renamed ``prank.<name>`` or test, or a timing quoted
without the test or benchmark command that reproduces it fails here, instead
of leaving the README stale.
"""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import prank
from prank.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(language):
    """The bodies of the README's ```language blocks, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.S | re.M)


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    (block,) = fenced("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert "coherence:" in capsys.readouterr().out


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    (block,) = [b for b in fenced("sh") if b.startswith("prank ")]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [args[0] for args in commands] == ["prank"] * 5
    monkeypatch.chdir(tmp_path)
    for args in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args[1:]) == 0, args


def test_readme_prank_names_resolve():
    names = sorted(set(re.findall(r"\bprank(?:\.[A-Za-z_]\w*)+", README)))
    assert "prank.apply_filter" in names
    for dotted in names:
        obj, path = prank, "prank"
        for part in dotted.split(".")[1:]:
            path += "." + part
            # a submodule nothing has imported yet, such as prank.cli, is not an attribute
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)


def test_readme_test_ids_exist():
    ids = sorted(set(re.findall(r"\b(tests/\w+\.py)::(\w+)", README)))
    assert ids
    for path, name in ids:
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), (path, name)


def test_readme_times_name_their_command():
    sentences = re.split(r"\.\s", README)
    timed = [s for s in sentences if re.search(r"\b\d+(\.\d+)?\s?(ms|µs|us|s)\b", s)]
    for sentence in timed:
        assert re.search(r"tests/\w+\.py::\w+|perfbench/run\.py", sentence), sentence

