"""Golden CLI output: the sha256 of stdout and the exit code of a fixed set of
commands, run in-process through `rankmax.cli.main`.

A change that should not alter what the CLI prints must leave every digest
as recorded in `golden_cli.json`.  After a deliberate output change, rewrite
the digests with

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change log which commands moved and why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from rankmax.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

COMMANDS = [
    ["verify", "--suite", "paper-all", "--max-k", "6", "--json"],
    ["verify", "--suite", "uniqueness"],
    *[["good-edges", *family, "--mode", mode, "--json"]
      for family in (["path", "-k", "4"], ["cycle", "-k", "4"],
                     ["joined", "-n", "5"],
                     ["multipartite", "--parts", "4", "3", "2"])
      for mode in ("oracle", "compare")],
    ["mu", "cycle", "-k", "4", "--oracle", "--json"],
    ["rank", "multipartite", "--parts", "5", "5", "5", "5"],
    ["generate", "joined", "-n", "4", "--json"],
    ["export", "cycle", "-k", "3", "--what", "good-edges", "--format", "dot"],
    ["good-edges", "path", "-k", "4", "--strict-paper"],
]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return {"argv": argv, "exit": code, "stdout_sha256": digest}


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict]:
    return {" ".join(e["argv"]): e for e in json.loads(GOLDEN.read_text())}


def test_every_recorded_command_is_run(recorded):
    assert list(recorded) == [" ".join(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_the_recorded_digest(argv, recorded):
    assert run(argv) == recorded[" ".join(argv)]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_out_file_holds_what_stdout_would(argv, recorded, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    assert capsys.readouterr().out == ""
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    expected = recorded[" ".join(argv)]
    assert (code, digest) == (expected["exit"], expected["stdout_sha256"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in COMMANDS], indent=1) + "\n")
