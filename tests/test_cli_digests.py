"""The CLI's bytes, pinned in tier-1: every command of tools/cli_parity.py
run in-process through cli.main, checked against the digest table
tests/cli_digests.txt.

The table holds each command's exit code and the SHA-256 of its stdout
and stderr, and the SHA-256 of every file the commands write.  A change
that alters an output on purpose rewrites it with

    python tools/cli_parity.py --write-digests tests/cli_digests.txt src

which runs the same commands as `python -m halidon` subprocesses.
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from halidon.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import cli_parity  # noqa: E402

TABLE = Path(__file__).with_name("cli_digests.txt")


def run_in_process(cmds) -> list[tuple[int, bytes, bytes]]:
    """cli_parity.run's (exit code, stdout, stderr) per command, through
    cli.main in this process and the working directory."""
    results = []
    for _, argv in cmds:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusals
                code = exc.code
        results.append((code, out.getvalue().encode(), err.getvalue().encode()))
    return results


def differences(want: list[str], got: list[str], argvs: dict) -> list[str]:
    """One line per command or file whose digests differ, naming it and
    what differs, in the table's order."""
    def keyed(lines):
        # `ID CODE OUT ERR` for a command, `file NAME SHA` for a file
        return {
            " ".join(fields[:2]) if fields[0] == "file" else fields[0]: fields
            for fields in map(str.split, lines)
        }

    want, got = keyed(want), keyed(got)
    writers = {  # the command whose -o names a file or its directory
        value: cid
        for cid, argv in argvs.items()
        for flag, value in zip(argv, argv[1:])
        if flag in ("-o", "--output")
    }
    out = []
    for key in [*want, *(k for k in got if k not in want)]:
        old, new = want.get(key), got.get(key)
        if old == new:
            continue
        if new is None:
            what = "missing"
        elif old is None:
            what = "not in the table"
        elif key in argvs:
            parts = ("exit code", "stdout", "stderr")
            what = ", ".join(
                part for part, a, b in zip(parts, old[1:], new[1:]) if a != b
            )
        else:
            name = key.split(" ", 1)[1]
            writer = writers.get(name) or writers.get(os.path.dirname(name))
            what = f"contents, as written by {writer}"
        argv = " ".join(argvs.get(key, ()))[:100]
        out.append(f"{key} ({argv}): {what}" if argv else f"{key}: {what}")
    return out


def test_every_parity_command_matches_its_digests(tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith("HALIDON"):
            monkeypatch.delenv(name)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage by it
    monkeypatch.chdir(tmp_path)
    cmds = cli_parity.commands()
    cli_parity.write_inputs(tmp_path)
    results = run_in_process(cmds)
    got = cli_parity.digest_table(cmds, results, cli_parity.tree_files(tmp_path))
    want = TABLE.read_text().splitlines()
    problems = differences(want, got, dict(cmds))
    assert not problems, f"{len(problems)} differ from {TABLE.name}:\n" + (
        "\n".join(problems[:20])
    )


def test_a_changed_output_is_named():
    want = ["a 0 x y", "b 2 x y", "file out.txt z"]
    got = ["a 0 x y", "b 3 x w", "file out.txt q", "file new.txt r"]
    argvs = {"a": ["analyze", "7", "-o", "out.txt"], "b": ["conv"]}
    assert differences(want, got, argvs) == [
        "b (conv): exit code, stderr",
        "file out.txt: contents, as written by a",
        "file new.txt: not in the table",
    ]
