"""Every request in golden_stdout.json prints the stdout and exit code it did.

The file maps each `gghs` argv to its exit code and the SHA-256 of its stdout;
make_golden_stdout.py regenerates it. The requests run in-process through
`gghs.cli.main`, in a directory that holds the file's input files; one
request per subcommand and one per error code also run through the real
entry point, `python -m gghs.cli`, each as its own process. The
digests are those of the numpy and BLAS the file was generated with: a
different numpy or BLAS may move a last rendered digit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import cli_stdout, entry_stdout

GOLDEN = json.loads(Path(__file__).with_name("golden_stdout.json").read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def golden_files(tmp_path, monkeypatch):
    """A working directory that holds the input files of the requests."""
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def test_stdout_matches_the_golden_digests(golden_files):
    changed = []  # (request line, stdout now) of every request that moved
    for want in GOLDEN["requests"]:
        code, out = cli_stdout(want["argv"])
        if (code, sha256(out)) != (want["exit"], want["sha256"]):
            changed.append((f"gghs {' '.join(want['argv'])}: exit {code} (golden {want['exit']})", out))
    if changed:
        pytest.fail(
            f"{len(changed)} of {len(GOLDEN['requests'])} requests changed:\n"
            + "\n".join(line for line, _ in changed)
            + f"\nstdout of the first now:\n{changed[0][1]}"
        )


def test_the_entry_point_prints_the_golden_bytes(golden_files):
    # The first request of each subcommand that answers, and of each error
    # code (read in-process); the entry point exits through its own path.
    picked = {}
    for want in GOLDEN["requests"]:
        key = want["argv"][0] if want["exit"] == 0 else json.loads(cli_stdout(want["argv"])[1])["error"]
        picked.setdefault(key, want)
    assert len(picked) == 9 + 18
    for want in picked.values():
        code, out = entry_stdout(want["argv"])
        assert (code, sha256(out)) == (want["exit"], want["sha256"]), want["argv"]


def test_readme_states_the_request_count():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"`tests/test_golden_stdout.py` replays {len(GOLDEN['requests'])} CLI requests" in readme
