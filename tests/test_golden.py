"""The bytes the command line writes and prints, pinned.

Each case runs one command in-process, from a fresh working directory,
and compares one sha256 prefix over its standard output and every file it
writes under `out` (by sorted name) with the pin. The pins were taken
before the executor's step list existed; a change that moves one byte of
any of these outputs fails here.
"""

import contextlib
import hashlib
import io
import os

import pytest

from scampsim.cli import main

FRAMES = "{frames}"  # replaced by the directory of the `frames` fixture

# name: (argv, sha256 prefix of stdout and the files under out/)
CASES = {
    "gen-seed3": (["gen", "--seed", "3", "--n-train", "2", "--n-test", "1",
                   "--out", "out"], "442e09fb3b64402e"),
    "gen-seed11": (["gen", "--seed", "11", "--n-train", "1", "--n-test", "2",
                    "--rotation", "40", "--out", "out"], "1bbbf60aad2b1a75"),
    "infer-ideal": (["infer", "--images", FRAMES, "--check"], "cca5d91dde98c39a"),
    "infer-saturating": (["infer", "--images", FRAMES, "--check",
                          "--mode", "saturating"], "cca5d91dde98c39a"),
    "loop-1-servo": (["loop", "--frames", FRAMES, "--duration-us", "20000",
                      "--out", "out"], "7a0e53b9371da064"),
    "loop-5-servos-saturating-noise": (
        ["loop", "--frames", FRAMES, "--servos", "5", "--mode", "saturating",
         "--noise-sigma", "2", "--seed", "7", "--duration-us", "20000",
         "--out", "out"], "8c8bdf591c7afa83"),
    "bench": (["bench"], "a61a414f17fddcff"),
}


@pytest.fixture(scope="module")
def frames(tmp_path_factory):
    d = tmp_path_factory.mktemp("frames")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--seed", "5", "--n-train", "2", "--n-test", "1",
                     "--out", str(d)]) == 0
    return d


def outputs(argv: list[str]) -> list[tuple[str, bytes]]:
    """Run one command in the working directory: its stdout, then each file
    it wrote under out/, as (name, bytes) pairs."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert (code, stderr.getvalue()) == (0, "")
    found = [("stdout", stdout.getvalue().encode())]
    if os.path.isdir("out"):
        for name in sorted(os.listdir("out")):
            with open(os.path.join("out", name), "rb") as f:
                found.append((name, f.read()))
    return found


def digest(found: list[tuple[str, bytes]]) -> str:
    h = hashlib.sha256()
    for name, data in found:
        h.update(b"%s\0%d\0" % (name.encode(), len(data)))
        h.update(data)
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", CASES)
def test_output_keeps_its_bytes(case, frames, tmp_path, monkeypatch):
    argv, pin = CASES[case]
    monkeypatch.chdir(tmp_path)
    assert digest(outputs([str(frames) if a == FRAMES else a for a in argv])) == pin
