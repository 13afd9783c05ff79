"""Characterisation tests: the one-off commands' stdout, byte for byte.

Each case runs ``main([...])`` at a fixed seed and pins the sha256 of
what it prints, so any change to how ``run``, ``recovery`` (plain and
``--media``), ``cluster`` or ``trace-run`` build, run or report a
simulation shows up here.  On a mismatch the assertion message carries
the new output.
"""

import hashlib

import pytest

from repro.cli import main

CASES = {
    "run-force-clock-battery-dram": (
        ["run", "--scheme", "battery-dram", "--force", "--mm-policy",
         "clock", "--rate", "50", "--duration", "2", "--warmup", "1"],
        0, "93dab810f3448d00"),
    "run-nvem-small-buffer": (
        ["run", "--scheme", "nvem", "--rate", "100", "--duration", "2",
         "--warmup", "1", "--buffer-size", "500", "--seed", "3"],
        0, "9596d04a2b3db885"),
    "recovery": (
        ["recovery", "--rate", "30", "--interval", "5", "--duration", "20"],
        0, "594f9c62cd488218"),
    "recovery-media": (
        ["recovery", "--media", "--lose", "bt0", "--rate", "20",
         "--duration", "12", "--lose-at", "4"],
        0, "ba722c3a454481ca"),
    "recovery-media-mirrored-log": (
        ["recovery", "--media", "--scheme", "nvem", "--mirror", "--lose",
         "log:0", "--rate", "30", "--duration", "20"],
        0, "e09bb16d2ab607cf"),
    "recovery-media-unfinished": (
        ["recovery", "--media", "--rate", "20", "--duration", "3",
         "--lose-at", "4"],
        1, "c8ff1bb4088a3276"),
    "cluster-crash-restart": (
        ["cluster", "--nodes", "2", "--rate", "20", "--crash-at", "4",
         "--duration", "16"],
        0, "0aa949d8e1a5750e"),
    "cluster-disk-log": (
        ["cluster", "--nodes", "3", "--log", "disk", "--rate", "20",
         "--dist", "0.3", "--duration", "4", "--warmup", "1"],
        0, "45918e03684dcc82"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_off_command_stdout(name, capsys):
    argv, code, digest = CASES[name]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert _digest(captured.out) == digest, captured.out
    if code == 1:
        # A loss whose rebuild outlasts the window fails the command.
        assert captured.err == ("error: no media recovery completed "
                                "inside the window (raise --duration)\n")


def test_trace_run_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["trace-gen", "--out", "t.trace", "--transactions", "200",
                 "--accesses", "4000", "--seed", "9"]) == 0
    capsys.readouterr()
    assert main(["trace-run", "--trace", "t.trace", "--kind", "nvem",
                 "--mm", "200", "--second", "400", "--rate", "40",
                 "--duration", "5"]) == 0
    out = capsys.readouterr().out
    assert _digest(out) == "0791f7f640bf292d", out
