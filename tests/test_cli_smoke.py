"""``tools/cli_smoke.py`` as a test: its 23 CLI stages (exact verify,
source-pure shards, a typed hive layout and a string filter on it,
z-order clustered resume, ``optimize``, resumable exports) run in a
subprocess under a timeout and leave no process behind."""

import os
import signal
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _session(sid: int) -> list[int]:
    """Live processes of session ``sid`` (the smoke and every process
    it started, Ray's included)."""
    pids = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                if os.getsid(int(d)) == sid:
                    pids.append(int(d))
            except OSError:
                pass
    return pids


def _kill(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def test_cli_smoke(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, os.path.join(REPO, "tools", "cli_smoke.py"),
         str(tmp_path / "smoke")],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=900)
    except subprocess.TimeoutExpired:
        _kill(_session(proc.pid))
        out, _ = proc.communicate()
        pytest.fail("cli_smoke timed out:\n" + out[-6000:])
    # whatever stays in the smoke's session (a Ray process a verb did
    # not stop) leaked from the run; a stopped Ray session takes a few
    # seconds to exit
    deadline = time.monotonic() + 30
    while _session(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.5)
    left = _session(proc.pid)
    _kill(left)
    # cli_smoke prints the failing verb's stdout and stderr
    assert proc.returncode == 0, out[-6000:]
    assert out.count("PASS ") == 23, out[-6000:]
    assert '"smoke": "ok"' in out, out[-6000:]
    assert not left, f"processes left behind: {left}"
