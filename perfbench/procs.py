"""Child processes of the benchmark: spawn one, wait for it, time it.

A child's output goes to files in the run's work directory. A child that
outlives ``timeout_s`` is killed, which shows as a non-zero exit code.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

CHILD_TIMEOUT_S = 150.0


@dataclass
class Finished:
    exit_code: int
    wall_s: float
    stdout: str
    stderr: str


class _Expired(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Expired


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]


def run_child(argv: Sequence[str], work_dir: Path, timeout_s: float = CHILD_TIMEOUT_S) -> Finished:
    """Run ``argv`` to completion and return its exit code, wall time and output."""
    out_path = work_dir / "child.out"
    err_path = work_dir / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], list(argv), child_env(), file_actions=actions)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status = os.waitpid(pid, 0)
        except _Expired:
            os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    return Finished(
        exit_code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )
