"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsspack

SRC = str(Path(fsspack.__file__).resolve().parents[1])


@pytest.fixture
def fresh_python():
    """Runs a script in a new interpreter, under -W error, with this
    fsspack first on its path; returns its stdout.

    For checks on what a process imports or maps: this test process has
    imported scipy since the solver tests were collected.
    """

    def run(script: str, *args: str) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
