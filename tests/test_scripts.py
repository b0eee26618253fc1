"""Smoke tests: the experiment scripts run to completion and report agreement."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_cross_validate_corpus():
    proc = run_script("cross_validate_corpus.py", "--quotients", "1")
    assert proc.returncode == 0, proc.stderr
    assert "all decider pairs agree" in proc.stdout


def test_find_tight_quotient():
    proc = run_script("find_tight_quotient.py", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert "brute == fast   True" in proc.stdout
    assert "locally stacked True" in proc.stdout
