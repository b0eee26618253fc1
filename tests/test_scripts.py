"""The experiment scripts run to completion, report agreement and print the
recorded corpus."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_cross_validate_corpus():
    """The script's lines, timings stripped, as recorded in
    ``cross_validate_corpus.txt``: the corpus, its order and every verdict
    and scan count."""
    proc = run_script("cross_validate_corpus.py", "--quotients", "6")
    assert proc.returncode == 0, proc.stderr
    got = [re.sub(r" \(\d+\.\d+s\)$", "", line) for line in proc.stdout.splitlines()]
    assert got == (ROOT / "tests" / "cross_validate_corpus.txt").read_text().splitlines()


def test_find_tight_quotient():
    proc = run_script("find_tight_quotient.py", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert "brute == fast   True" in proc.stdout
    assert "locally stacked True" in proc.stdout
