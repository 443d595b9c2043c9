"""Each script runs to completion on a tiny problem against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["stability_scan.py", "--kmax", "2", "--n", "8", "--lambdas", "3",
     "--nu", "1", "--tau", "0.25"],
    ["boundedness_demo.py", "--n", "8", "--t-end", "0.01"],
], ids=lambda argv: argv[0])
def test_script_runs(argv, tmp_path):
    # from a plain checkout: each script finds src/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
