"""Each narrative script in ``demos/`` runs to the end and prints something.

A demo runs in a fresh interpreter with the package from ``src/`` and one
BLAS thread, as a reader would run it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_every_demo_is_collected():
    assert [p.name[:2] for p in DEMOS] == [f"{k:02d}" for k in range(1, 9)]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=env, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
