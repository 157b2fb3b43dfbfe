"""Each narrative script in ``demos/`` runs to the end and prints what it
printed when its output was last recorded, byte for byte.

A demo runs in a fresh interpreter with the package from ``src/`` and one
BLAS thread, as a reader would run it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
# sha256 of each demo's stdout at one BLAS thread, recorded with numpy 2.4.6 on
# x86-64 (another numpy or BLAS may move last digits)
GOLDEN_NUMPY = "2.4.6"
GOLDEN_STDOUT = {
    "01": "66284643f3a55a27a339348e57d1ded3d1ec0db8212e2d896e08d6b1be5d1dc3",
    "02": "7d9c556c4ba0cdd5b5317bbc44cdbd5fa9c9f87ce2a1241241de4f478386e974",
    "03": "8a2e5f50437191eeded1c5377b63c0d2f73b6e5bd47acee3cd2695e548962623",
    "04": "95449046f57a615d26e39cde48290693638adbd2c74d3f63cc98ae556d680983",
    "05": "89418d12ea880d36b6cc2e749f9b1bbb0caa4e374f7c102721f5e0f58d628ef5",
    "06": "ba95c6f7d8e45a9475e95df75666b2b57856a5002e9e19f6fa421c3fee2cb29d",
    "07": "ab6d4fbcef448d0d78ca1e10cbf0eadd9e0d1f3cde4c7baea8c3b6f7197457fd",
    "08": "eff86404c640e1ee9e034dd7fd8cb21fd71ca4a85685a3f7250373468b510e11",
}


def test_every_demo_is_collected():
    assert [p.name[:2] for p in DEMOS] == [f"{k:02d}" for k in range(1, 9)] \
        == sorted(GOLDEN_STDOUT)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         env=env, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.strip()
    assert hashlib.sha256(out.stdout).hexdigest() == GOLDEN_STDOUT[demo.name[:2]], \
        f"table recorded with numpy {GOLDEN_NUMPY}, running numpy {np.__version__}"
