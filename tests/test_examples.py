"""Every example prints exactly its pinned output.

Each script under ``examples/`` runs in a subprocess and its stdout is
compared byte for byte with ``tests/data/examples/<name>.txt``.  That keeps
the code only the examples drive on a guarded path: mesh routing and the
controller's routed-frame branch (``mesh_attack.py``) and the inclusion
ceremonies (``inclusion_key_theft.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
PINNED = REPO_ROOT / "tests" / "data" / "examples"

#: Arguments per example: the paper reproduction runs a short horizon.
ARGS = {"reproduce_paper": ["0.25"]}


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_output_is_pinned(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.stem, [])],
        cwd=tmp_path, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (PINNED / f"{script.stem}.txt").read_bytes()
