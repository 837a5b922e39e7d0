"""Serial == warm worker: a campaign's bytes do not depend on process history.

Stages 0-3 of position-sensitive mutation are compiled once per process
and shared by every later mutator, and each network key's ciphers (with
their CCM seal records) are shared by every S2/S0 context of that key, so
a served worker or a ``--workers N`` pool process runs its second job
against state the first job left.  This suite runs one campaign in a
fresh interpreter, the same campaign in an interpreter that first ran a
different one, and the same campaign twice in one interpreter, and
requires byte-identical ``campaign_to_wire`` documents (which carry the
campaign's ``mutation.*`` counters).
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
from repro.core import mutation
from repro.core.campaign import Mode, run_campaign
from repro.core.resultio import campaign_to_wire
from repro.security import kdf
from repro.wire import dumps_wire
from repro.zwave.registry import load_full_registry


def document():
    result = run_campaign(
        device="D1", mode=Mode.FULL, duration=1800.0, seed=0, scheduler="coverage"
    )
    return dumps_wire(campaign_to_wire(result))


if sys.argv[1] == "warm":
    run_campaign(device="D3", mode=Mode.BETA, duration=1800.0, seed=5)
    # The probe only means something if the first campaign left a table.
    assert mutation._COMPILED.get(load_full_registry()), "table still cold"
if sys.argv[1] == "twice":
    first = document()
    # The second run must reuse the first run's ciphers and seal records.
    assert kdf._derive.cache_info().currsize, "no S2 key derived"
    misses = kdf._derive.cache_info().misses
    second = document()
    assert kdf._derive.cache_info().misses == misses, "ciphers rebuilt"
    assert second == first, "second run in one process differs"
    sys.stdout.write(second)
else:
    sys.stdout.write(document())
"""


def _campaign_document(history):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, history],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_warm_process_matches_fresh_process():
    fresh = _campaign_document("fresh")
    assert '"mutation.generated"' in fresh
    assert _campaign_document("warm") == fresh


def test_campaign_twice_in_one_process_matches_fresh_process():
    assert _campaign_document("twice") == _campaign_document("fresh")
