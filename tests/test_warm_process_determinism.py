"""Serial == warm worker: a campaign's bytes do not depend on process history.

Stages 0-3 of position-sensitive mutation are compiled once per process
and shared by every later mutator, so a served worker or a
``--workers N`` pool process runs its second job against a table the
first job filled.  This suite runs one campaign in a fresh interpreter,
and the same campaign in an interpreter that first ran a different one,
and requires byte-identical ``campaign_to_wire`` documents (which carry
the campaign's ``mutation.*`` counters).
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
from repro.core.resultio import campaign_to_wire, dumps_wire
from repro.zwave.registry import load_full_registry

if sys.argv[1] == "warm":
    run_campaign(device="D3", mode=Mode.BETA, duration=1800.0, seed=5)
    # The probe only means something if the first campaign left a table.
    assert mutation._COMPILED.get(load_full_registry()), "table still cold"
result = run_campaign(
    device="D1", mode=Mode.FULL, duration=1800.0, seed=0, scheduler="coverage"
)
sys.stdout.write(dumps_wire(campaign_to_wire(result)))
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
