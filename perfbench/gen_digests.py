#!/usr/bin/env python3
"""Regenerate ``expected_digests.json``: the default seed's item digests.

    python3 perfbench/gen_digests.py

All three tables are rebuilt from one code state and the file is
written from scratch.  Each table covers every item of one run.
Served digests are of the result bytes fetched from a live service, and
generation stops with an error unless they equal
``dumps_result_document(direct_document(spec))``, the in-process oracle.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import DEFAULT_SEED, DIGEST_FILE, sha256_text  # noqa: E402
from workloads import (  # noqa: E402
    CAMPAIGN_ITEMS,
    SERVED_JOBS,
    SESSION_ITEMS,
    Served,
    campaign_digest,
    campaign_items,
    run_campaign_item,
    run_session_item,
    served_specs,
    session_digest,
    session_items,
)

#: Items per table: the items of one run.
COUNTS = {"campaign": CAMPAIGN_ITEMS, "sessions": SESSION_ITEMS, "served": SERVED_JOBS}


def campaign_digests(count):
    items = campaign_items(DEFAULT_SEED)
    return [campaign_digest(run_campaign_item(next(items))) for _ in range(count)]


def session_digests(count):
    items = session_items(DEFAULT_SEED)
    return [session_digest(run_session_item(next(items))) for _ in range(count)]


def served_digests(count):
    from repro.serve.protocol import JOB_DONE
    from repro.serve.results import direct_document, dumps_result_document

    out_dir = os.path.join(os.path.dirname(HERE), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    service = Served(out_dir)
    digests = []
    try:
        specs = served_specs(DEFAULT_SEED)
        for _ in range(count):
            spec = next(specs)
            job_id = service.client.submit(spec).job_id
            oracle = dumps_result_document(direct_document(spec)).encode("utf-8")
            while service.client.status(job_id).state != JOB_DONE:
                time.sleep(0.01)
            body = service.client.result_bytes(job_id)
            if body != oracle:
                raise SystemExit(f"served bytes differ from the oracle for {spec}")
            digests.append(sha256_text(body))
    finally:
        service.stop()
    return digests


BUILDERS = {"campaign": campaign_digests, "sessions": session_digests, "served": served_digests}


def main() -> int:
    digests = {}
    for name, build in BUILDERS.items():
        start = time.perf_counter()
        digests[name] = build(COUNTS[name])
        print(f"{name}: {COUNTS[name]} digests in {time.perf_counter() - start:.1f}s")
    doc = {"seed": DEFAULT_SEED, "digests": digests}
    with open(DIGEST_FILE, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
