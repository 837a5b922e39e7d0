"""A long-running service keeps its memory and its log bounded.

:func:`serve_history` runs *count* small jobs through one in-process
service over real HTTP, fetching each result as a client would, and
checks what the service keeps once they are done:

* at most :data:`~repro.serve.checkpoint.RESULT_CACHE_JOBS` document texts
  are held in memory;
* the memory retained per finished job (tracemalloc, measured after a
  warm-up batch) is less than one job's own document;
* the write-ahead log holds ``unit`` lines of fewer than
  :data:`~repro.serve.service.COMPACT_EVERY_JOBS` jobs, and so stays a
  few hundred bytes per finished job.

The suite runs 400 jobs; CI's serve-smoke job runs the full 2,000 with::

    PYTHONPATH=src python tests/test_serve_history.py 2000
"""

import gc
import json
import os
import sys
import tracemalloc

from repro.serve.checkpoint import RESULT_CACHE_JOBS
from repro.serve.client import ServeClient
from repro.serve.protocol import JOB_DONE, JobSpec
from repro.serve.service import COMPACT_EVERY_JOBS, ServiceThread

#: Jobs submitted together; each batch is fetched before the next starts.
BATCH = 20

#: Log bytes one finished job may keep: its ``job`` and ``done`` lines.
WAL_BYTES_PER_JOB = 700


def small_spec(seed: int) -> JobSpec:
    """A one-unit job that runs in milliseconds."""
    return JobSpec(kind="sessions", device="D1", seed=seed, trials=1, flows=("inclusion",))


def serve_history(checkpoint: str, count: int) -> dict:
    """Serve *count* small jobs and return what the service kept."""
    handle = ServiceThread(workers=1, port=0, checkpoint_path=checkpoint).start()
    try:
        client = ServeClient(port=handle.port)
        document_bytes = 0

        def run(first: int, last: int) -> None:
            nonlocal document_bytes
            job_ids = [client.submit(small_spec(seed)).job_id for seed in range(first, last)]
            for job_id in job_ids:
                assert client.wait(job_id, timeout=120.0, poll=0.01).state == JOB_DONE
                document_bytes = max(document_bytes, len(client.result_bytes(job_id)))

        run(0, BATCH)  # the worker is forked before tracing starts
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for first in range(BATCH, count, BATCH):
                run(first, min(count, first + BATCH))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        service = handle.service
        texts = [
            value
            for record in service.queue.all_records()
            for value in vars(record).values()
            if isinstance(value, str) and len(value) >= document_bytes // 2
        ]
        return {
            "jobs": count,
            "cached": len(service.results._cache),
            "record_texts": len(texts),
            "retained_per_job": retained / (count - BATCH),
            "document_bytes": document_bytes,
        }
    finally:
        handle.stop(drain=True)


def check_history(checkpoint: str, count: int) -> dict:
    """Serve *count* jobs and assert the bounds; returns the measurements."""
    kept = serve_history(checkpoint, count)
    assert kept["cached"] <= RESULT_CACHE_JOBS
    assert kept["record_texts"] == 0
    assert kept["retained_per_job"] < kept["document_bytes"], kept
    with open(checkpoint, encoding="utf-8") as handle:
        records = [json.loads(line)["record"] for line in handle]
    kept["wal_bytes"] = os.path.getsize(checkpoint)
    kept["jobs_with_units"] = len({r["job_id"] for r in records if r["kind"] == "unit"})
    assert kept["jobs_with_units"] < COMPACT_EVERY_JOBS
    assert kept["wal_bytes"] <= count * WAL_BYTES_PER_JOB, kept
    return kept


def test_history_stays_bounded(tmp_path):
    check_history(os.fspath(tmp_path / "serve.ckpt"), 400)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        print(json.dumps(check_history(os.path.join(directory, "serve.ckpt"), int(sys.argv[1]))))
