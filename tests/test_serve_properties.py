"""Property suite for the job-service protocol layer (~300 seeded cases).

Everything here is pure protocol — codecs, ids, queue, checkpoint — so
hundreds of cases run in well under a second; no campaign is ever
executed.  The properties:

* **wire fixpoint** — ``jobspec_from_wire(jobspec_to_wire(s)) == s`` and
  the serialised text is a fixpoint of one more round trip (same for
  :class:`JobStatus`);
* **content-addressed identity** — equal specs share a job id, the
  seeded corpus of distinct specs gets distinct ids, duplicate
  submission (including threaded) creates exactly one job, and a
  different spec with a taken id is refused;
* **queue-order determinism** — sequence tickets are a permutation of
  ``0..n-1`` and ``next_queued`` walks them in order, however many
  threads raced on submission;
* **checkpoint prefix stability** — every durable prefix of the log
  loads back verbatim, a torn/corrupt tail truncates cleanly at the
  damage, and replay folds records into per-job state last-wins;
* **compaction** — the log loses the ``unit`` lines of finished jobs and
  keeps every other line byte for byte;
* **result trust** — a stored document is served only if it parses and
  names its job, spec, schema and wire version; the LRU keeps the most
  recently used texts;
* **wire-version rejection** — every decoder distinguishes newer /
  missing / stale versions structurally.

The seed-0 corner of all of this is pinned byte-for-byte in
``tests/data/serve_golden.json``; regenerate after an intentional
protocol change with::

    PYTHONPATH=src:tests python -c \
        "import test_serve_properties as t; t.write_golden()"
"""

import hashlib
import json
import os
import random
import threading
from contextlib import closing
from pathlib import Path

import pytest

from repro.core.parallel import CampaignUnit, rehydrate_unit_result
from repro.core.resultio import (
    campaign_from_wire,
    jobspec_from_wire,
    jobspec_to_wire,
    jobstatus_from_wire,
    jobstatus_to_wire,
    session_from_wire,
)
from repro.core.session import FLOWS
from repro.serve.checkpoint import (
    CheckpointWriter,
    DoneLine,
    JobLine,
    ResultStore,
    UnitLine,
    done_record,
    encode_line,
    job_record,
    load_prefix,
    replay_checkpoint,
    trusted_document,
    unit_record,
)
from repro.serve.jobs import JobIdCollision, JobQueue, JobRecord
from repro.serve.protocol import (
    JOB_DONE,
    JOB_KINDS,
    JOB_STATES,
    MAX_HOURS,
    MAX_TRIALS,
    JobSpec,
    JobStatus,
    SpecError,
    job_id_for,
    spec_key,
    valid_transition,
    validate_spec,
)
from repro.simulator.testbed import CONTROLLER_IDS
from repro.wire import WIRE_VERSION, WireVersionError, dumps_wire, encode


def vfuzz_from_wire(data):
    """A vfuzz unit's wire result, decoded as the executor decodes it."""
    return rehydrate_unit_result(CampaignUnit(kind="vfuzz"), data)


GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "serve_golden.json"
SCHEMA = "zcover.serve-golden/v1"

N_SPECS = 120
N_STATUSES = 60
N_CHECKPOINTS = 40


#: The kinds the random spec corpus draws from.  The seed-0 corpus job ids
#: are pinned in serve_golden.json, so the draw stays on the kinds that
#: existed when they were pinned; ablation and compare specs have their
#: own cases below.
CORPUS_KINDS = ("trials", "sessions", "chaos")

#: Two valid specs whose CRC-32 job ids collide, found by brute force
#: over seeds and trial counts.
COLLIDING_SPECS = (
    JobSpec(kind="sessions", device="D1", seed=926574, trials=4524, flows=("inclusion",)),
    JobSpec(kind="sessions", device="D1", seed=465047, trials=7068, flows=("inclusion",)),
)


def random_spec(rng):
    """One valid random spec (the generator behind most properties)."""
    kind = rng.choice(CORPUS_KINDS)
    flows = ()
    fault_plan = None
    if kind == "sessions":
        count = rng.randrange(0, len(FLOWS) + 1)
        flows = tuple(sorted(rng.sample(FLOWS, count)))
    else:
        fault_plan = rng.choice((None, "canonical", "lossy", "flaky"))
    if kind == "chaos" and fault_plan is None:
        fault_plan = "canonical"
    return JobSpec(
        kind=kind,
        device=rng.choice(CONTROLLER_IDS),
        mode=rng.choice(("full", "beta", "gamma")),
        seed=rng.randrange(0, 10_000),
        trials=rng.choice((None, 1, 2, 5, 24)),
        hours=rng.choice((0.05, 0.5, 1.0, 24.0)),
        scheduler=rng.choice(("static", "coverage")),
        fault_plan=fault_plan,
        flows=flows,
    )


def spec_corpus(seed=0, count=N_SPECS):
    """The seeded spec corpus shared by several properties."""
    rng = random.Random(seed)
    return [random_spec(rng) for _ in range(count)]


def random_status(rng):
    """One random (not necessarily reachable) status for codec testing."""
    counters = {
        f"c.{rng.randrange(100)}": rng.randrange(1_000_000)
        for _ in range(rng.randrange(0, 6))
    }
    return JobStatus(
        job_id=f"job-{rng.randrange(2**32):08x}",
        state=rng.choice(JOB_STATES),
        kind=rng.choice(JOB_KINDS),
        device=rng.choice(CONTROLLER_IDS),
        seed=rng.randrange(0, 10_000),
        sequence=rng.randrange(0, 1_000),
        units_total=rng.randrange(0, 50),
        units_done=rng.randrange(0, 50),
        error=rng.choice(("", "CampaignError: boom")),
        counters=counters,
    )


class TestSpecCodec:
    def test_round_trip_is_identity(self):
        for spec in spec_corpus():
            assert jobspec_from_wire(jobspec_to_wire(spec)) == spec

    def test_serialised_text_is_a_fixpoint(self):
        for spec in spec_corpus(seed=1):
            text = dumps_wire(jobspec_to_wire(spec))
            again = dumps_wire(jobspec_to_wire(jobspec_from_wire(json.loads(text))))
            assert again == text

    def test_corpus_is_valid(self):
        for spec in spec_corpus(seed=2):
            validate_spec(spec)  # must not raise

    def test_status_round_trip_is_identity(self):
        rng = random.Random(3)
        for _ in range(N_STATUSES):
            status = random_status(rng)
            assert jobstatus_from_wire(jobstatus_to_wire(status)) == status


class TestJobIdentity:
    def test_equal_specs_share_an_id(self):
        for spec in spec_corpus(seed=4, count=40):
            clone = JobSpec(**{
                "kind": spec.kind,
                "device": spec.device,
                "mode": spec.mode,
                "seed": spec.seed,
                "trials": spec.trials,
                "hours": spec.hours,
                "scheduler": spec.scheduler,
                "fault_plan": spec.fault_plan,
                "flows": tuple(spec.flows),
            })
            assert job_id_for(clone) == job_id_for(spec)

    def test_distinct_specs_get_distinct_ids(self):
        corpus = {spec_key(spec): spec for spec in spec_corpus(seed=5)}
        ids = {job_id_for(spec) for spec in corpus.values()}
        assert len(ids) == len(corpus)

    def test_colliding_specs_are_refused(self):
        """A different spec with a taken job id is refused, not handed the
        other job's record; the first spec still joins its own job."""
        first, second = COLLIDING_SPECS
        assert first != second
        assert job_id_for(first) == job_id_for(second) == "job-fe4e7079"
        for spec in COLLIDING_SPECS:
            validate_spec(spec)
        queue = JobQueue()
        record, _ = queue.submit(first)
        with pytest.raises(JobIdCollision) as excinfo:
            queue.submit(second)
        assert excinfo.value.job_id == record.job_id
        assert queue.submit(first) == (record, False)
        assert queue.all_records() == [record]

    def test_post_answers_a_collision_with_409(self):
        from repro.serve.service import ZCoverService

        service = ZCoverService()
        bodies = [dumps_wire(jobspec_to_wire(spec)).encode("utf-8") for spec in COLLIDING_SPECS]
        assert service._post_job(bodies[0])[0] == 201
        status, reply, _ = service._post_job(bodies[1])
        assert (status, json.loads(reply)) == (
            409, {"error": {"kind": "job-id-collision", "job_id": "job-fe4e7079"}}
        )
        assert service._post_job(bodies[0])[0] == 200

    def test_stored_result_of_a_colliding_spec_is_not_trusted(self):
        first, second = COLLIDING_SPECS
        job_id = job_id_for(first)
        text = json.dumps({
            "schema": "zcover-serve-result",
            "schema_version": 1,
            "job_id": job_id,
            "spec": jobspec_to_wire(second),
        })
        assert trusted_document(text, job_id, second)
        assert not trusted_document(text, job_id, first)

    def test_duplicate_submission_creates_one_job(self):
        queue = JobQueue()
        spec = spec_corpus(seed=6, count=1)[0]
        first, created_first = queue.submit(spec)
        second, created_second = queue.submit(spec)
        assert created_first and not created_second
        assert second is first
        assert len(queue.all_records()) == 1


class TestQueueOrder:
    def test_tickets_are_a_permutation_in_arrival_order(self):
        queue = JobQueue()
        corpus = {spec_key(s): s for s in spec_corpus(seed=7)}.values()
        records = [queue.submit(spec)[0] for spec in corpus]
        assert [r.sequence for r in records] == list(range(len(records)))
        assert queue.all_records() == records

    def test_next_queued_walks_ticket_order(self):
        queue = JobQueue()
        corpus = list({spec_key(s): s for s in spec_corpus(seed=8, count=20)}.values())
        for spec in corpus:
            queue.submit(spec)
        drained = []
        while True:
            record = queue.next_queued()
            if record is None:
                break
            record.advance("running")
            record.advance("done")
            drained.append(record.sequence)
        assert drained == list(range(len(corpus)))

    def test_queue_calls_visit_only_queued_records(self, monkeypatch):
        """With 2,000 finished records and three queued, ``next_queued`` and
        ``depth`` read the state of at most the queued ones."""
        queue = JobQueue()
        for seed in range(2000):
            record, created = queue.submit(JobSpec(seed=seed, trials=1, hours=0.05))
            assert created
            record.advance("running")
            record.advance("done")
        waiting = [queue.submit(JobSpec(seed=-seed, trials=2))[0] for seed in range(1, 4)]
        visited = []

        def read_state(record):
            visited.append(record.job_id)
            return record.__dict__["state"]

        def write_state(record, value):
            record.__dict__["state"] = value

        monkeypatch.setattr(
            JobRecord, "state", property(read_state, write_state), raising=False
        )
        assert queue.next_queued() is waiting[0]
        assert len(visited) <= len(waiting)
        visited.clear()
        assert queue.depth() == len(waiting)
        assert len(visited) <= len(waiting)

    def test_requeued_record_keeps_its_ticket_place(self):
        queue = JobQueue()
        records = [queue.submit(spec)[0] for spec in spec_corpus(seed=15, count=4)]
        for record in records[:2]:
            record.advance("running")
        assert queue.next_queued() is records[2]
        records[1].advance("queued")  # a drain re-queues it
        assert queue.next_queued() is records[1]
        records[0].advance("done")
        records[0].advance("queued")  # its stored result was lost
        assert queue.next_queued() is records[0]
        assert queue.depth() == 4

    def test_threaded_submission_is_deterministic_per_spec(self):
        """However threads race, each distinct spec gets exactly one job
        and tickets still form a permutation of 0..n-1."""
        queue = JobQueue()
        corpus = list({spec_key(s): s for s in spec_corpus(seed=9, count=30)}.values())
        created_flags = []

        def submit_all(specs):
            for spec in specs:
                created_flags.append(queue.submit(spec)[1])

        threads = [
            threading.Thread(target=submit_all, args=(corpus,)) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = queue.all_records()
        assert len(records) == len(corpus)
        assert sum(created_flags) == len(corpus)
        assert sorted(r.sequence for r in records) == list(range(len(corpus)))

    def test_state_machine_rejects_illegal_transitions(self):
        assert valid_transition("queued", "running")
        assert valid_transition("running", "queued")  # drain re-queues
        assert not valid_transition("queued", "done")
        assert not valid_transition("done", "running")
        assert valid_transition("done", "queued")  # a lost result runs again
        assert not valid_transition("failed", "queued")


class TestSpecValidation:
    @pytest.mark.parametrize(
        "spec, field",
        [
            (JobSpec(kind="nope"), "kind"),
            (JobSpec(device="D99"), "device"),
            (JobSpec(mode="FULL"), "mode"),
            (JobSpec(seed=True), "seed"),
            (JobSpec(trials=0), "trials"),
            (JobSpec(hours=0.0), "hours"),
            (JobSpec(scheduler="greedy"), "scheduler"),
            (JobSpec(fault_plan="/etc/passwd"), "fault_plan"),
            (JobSpec(kind="chaos"), "fault_plan"),
            (JobSpec(kind="trials", flows=("inclusion",)), "flows"),
            (JobSpec(kind="sessions", flows=("warp",)), "flows"),
            (JobSpec(kind="sessions", flows=("s0", "s0")), "flows"),
        ],
    )
    def test_each_field_rejects_structurally(self, spec, field):
        with pytest.raises(SpecError) as excinfo:
            validate_spec(spec)
        assert excinfo.value.field == field
        assert excinfo.value.reason

    @pytest.mark.parametrize(
        "spec, message",
        [
            (JobSpec(mode="FULL"), "mode: unknown mode 'FULL'; expected one of "
             "('full', 'beta', 'gamma')"),
            (JobSpec(scheduler="greedy"), "scheduler: unknown scheduler 'greedy'; "
             "expected one of ('static', 'coverage')"),
            (JobSpec(fault_plan="x"), "fault_plan: unknown fault plan 'x'; expected one of "
             "('canonical', 'lossy', 'flaky')"),
        ],
        ids=["mode", "scheduler", "fault_plan"],
    )
    def test_vocabulary_messages_are_stable(self, spec, message):
        """The name lists come from their owners (Mode, SCHEDULERS,
        STOCK_PLANS); the messages a client sees keep their bytes."""
        with pytest.raises(SpecError) as excinfo:
            validate_spec(spec)
        assert str(excinfo.value) == message


#: Specs of the ablation and compare kinds that validation must reject,
#: with the field each rejection names.
BAD_EXPERIMENT_SPECS = [
    (JobSpec(kind="compare", hours=0.05), "devices"),
    (JobSpec(kind="compare", device="D2", devices=("D2", "D1")), "devices"),
    (JobSpec(kind="compare", devices=("D1", "D1")), "devices"),
    (JobSpec(kind="compare", devices=("D1", "D99")), "devices"),
    (JobSpec(kind="compare", device="D2", devices=("D1", "D2")), "device"),
    (JobSpec(kind="compare", devices=("D1",), trials=2), "trials"),
    (JobSpec(kind="trials", devices=("D1",)), "devices"),
    (JobSpec(kind="ablation", devices=("D1",)), "devices"),
    (JobSpec(kind="ablation", trials=2), "trials"),
    (JobSpec(kind="ablation", mode="beta"), "mode"),
    (JobSpec(kind="ablation", flows=("s0",)), "flows"),
]
BAD_EXPERIMENT_IDS = [
    "compare-no-devices",
    "compare-unsorted",
    "compare-duplicate",
    "compare-unknown",
    "compare-device-not-first",
    "compare-trials",
    "trials-devices",
    "ablation-devices",
    "ablation-trials",
    "ablation-mode",
    "ablation-flows",
]


class TestExperimentSpecs:
    """The ablation and compare kinds: validation and the elided field."""

    def test_valid_experiment_specs_pass(self):
        validate_spec(JobSpec(kind="ablation", scheduler="coverage", fault_plan="flaky"))
        validate_spec(JobSpec(kind="compare", device="D2", devices=("D2", "D5")))

    @pytest.mark.parametrize("spec, field", BAD_EXPERIMENT_SPECS, ids=BAD_EXPERIMENT_IDS)
    def test_post_rejects_with_the_field(self, spec, field):
        from repro.serve.service import ZCoverService

        body = dumps_wire(jobspec_to_wire(spec)).encode("utf-8")
        status, reply, _ = ZCoverService()._post_job(body)
        error = json.loads(reply)["error"]
        assert (status, error["kind"], error["field"]) == (400, "spec", field)

    def test_wire_without_devices_round_trips_to_the_same_bytes(self):
        for spec in spec_corpus(seed=14, count=40):
            text = dumps_wire(jobspec_to_wire(spec))
            assert '"devices"' not in text
            decoded = jobspec_from_wire(json.loads(text))
            assert decoded.devices == ()
            assert dumps_wire(jobspec_to_wire(decoded)) == text

    def test_devices_ride_the_wire_and_the_job_id(self):
        one = JobSpec(kind="compare", devices=("D1",))
        two = JobSpec(kind="compare", devices=("D1", "D2"))
        wire = jobspec_to_wire(two)
        assert wire["devices"] == ["D1", "D2"]
        assert jobspec_from_wire(wire) == two
        assert job_id_for(one) != job_id_for(two)


class TestSpecBounds:
    def test_bounds_admit_their_own_values(self):
        validate_spec(JobSpec(trials=MAX_TRIALS, hours=MAX_HOURS))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hours", float("nan")),
            ("hours", float("inf")),
            ("hours", 1e9),
            ("trials", 10**9),
        ],
        ids=["hours-nan", "hours-inf", "hours-1e9", "trials-1e9"],
    )
    def test_post_rejects_unbounded_spec(self, field, value):
        """NaN/infinite hours never finish and a huge trial count builds
        that many units inside the request handler: both answer 400."""
        from repro.serve.service import ZCoverService

        wire = jobspec_to_wire(JobSpec(trials=2, hours=0.05))
        wire[field] = value
        # json.dumps writes the NaN/Infinity literals json.loads accepts.
        status, body, _ = ZCoverService()._post_job(json.dumps(wire).encode("utf-8"))
        error = json.loads(body)["error"]
        assert (status, error["kind"], error["field"]) == (400, "spec", field)


def checkpoint_records(rng):
    """A random but well-formed record sequence for one or two jobs."""
    records = []
    for job_index in range(rng.randrange(1, 3)):
        job_id = f"job-{rng.randrange(2**32):08x}"
        spec = random_spec(rng)
        records.append(job_record(job_id, job_index, spec))
        for unit_index in range(rng.randrange(0, 4)):
            records.append(
                unit_record(
                    job_id,
                    unit_index,
                    rng.randrange(1, 3),
                    {"wire_version": WIRE_VERSION, "blob": rng.randrange(1000)},
                )
            )
        if rng.random() < 0.5:
            records.append(done_record(job_id, JOB_DONE))
    return records


def loaded_records(path):
    """The loaded prefix of a checkpoint file, re-encoded as records."""
    return [encode(line) for line, _ in load_prefix(str(path))]


class TestCheckpoint:
    def test_every_prefix_loads_back_verbatim(self, tmp_path):
        rng = random.Random(10)
        for case in range(N_CHECKPOINTS):
            records = checkpoint_records(rng)
            path = tmp_path / f"prefix-{case}.ckpt"
            text = "".join(encode_line(r) + "\n" for r in records)
            for cut in range(len(records) + 1):
                path.write_text(
                    "".join(encode_line(r) + "\n" for r in records[:cut])
                )
                assert loaded_records(path) == records[:cut]
            path.write_text(text)
            assert loaded_records(path) == records

    def test_torn_tail_truncates_at_the_damage(self, tmp_path):
        rng = random.Random(11)
        records = checkpoint_records(rng)
        while len(records) < 3:
            records = checkpoint_records(rng)
        path = tmp_path / "torn.ckpt"
        lines = [encode_line(r) for r in records]
        # a crash mid-append: the last line is half written
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        assert loaded_records(path) == records[:-1]

    def test_corrupt_middle_line_stops_the_prefix(self, tmp_path):
        rng = random.Random(12)
        records = checkpoint_records(rng)
        while len(records) < 3:
            records = checkpoint_records(rng)
        path = tmp_path / "corrupt.ckpt"
        lines = [encode_line(r) for r in records]
        wrapper = json.loads(lines[1])
        wrapper["crc"] ^= 1  # bit-flip the CRC key: the record no longer matches
        lines[1] = json.dumps(wrapper, sort_keys=True, separators=(",", ":"))
        path.write_text("".join(line + "\n" for line in lines))
        assert loaded_records(path) == records[:1]

    def test_non_utf8_line_stops_the_prefix(self, tmp_path):
        records = checkpoint_records(random.Random(13))
        path = tmp_path / "bitrot.ckpt"
        lines = [encode_line(r).encode("utf-8") for r in records]
        lines.insert(1, b'{"crc": 1, \xff}')
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        assert loaded_records(path) == records[:1]

    def test_missing_file_is_an_empty_checkpoint(self, tmp_path):
        assert load_prefix(str(tmp_path / "absent.ckpt")) == []

    def test_replay_folds_units_last_wins(self):
        lines = [
            JobLine("job-1", 0, JobSpec()),
            UnitLine("job-1", 0, 1, {"v": 1}),
            UnitLine("job-1", 0, 2, {"v": 2}),  # duplicate index: last wins
            UnitLine("job-1", 1, 1, {"v": 3}),
            UnitLine("job-9", 0, 1, {"v": 4}),  # unknown job id: ignored
            JobLine("job-1", 5, JobSpec(seed=1)),  # duplicate job: first wins
            DoneLine("job-1", JOB_DONE, ""),
        ]
        replayed = replay_checkpoint(lines)
        assert [entry.job_id for entry in replayed] == ["job-1"]
        entry = replayed[0]
        assert (entry.sequence, entry.spec) == (0, JobSpec())
        assert entry.units == {0: (2, {"v": 2}), 1: (1, {"v": 3})}
        assert entry.final_state == JOB_DONE


def compaction_log(rng):
    """Records of three jobs: two finished (one failed), one unfinished."""
    records = []
    for number, final in enumerate(("done", "failed", None)):
        job_id = f"job-{number:08x}"
        records.append(job_record(job_id, number, random_spec(rng)))
        for index in range(rng.randrange(1, 4)):
            records.append(
                unit_record(job_id, index, 1, {"wire_version": WIRE_VERSION, "n": index})
            )
        if final is not None:
            records.append(done_record(job_id, final))
    rng.shuffle(records)  # interleaved jobs; each job's own order kept below
    records.sort(key=lambda r: (r["kind"] != "job", r["kind"] == "done"))
    return records


class TestCompaction:
    """The log loses the unit lines of finished jobs and nothing else."""

    FINISHED = ("job-00000000", "job-00000001")

    def test_compaction_keeps_every_other_line_byte_for_byte(self, tmp_path):
        rng = random.Random(16)
        for case in range(20):
            records = compaction_log(rng)
            path = tmp_path / f"compact-{case}.ckpt"
            lines = [encode_line(r) + "\n" for r in records]
            path.write_text("".join(lines))
            writer = CheckpointWriter(str(path), load_prefix(str(path)))
            assert writer.compact(lambda job_id: job_id in self.FINISHED)
            expected = [
                line for line, r in zip(lines, records)
                if not (r["kind"] == "unit" and r["job_id"] in self.FINISHED)
            ]
            assert path.read_text() == "".join(expected)
            assert writer.size == path.stat().st_size
            # Appends land after the kept lines, and a second compaction
            # finds the moved unit lines where they now are.
            tail = unit_record("job-00000002", 9, 1, {"wire_version": WIRE_VERSION})
            writer.append(tail)
            assert writer.compact(lambda job_id: True)
            writer.close()
            assert loaded_records(path) == [
                r for r in records + [tail] if r["kind"] != "unit"
            ]

    def test_compaction_syncs_the_directory_after_the_rename(self, tmp_path, monkeypatch):
        """The rename is durable before the next append lands in the new
        file, so a power loss cannot bring the old log back."""
        from repro.serve import checkpoint as checkpoint_module

        steps = []
        replace, sync = checkpoint_module.os.replace, checkpoint_module.sync_directory

        def replacing(*args):
            steps.append("replace")
            replace(*args)

        def syncing(directory):
            steps.append(("sync", directory))
            sync(directory)

        monkeypatch.setattr(checkpoint_module.os, "replace", replacing)
        monkeypatch.setattr(checkpoint_module, "sync_directory", syncing)
        path = tmp_path / "synced.ckpt"
        path.write_text(
            "".join(encode_line(r) + "\n" for r in compaction_log(random.Random(19)))
        )
        with closing(CheckpointWriter(str(path), load_prefix(str(path)))) as writer:
            assert writer.compact(lambda job_id: True)
        assert steps == ["replace", ("sync", str(tmp_path))]

    def test_nothing_to_drop_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "clean.ckpt"
        text = encode_line(job_record("job-00000002", 0, JobSpec())) + "\n"
        path.write_text(text)
        with closing(CheckpointWriter(str(path), load_prefix(str(path)))) as writer:
            assert not writer.compact(lambda job_id: True)
        assert path.read_text() == text
        with closing(CheckpointWriter(str(tmp_path / "absent.ckpt"))) as writer:
            assert not writer.compact(lambda job_id: True)
        assert (tmp_path / "absent.ckpt").read_bytes() == b""

    def test_torn_tail_is_dropped_and_appends_survive(self, tmp_path):
        records = checkpoint_records(random.Random(17))
        path = tmp_path / "torn.ckpt"
        whole = "".join(encode_line(r) + "\n" for r in records)
        path.write_text(whole + encode_line(records[0])[:20])
        writer = CheckpointWriter(str(path), load_prefix(str(path)))
        assert writer.torn
        assert writer.compact(lambda job_id: False)
        extra = done_record("job-0000abcd", JOB_DONE)
        writer.append(extra)
        writer.close()
        assert loaded_records(path) == records + [extra]

    def test_line_without_its_newline_ends_the_prefix(self, tmp_path):
        records = checkpoint_records(random.Random(18))
        path = tmp_path / "unterminated.ckpt"
        last = encode_line(records[-1])
        path.write_text("".join(encode_line(r) + "\n" for r in records[:-1]) + last)
        assert loaded_records(path) == records[:-1]
        with closing(CheckpointWriter(str(path), load_prefix(str(path)))) as writer:
            assert writer.torn
            assert writer.size == path.stat().st_size - len(last)


def result_text(job_spec, **changes):
    """A minimal result document for *job_spec*, with *changes* applied."""
    doc = {
        "schema": "zcover-serve-result",
        "schema_version": 1,
        "job_id": job_id_for(job_spec),
        "spec": jobspec_to_wire(job_spec),
        "render": "x",
    }
    doc.update(changes)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestResultStore:
    SPEC = JobSpec(kind="trials", trials=1, hours=0.05)
    UNTRUSTED = {
        "empty": "",
        "cut-short": result_text(SPEC)[:40],
        "not-an-object": "[]",
        "schema-version": result_text(SPEC, schema_version=2),
        "job-id": result_text(SPEC, job_id="job-00000000"),
        "wire-version": result_text(
            SPEC, spec={**jobspec_to_wire(SPEC), "wire_version": WIRE_VERSION - 1}
        ),
    }

    @pytest.mark.parametrize("case", sorted(UNTRUSTED))
    def test_untrusted_files_are_not_served(self, tmp_path, case):
        job_id = job_id_for(self.SPEC)
        (tmp_path / f"{job_id}.json").write_text(self.UNTRUSTED[case])
        store = ResultStore(str(tmp_path))
        assert store.get(job_id, self.SPEC) is None
        assert store.bytes == 0

    def test_lru_keeps_the_most_recently_used(self, tmp_path, monkeypatch):
        from repro.serve import checkpoint as checkpoint_module

        monkeypatch.setattr(checkpoint_module, "RESULT_CACHE_JOBS", 2)
        store = ResultStore(str(tmp_path))
        specs = [JobSpec(kind="trials", seed=seed, trials=1, hours=0.05) for seed in range(3)]
        ids = [job_id_for(spec) for spec in specs]
        for job_id, spec in zip(ids, specs):
            store.put(job_id, result_text(spec))
        assert list(store._cache) == ids[1:]
        assert store.get(ids[0], specs[0]) == result_text(specs[0])  # a miss reads the file
        assert list(store._cache) == [ids[2], ids[0]]
        assert store.bytes == sum(len(result_text(spec)) for spec in specs)
        assert sorted(os.listdir(tmp_path)) == sorted(f"{job_id}.json" for job_id in ids)


class TestWireVersionRejection:
    @pytest.mark.parametrize(
        "decoder",
        [campaign_from_wire, vfuzz_from_wire, session_from_wire, jobspec_from_wire],
        ids=["campaign", "vfuzz", "session", "jobspec"],
    )
    def test_newer_missing_and_stale_all_reject(self, decoder):
        for found in (WIRE_VERSION + 1, WIRE_VERSION + 7, None, 1):
            payload = {} if found is None else {"wire_version": found}
            with pytest.raises(WireVersionError) as excinfo:
                decoder(payload)
            assert excinfo.value.found == found
            assert excinfo.value.expected == WIRE_VERSION
            if isinstance(found, int) and found > WIRE_VERSION:
                assert "NEWER" in str(excinfo.value)


# -- the seed-0 golden ---------------------------------------------------------

GOLDEN_SPECS = (
    JobSpec(kind="trials", device="D1", mode="full", seed=0, trials=2, hours=0.05),
    JobSpec(kind="sessions", device="D1", seed=0, trials=6, flows=("inclusion",)),
    JobSpec(
        kind="chaos",
        device="D2",
        mode="beta",
        seed=0,
        trials=1,
        hours=0.05,
        fault_plan="canonical",
    ),
)


def build_golden_document():
    """The seed-0 protocol pin: spec wires, job ids, checkpoint lines,
    and the SHA-256 of the first golden spec's oracle result document."""
    from repro.serve.results import direct_document, dumps_result_document

    corpus = spec_corpus(seed=0, count=20)
    oracle = dumps_result_document(direct_document(GOLDEN_SPECS[0]))
    sample = job_record(job_id_for(GOLDEN_SPECS[0]), 0, GOLDEN_SPECS[0])
    return {
        "schema": SCHEMA,
        "specs": [
            {
                "job_id": job_id_for(spec),
                "key": spec_key(spec),
                "wire": jobspec_to_wire(spec),
            }
            for spec in GOLDEN_SPECS
        ],
        "corpus_job_ids": [job_id_for(spec) for spec in corpus],
        "checkpoint_lines": [
            encode_line(sample),
            encode_line(unit_record("job-0000abcd", 3, 2, {"wire_version": WIRE_VERSION})),
            encode_line(done_record("job-0000abcd", JOB_DONE)),
        ],
        "oracle_sha256": hashlib.sha256(oracle.encode("utf-8")).hexdigest(),
        "wire_version": WIRE_VERSION,
    }


def build_golden_text():
    """Canonical serialisation of the golden document."""
    return json.dumps(build_golden_document(), sort_keys=True, indent=1) + "\n"


def write_golden():
    """Regenerate the golden file through the exact path the test uses."""
    GOLDEN_PATH.write_text(build_golden_text())


class TestGolden:
    def test_seed_zero_protocol_bytes_are_pinned(self):
        assert GOLDEN_PATH.exists(), "run write_golden() to create the golden file"
        assert build_golden_text() == GOLDEN_PATH.read_text()
