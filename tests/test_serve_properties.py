"""Property suite for the job-service protocol layer (~300 seeded cases).

Everything here is pure protocol — codecs, ids, queue, checkpoint — so
hundreds of cases run in well under a second; no campaign is ever
executed.  The properties:

* **wire fixpoint** — ``jobspec_from_wire(jobspec_to_wire(s)) == s`` and
  the serialised text is a fixpoint of one more round trip (same for
  :class:`JobStatus`);
* **content-addressed identity** — equal specs share a job id, the
  seeded corpus of distinct specs gets distinct ids, and duplicate
  submission (including threaded) creates exactly one job;
* **queue-order determinism** — sequence tickets are a permutation of
  ``0..n-1`` and ``next_queued`` walks them in order, however many
  threads raced on submission;
* **checkpoint prefix stability** — every durable prefix of the log
  loads back verbatim, a torn/corrupt tail truncates cleanly at the
  damage, and replay folds records into per-job state last-wins;
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
import random
import threading
from pathlib import Path

import pytest

from repro.core.resultio import (
    WIRE_VERSION,
    WireVersionError,
    campaign_from_wire,
    dumps_wire,
    encode,
    jobspec_from_wire,
    jobspec_to_wire,
    jobstatus_from_wire,
    jobstatus_to_wire,
    session_from_wire,
    vfuzz_from_wire,
)
from repro.core.session import FLOWS
from repro.serve.checkpoint import (
    DoneLine,
    JobLine,
    UnitLine,
    done_record,
    encode_line,
    job_record,
    load_checkpoint,
    replay_checkpoint,
    unit_record,
)
from repro.serve.jobs import JobQueue
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

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "serve_golden.json"
SCHEMA = "zcover.serve-golden/v1"

N_SPECS = 120
N_STATUSES = 60
N_CHECKPOINTS = 40


def random_spec(rng):
    """One valid random spec (the generator behind most properties)."""
    kind = rng.choice(JOB_KINDS)
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
    return [encode(line) for line in load_checkpoint(str(path))]


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
        assert load_checkpoint(str(tmp_path / "absent.ckpt")) == []

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
