"""Spec parity between the paths a job can take.

Invalid specs: for every job kind and every spec field the command line
can set, seeded invalid values are drawn.  Each draw goes three ways: as
the spec itself to a served ``POST /jobs``, as options to the kind's own
command (where that command has the option), and as options to ``zcover
submit --direct``.  Both commands must exit 2 before any unit runs, with
the one stderr line ``zcover <command>: <field>: <reason>`` whose field
and reason are those of the 400 body.

Valid specs: seeded specs of all five kinds, drawn from a stream of their
own, give the same document bytes in process at one and at two workers
and from the service, posted back to back.
"""

import random
import string

import pytest

from repro.cli import main
from repro.core.session import FLOWS
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import JOB_DONE, JOB_KINDS, MAX_HOURS, MAX_TRIALS, JobSpec, validate_spec
from repro.serve.results import direct_document, dumps_result_document
from repro.serve.service import ServiceThread
from repro.simulator.testbed import CONTROLLER_IDS

DRAWS = 8

#: The fields each kind's spec needs to be valid.
BASE = {
    "trials": {},
    "chaos": {"fault_plan": "canonical"},
    "sessions": {},
    "ablation": {},
    "compare": {"devices": ("D1", "D2")},
}

#: The fields each kind's own command has an option for.
OWN_OPTIONS = {
    "trials": {"trials", "hours", "fault_plan"},
    "chaos": {"trials", "hours", "fault_plan"},
    "sessions": {"trials", "flows"},
    "ablation": {"hours", "fault_plan"},
    "compare": {"hours", "devices", "fault_plan"},
}

#: Own-command options not spelled ``--<field>``.
OWN_FLAGS = {("chaos", "fault_plan"): "--plan"}


def _name(rng):
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 8)))


def _draw_trials(kind, rng):
    if kind in ("ablation", "compare"):
        return rng.randint(1, MAX_TRIALS)  # experiments take no trial count
    return rng.choice([0, -rng.randint(1, 10**6), MAX_TRIALS + rng.randint(1, 10**6)])


def _draw_hours(kind, rng):
    return round(MAX_HOURS + rng.uniform(0.001, 10**6), 3)


def _draw_flows(kind, rng):
    flows = rng.sample(FLOWS, rng.randint(1, 3))
    if kind != "sessions":
        return tuple(flows)  # any flows at all
    if rng.random() < 0.5:
        return tuple(flows + [rng.choice(flows)])  # a duplicate
    unknown = _name(rng)
    while unknown in FLOWS or unknown == "all":
        unknown = _name(rng)
    flows.insert(rng.randint(0, len(flows)), unknown)
    return tuple(flows)


def _draw_devices(kind, rng):
    known = rng.sample(CONTROLLER_IDS, rng.randint(1, 3))
    if kind != "compare":
        return tuple(sorted(known))  # any devices at all
    if rng.random() < 0.2:
        return ()
    # Unknown ids that sort after D1-D7, so `device` (devices[0]) stays valid.
    unknown = rng.choice(["D8", "D9", "Z1", "x"]) + str(rng.randint(0, 99))
    return tuple(sorted(set(known + [unknown])))


def _draw_mode(kind, rng):
    return rng.choice(["beta", "gamma"])


def _draw_fault_plan(kind, rng):
    if kind == "chaos" and rng.random() < 0.3:
        return None  # a chaos job without a plan
    return _name(rng)


DRAW = {
    "trials": _draw_trials,
    "hours": _draw_hours,
    "flows": _draw_flows,
    "devices": _draw_devices,
    "mode": _draw_mode,
    "fault_plan": _draw_fault_plan,
}

#: Fields ``submit`` can make invalid for each kind.
FIELDS = {
    "trials": ("trials", "hours", "flows", "devices", "fault_plan"),
    "chaos": ("trials", "hours", "flows", "devices", "fault_plan"),
    "sessions": ("trials", "hours", "flows", "devices", "fault_plan"),
    "ablation": ("trials", "hours", "mode", "flows", "devices", "fault_plan"),
    "compare": ("trials", "hours", "mode", "flows", "devices", "fault_plan"),
}

CASES = [(kind, name) for kind in JOB_KINDS for name in FIELDS[kind]]


def _options(name, value, flag=None):
    if value is None:
        return []
    if isinstance(value, tuple):
        value = ",".join(value) or ","
    return [flag or f"--{name.replace('_', '-')}", str(value)]


def _spec(kind, name, value):
    fields = dict(BASE[kind], **{name: value})
    if fields.get("devices"):
        fields["device"] = fields["devices"][0]
    return JobSpec(kind=kind, **fields)


@pytest.fixture(scope="module")
def client():
    handle = ServiceThread(workers=1, port=0).start()
    yield ServeClient(port=handle.port)
    handle.stop(drain=True)


def _rejection(client, spec):
    with pytest.raises(ServeClientError) as excinfo:
        client.submit(spec)
    assert excinfo.value.status == 400
    error = excinfo.value.payload["error"]
    assert error["kind"] == "spec"
    return error["field"], error["reason"]


def _cli_line(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2, (argv, err)
    assert out == "", argv  # no unit ran
    return err


@pytest.mark.parametrize("kind, name", CASES, ids=[f"{k}-{n}" for k, n in CASES])
def test_cli_rejects_like_post_jobs(client, capsys, kind, name):
    rng = random.Random(f"{kind}/{name}")
    for draw in range(DRAWS):
        value = DRAW[name](kind, rng)
        field, reason = _rejection(client, _spec(kind, name, value))
        assert field == name, (draw, value)
        base = [opt for key, val in BASE[kind].items() if key != name for opt in _options(key, val)]
        argvs = [["submit", "--direct", "--kind", kind, *base, *_options(name, value)]]
        # A chaos command without --plan runs the canonical plan, so only
        # a drawn value can be made invalid through its own option.
        if name in OWN_OPTIONS[kind] and value is not None:
            argvs.append([kind, *_options(name, value, OWN_FLAGS.get((kind, name)))])
        for argv in argvs:
            err = _cli_line(argv, capsys)
            assert err == f"zcover {argv[0]}: {field}: {reason}\n", (draw, argv)


#: Each kind's own fault-plan option, and near misses of the stock names.
OWN_PLAN_FLAG = {"trials": "--fault-plan", "chaos": "--plan", "ablation": "--fault-plan",
                 "compare": "--fault-plan"}
MISSPELLED = ("lossey", "flakey", "Canonical")


@pytest.mark.parametrize("name", MISSPELLED)
@pytest.mark.parametrize("kind", sorted(OWN_PLAN_FLAG))
def test_misspelled_stock_plan_is_refused_like_post_jobs(client, capsys, kind, name):
    field, reason = _rejection(client, _spec(kind, "fault_plan", name))
    assert field == "fault_plan"
    base = [opt for key, val in BASE[kind].items() if key != "fault_plan" for opt in _options(key, val)]
    err = _cli_line([kind, *base, OWN_PLAN_FLAG[kind], name], capsys)
    assert err == f"zcover {kind}: fault_plan: {reason}\n"


# -- valid specs -------------------------------------------------------------------

#: Valid specs drawn per kind; each runs three ways.
VALID_DRAWS = 4

#: The longest campaign a drawn spec runs, in simulated hours.
VALID_MAX_HOURS = 0.02


def _valid_spec(kind, rng):
    """A seeded valid spec of *kind*: short, but varied in every field the
    kind takes."""
    fields = {
        "kind": kind,
        "seed": rng.randrange(10**6),
        "hours": round(rng.uniform(0.005, VALID_MAX_HOURS), 3),
        "scheduler": rng.choice(("static", "coverage")),
    }
    if kind in ("trials", "chaos"):
        fields["device"] = rng.choice(CONTROLLER_IDS)
        fields["mode"] = rng.choice(("full", "beta", "gamma"))
        fields["trials"] = rng.randint(1, 2)
        plans = ("canonical", "lossy", "flaky")
        fields["fault_plan"] = rng.choice(plans if kind == "chaos" else (None,) + plans)
    elif kind == "sessions":
        fields["device"] = rng.choice(CONTROLLER_IDS)
        fields["trials"] = rng.randint(1, 3)
        fields["flows"] = tuple(rng.sample(FLOWS, rng.randint(1, 2)))
    elif kind == "ablation":
        fields["device"] = rng.choice(CONTROLLER_IDS)
    else:
        devices = tuple(sorted(rng.sample(CONTROLLER_IDS, 2)))
        fields.update(devices=devices, device=devices[0])
    spec = JobSpec(**fields)
    validate_spec(spec)
    return spec


def test_valid_specs_give_the_same_bytes_on_every_path(client):
    rng = random.Random("valid-spec-parity")
    specs = [_valid_spec(kind, rng) for kind in JOB_KINDS for _ in range(VALID_DRAWS)]
    job_ids = [client.submit(spec).job_id for spec in specs]  # back to back
    for spec, job_id in zip(specs, job_ids):
        serial = dumps_result_document(direct_document(spec, workers=1))
        assert dumps_result_document(direct_document(spec, workers=2)) == serial, spec
        assert client.wait(job_id, timeout=600).state == JOB_DONE, spec
        assert client.result_bytes(job_id).decode("utf-8") == serial, spec
