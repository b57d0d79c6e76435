"""The tentpole guarantee: tracing is provably free.

Each golden scenario replays twice — once untraced, once under a
RecordingTracer — and both serialized reports must be byte-identical
to each other *and* to the checked-in golden file.  Any code path that
lets the tracer influence a scheduling or batching decision breaks
this test before it breaks a user.  The traced replay's full event
stream is pinned too, by digest: the report does not carry event
attributes such as ``tenant_waiting`` or ``window_s``, so a slip in
them would otherwise go unseen.
"""

import hashlib

import pytest
from scenarios import SCENARIO_BUILDERS, golden_path

from repro.obs import RecordingTracer, to_jsonl
from repro.serve import serialize_report

#: sha256 of ``to_jsonl(events)`` for each golden scenario's traced
#: replay.  Regenerate alongside the report goldens, and only for an
#: intentional change to what the serving stack emits.
EVENT_STREAM_SHA256 = {
    "tiny": "a141e815a7cf2936369eee42b6147a13e96cf76cc43e056339b8d76edeef9254",
    "kyber": "8042560866f0eec4ed2ef5ab0af01abea002097c638030b86bfe87319ec70ff6",
    "mixed-slo":
        "c417b8f8e18ae4a2916cc5c6fbb38d02dd9ca6ea3cd84e679fcc8fc570f59a10",
    "overload":
        "fcf936c0b119bfbfaaba2a6cfd2e7cc2f2019dbcb54258fb24f7858684fe8005",
    "adaptive":
        "bae9bfae289b6a7f80e826a5ea133a6fcb199bb02c44c9b8dc3648df26f853e2",
    "cluster-adaptive":
        "3b9df19745c612524ce9692f326672b5ba5745a4d8639e698221ae19c3726711",
}

#: Phases every scenario must exercise (``drop`` needs overload and is
#: covered separately below).
CORE_PHASES = ("arrive", "admit", "enqueue", "batch_open", "dispatch",
               "lane_start", "lane_finish", "respond")


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_traced_replay_is_byte_identical_to_untraced(name):
    build = SCENARIO_BUILDERS[name]
    golden = golden_path(name).read_text().rstrip("\n")

    untraced = serialize_report(build())
    assert untraced == golden, (
        f"{name}: untraced replay diverged from golden — if the serving "
        "stack changed intentionally, regenerate with "
        "`PYTHONPATH=src python tests/obs/scenarios.py --write`"
    )

    tracer = RecordingTracer()
    traced = serialize_report(build(tracer=tracer))
    assert traced == golden, f"{name}: tracing perturbed the replay"
    assert len(tracer) > 0
    digest = hashlib.sha256(to_jsonl(tracer.events).encode()).hexdigest()
    assert digest == EVENT_STREAM_SHA256[name], (
        f"{name}: the traced event stream changed"
    )


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_traced_replay_covers_the_core_lifecycle(name):
    tracer = RecordingTracer()
    SCENARIO_BUILDERS[name](tracer=tracer)
    phases = {e.phase for e in tracer.events}
    missing = [p for p in CORE_PHASES if p not in phases]
    assert not missing, f"{name}: no events for phases {missing}"


def test_every_request_arrives_and_resolves():
    """Each request id gets an arrive and exactly one respond-or-drop."""
    tracer = RecordingTracer()
    report = SCENARIO_BUILDERS["mixed-slo"](tracer=tracer)
    arrived = {e.request_id for e in tracer.by_phase("arrive")}
    responded = {e.request_id for e in tracer.by_phase("respond")}
    dropped = {e.request_id for e in tracer.by_phase("drop")}
    assert responded | dropped == arrived
    assert not (responded & dropped)
    assert len(responded) == len(report.responses)
    assert len(dropped) == len(report.drops)


def test_slo_overload_emits_drop_events():
    # The golden scenarios run below overload; force drops explicitly
    # with a queue limit far under a simultaneous burst.
    from repro.ntt.params import STANDARD_PARAMS, NTTParams
    from repro.serve import (
        BatchPolicy,
        EnginePool,
        PoolConfig,
        Request,
        ServingSimulator,
    )

    name = "tiny-obs-drop"
    STANDARD_PARAMS[name] = NTTParams(n=16, q=97, name="tiny drop ring")
    try:
        burst = [
            Request(request_id=i, op="ntt", params_name=name,
                    payload=tuple(range(16)), operand=None,
                    arrival_s=0.0, tenant="a", kind="tiny")
            for i in range(20)
        ]
        sim = ServingSimulator(
            EnginePool(PoolConfig(size=1, rows=32, cols=32)),
            BatchPolicy(max_wait_s=1e-3),
            scheduler="slo", scheduler_options=dict(queue_limit=2),
        )
        tracer = RecordingTracer()
        report = sim.replay(burst, tracer=tracer)
    finally:
        STANDARD_PARAMS.pop(name, None)
    drops = tracer.by_phase("drop")
    assert len(drops) == len(report.drops) > 0
    assert all(e.attrs.get("reason") for e in drops)


def test_repeat_replays_are_deterministic():
    first = serialize_report(SCENARIO_BUILDERS["tiny"]())
    second = serialize_report(SCENARIO_BUILDERS["tiny"]())
    assert first == second
