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

import functools
import hashlib
import json.encoder

import pytest
from scenarios import CLUSTER_CHIPS, SCENARIO_BUILDERS, golden_path

from repro.cluster import annotate_cluster_metrics
from repro.obs import (
    Gauge,
    Histogram,
    RecordingTracer,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.serve import serialize_report
from repro.serve.metrics import aggregate

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

#: sha256 of the files ``write_chrome_trace``, ``write_jsonl`` and
#: ``write_prometheus`` (what ``serve --trace-out/--metrics-out``
#: writes) produce from each golden scenario's traced replay.
EXPORT_SHA256 = {
    "adaptive": {
        "chrome":
            "8cf31d5e8b39d8eb50b6c72ce286029f9bfe3a13a33e249c061a962d0431b275",
        "jsonl":
            "ba03769a7f2c08ef628fa5b71191a03186643e263637c366cf57f4146bcbeadb",
        "prometheus":
            "33a6e671e1bbb51e5adefc8f62ee38204ea44be52457bd7958170e0c35596c42",
    },
    "cluster-adaptive": {
        "chrome":
            "a8192f69224fe9ca2dead7e90eed7c73cda912b4604e8283abfb629059a33dd4",
        "jsonl":
            "5bbf351b5b20c0380179f0da9497d420f438066f045262bc9d0893e2264199f0",
        "prometheus":
            "c2fb833be63ffb526745e44094652873a2001a965534ba29c28e1ac63ccbfba3",
    },
    "kyber": {
        "chrome":
            "64cbbf1cdec8a725f70b66e29a06427b95b4f5caa4e9af3f63ec759977789aa8",
        "jsonl":
            "b4944cd72fb9ec473f4d52bdb6ac9df343ea9cca2f9dd4377002c2f0ad384aeb",
        "prometheus":
            "103f4a415a34a6c1e87140b87b5421da65281e8ed6304b3549f4200514f8957f",
    },
    "mixed-slo": {
        "chrome":
            "de862e194a45489c6e9b2ca0288d84ebb897f91117202122cf61103fbed3eec2",
        "jsonl":
            "35f000e91159616f0a72f78d4cb9fe0dac1a9c885834efa0c3166dec454049c5",
        "prometheus":
            "2756671d20a98a30a5ea8ee2f316d944d193e7ab0dd40deb1df2b624db0109e2",
    },
    "overload": {
        "chrome":
            "b33a3a66dd863f2d613a938e9f0e00fedd5d3ddf486e1f31e4abf212ae3793b9",
        "jsonl":
            "99ac22e210957e24190ead6ef9751d1201a79f3275d98ce9db0f1fe02d17b1c8",
        "prometheus":
            "02897de0f5144817ac2be07490132d8f348adefdf0304f00752a13b8fb520179",
    },
    "tiny": {
        "chrome":
            "ad2b2edf89c94b8a21f69112ed7ab8393aebdb10a8edec2e84200300f07fe2a0",
        "jsonl":
            "b27c84dd7ac679f1c65c4166665969062927d786a27d3c16ef08c21c57da8364",
        "prometheus":
            "4f7f83abfab8f9a0eb2c385b2457a5d240906108677dda457e2b5304ea5eca8a",
    },
}

#: Phases every scenario must exercise (``drop`` needs overload and is
#: covered separately below).
CORE_PHASES = ("arrive", "admit", "enqueue", "batch_open", "dispatch",
               "lane_start", "lane_finish", "respond")


@functools.lru_cache(maxsize=None)
def traced_replay(name):
    """One traced replay per scenario, shared by the tests below."""
    tracer = RecordingTracer()
    return SCENARIO_BUILDERS[name](tracer=tracer), tracer.events


def export_digests(report, events, directory):
    """sha256 of each export file written into ``directory``."""
    writers = {
        "chrome": lambda path: write_chrome_trace(events, path),
        "jsonl": lambda path: write_jsonl(events, path),
        "prometheus": lambda path: write_prometheus(report.registry, path),
    }
    digests = {}
    for fmt, write in writers.items():
        path = directory / fmt
        write(path)
        digests[fmt] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


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

    report, events = traced_replay(name)
    traced = serialize_report(report)
    assert traced == golden, f"{name}: tracing perturbed the replay"
    assert len(events) > 0
    digest = hashlib.sha256(to_jsonl(events).encode()).hexdigest()
    assert digest == EVENT_STREAM_SHA256[name], (
        f"{name}: the traced event stream changed"
    )


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_export_files_are_byte_identical(name, tmp_path):
    report, events = traced_replay(name)
    assert export_digests(report, events, tmp_path) == EXPORT_SHA256[name], (
        f"{name}: an export file changed"
    )


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_indented_writers_never_reach_the_stdlib_encoder(name, tmp_path,
                                                         monkeypatch):
    """The report and the Chrome trace come from ``repro.utils.jsonout``.

    ``json``'s pure-Python encoder (what ``indent=`` selects before
    Python 3.13) is made to raise, so a fallback to it fails here
    instead of only slowing perfbench; the bytes must still be the
    golden report and the pinned export digests.
    """
    def stdlib_encoder(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", stdlib_encoder)
    report, events = traced_replay(name)
    golden = golden_path(name).read_text().rstrip("\n")
    assert serialize_report(report) == golden
    assert export_digests(report, events, tmp_path) == EXPORT_SHA256[name]


def instrument_states(registry):
    """Every instrument as exact text, in export order."""
    states = []
    for inst in registry.collect():
        if isinstance(inst, Histogram):
            state = (inst.values, inst.sum)
        elif isinstance(inst, Gauge):
            state = (inst.value, inst.samples)
        else:
            state = inst.value
        states.append(repr((inst.kind, inst.name, inst.labels, state)))
    return states


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_dispatch_recording_matches_standalone_aggregate(name):
    """The registry the simulator fills at dispatch equals the one
    ``aggregate`` builds from the report's record lists."""
    report, _ = traced_replay(name)
    registry = report.registry
    standalone = aggregate(
        report.responses, report.batches,
        total_lanes=registry.get("sched.lanes").value,
        busy_s=registry.get("sched.busy_s").value,
        drops=report.drops, queue_depth=report.queue_depth,
        scheduler=report.scheduler, alerts=report.alerts,
    )
    if name.startswith("cluster"):
        annotate_cluster_metrics(standalone, CLUSTER_CHIPS)
    assert instrument_states(standalone.registry) == \
        instrument_states(registry)
    assert serialize_report(standalone) == serialize_report(report)


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_traced_replay_covers_the_core_lifecycle(name):
    _, events = traced_replay(name)
    phases = {e.phase for e in events}
    missing = [p for p in CORE_PHASES if p not in phases]
    assert not missing, f"{name}: no events for phases {missing}"


def test_every_request_arrives_and_resolves():
    """Each request id gets an arrive and exactly one respond-or-drop."""
    report, events = traced_replay("mixed-slo")

    def ids(phase):
        return {e.request_id for e in events if e.phase == phase}

    arrived, responded, dropped = ids("arrive"), ids("respond"), ids("drop")
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
