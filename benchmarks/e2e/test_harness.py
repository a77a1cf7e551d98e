"""Self-tests of the benchmark harness (not of ``repro``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Outside the tier-1 ``testpaths``; they guard the yardstick itself: span
arithmetic, the percentile rule, calibration scaling, the drift rule's
blindness to measured values, and the BENCHMARK.json contract.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


# -- span arithmetic ----------------------------------------------------
def test_nested_and_sibling_self_time():
    spans = [
        Span(1, "a", "outer", 0.0, 10.0, None, None, 1),
        Span(2, "b", "first", 1.0, 4.0, 1, None, 1),
        Span(3, "b", "second", 5.0, 7.0, 1, None, 1),
        Span(4, "c", "leaf", 2.0, 3.0, 2, None, 1),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0}
    assert sum(own.values()) == 10.0  # telescopes to the root
    totals = tracing.op_totals(spans, scale=2.0)
    assert totals["b", "first"] == [1, 4.0] and totals["c", "leaf"] == [1, 2.0]
    tracing.op_totals(spans, into=totals)
    assert totals["b", "first"] == [2, 6.0]
    assert tracing.orphan_time(spans, {1}) == 0.0


def test_orphans_are_counted_once_and_reported():
    spans = [
        Span(1, "a", "root", 0.0, 10.0, None, None, 1),
        Span(2, "b", "stray", 2.0, 5.0, None, None, 2),
    ]
    assert tracing.orphan_time(spans, {1}) == 3.0


def test_cross_thread_child_is_parented_by_request_id():
    tracer = tracing.Tracer()
    tracer.active = True
    served = threading.Event()
    release = threading.Event()

    def server():
        served.wait(5.0)
        token = tracer.begin("server", "handle", request=7)
        tracer.end(token)
        release.set()

    thread = threading.Thread(target=server)
    thread.start()
    call = tracer.begin("wire", "call", request=7, opens_request=True)
    served.set()
    assert release.wait(5.0)
    tracer.end(call)
    thread.join(5.0)
    assert not thread.is_alive()
    by_layer = {span.layer: span for span in tracer.spans}
    assert by_layer["server"].parent == by_layer["wire"].sid
    assert by_layer["server"].thread != by_layer["wire"].thread
    own = tracing.self_times(tracer.spans)
    wire, handle = by_layer["wire"], by_layer["server"]
    assert own[wire.sid] == pytest.approx(
        (wire.end - wire.start) - (handle.end - handle.start)
    )
    # Once the call has returned, its id parents nothing.
    late = tracer.begin("server", "handle", request=7)
    tracer.end(late)
    assert tracer.spans[-1].parent is None


def test_request_id_learnt_from_the_result():
    tracer = tracing.Tracer()

    codec = types.SimpleNamespace(decode=lambda line: {"id": int(line)})
    tracer.wrap(codec, "decode", "codec", "decode",
                request_of=lambda args, kwargs, result:
                result and result.get("id"))
    tracer.active = True
    call = tracer.begin("wire", "call", request=3, opens_request=True)
    worker = threading.Thread(target=lambda: codec.decode("3"))
    worker.start()
    worker.join(5.0)
    tracer.end(call)
    decode = tracer.spans[0]
    assert (decode.request, decode.parent) == (3, call[0])


# -- wrapper integrity ----------------------------------------------------
def test_wrappers_are_inert_when_inactive_and_fully_restored():
    class Layer:
        def work(self, x):
            return x + 1

    original = Layer.__dict__["work"]
    tracer = tracing.Tracer()
    tracer.wrap(Layer, "work", "layer", "work")
    assert Layer.__dict__["work"] is not original
    assert Layer().work(1) == 2 and tracer.spans == []
    tracer.active = True
    assert Layer().work(1) == 2 and len(tracer.spans) == 1
    tracer.uninstall()
    assert Layer.__dict__["work"] is original
    assert tracer.installed == 0


def test_install_restores_every_repro_attribute():
    import importlib

    def attributes():
        found = {}
        for module_name, class_name, attribute, _, _ in layers._TARGETS:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            found[module_name, class_name, attribute] = getattr(
                owner, attribute)
        return found

    before = attributes()
    tracer = tracing.Tracer()
    layers.install(tracer)
    assert all(attributes()[key] is not value
               for key, value in before.items())
    tracer.uninstall()
    assert attributes() == before


def test_span_closed_out_of_order_is_refused():
    tracer = tracing.Tracer()
    outer = tracer.begin("a", "outer")
    tracer.begin("a", "inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


# -- percentile rule ------------------------------------------------------
def test_percentile_refuses_thin_tails():
    assert harness.percentile(list(range(1, 1001)), 99) == 990
    assert harness.percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError):
        harness.percentile(list(range(999)), 99)   # 9.99 beyond
    with pytest.raises(ValueError):
        harness.percentile(list(range(19)), 50)


# -- calibration ----------------------------------------------------------
def test_calibrated_seconds_scale_with_the_bracket():
    ref = calibration.CALIB_REF_S
    assert calibration.calibrated(4.0, ref, ref) == pytest.approx(4.0)
    # A host running at half speed: twice the raw time, twice the slice.
    assert calibration.calibrated(8.0, 2 * ref, 2 * ref) == pytest.approx(4.0)
    assert calibration.calibrated(6.0, ref, 2 * ref) == pytest.approx(4.0)


def test_calibration_loop_is_fixed_positive_work():
    assert calibration.calibration_loop() > 0.0


def _rep(raws, brackets):
    segments = [
        harness.Segment("s", before, raw=raw, after=after)
        for raw, (before, after) in zip(raws, brackets)
    ]
    return harness.Rep(segments, harness.Outcome(attempted=1))


def test_drift_rule_never_consults_the_measured_value():
    steady = [(0.10, 0.101), (0.101, 0.10)]
    shaky = [(0.10, 0.16), (0.16, 0.10)]
    for raws in ([1.0, 1.0], [1e-6, 1e6], [50.0, 0.0]):
        assert not _rep(raws, steady).drifted
        assert _rep(raws, shaky).drifted
    assert calibration.mean_drift([(1.0, 1.0), (1.0, 3.0)]) == 0.5
    assert calibration.drifted(calibration.MAX_DRIFT + 0.01)
    assert not calibration.drifted(calibration.MAX_DRIFT)


def test_keep_discards_drifted_reps_but_still_reports():
    steady = [(0.10, 0.10)]
    shaky = [(0.10, 0.20)]
    worse = [(0.10, 0.40)]
    reps = [_rep([1.0], steady), _rep([9.0], shaky), _rep([1.1], steady),
            _rep([1.2], steady)]
    kept, discarded = harness.keep(reps, 3)
    assert [rep.raw for rep in kept] == [1.0, 1.1, 1.2] and discarded == 1
    # Too few steady ones: the least-drifted are taken back, by drift.
    kept, discarded = harness.keep(
        [_rep([1.0], steady), _rep([0.1], worse), _rep([9.0], shaky)], 2)
    assert [rep.raw for rep in kept] == [1.0, 9.0] and discarded == 1


def test_latencies_are_scaled_by_their_own_segment():
    ref = calibration.CALIB_REF_S
    fast = harness.Segment("s", ref, raw=1.0, after=ref, ops=[0.001])
    slow = harness.Segment("s", 2 * ref, raw=2.0, after=2 * ref, ops=[0.002])
    rep = harness.Rep([fast, slow], harness.Outcome(attempted=2))
    assert rep.admit_ms() == pytest.approx([1.0, 1.0])
    assert rep.seconds == pytest.approx(2.0)


# -- the benchmark contract -------------------------------------------------
def test_names_and_units_fit_the_contract_charset():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")
    assert name.match("routing.self_s") and name.match("paper-build")
    assert not name.match("_leading") and not name.match("x" * 65)
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_benchmark_json_matches_the_code():
    from workloads import WORKLOADS

    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        layers.PER_LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert SPEC["paths"] == ["benchmarks/e2e"]
