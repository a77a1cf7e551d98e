"""Which entry points the traced run wraps, and the per-layer metrics
derived from the spans.

A layer is one module (or module pair) of ``repro``; its spans come from
wrapping the attributes below from outside.  Only coarse calls are
wrapped — e.g. not ``ReservationLedger.free``, which runs ~10^6 times
per ``paper-build`` repetition and would cost more to trace than to run.
"""

from __future__ import annotations

import importlib

# (module, class or None, attribute, layer, op)
_TARGETS = (
    ("repro.core.establishment", None, "shortest_path", "routing", "search"),
    ("repro.routing.disjoint", None, "shortest_path", "routing", "search"),
    ("repro.core.establishment", "EstablishmentEngine", "establish",
     "establishment", "establish"),
    ("repro.core.establishment", "EstablishmentEngine", "establish_batch",
     "establishment", "establish_batch"),
    ("repro.core.establishment", "EstablishmentEngine", "teardown",
     "establishment", "teardown"),
    ("repro.core.multiplexing", "MultiplexingEngine", "add_backup",
     "mux", "add"),
    ("repro.core.multiplexing", "MultiplexingEngine", "remove_backup",
     "mux", "remove"),
    ("repro.core.multiplexing", "MultiplexingEngine", "remove_backups",
     "mux", "remove"),
    ("repro.core.multiplexing", "LinkMuxState", "preview_add",
     "mux", "preview"),
    ("repro.core.muxkernel", "VectorLinkMux", "preview_add",
     "mux", "preview"),
    ("repro.network.reservations", "ReservationLedger", "set_spare",
     "ledger", "set_spare"),
    ("repro.network.reservations", "ReservationLedger", "set_spares",
     "ledger", "set_spare"),
    ("repro.network.reservations", "ReservationLedger", "can_set_spare",
     "ledger", "can_set_spare"),
    ("repro.network.reservations", "ReservationLedger", "free_values",
     "ledger", "free_values"),
    ("repro.network.reservations", "ReservationLedger", "audit",
     "ledger", "audit"),
    ("repro.channels.admission", "AdmissionController", "reserve_primary",
     "ledger", "reserve_primary"),
    ("repro.channels.admission", "AdmissionController", "release_primary",
     "ledger", "release_primary"),
    ("repro.channels.registry", "ChannelRegistry", "affected_by",
     "registry", "affected_by"),
    ("repro.channels.registry", "ChannelRegistry", "add", "registry", "add"),
    ("repro.channels.registry", "ChannelRegistry", "remove",
     "registry", "remove"),
    ("repro.recovery.evaluator", "RecoveryEvaluator", "__init__",
     "evaluator", "construct"),
    ("repro.recovery.evaluator", "RecoveryEvaluator", "evaluate",
     "evaluator", "evaluate"),
    ("repro.workload.churn", None, "evaluate_scenarios", "parallel", "fan_out"),
    ("repro.serve.server", None, "evaluate_scenarios", "parallel", "fan_out"),
    ("repro.sim.engine", "EventEngine", "run", "engine", "run"),
    ("repro.protocol.daemon", "BCPDaemon", "receive", "daemon", "receive"),
    ("repro.protocol.daemon", "BCPDaemon", "on_component_failure",
     "daemon", "on_component_failure"),
    ("repro.protocol.rcc", "RCCLink", "send", "rcc", "send"),
    ("repro.protocol.runtime", "ProtocolSimulation", "__init__",
     "runtime", "construct"),
    ("repro.protocol.runtime", "ProtocolSimulation", "try_draw",
     "runtime", "try_draw"),
    ("repro.protocol.runtime", "ProtocolSimulation", "rcc_totals",
     "rcc", "totals"),
    ("repro.workload.churn", "ChurnEngine", "run", "churn", "run"),
    ("repro.serve.client", "RemoteNetwork", "establish_batch",
     "client", "establish"),
    ("repro.serve.client", "RemoteNetwork", "teardown", "client", "teardown"),
    ("repro.serve.client", "RemoteNetwork", "audit_invariants",
     "client", "audit"),
    ("repro.serve.client", "RemoteNetwork", "evaluate_failures",
     "client", "evaluate"),
    ("repro.serve.state", None, "snapshot_network", "state", "snapshot"),
    ("repro.serve.state", None, "restore_network", "state", "restore"),
)


def _call_request(args, kwargs, result):
    """``ServeClient.call`` is about to send id ``_next_id + 1``."""
    if result is not None:
        return None
    return args[0]._next_id + 1


def _handle_request(args, kwargs, result):
    return args[1].get("id")


def _encode_request(args, kwargs, result):
    return args[0].get("id")


def _decode_request(args, kwargs, result):
    return result.get("id") if isinstance(result, dict) else None


def install(tracer) -> None:
    """Wrap every layer entry point with ``tracer``."""
    for module_name, class_name, attribute, layer, op in _TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attribute, layer, op)
    client = importlib.import_module("repro.serve.client")
    server = importlib.import_module("repro.serve.server")
    protocol = importlib.import_module("repro.serve.protocol")
    # The call span's self time is what is left of a round trip once both
    # peers' codec and the server's handler are taken out: the wire.
    tracer.wrap(client.ServeClient, "call", "wire", "call",
                request_of=_call_request, opens_request=True)
    tracer.wrap(server.AdmissionServer, "handle_request", "server", "handle",
                request_of=_handle_request)
    tracer.wrap(protocol, "encode_message", "codec", "encode",
                request_of=_encode_request)
    tracer.wrap(protocol, "decode_message", "codec", "decode",
                request_of=_decode_request)


#: name -> unit, in the order BENCHMARK.json lists them.  ``*_s`` values
#: are calibrated self seconds per repetition; counts are per repetition.
PER_LAYER_METRICS = {
    "routing.calls": "count",
    "routing.self_s": "s",
    "routing.cache_hit_ratio": "ratio",
    "establishment.establish_calls": "count",
    "establishment.teardown_calls": "count",
    "establishment.rejected": "count",
    "establishment.self_s": "s",
    "mux.add_calls": "count",
    "mux.remove_calls": "count",
    "mux.preview_calls": "count",
    "mux.self_s": "s",
    "ledger.calls": "count",
    "ledger.self_s": "s",
    "ledger.audit_s": "s",
    "registry.calls": "count",
    "registry.self_s": "s",
    "evaluator.scenarios": "count",
    "evaluator.activations": "count",
    "evaluator.mux_failures": "count",
    "evaluator.self_s": "s",
    "evaluator.link_s": "s",
    "evaluator.node_s": "s",
    "evaluator.node2_s": "s",
    "parallel.calls": "count",
    "parallel.self_s": "s",
    "engine.events": "count",
    "engine.self_s": "s",
    "daemon.calls": "count",
    "daemon.self_s": "s",
    "rcc.sends": "count",
    "rcc.retransmissions": "count",
    "rcc.self_s": "s",
    "runtime.construct_s": "s",
    "runtime.draws": "count",
    "runtime.draw_fail_ratio": "ratio",
    "runtime.recovery_delay_max": "sim_s",
    "runtime.self_s": "s",
    "churn.events": "count",
    "churn.batches": "count",
    "churn.self_s": "s",
    "client.calls": "count",
    "client.self_s": "s",
    "server.requests": "count",
    "server.self_s": "s",
    "wire.self_s": "s",
    "codec.frames": "count",
    "codec.bytes": "bytes",
    "codec.self_s": "s",
    "state.snapshot_s": "s",
    "state.restore_s": "s",
    "state.snapshot_bytes": "bytes",
    "obs.overhead_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "trace.spans": "count",
    "bench.calib_s": "s",
    "bench.reps": "count",
    "bench.retried_reps": "count",
    "bench.wall_raw_s": "s",
}


def rep_metrics(totals: dict, counters: dict) -> dict[str, float]:
    """One traced repetition's metrics: those that follow from its
    calibrated :func:`tracing.op_totals`, plus the ``counters`` the
    workload read off the program (what no span can see)."""

    def calls(layer, *ops):
        return sum(count for (name, op), (count, _) in totals.items()
                   if name == layer and (not ops or op in ops))

    def seconds(layer, *ops):
        return sum(own for (name, op), (_, own) in totals.items()
                   if name == layer and (not ops or op in ops))

    metrics = {
        "routing.calls": calls("routing"),
        "routing.self_s": seconds("routing"),
        "establishment.establish_calls": calls(
            "establishment", "establish", "establish_batch"),
        "establishment.teardown_calls": calls("establishment", "teardown"),
        "establishment.self_s": seconds("establishment"),
        "mux.add_calls": calls("mux", "add"),
        "mux.remove_calls": calls("mux", "remove"),
        "mux.preview_calls": calls("mux", "preview"),
        "mux.self_s": seconds("mux"),
        "ledger.calls": calls("ledger"),
        "ledger.self_s": seconds("ledger"),
        "ledger.audit_s": seconds("ledger", "audit"),
        "registry.calls": calls("registry"),
        "registry.self_s": seconds("registry"),
        "evaluator.scenarios": calls("evaluator", "evaluate"),
        "evaluator.self_s": seconds("evaluator"),
        "parallel.calls": calls("parallel"),
        "parallel.self_s": seconds("parallel"),
        "engine.self_s": seconds("engine"),
        "daemon.calls": calls("daemon"),
        "daemon.self_s": seconds("daemon"),
        "rcc.sends": calls("rcc", "send"),
        "rcc.self_s": seconds("rcc"),
        "runtime.construct_s": seconds("runtime", "construct"),
        "runtime.draws": calls("runtime", "try_draw"),
        "runtime.self_s": seconds("runtime"),
        "churn.self_s": seconds("churn"),
        "client.calls": calls("wire", "call"),
        "client.self_s": seconds("client"),
        "server.requests": calls("server", "handle"),
        "server.self_s": seconds("server"),
        "wire.self_s": seconds("wire"),
        "codec.frames": calls("codec"),
        "codec.self_s": seconds("codec"),
        "state.snapshot_s": seconds("state", "snapshot"),
        "state.restore_s": seconds("state", "restore"),
    }
    metrics.update(counters)
    failed_draws = metrics.pop("runtime.draws_failed", 0)
    metrics["runtime.draw_fail_ratio"] = (
        failed_draws / metrics["runtime.draws"]
        if metrics["runtime.draws"] else 0.0
    )
    return metrics
