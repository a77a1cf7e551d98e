"""Observability: the metrics registry, trace export, and run profiling.

The rest of the stack (event kernel, protocol runtime, RCC links,
recovery evaluator, experiment harness) records into whatever registry
it is given — or, by default, into the process-wide *session* registry
(:func:`get_registry`), which is what ``python -m repro <cmd>
--metrics-out`` snapshots.  :class:`NullRegistry` de-instruments a hot
loop; :func:`obs_session` scopes a fresh registry around a run.

See the "Observability" section of docs/architecture.md for the
exported schemas and the instrument naming scheme.
"""

from repro.obs.episodes import EpisodeReconstructor, RecoveryEpisode
from repro.obs.export import (
    format_metrics,
    write_json,
    write_metrics,
    write_trace,
)
from repro.obs.slo import SLOEngine, SLOResult, SLOTarget, format_results
from repro.obs.registry import (
    Counter,
    DEFAULT_MAX_SAMPLES,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    SNAPSHOT_SCHEMA,
    Series,
    Timer,
    get_registry,
    get_trace_sink,
    obs_session,
    set_registry,
    set_trace_sink,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "SNAPSHOT_SCHEMA",
    "DEFAULT_MAX_SAMPLES",
    "get_registry",
    "set_registry",
    "get_trace_sink",
    "set_trace_sink",
    "obs_session",
    "write_json",
    "write_metrics",
    "write_trace",
    "format_metrics",
    "EpisodeReconstructor",
    "RecoveryEpisode",
    "SLOEngine",
    "SLOTarget",
    "SLOResult",
    "format_results",
]
