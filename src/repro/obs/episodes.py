"""Offline reconstruction of recovery episodes from the trace log.

The protocol runtime opens one ``episode`` span per connection whose
primary channel is hit (see :mod:`repro.protocol.runtime`) and files the
detect, report-hop, informed and activate rows of that recovery under
it.  :class:`EpisodeReconstructor` folds a
:class:`~repro.sim.trace.TraceLog` — live, or read back from its
``repro.trace/2`` JSONL export — into :class:`RecoveryEpisode` objects
with the paper's delay breakdown:

* **detect** — failure injection to the first daemon noticing,
* **propagate** — detection to the end-node learning of the failure
  (the failure-report RCC hops),
* **activate** — informed to the first activation dispatched,
* **restore** — activation to the source resuming service.

The four components telescope: their sum is exactly the episode's total
service disruption (the paper's measured Γ).

Each recovered episode is also checked against the analytic bound
Γ ≤ (K−1)·D + 2(b−1)(K−1)·D (Section 5.3) for its own (K, b, D)
configuration, which the runtime stamps into the episode row's attrs.
For an episode containing *multiple* failures (a backup dying while
recovery is in flight), the bound's clock is dated from the **latest**
failure signal preceding resumption — the analysis assumes a single
triggering failure, so restarting the clock at each new failure is the
honest comparison; for single-failure episodes this equals the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.sim.trace import TraceLog
from repro.util.tables import format_table

#: Numerical slack for bound comparisons (pure-float arithmetic).
_EPSILON = 1e-9

#: Child row kinds that mark a (new) failure signal inside an episode —
#: used to date the Γ clock for multi-failure episodes.
_CLOCK_KINDS = frozenset({"detect", "mux-failure"})

#: The row kinds an episode is reconstructed from.
_KINDS = ("episode", "detect", "report-hop", "informed", "activate",
          "mux-failure")


@dataclass
class RecoveryEpisode:
    """One reconstructed per-failure recovery episode."""

    span_id: int
    connection_id: int
    component: str
    failed_at: float
    outcome: str  # "recovered" | "unrecoverable" | "unresolved"
    k_hops: int = 1
    num_backups: int = 1
    d_max: float = 1.0
    detect_at: "float | None" = None
    informed_at: "float | None" = None
    activate_at: "float | None" = None
    resumed_at: "float | None" = None
    completed_at: "float | None" = None
    serial: "int | None" = None
    report_hops: int = 0
    #: Times of every failure signal (detect / mux-failure) observed
    #: inside the episode, in stream order.
    failure_signals: list[float] = field(default_factory=list)

    # -- delay breakdown -----------------------------------------------
    @property
    def total(self) -> "float | None":
        """Failure injection to source resumption — the measured Γ."""
        if self.resumed_at is None:
            return None
        return self.resumed_at - self.failed_at

    @property
    def detect_delay(self) -> "float | None":
        if self.resumed_at is None:
            return None
        return (self.detect_at if self.detect_at is not None
                else self.failed_at) - self.failed_at

    @property
    def propagate_delay(self) -> "float | None":
        if self.resumed_at is None:
            return None
        detect = self.detect_at if self.detect_at is not None \
            else self.failed_at
        informed = self.informed_at if self.informed_at is not None else detect
        return informed - detect

    @property
    def activate_delay(self) -> "float | None":
        if self.resumed_at is None:
            return None
        detect = self.detect_at if self.detect_at is not None \
            else self.failed_at
        informed = self.informed_at if self.informed_at is not None else detect
        activate = self.activate_at if self.activate_at is not None \
            else informed
        return activate - informed

    @property
    def restore_delay(self) -> "float | None":
        if self.resumed_at is None:
            return None
        detect = self.detect_at if self.detect_at is not None \
            else self.failed_at
        informed = self.informed_at if self.informed_at is not None else detect
        activate = self.activate_at if self.activate_at is not None \
            else informed
        return self.resumed_at - activate

    # -- the Γ bound check ---------------------------------------------
    @property
    def bound(self) -> float:
        """The analytic Γ bound for this episode's (K, b, D_max)."""
        # Imported lazily: repro.analysis pulls in the core network stack,
        # which itself imports repro.obs at module load.
        from repro.analysis.delay import recovery_delay_bound

        return recovery_delay_bound(max(1, self.k_hops),
                                    max(1, self.num_backups), self.d_max)

    @property
    def gamma(self) -> "float | None":
        """The delay compared against the bound: resumption minus the
        latest failure signal preceding it (equals :attr:`total` for
        single-failure episodes with instant detection)."""
        if self.resumed_at is None:
            return None
        clock = self.failed_at
        for t in self.failure_signals:
            if clock < t <= self.resumed_at + _EPSILON:
                clock = t
        return self.resumed_at - clock

    @property
    def within_bound(self) -> "bool | None":
        """Whether the episode respects its Γ bound (``None`` when it
        never resumed, so there is nothing to check)."""
        gamma = self.gamma
        if gamma is None:
            return None
        return gamma <= self.bound + _EPSILON

    def to_dict(self) -> dict:
        return {
            "span": self.span_id,
            "connection": self.connection_id,
            "component": self.component,
            "outcome": self.outcome,
            "failed_at": self.failed_at,
            "detect_at": self.detect_at,
            "informed_at": self.informed_at,
            "activate_at": self.activate_at,
            "resumed_at": self.resumed_at,
            "completed_at": self.completed_at,
            "serial": self.serial,
            "report_hops": self.report_hops,
            "k_hops": self.k_hops,
            "num_backups": self.num_backups,
            "d_max": self.d_max,
            "detect": self.detect_delay,
            "propagate": self.propagate_delay,
            "activate": self.activate_delay,
            "restore": self.restore_delay,
            "total": self.total,
            "gamma": self.gamma,
            "bound": self.bound,
            "within_bound": self.within_bound,
        }


class EpisodeReconstructor:
    """Fold a trace log into recovery episodes."""

    def __init__(self) -> None:
        self.episodes: list[RecoveryEpisode] = []
        self._by_span: dict[int, RecoveryEpisode] = {}

    # -- feeding --------------------------------------------------------
    def add_log(self, trace: TraceLog) -> "EpisodeReconstructor":
        """Consume a log's episode rows and the steps filed under them."""
        for row in trace.select(*_KINDS):
            if row.kind == "episode":
                attrs = row.attrs
                episode = RecoveryEpisode(
                    span_id=row.id,
                    connection_id=attrs["connection"],
                    component=str(row.node),
                    failed_at=row.t,
                    outcome=str(attrs.get("outcome", "unresolved")),
                    k_hops=int(attrs["k_hops"]),
                    num_backups=int(attrs["num_backups"]),
                    d_max=float(attrs["d_max"]),
                    serial=attrs.get("serial"),
                )
                if episode.outcome == "recovered":
                    episode.resumed_at = row.t_end
                    episode.completed_at = attrs.get("completed")
                self.episodes.append(episode)
                self._by_span[row.id] = episode
                continue
            episode = self._by_span.get(row.parent)
            if episode is None:
                continue
            t = row.t
            if row.kind in _CLOCK_KINDS:
                episode.failure_signals.append(t)
            if row.kind == "detect":
                if episode.detect_at is None or t < episode.detect_at:
                    episode.detect_at = t
            elif row.kind == "report-hop":
                episode.report_hops += 1
            elif row.kind == "informed":
                if episode.informed_at is None or t < episode.informed_at:
                    episode.informed_at = t
            elif row.kind == "activate":
                if episode.activate_at is None or t < episode.activate_at:
                    episode.activate_at = t
        return self

    def add_file(self, path: "Path | str") -> "EpisodeReconstructor":
        """Consume a ``repro.trace/2`` JSONL export (``ValueError`` on a
        file of any other schema)."""
        return self.add_log(TraceLog.from_jsonl(Path(path).read_text()))

    # -- summaries ------------------------------------------------------
    def violations(self) -> list[RecoveryEpisode]:
        """Episodes whose measured delay exceeds their Γ bound."""
        return [e for e in self.episodes if e.within_bound is False]

    def summary(self) -> dict:
        recovered = [e for e in self.episodes if e.outcome == "recovered"]
        totals = sorted(e.total for e in recovered if e.total is not None)
        return {
            "episodes": len(self.episodes),
            "recovered": len(recovered),
            "unrecoverable": sum(1 for e in self.episodes
                                 if e.outcome == "unrecoverable"),
            "unresolved": sum(1 for e in self.episodes
                              if e.outcome == "unresolved"),
            "violations": len(self.violations()),
            "max_total": totals[-1] if totals else None,
        }

    def format_table(self) -> str:
        """The deterministic per-episode breakdown table."""

        def fmt(value) -> str:
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        rows = []
        for e in self.episodes:
            verdict = "-"
            if e.within_bound is True:
                verdict = "ok"
            elif e.within_bound is False:
                verdict = "VIOLATED"
            rows.append([
                e.span_id, e.connection_id, e.component, e.outcome,
                fmt(e.failed_at), fmt(e.detect_delay), fmt(e.propagate_delay),
                fmt(e.activate_delay), fmt(e.restore_delay), fmt(e.total),
                fmt(e.gamma), fmt(e.bound), verdict,
            ])
        return format_table(
            ["episode", "conn", "component", "outcome", "failed",
             "detect", "propagate", "activate", "restore", "total",
             "gamma", "bound", "vs bound"],
            rows,
            title="Recovery episodes",
        )
