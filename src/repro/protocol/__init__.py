"""The BCP runtime protocol over the discrete-event kernel (Sections 4-5).

This package implements the *dynamic* side of the Backup Channel Protocol:

* per-node BCP daemons with the N/P/B/U channel state machine (Fig. 4),
* failure detection hand-off, failure reporting along healthy channel
  segments, and the three channel-switching schemes (Fig. 5),
* bi-directional backup activation with serial-number consistency and
  spare-pool draws (multiplexing failures included),
* priority-based activation — activation-delay and preemption variants
  (Section 4.3),
* soft-state resource reconfiguration: rejoin timers, rejoin-request /
  rejoin / channel-closure messages (Section 4.4, Fig. 6),
* the RCC network: per-link real-time control channels with eligibility
  spacing, fragmentation/assembly, sequence numbers, and hop-by-hop
  acknowledgement with retransmission (Section 5.1).

The entry point is :class:`~repro.protocol.runtime.ProtocolSimulation`,
which wires daemons and RCC links up from a loaded
:class:`~repro.core.bcp.BCPNetwork`.
"""

from repro.protocol.config import ProtocolConfig, RCCParams, SwitchingScheme
from repro.protocol.messages import (
    ActivationAck,
    ActivationMessage,
    ChannelClosure,
    Direction,
    FailureReport,
    RejoinConfirm,
    RejoinRequest,
)
from repro.protocol.invariants import InvariantAuditor, InvariantViolation
from repro.protocol.runtime import (
    ProtocolMetrics,
    ProtocolSimulation,
    RecoveryRecord,
    simulate_scenario,
)
from repro.protocol.signaling import establishment_latency
from repro.protocol.states import ChannelEvent, LocalChannelState

__all__ = [
    "ProtocolSimulation",
    "ProtocolMetrics",
    "RecoveryRecord",
    "simulate_scenario",
    "establishment_latency",
    "ProtocolConfig",
    "RCCParams",
    "SwitchingScheme",
    "LocalChannelState",
    "ChannelEvent",
    "InvariantAuditor",
    "InvariantViolation",
    "Direction",
    "FailureReport",
    "ActivationMessage",
    "ActivationAck",
    "RejoinRequest",
    "RejoinConfirm",
    "ChannelClosure",
]
