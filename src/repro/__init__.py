"""repro — reproduction of Han & Shin, "Fast Restoration of Real-Time
Communication Service from Component Failures in Multi-hop Networks"
(SIGCOMM 1997).

The library implements the Backup Channel Protocol (BCP): dependable
real-time connections consisting of a primary channel plus cold-standby
backup channels whose spare resources are shared through *backup
multiplexing*, together with the failure-recovery protocol, the real-time
control channel (RCC) network, baselines, and the paper's full evaluation
harness.

Quickstart::

    from repro import BCPNetwork, FaultToleranceQoS, torus
    from repro.faults import FailureScenario
    from repro.recovery import RecoveryEvaluator

    net = BCPNetwork(torus(8, 8))  # the paper's torus and link capacity
    conn = net.establish(0, 63, ft_qos=FaultToleranceQoS(num_backups=1,
                                                         mux_degree=3))
    evaluator = RecoveryEvaluator(net)
    result = evaluator.evaluate(
        FailureScenario.of_links([conn.primary.path.links[0]]))
    print(result.r_fast)
"""

from repro.channels import (
    Channel,
    ChannelRole,
    DelayQoS,
    FaultToleranceQoS,
    TrafficSpec,
)
from repro.core import (
    BCPNetwork,
    ConnectionState,
    DConnection,
    EstablishmentError,
    NegotiationOffer,
    OverlapPolicy,
)
from repro.network import Topology, mesh, torus
from repro.obs import MetricsRegistry, NullRegistry
from repro.routing import Path

__version__ = "1.0.0"

__all__ = [
    "BCPNetwork",
    "DConnection",
    "ConnectionState",
    "EstablishmentError",
    "NegotiationOffer",
    "OverlapPolicy",
    "Channel",
    "ChannelRole",
    "TrafficSpec",
    "DelayQoS",
    "FaultToleranceQoS",
    "Topology",
    "Path",
    "MetricsRegistry",
    "NullRegistry",
    "torus",
    "mesh",
    "__version__",
]
