"""BCP core: the paper's primary contribution.

* :mod:`repro.core.overlap` — the simultaneous-activation probability
  ``S(B_i, B_j)`` and the multiplexability test (Section 3.2).
* :mod:`repro.core.multiplexing` — per-link backup multiplexing state,
  Π/Ψ sets, spare-pool sizing with O(n) incremental maintenance
  (Sections 3.2, 6).
* :mod:`repro.core.reliability` — the combinatorial ``P_r`` model and the
  multiplexing-failure bound (Sections 3.1, 3.3).
* :mod:`repro.core.dconnection` — dependable-connection objects.
* :mod:`repro.core.establishment` — D-connection establishment with both
  QoS-negotiation schemes (Section 3.4).
* :mod:`repro.core.bcp` — the :class:`~repro.core.bcp.BCPNetwork` facade,
  the library's main entry point.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # for tools; at run time a name is imported on first use
    from repro.core.bcp import BCPNetwork, EstablishmentError
    from repro.core.dconnection import ConnectionState, DConnection
    from repro.core.establishment import (
        BatchRequest,
        EstablishmentEngine,
        NegotiationOffer,
    )
    from repro.core.multiplexing import LinkMuxState, MultiplexingEngine
    from repro.core.overlap import (
        OverlapPolicy,
        simultaneous_activation_probability,
    )
    from repro.core.reliability import (
        channel_reliability,
        connection_pr,
        p_muxf_upper_bound,
    )

__all__ = [
    "BCPNetwork",
    "BatchRequest",
    "EstablishmentError",
    "DConnection",
    "ConnectionState",
    "EstablishmentEngine",
    "NegotiationOffer",
    "MultiplexingEngine",
    "LinkMuxState",
    "OverlapPolicy",
    "simultaneous_activation_probability",
    "channel_reliability",
    "connection_pr",
    "p_muxf_upper_bound",
]

__getattr__ = lazy_exports(__name__, {
    "bcp": ("BCPNetwork", "EstablishmentError"),
    "dconnection": ("ConnectionState", "DConnection"),
    "establishment": (
        "BatchRequest", "EstablishmentEngine", "NegotiationOffer",
    ),
    "multiplexing": ("LinkMuxState", "MultiplexingEngine"),
    "overlap": (
        "OverlapPolicy",
        "simultaneous_activation_probability",
    ),
    "reliability": (
        "channel_reliability", "connection_pr", "p_muxf_upper_bound",
    ),
})
