"""Topology import.

Operators bring their own networks as plain edge-list text, one link per
line::

    # comment lines and blanks are ignored
    a b 150          # duplex pair a<->b at capacity 150
    b c 100 simplex  # one simplex link b->c only
"""

from __future__ import annotations

from repro.network.topology import Topology


def from_edge_list(text: str, name: str = "imported") -> Topology:
    """Parse edge-list text into a topology.

    Node labels are read as integers when possible, else kept as strings.
    """
    def parse_node(token: str):
        try:
            return int(token)
        except ValueError:
            return token

    topology = Topology(name=name)
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ValueError(
                f"line {line_number}: expected 'src dst capacity [simplex]', "
                f"got {raw!r}"
            )
        src, dst = parse_node(parts[0]), parse_node(parts[1])
        try:
            capacity = float(parts[2])
        except ValueError:
            raise ValueError(
                f"line {line_number}: bad capacity {parts[2]!r}"
            ) from None
        if len(parts) == 4:
            if parts[3] != "simplex":
                raise ValueError(
                    f"line {line_number}: unknown marker {parts[3]!r}"
                )
            topology.add_link(src, dst, capacity)
        else:
            topology.add_duplex_link(src, dst, capacity)
    return topology
