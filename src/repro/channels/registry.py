"""Network-wide channel registry.

The registry indexes channels by id and by link, so that the
multiplexing engine can enumerate the channels on a link, and the fault
models can answer "which channels does this failure disable?" in time
proportional to the answer.  The channels themselves live once, in the
id index; a link's entry is the list of the ids of the channels that
cross it, in registration order.  The link index is the only
per-component one: every node of a path is an end of one of its links,
so a node's channels are those on the links at that node, which a
node -> links map names (a channel through the node is on two of them
and is listed once).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.channels.channel import Channel, ChannelRole
from repro.network.components import LinkId, NodeId


class ChannelRegistry:
    """Mutable index of all live channels in a network."""

    def __init__(self) -> None:
        self._by_id: dict[int, Channel] = {}
        #: link -> ids of the channels on it, in registration order; only
        #: links that carry a channel have an entry.
        self._by_link: dict[LinkId, list[int]] = {}
        #: node -> the keys of ``_by_link`` with that node at either end.
        self._links_at: dict[NodeId, set[LinkId]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # id allocation
    # ------------------------------------------------------------------
    def allocate_id(self) -> int:
        """Next unused channel id."""
        channel_id = self._next_id
        self._next_id += 1
        return channel_id

    @property
    def next_id(self) -> int:
        """The id :meth:`allocate_id` would hand out next.

        Settable so snapshot restore (:mod:`repro.serve.state`) resumes
        the allocation sequence exactly where the snapshotted registry
        stopped — re-used ids would collide with departed channels'
        history in traces and artifacts.
        """
        return self._next_id

    @next_id.setter
    def next_id(self, value: int) -> None:
        if value < self._next_id:
            raise ValueError(
                f"next_id may only move forward "
                f"({self._next_id} -> {value})"
            )
        self._next_id = value

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, channel: Channel) -> Channel:
        """Register ``channel``; its id must be unused."""
        channel_id = channel.channel_id
        if channel_id in self._by_id:
            raise ValueError(f"duplicate channel id {channel_id}")
        self._by_id[channel_id] = channel
        by_link = self._by_link
        for link in channel.path.links:
            carried = by_link.get(link)
            if carried is None:
                carried = by_link[link] = []
                for node in (link.src, link.dst):
                    self._links_at.setdefault(node, set()).add(link)
            carried.append(channel_id)
        return channel

    def remove(self, channel_id: int) -> Channel:
        """Deregister and return the channel (teardown / closure)."""
        channel = self._by_id.pop(channel_id, None)
        if channel is None:
            raise KeyError(f"unknown channel id {channel_id}")
        by_link = self._by_link
        for link in channel.path.links:
            carried = by_link[link]
            carried.remove(channel_id)
            if not carried:
                del by_link[link]
                for node in (link.src, link.dst):
                    at = self._links_at[node]
                    at.discard(link)
                    if not at:
                        del self._links_at[node]
        return channel

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, channel_id: object) -> bool:
        return channel_id in self._by_id

    def get(self, channel_id: int) -> Channel:
        """The channel with the given id; raises ``KeyError`` if unknown."""
        try:
            return self._by_id[channel_id]
        except KeyError:
            raise KeyError(f"unknown channel id {channel_id}") from None

    def channels(self) -> Iterator[Channel]:
        """All channels, in registration order."""
        return iter(self._by_id.values())

    def primaries_on_link(self, link: LinkId) -> list[Channel]:
        """Primary channels traversing ``link``, in registration order."""
        by_id = self._by_id
        return [
            channel
            for channel_id in self._by_link.get(link, ())
            if (channel := by_id[channel_id]).role is ChannelRole.PRIMARY
        ]

    def _ids_on(self, component: object) -> set[int]:
        """Ids of the channels whose path includes ``component`` (a node
        or a link)."""
        by_link = self._by_link
        if isinstance(component, LinkId):
            return set(by_link.get(component, ()))
        on: set[int] = set()
        for link in self._links_at.get(component, ()):
            on.update(by_link[link])
        return on

    def on_component(self, component: object) -> list[Channel]:
        """Channels whose path includes the given node or link, in
        ascending channel id."""
        by_id = self._by_id
        return [by_id[channel_id] for channel_id in sorted(self._ids_on(component))]

    def affected_by(self, failed_components: Iterable[object]) -> set[int]:
        """Ids of channels disabled by failing all of ``failed_components``."""
        affected: set[int] = set()
        for component in failed_components:
            affected |= self._ids_on(component)
        return affected

    def channel_count_on_link(self, link: LinkId) -> int:
        """Number of channels (primary + backup) on ``link`` — the ``y``
        term of the RCC sizing rule (Section 5.2)."""
        return len(self._by_link.get(link, ()))
