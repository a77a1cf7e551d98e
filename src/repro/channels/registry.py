"""Network-wide channel registry.

The registry indexes channels three ways — by id, by link, and by
component — so that the multiplexing engine can enumerate the backups on a
link, and the fault models can answer "which channels does this failure
disable?" in time proportional to the answer.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator

from repro.channels.channel import Channel, ChannelRole
from repro.network.components import LinkId


class ChannelRegistry:
    """Mutable index of all live channels in a network."""

    def __init__(self) -> None:
        self._by_id: dict[int, Channel] = {}
        self._by_link: dict[LinkId, dict[int, Channel]] = defaultdict(dict)
        self._by_component: dict[object, set[int]] = defaultdict(set)
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
        if channel.channel_id in self._by_id:
            raise ValueError(f"duplicate channel id {channel.channel_id}")
        self._by_id[channel.channel_id] = channel
        for link in channel.path.links:
            self._by_link[link][channel.channel_id] = channel
        for component in channel.components:
            self._by_component[component].add(channel.channel_id)
        return channel

    def remove(self, channel_id: int) -> Channel:
        """Deregister and return the channel (teardown / closure)."""
        channel = self._by_id.pop(channel_id, None)
        if channel is None:
            raise KeyError(f"unknown channel id {channel_id}")
        for link in channel.path.links:
            siblings = self._by_link[link]
            siblings.pop(channel_id, None)
            if not siblings:
                del self._by_link[link]
        for component in channel.components:
            owners = self._by_component[component]
            owners.discard(channel_id)
            if not owners:
                del self._by_component[component]
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
        """Primary channels traversing ``link``."""
        return [
            channel
            for channel in self._by_link.get(link, {}).values()
            if channel.role is ChannelRole.PRIMARY
        ]

    def on_component(self, component: object) -> list[Channel]:
        """Channels whose path includes the given node or link."""
        return [self._by_id[cid] for cid in self._by_component.get(component, ())]

    def affected_by(self, failed_components: Iterable[object]) -> set[int]:
        """Ids of channels disabled by failing all of ``failed_components``."""
        affected: set[int] = set()
        for component in failed_components:
            affected.update(self._by_component.get(component, ()))
        return affected

    def channel_count_on_link(self, link: LinkId) -> int:
        """Number of channels (primary + backup) on ``link`` — the ``y``
        term of the RCC sizing rule (Section 5.2)."""
        return len(self._by_link.get(link, {}))
