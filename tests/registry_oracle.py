"""Reference oracle for :class:`repro.channels.registry.ChannelRegistry`.

The registry used to keep a per-component id set beside its per-link
index, built from a component frozenset cached on every channel.  It now
answers node queries from the link index alone.  This oracle answers
every registry query by walking the live channels' ``path.nodes`` and
``path.links`` — slow and obviously right — so that
``tests/test_registry_differential.py`` has something independent to hold
the index against.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.channels.channel import Channel, ChannelRole
from repro.channels.registry import ChannelRegistry


def _crosses(channel: Channel, component: object) -> bool:
    path = channel.path
    return component in path.nodes or component in path.links


def on_component(registry: ChannelRegistry, component: object) -> list[Channel]:
    """Channels whose path includes ``component``, in ascending id."""
    return sorted(
        (channel for channel in registry.channels()
         if _crosses(channel, component)),
        key=lambda channel: channel.channel_id,
    )


def affected_by(registry: ChannelRegistry,
                failed_components: Iterable[object]) -> set[int]:
    """Ids of the channels any of ``failed_components`` lies on."""
    failed = list(failed_components)
    return {
        channel.channel_id for channel in registry.channels()
        if any(_crosses(channel, component) for component in failed)
    }


def primaries_on_link(registry: ChannelRegistry, link) -> list[Channel]:
    """Primaries crossing ``link``, in registration order."""
    return [
        channel for channel in registry.channels()
        if channel.role is ChannelRole.PRIMARY and link in channel.path.links
    ]


def channel_count_on_link(registry: ChannelRegistry, link) -> int:
    return sum(link in channel.path.links for channel in registry.channels())
