"""Chaos profiles: seeded generators of fault schedules.

Each profile turns an RNG plus an established network into one
:class:`~repro.chaos.schedule.ChaosSchedule` exercising a specific
failure shape the BCP recovery machinery must survive:

* ``flapping``        — one link crashes and heals repeatedly,
* ``regional``        — a node and a neighbour die near-simultaneously
  (correlated regional failure), repaired later,
* ``cascade``         — staggered failures marching across a
  connection's channels,
* ``failure_during_recovery`` — the primary dies, then the backup being
  activated dies *while the activation is in flight* (trace-triggered),
* ``backup_before_primary``   — a standby backup dies first, then the
  primary (the health table must steer activation past the dead backup),
* ``repair_race``     — a failed component is repaired right around the
  soft-state rejoin-timeout boundary, racing expiry against rejoin.

All randomness flows through the passed RNG; every choice draws from
deterministically ordered candidates, so a (profile, seed, network)
triple always yields the same schedule.
"""

from __future__ import annotations

from repro.chaos.schedule import FAIL, REPAIR, ChaosEvent, ChaosSchedule, ChaosTrigger
from repro.protocol.config import SWITCHOVER_RETRY_WINDOW

#: First injection time: late enough that establishment-time state is
#: fully installed, early enough to keep runs short.
BASE_TIME = 5.0

#: Horizon room for the rejoin a last-moment repair starts: its hint up
#: to the source, the rejoin-request down and the confirm back.
REJOIN_SLACK = 10.0


# ----------------------------------------------------------------------
# deterministic selection helpers
# ----------------------------------------------------------------------
def _connections(network) -> list:
    return sorted(network.connections(), key=lambda c: c.connection_id)


def _pick_connection(rng, network):
    connections = _connections(network)
    if not connections:
        raise ValueError("chaos profiles need at least one connection")
    return connections[rng.randrange(len(connections))]


def _mid_link(rng, channel):
    """A link of the channel's path, preferring interior hops (failing an
    endpoint-adjacent link risks hitting the end-node's only exit)."""
    links = channel.path.links
    interior = links[1:-1] if len(links) > 2 else links
    return interior[rng.randrange(len(interior))]


def _backup_of(rng, connection):
    backups = sorted(connection.backups, key=lambda ch: ch.serial)
    if not backups:
        return None
    return backups[rng.randrange(len(backups))]


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------
def flapping(rng, network, config):
    """One link fails and repairs in quick cycles (link flapping)."""
    connection = _pick_connection(rng, network)
    link = _mid_link(rng, connection.primary)
    events = []
    time = BASE_TIME
    for _ in range(rng.randint(2, 4)):
        down = rng.uniform(5.0, 20.0)
        up = rng.uniform(10.0, 30.0)
        events.append(ChaosEvent(time=time, action=FAIL, component=link))
        events.append(ChaosEvent(time=time + down, action=REPAIR,
                                 component=link))
        time += down + up
    return events, []


def regional(rng, network, config):
    """A node and one of its neighbours crash almost together — the
    correlated regional failure that defeats naive disjointness."""
    topology = network.topology
    nodes = sorted(topology.nodes())
    node = nodes[rng.randrange(len(nodes))]
    neighbours = sorted(
        set(topology.successors(node)) | set(topology.predecessors(node))
    )
    neighbour = neighbours[rng.randrange(len(neighbours))]
    stagger = rng.uniform(0.0, 2.0)
    outage = rng.uniform(60.0, 90.0)
    events = [
        ChaosEvent(time=BASE_TIME, action=FAIL, component=node),
        ChaosEvent(time=BASE_TIME + stagger, action=FAIL,
                   component=neighbour),
        ChaosEvent(time=BASE_TIME + outage, action=REPAIR, component=node),
        ChaosEvent(time=BASE_TIME + outage + stagger, action=REPAIR,
                   component=neighbour),
    ]
    return events, []


def cascade(rng, network, config):
    """Failures marching across one connection's channels: the primary
    first, then each backup a few time units later."""
    connection = _pick_connection(rng, network)
    events = [
        ChaosEvent(time=BASE_TIME, action=FAIL,
                   component=_mid_link(rng, connection.primary))
    ]
    time = BASE_TIME
    for backup in sorted(connection.backups, key=lambda ch: ch.serial):
        time += rng.uniform(2.0, 10.0)
        events.append(
            ChaosEvent(time=time, action=FAIL,
                       component=_mid_link(rng, backup))
        )
    return events, []


def failure_during_recovery(rng, network, config):
    """Crash the primary, then crash the first backup *while its
    activation is in flight* — armed on the run's first ``activate`` row,
    with the target pre-chosen here."""
    connection = _pick_connection(rng, network)
    backup = _backup_of(rng, connection)
    events = [
        ChaosEvent(time=BASE_TIME, action=FAIL,
                   component=_mid_link(rng, connection.primary))
    ]
    triggers = []
    if backup is not None:
        triggers.append(
            ChaosTrigger(
                category="activate",
                delay=rng.uniform(0.0, 1.0),
                action=FAIL,
                component=_mid_link(rng, backup),
            )
        )
    return events, triggers


def backup_before_primary(rng, network, config):
    """A standby backup dies first; the primary follows.  Activation must
    skip the dead backup via the end-nodes' health tables."""
    connection = _pick_connection(rng, network)
    backup = _backup_of(rng, connection)
    events = []
    time = BASE_TIME
    if backup is not None:
        events.append(
            ChaosEvent(time=time, action=FAIL,
                       component=_mid_link(rng, backup))
        )
        time += rng.uniform(5.0, 15.0)
    events.append(
        ChaosEvent(time=time, action=FAIL,
                   component=_mid_link(rng, connection.primary))
    )
    return events, []


def repair_race(rng, network, config):
    """Repair the failed primary link right around the rejoin-timeout
    boundary, racing soft-state expiry against the rejoin the repair
    notice starts."""
    connection = _pick_connection(rng, network)
    link = _mid_link(rng, connection.primary)
    # The rejoin timer arms at detection (shortly after the crash); a
    # repair inside [0.85, 1.15] x timeout lands on both sides of expiry
    # across seeds, including the rejoin-vs-expiry race in the middle.
    offset = config.rejoin_timeout * rng.uniform(0.85, 1.15)
    events = [
        ChaosEvent(time=BASE_TIME, action=FAIL, component=link),
        ChaosEvent(time=BASE_TIME + offset, action=REPAIR, component=link),
    ]
    return events, []


#: Name -> generator; iteration order is the default campaign rotation.
PROFILES = {
    "flapping": flapping,
    "regional": regional,
    "cascade": cascade,
    "failure_during_recovery": failure_during_recovery,
    "backup_before_primary": backup_before_primary,
    "repair_race": repair_race,
}

DEFAULT_PROFILES = tuple(PROFILES)


def build_schedule(profile: str, seed: int, network, config) -> ChaosSchedule:
    """Generate one schedule for ``profile`` from ``seed``.

    The horizon is sized so every soft-state timer armed by the last
    injection can expire, and the rejoin a last repair starts can finish
    — a run that still has pending events at the horizon has genuinely
    failed to quiesce.
    """
    from repro.util.rng import make_rng

    generator = PROFILES.get(profile)
    if generator is None:
        raise ValueError(
            f"unknown chaos profile {profile!r}; "
            f"known: {', '.join(sorted(PROFILES))}"
        )
    rng = make_rng(seed)
    events, triggers = generator(rng, network, config)
    events = sorted(events, key=lambda event: event.time)
    last = max((event.time for event in events), default=BASE_TIME)
    slack = config.rejoin_timeout + REJOIN_SLACK + 50.0
    if triggers:
        # A triggered injection lands within a recovery window of a
        # static one; give its own rejoin cycle room too.
        slack += config.rejoin_timeout
    # The switchover handshake may chew through every backup of a
    # connection at full retry/backoff before falling back; give the
    # worst-case chain room so exhaustion resolves inside the horizon.
    max_backups = max(
        (len(connection.backups) for connection in network.connections()),
        default=1,
    )
    slack += SWITCHOVER_RETRY_WINDOW * max(max_backups, 1)
    return ChaosSchedule(
        seed=seed,
        profile=profile,
        horizon=last + slack,
        events=tuple(events),
        triggers=tuple(triggers),
    )
