"""Flat-index routing core: CSR topology, reusable buffers, route cache.

Every primary/backup establishment and every baseline funnels through
:func:`repro.routing.shortest.shortest_path` / ``hop_distance``.  The
reference implementations there walk ``NodeId``-keyed dicts, allocate a
fresh ``parent``/``seen`` per call, and pay a ``topology.link(u, v)``
object lookup plus a Python predicate call per scanned link.  This module
compiles a :class:`~repro.network.topology.Topology` **once** into
integer-indexed CSR (compressed sparse row) arrays and reruns all searches
over them:

* **CSR layout** — nodes are interned to dense ints in insertion order;
  ``_off[u]:_off[u+1]`` spans ``u``'s outgoing edge slots in ``_nbr``
  (neighbour index), ``_links`` (the original :class:`LinkId`), and
  ``_cap`` (capacity).  Because the CSR is built in insertion order,
  scans reproduce the reference implementation's deterministic tie-break
  order bit for bit.
* **BFS trees** — one full unconstrained BFS tree per source, built on
  first use: every node's parent edge, depth and discovery order.  A BFS
  that stops at ``t`` discovers nodes in the same order, over the same
  parent edges, as the full one up to ``t``.  So ``hop_distance``, an
  exclusion-free search, and a capacity-floor search the floor cannot
  change (no below-floor link is the tree edge of a node discovered no
  later than ``t``) are each a walk up the tree; a ``t`` deeper than
  ``max_hops`` has no route at all.
* **Epoch-stamped buffers** — visited/parent/distance/cost arrays are
  allocated once and invalidated by bumping a single epoch counter, so a
  search does no per-call allocation beyond its frontier list.
* **Constraint pre-resolution** — excluded node/link sets are stamped
  into integer arrays before the scan, and the standard "enough free
  bandwidth" predicate (a :class:`~repro.network.reservations.CapacityFloor`)
  is resolved to an array compare against a free-capacity mirror that
  replays the ledger's change log (only the links written since the
  last search are re-read).  The same replay keeps the set of *low*
  edges, below the largest floor asked for: all a tree test reads.
* **Route cache** — the BFS trees, under the dense source index, and the
  results of searches with exclusions that depend only on the topology
  and the constraint sets, under ``(src, dst, node mask, edge mask,
  max_hops)``: endpoints as dense indices, and the exclusions as
  integer bitmasks over the dense node and edge indices, resolved in the
  same pass that stamps them.  A key holds no frozenset, so a
  ``RouteConstraints`` dies with its search, and two equal exclusion sets
  share one entry however they were built.  Components absent from the
  topology are not in the key, as the search ignores them too.  A search
  gated by a capacity floor the tree cannot answer, a custom predicate or
  a cost function is not cacheable (an admitted floor-gated search is
  followed by its own reservation, which moves the ledger, so its result
  could never be served twice).  Negative results are cached too.
  ``route_cache.hits`` / ``route_cache.misses`` count lookups in the
  ``repro.obs`` registry; a tree answer is a miss if it built the tree.

The compiled view lives on ``topology._flat`` for the topology's lifetime:
compiling it freezes the topology (``Topology.freeze``), so there is no
later version to go stale against.  A failure is searched on this same
view, its components passed as exclusions.  Worker processes never
receive the view in pickles (see ``Topology.__getstate__``) and recompile
lazily.  The view refers to
its topology, and to the ledger its free-capacity mirror follows, only
weakly: a strong reference would close a cycle (``topology._flat`` ->
view -> topology, and view -> ledger -> topology -> view), and a dropped
network, route cache and all, would wait for the cycle collector instead
of going by reference count.
"""

from __future__ import annotations

import heapq
import weakref
from array import array

from repro.network.components import LinkId, NodeId
from repro.network.reservations import (
    CAPACITY_EPSILON,
    CapacityFloor,
    ReservationLedger,
)
from repro.network.topology import Topology
from repro.obs.registry import get_registry
from repro.routing.paths import Path

__all__ = [
    "FlatTopology",
    "RouteCache",
    "flat_view",
]


#: Sentinel distinguishing "cached None" (no feasible path) from a miss.
_MISSING = object()


def flat_view(topology: Topology) -> "FlatTopology":
    """The compiled flat view of ``topology``, cached on it: a topology
    compiles exactly once per process."""
    flat = topology._flat
    if flat is None:
        flat = topology._flat = FlatTopology(topology)
    return flat


class RouteCache:
    """Memoised search results for one :class:`FlatTopology`.

    One table: each source's BFS tree under its dense index, and the
    searches with exclusions whose outcome depends only on the topology
    and the constraint sets (no bandwidth floor, no custom
    predicate/cost) under ``(src, dst, node mask, edge mask, max_hops)``.
    Valid for the lifetime of the flat view.
    """

    #: Safety valve: a table exceeding this is cleared outright rather
    #: than evicted entry-by-entry (workloads never get close; this only
    #: bounds pathological key churn).  A tree is one entry.
    MAX_ENTRIES = 65536

    __slots__ = ("_static", "_registry", "_hits", "_misses")

    def __init__(self) -> None:
        self._static: dict = {}
        self._registry = None
        self._hits = None
        self._misses = None

    # -- tables --------------------------------------------------------
    def static_table(self) -> dict:
        return self._static

    def store(self, key, value) -> None:
        table = self._static
        if len(table) >= self.MAX_ENTRIES:
            table.clear()
        table[key] = value

    # -- observability -------------------------------------------------
    def _counters(self):
        # Re-resolve lazily: obs sessions swap the process registry, and
        # counters are identity-bound to the registry they came from.
        registry = get_registry()
        if registry is not self._registry:
            self._registry = registry
            self._hits = registry.counter("route_cache.hits")
            self._misses = registry.counter("route_cache.misses")
        return self._hits, self._misses

    def record_hit(self) -> None:
        self._counters()[0].inc()

    def record_miss(self) -> None:
        self._counters()[1].inc()

    def __len__(self) -> int:
        return len(self._static)


class FlatTopology:
    """Integer-indexed CSR compilation of a :class:`Topology`.

    Exposes the two search entry points the public routing API dispatches
    to: :meth:`search` (constrained BFS/Dijkstra returning a
    :class:`~repro.routing.paths.Path` or ``None``) and
    :meth:`hop_distance` (a BFS-tree depth, ``-1`` when disconnected).
    Kernels never raise "no path" — the thin wrappers in
    :mod:`repro.routing.shortest` own the error surface.
    """

    def __init__(self, topology: Topology) -> None:
        topology.freeze()
        self._topology = weakref.ref(topology)

        nodes = list(topology.nodes())
        self.nodes = nodes
        self.index: dict[NodeId, int] = {
            node: i for i, node in enumerate(nodes)
        }
        n = len(nodes)
        index = self.index

        # Out-CSR, in node/link insertion order (= tie-break order).  The
        # index arrays the kernels walk per edge are plain lists: CPython
        # indexes a list ~2x faster than an ``array`` (no int re-boxing),
        # and that difference dominates the inner loops.  The cold tables
        # (capacities, link-position map) stay compact ``array`` storage.
        nbr: list[int] = []
        esrc: list[int] = []
        links: list[LinkId] = []
        cap = array("d")
        edge_slot: dict[LinkId, int] = {}
        off = [0] * (n + 1)
        total = 0
        for i, node in enumerate(nodes):
            for neighbour, link in topology.out_edges(node):
                nbr.append(index[neighbour])
                esrc.append(i)
                edge_slot[link] = total
                links.append(link)
                cap.append(topology.capacity(link))
                total += 1
            off[i + 1] = total
        self._off = off
        self._nbr = nbr
        self._esrc = esrc
        self._links = links
        self._cap = cap
        self.edge_slot = edge_slot
        num_edges = total

        # Position-in-``topology.links()`` -> CSR edge slot, for the bulk
        # free-capacity sync fast path.
        self._links_pos_slot = array(
            "i", (edge_slot[link] for link in topology.links())
        )

        # Epoch-stamped reusable search buffers.  A stamp equal to the
        # current epoch means "set this search"; bumping the epoch resets
        # every buffer at once.
        self._epoch = 0
        self._seen = [0] * n          # BFS visited
        self._pedge = [0] * n         # edge slot a node was reached over
        self._depth = [0] * n         # BFS depth
        self._xnode = [0] * n         # excluded-node stamps
        self._xedge = [0] * num_edges  # excluded-link stamps
        self._best = [0.0] * n        # Dijkstra tentative cost
        self._best_stamp = [0] * n
        self._done = [0] * n          # Dijkstra settled stamps
        self._hops = [0] * n          # Dijkstra hop counts

        # Free-capacity mirror for CapacityFloor admissibility, current as
        # of (ledger identity, that ledger's change cursor).  The ledger is
        # held weakly, like the topology.  ``_low`` holds the edges whose
        # ``free + CAPACITY_EPSILON`` is below ``_low_bar``, the largest
        # floor bandwidth asked for so far.
        self._free = [0.0] * num_edges
        self._free_ledger: "weakref.ref[ReservationLedger] | None" = None
        self._free_cursor = -1
        self._low: set[int] = set()
        self._low_bar = float("-inf")

        self.cache = RouteCache()

    @property
    def topology(self) -> "Topology | None":
        """The topology this view was compiled from (``None`` once it is
        gone)."""
        return self._topology()

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def search(self, src: NodeId, dst: NodeId, constraints, cost) -> Path | None:
        """Constrained shortest path, or ``None`` when none is feasible.

        Endpoint validation (``src != dst``, both known, neither excluded)
        is the caller's job; this mirrors the retained reference kernels
        exactly, including tie-breaks and the negative-cost ``ValueError``.
        """
        pred = constraints.link_admissible
        floor: CapacityFloor | None = None
        if isinstance(pred, CapacityFloor):
            floor = pred
            pred = None

        s = self.index[src]
        t = self.index[dst]
        max_hops = constraints.max_hops
        ep, node_mask, edge_mask = self._stamp_exclusions(constraints)
        cache = self.cache
        if cost is None and pred is None and not (node_mask or edge_mask):
            (pedge, depth, order), built = self._tree(s)
            # Too deep means no route under a floor either: it only
            # removes edges.
            found = 0 <= depth[t] <= (len(depth) if max_hops is None else max_hops)
            if (not found or floor is None
                    or not self._floor_cuts(floor, pedge, order, t)):
                (cache.record_miss if built else cache.record_hit)()
                return self._walk_parents(s, t, pedge) if found else None

        cacheable = cost is None and pred is None and floor is None
        if cacheable:
            key = (s, t, node_mask, edge_mask, max_hops)
            hit = cache.static_table().get(key, _MISSING)
            if hit is not _MISSING:
                cache.record_hit()
                return hit

        floor_bw = None
        if floor is not None:
            floor_bw = floor.bandwidth
            self._sync_free(floor.ledger)

        if cost is None:
            path = self._run_bfs(s, t, ep, max_hops, floor_bw, pred)
        else:
            path = self._run_dijkstra(s, t, ep, max_hops, floor_bw, pred, cost)

        if cacheable:
            cache.record_miss()
            cache.store(key, path)
        return path

    def hop_distance(self, src: NodeId, dst: NodeId) -> int:
        """Unconstrained hop count, the depth of ``dst`` in ``src``'s BFS
        tree; ``-1`` when ``dst`` is unreachable.  Both endpoints must be
        known (``KeyError`` otherwise); the wrapper checks."""
        (_, depth, _), built = self._tree(self.index[src])
        (self.cache.record_miss if built else self.cache.record_hit)()
        return depth[self.index[dst]]

    def _tree(self, s: int):
        """``((parent edge, depth, discovery order), built)`` of the full
        unconstrained BFS from ``s``: per node, as ``array("i")``, with
        ``-1`` / ``-1`` / ``n`` for a node it never reaches.  Built on
        first use and kept in the route cache under ``s``."""
        cache = self.cache
        tree = cache.static_table().get(s)
        if tree is not None:
            return tree, False
        n = len(self.nodes)
        off = self._off
        nbr = self._nbr
        pedge = array("i", [-1]) * n
        depth = array("i", [-1]) * n
        order = array("i", [n]) * n
        depth[s] = order[s] = 0
        queue = [s]
        for u in queue:  # grows while it is walked: the BFS queue
            d = depth[u] + 1
            for e in range(off[u], off[u + 1]):
                v = nbr[e]
                if depth[v] < 0:
                    pedge[v] = e
                    depth[v] = d
                    order[v] = len(queue)
                    queue.append(v)
        tree = (pedge, depth, order)
        cache.store(s, tree)
        return tree, True

    def _floor_cuts(self, floor: CapacityFloor, pedge, order, t: int) -> bool:
        """Whether ``floor`` can change the BFS to ``t``: whether it
        rejects (by ``_run_bfs``'s own comparison) the tree edge of a node
        discovered no later than ``t``.  Only then does the floor search
        leave the unconstrained one before reaching ``t``."""
        bandwidth = floor.bandwidth
        self._sync_free(floor.ledger)
        if bandwidth > self._low_bar:
            self._low_bar = bandwidth
            self._mark_low()
        free = self._free
        nbr = self._nbr
        last = order[t]
        for e in self._low:
            v = nbr[e]
            if (pedge[v] == e and order[v] <= last
                    and free[e] + CAPACITY_EPSILON < bandwidth):
                return True
        return False

    # ------------------------------------------------------------------
    # constraint resolution
    # ------------------------------------------------------------------
    def _stamp_exclusions(self, constraints) -> tuple[int, int, int]:
        """Bump the epoch and stamp excluded components; returns the epoch
        and the excluded dense node and edge indices as bitmasks.

        Components absent from the topology are ignored — the reference
        implementation's membership tests can never match them either.
        """
        self._epoch += 1
        ep = self._epoch
        node_mask = edge_mask = 0
        excluded_nodes = constraints.excluded_nodes
        if excluded_nodes:
            xnode = self._xnode
            index_get = self.index.get
            for node in excluded_nodes:
                i = index_get(node)
                if i is not None:
                    xnode[i] = ep
                    node_mask |= 1 << i
        excluded_links = constraints.excluded_links
        if excluded_links:
            xedge = self._xedge
            slot_get = self.edge_slot.get
            for link in excluded_links:
                e = slot_get(link)
                if e is not None:
                    xedge[e] = ep
                    edge_mask |= 1 << e
        return ep, node_mask, edge_mask

    def _sync_free(self, ledger: ReservationLedger) -> None:
        """Bring the per-edge free-bandwidth mirror, and the low-edge set,
        up to date with ``ledger`` (the consumer side of the mirror
        contract in :mod:`repro.network.reservations`).

        The mirror is current as of ``(ledger identity, change cursor)``;
        an unchanged cursor means nothing was reserved, released or
        resized and the call is O(1).  Otherwise only the entries the
        ledger logged since the remembered cursor are re-read —
        ``entry.free`` into the edge slot of ``entry.pos``, moving the edge
        into or out of the low set — so a search pays for the links the
        last establishment touched, not for every link.  The mirror
        resyncs, and the low set is rebuilt, fully through
        ``ledger.free_values()`` on first use, for a ledger object other
        than the last one served, and whenever ``changes_since`` answers
        ``None`` (trimmed log, ``restore_pools``).  Indexing
        ``free_values()`` and ``entry.pos`` positionally against the CSR
        edge table is sound because the ledger must be one of this view's
        own topology (``ValueError`` otherwise), and neither ever changes
        its link order: both froze the topology.  The ledger is only read.
        """
        followed = self._free_ledger
        same = followed is not None and followed() is ledger
        if same and self._free_cursor == ledger.change_cursor:
            return
        free = self._free
        slot = self._links_pos_slot
        changed = ledger.changes_since(self._free_cursor) if same else None
        if changed is None:
            if ledger.topology is not self._topology():
                raise ValueError(
                    "a capacity floor routes only on its ledger's topology"
                )
            for pos, value in enumerate(ledger.free_values()):
                free[slot[pos]] = value
            self._mark_low()
        else:
            low = self._low
            bar = self._low_bar
            for entry in changed:
                e = slot[entry.pos]
                value = free[e] = entry.free
                if value + CAPACITY_EPSILON < bar:
                    low.add(e)
                else:
                    low.discard(e)
        self._free_ledger = weakref.ref(ledger)
        self._free_cursor = ledger.change_cursor

    def _mark_low(self) -> None:
        """Rebuild the low-edge set from the whole mirror."""
        bar = self._low_bar
        self._low = {e for e, value in enumerate(self._free)
                     if value + CAPACITY_EPSILON < bar}

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _run_bfs(self, s: int, t: int, ep: int, max_hops, floor_bw, pred):
        seen = self._seen
        pedge = self._pedge
        depth = self._depth
        off = self._off
        nbr = self._nbr
        xnode = self._xnode
        xedge = self._xedge
        links = self._links
        free = self._free
        limit = len(self.nodes) if max_hops is None else max_hops

        seen[s] = ep
        depth[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            d = depth[u]
            if d >= limit:
                continue
            for e in range(off[u], off[u + 1]):
                v = nbr[e]
                if seen[v] == ep:
                    continue
                if xedge[e] == ep or xnode[v] == ep:
                    continue
                if floor_bw is not None:
                    if free[e] + CAPACITY_EPSILON < floor_bw:
                        continue
                elif pred is not None and not pred(links[e]):
                    continue
                seen[v] = ep
                pedge[v] = e
                if v == t:
                    return self._walk_parents(s, t, pedge)
                depth[v] = d + 1
                queue.append(v)
        return None

    def _run_dijkstra(self, s: int, t: int, ep: int, max_hops,
                      floor_bw, pred, cost):
        best = self._best
        best_stamp = self._best_stamp
        done = self._done
        hops = self._hops
        pedge = self._pedge
        off = self._off
        nbr = self._nbr
        xnode = self._xnode
        xedge = self._xedge
        links = self._links
        free = self._free
        heappush = heapq.heappush
        heappop = heapq.heappop
        limit = len(self.nodes) if max_hops is None else max_hops

        # Heap entries carry a monotone counter so ties never compare
        # beyond it — identical pop order to the reference kernel.
        counter = 0
        best[s] = 0.0
        best_stamp[s] = ep
        hops[s] = 0
        heap = [(0.0, 0, s)]
        while heap:
            dist, _, u = heappop(heap)
            if done[u] == ep:
                continue
            if u == t:
                return self._walk_parents(s, t, pedge)
            done[u] = ep
            if hops[u] >= limit:
                continue
            u_hops = hops[u] + 1
            for e in range(off[u], off[u + 1]):
                v = nbr[e]
                if done[v] == ep:
                    continue
                if xedge[e] == ep or xnode[v] == ep:
                    continue
                if floor_bw is not None:
                    if free[e] + CAPACITY_EPSILON < floor_bw:
                        continue
                elif pred is not None and not pred(links[e]):
                    continue
                link_cost = cost(links[e])
                if link_cost < 0:
                    raise ValueError(
                        f"negative link cost {link_cost!r} on {links[e]}"
                    )
                candidate = dist + link_cost
                if best_stamp[v] != ep or candidate < best[v]:
                    best[v] = candidate
                    best_stamp[v] = ep
                    pedge[v] = e
                    hops[v] = u_hops
                    counter += 1
                    heappush(heap, (candidate, counter, v))
        return None

    def _walk_parents(self, s: int, t: int, pedge) -> Path:
        """The path to ``t``, walked back over the parent edges ``pedge``
        (a search's buffer or a BFS tree's).  Its
        ``links`` are the topology's own :class:`LinkId` objects, so the
        ledger / mux dicts keyed by them resolve on identity instead of
        falling into ``LinkId.__eq__``."""
        nodes = self.nodes
        links = self._links
        esrc = self._esrc
        out = [nodes[t]]
        via = []
        u = t
        while u != s:
            e = pedge[u]
            via.append(links[e])
            u = esrc[e]
            out.append(nodes[u])
        out.reverse()
        via.reverse()
        return Path(out, via)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlatTopology({getattr(self.topology, 'name', None)!r}, "
            f"nodes={len(self.nodes)}, edges={len(self._nbr)})"
        )
