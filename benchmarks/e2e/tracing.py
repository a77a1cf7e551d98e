"""Span tracing from outside the program.

The traced run of the benchmark wraps the public entry points of each
layer (see :mod:`layers`) with :meth:`Tracer.wrap`; nothing under
``src/`` knows it is being traced.  A span is ``(id, layer, op, start,
end, parent, request, thread)``:

* every thread keeps its own stack of open spans, so a span's parent is
  the span that was open on the same thread when it began;
* spans of one served request share its ``request`` id, and a span that
  begins with an empty stack (the server thread's side of a request) is
  parented to the client span that has that request open — the two
  threads run strictly in turn (one closed-loop client), so the child
  interval lies inside the parent's;
* a span's *self time* is its duration minus its direct children's.

Spans are kept in memory (one tuple per finished span) and aggregated —
or dumped with ``--spans-out`` — after the measured region.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import namedtuple
from time import perf_counter

Span = namedtuple("Span", "sid layer op start end parent request thread")


class Tracer:
    """Records spans while :attr:`active`; inert (one flag test per
    wrapped call) otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: request id -> sid of the client span that has it in flight.
        self._in_flight: dict[object, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, op: str, request=None, opens_request=False):
        """Open a span on the calling thread; returns its token."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        if opens_request:
            self._in_flight[request] = sid
        token = [sid, layer, op, parent, request, opens_request, perf_counter()]
        stack.append(token)
        return token

    def end(self, token, request=None) -> None:
        """Close ``token``'s span.  ``request`` supplies an id learnt only
        from the call's result (a decoded frame)."""
        end = perf_counter()
        sid, layer, op, parent, known, opened, start = token
        stack = self._stack()
        if not stack or stack[-1] is not token:
            raise RuntimeError(f"span {layer}.{op} closed out of order")
        stack.pop()
        if known is None:
            known = request
        if opened:
            self._in_flight.pop(known, None)
        elif parent is None and known is not None:
            parent = self._in_flight.get(known)
        self.spans.append(
            Span(sid, layer, op, start, end, parent, known,
                 threading.get_ident())
        )

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attribute: str, layer: str, op: str,
             request_of=None, opens_request=False) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``request_of(args, kwargs, result)`` extracts the request id; it
        is called with ``result=None`` before the call and, if that gave
        ``None``, again with the result after it.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            request = request_of(args, kwargs, None) if request_of else None
            token = tracer.begin(layer, op, request, opens_request)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                late = None
                if request_of is not None and request is None:
                    late = request_of(args, kwargs, result)
                tracer.end(token, late)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def uninstall(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @property
    def installed(self) -> int:
        return len(self._patches)


# ----------------------------------------------------------------------
# arithmetic over finished spans
# ----------------------------------------------------------------------
def self_times(spans) -> dict[int, float]:
    """Span id -> self time (duration minus direct children)."""
    result = {span.sid: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in result:
            result[span.parent] -= span.end - span.start
    return result


def orphan_time(spans, roots: "set[int]") -> float:
    """Total duration of parentless spans that are not declared roots —
    time the per-layer sums would count twice."""
    known = {span.sid for span in spans}
    return sum(
        span.end - span.start
        for span in spans
        if span.sid not in roots
        and (span.parent is None or span.parent not in known)
    )


def op_totals(spans, scale: float = 1.0, into: "dict | None" = None) -> dict:
    """``(layer, op) -> [span count, summed self time * scale]``,
    accumulated into ``into`` when given."""
    own = self_times(spans)
    totals = {} if into is None else into
    for span in spans:
        entry = totals.setdefault((span.layer, span.op), [0, 0.0])
        entry[0] += 1
        entry[1] += own[span.sid] * scale
    return totals
