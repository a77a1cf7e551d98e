"""Deterministic work counts: bytecodes executed, per module.

A wall time moves with the host; the number of bytecode instructions a
fixed piece of work executes does not.  :func:`count_opcodes` runs a
callable under :func:`sys.settrace` with per-opcode events switched on
and returns how many instructions each module executed.  The
rows below are the fixed pieces of work ``tests/test_workcount.py`` pins:

* ``build`` — a 4x4 torus loaded with all 240 ordered pairs (one backup,
  ν = 3), then every connection torn down;
* ``protocol`` — one event-level run of the loaded torus: node 5 fails at
  t = 1 and the simulation runs to t = 500 (construction included, the
  network's compiled plan built beforehand);
* ``evaluator`` — a combinatorial sweep of every single-link and
  single-node failure of the loaded torus.

Work done inside C builtins (a ``dict`` lookup, ``heappush``, a numpy
kernel) is one instruction however long it takes, so a change that moves
work into C shows as a drop here whether or not it pays in seconds, and
a count says nothing about time spent below the interpreter.

Run a row in a fresh interpreter, so no cache another test filled is
counted, with ``PYTHONHASHSEED=0`` (``run_row`` sets it)::

    PYTHONPATH=src python tests/workcount.py protocol      # top modules
    PYTHONPATH=src python tests/workcount.py protocol --json

Only CPython 3.11 is pinned: another minor compiles the same source to
different instructions.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve()
SRC = HERE.parent.parent / "src"


def count_opcodes(work) -> Counter:
    """Module name -> bytecode instructions ``work()`` executed there, for
    every module written in Python (the standard library's included)."""
    counts: Counter = Counter()

    def on_call(frame, event, arg):
        module = frame.f_globals.get("__name__", "?")

        def on_opcode(frame, event, arg):
            if event == "opcode":
                counts[module] += 1
            return on_opcode

        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        # CPython 3.13 counts nothing in a frame whose local tracer is
        # only returned, not set.
        frame.f_trace = on_opcode
        return on_opcode

    # CPython 3.12 decides at ``settrace`` whether opcode events exist at
    # all, and only once some frame has asked for them: without this, a
    # fresh interpreter's first count was empty.
    caller = sys._getframe()
    caller.f_trace_opcodes = True
    # A collection that fired mid-count would run whatever finalizers the
    # process's garbage holds, and count them.
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        work()
    finally:
        sys.settrace(None)
        caller.f_trace_opcodes = False
        if collecting:
            gc.enable()
    return counts


def _loaded_torus():
    from repro import BCPNetwork, FaultToleranceQoS, torus

    network = BCPNetwork(torus(4, 4, capacity=200.0))
    qos = FaultToleranceQoS(num_backups=1, mux_degree=3)
    for src in range(16):
        for dst in range(16):
            if src != dst:
                network.establish(src, dst, ft_qos=qos)
    return network


def _build_setup():
    from repro import BCPNetwork, FaultToleranceQoS, torus

    # One connection first, so the modules a build imports on first use
    # are imported outside the count.
    BCPNetwork(torus(4, 4, capacity=200.0)).establish(
        0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=3))

    def work() -> None:
        network = _loaded_torus()
        network.teardown(*[c.connection_id for c in network.connections()])

    return work


def _protocol_setup():
    from repro.core.plan import network_plan
    from repro.obs import NULL_REGISTRY
    from repro.protocol import ProtocolSimulation
    from repro.protocol.plan import node_tables

    network = _loaded_torus()
    node_tables(network_plan(network), network.topology.nodes())

    def work() -> None:
        simulation = ProtocolSimulation(network, seed=0,
                                        metrics=NULL_REGISTRY)
        simulation.fail(5, at=1.0)
        simulation.run(until=500.0)
        assert simulation.engine.pending == 0

    return work


def _evaluator_setup():
    from repro.faults import (
        all_single_link_failures,
        all_single_node_failures,
    )
    from repro.obs import NULL_REGISTRY
    from repro.recovery.evaluator import RecoveryEvaluator

    network = _loaded_torus()
    scenarios = (all_single_link_failures(network.topology)
                 + all_single_node_failures(network.topology))

    def work() -> None:
        RecoveryEvaluator(network, metrics=NULL_REGISTRY).evaluate_many(
            scenarios)

    return work


#: Row name -> a function that sets the row up (uncounted) and returns
#: the work to count.
ROWS = {
    "build": _build_setup,
    "protocol": _protocol_setup,
    "evaluator": _evaluator_setup,
}


def measure(row: str) -> Counter:
    """The counts of ``row``, in this interpreter."""
    return count_opcodes(ROWS[row]())


def run_row(row: str) -> dict:
    """The counts of ``row`` measured in a fresh interpreter with a fixed
    string hash seed: ``{"total": n, "modules": {module: n}}``."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(HERE), row, "--json"], env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    row = argv[0] if argv else "protocol"
    counts = measure(row)
    if "--json" in argv:
        print(json.dumps({"total": sum(counts.values()),
                          "modules": dict(counts.most_common())}))
        return 0
    print(f"{row}: {sum(counts.values())} bytecodes")
    for module, n in counts.most_common(12):
        print(f"{n:>12}  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
