"""Work-count gate: bytecodes executed per module, pinned.

A wall time on a shared host moves with the neighbours; the bytecodes a
fixed piece of work executes do not.  Each row of ``tests/workcount.py``
(a 4x4 all-pairs build plus teardown, one 4x4 protocol node-failure run,
one 4x4 evaluator sweep) runs in a fresh interpreter with a fixed string
hash seed, and its per-module counts must equal the pins below.  A change
that moves a count re-pins it here and quotes old -> new, as the
ROADMAP's "regressions fail on a count" rule asks; re-measure with
``PYTHONPATH=src python tests/workcount.py ROW --json``.

Caveat: work done inside C builtins is invisible.  A ``dict`` lookup, a
``heappush`` or a numpy kernel is one instruction however long it runs,
so a change that moves work into C shows fewer bytecodes whether or not
it saves time.  In CPython that is usually the right direction, but the
wall-time claim, measured on ``benchmarks/e2e``, still decides.

Pinned on CPython 3.11 (3.11.2 and 3.11.7 count the same).  Another minor
compiles the same source to other bytecode, so it needs pins of its own;
until it has them the gate skips there.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from tests import workcount

#: Row -> module -> bytecodes executed, CPython 3.11.
PINNED = {
    "build": {
        "repro.core.multiplexing": 465_329,
        "repro.routing.flatgraph": 483_359,
        "repro.network.reservations": 186_291,
        "repro.core.establishment": 123_306,
        "repro.channels.registry": 70_238,
        "repro.routing.paths": 63_840,
        "repro.routing.shortest": 54_240,
        "repro.core.overlap": 50_605,
        "repro.core.reliability": 33_280,
        "repro.util.validation": 32_855,
        "repro.core.bcp": 18_587,
        "repro.channels.channel": 17_760,
        "repro.core.dconnection": 17_040,
        "repro.network.topology": 15_600,
        "repro.channels.qos": 14_225,
        "repro.channels.traffic": 12_960,
        "repro.obs.registry": 7_970,
        "repro.channels.admission": 7_685,
        "__main__": 5_599,
        "repro.network.generators": 1_616,
        "repro.network.components": 576,
        "importlib._bootstrap": 62,
    },
    "protocol": {
        "repro.protocol.daemon": 177_060,
        "repro.sim.engine": 106_829,
        "repro.protocol.rcc": 74_396,
        "repro.protocol.plan": 67_100,
        "repro.protocol.states": 60_661,
        "repro.protocol.runtime": 50_813,
        "repro.protocol.messages": 16_904,
        "repro.util.lazytable": 8_068,
        "repro.sim.timers": 6_675,
        "repro.routing.paths": 4_590,
        "repro.network.components": 1_984,
        "repro.obs.registry": 1_310,
        "repro.network.topology": 1_155,
        "repro.protocol.config": 955,
        "repro.core.plan": 894,
        "repro.network.reservations": 594,
        "repro.util.validation": 48,
        "repro.sim.trace": 34,
        "__main__": 32,
    },
    "evaluator": {
        "repro.recovery.evaluator": 139_173,
        "repro.core.plan": 92_138,
        "repro.core.overlap": 35_141,
        "repro.channels.registry": 24_336,
        "repro.core.dconnection": 4_800,
        "repro.recovery.metrics": 4_180,
        "repro.routing.paths": 4_080,
        "repro.util.lazytable": 3_850,
        "repro.faults.models": 1_888,
        "repro.network.topology": 1_238,
        "repro.network.reservations": 831,
        "namedtuple_OutcomeTally": 800,
        "random": 56,
        "__main__": 14,
        "repro.util.rng": 13,
        "repro.obs.registry": 12,
        "repro.core.bcp": 9,
    },
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason=f"work counts are pinned for CPython 3.11 only; this is "
    f"{sys.version_info[0]}.{sys.version_info[1]}, which compiles the same "
    f"source to other bytecode and has no pins yet",
)
@pytest.mark.parametrize("row", list(PINNED))
def test_row_executes_its_pinned_bytecodes(row):
    counts = workcount.run_row(row)
    pinned = PINNED[row]
    moved = {
        module: (pinned.get(module, 0), counts["modules"].get(module, 0))
        for module in pinned.keys() | counts["modules"].keys()
        if pinned.get(module, 0) != counts["modules"].get(module, 0)
    }
    assert not moved, (
        f"{row}: {sum(pinned.values())} -> {counts['total']} bytecodes; "
        + ", ".join(f"{module} {old} -> {new}"
                    for module, (old, new) in sorted(moved.items()))
    )


def test_counts_are_per_module_and_repeatable():
    """The counter itself: one module's work lands under its name, and
    counting the same work twice gives the same numbers."""
    from repro.obs import NULL_REGISTRY
    from repro.sim.engine import EventEngine

    def work() -> None:
        # A live registry would time each callback, and a timer's
        # min / max updates branch on the wall clock.
        engine = EventEngine(metrics=NULL_REGISTRY)
        for delay in range(5):
            engine.schedule(float(delay), lambda: None)
        engine.run()

    first = workcount.count_opcodes(work)
    assert first["repro.sim.engine"] > 0
    assert first == workcount.count_opcodes(work)


#: Counts a tiny function twice in the interpreter it runs in.
TINY = """
import json
from tests.workcount import count_opcodes

def tiny():
    total = 0
    for step in range(10):
        total += step * step
    return total

print(json.dumps([count_opcodes(tiny)["__main__"] for _ in range(2)]))
"""


def test_counter_counts_in_a_fresh_interpreter():
    """The first count of a fresh interpreter sees the same, non-zero
    number as the second, on whatever interpreter runs the suite (CPython
    3.12 has no opcode events unless a frame asked for them before
    ``settrace``; 3.13 none in a frame whose tracer is only returned)."""
    done = subprocess.run(
        [sys.executable, "-c", TINY], cwd=workcount.HERE.parent.parent,
        capture_output=True, text=True, check=True,
    )
    first, second = json.loads(done.stdout)
    assert first == second > 0
