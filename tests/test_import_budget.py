"""Import budget: what a ``repro`` process loads before it is useful.

Cold start is gated on a *count* — which third-party packages are in
``sys.modules`` — never on a time.  Every check runs in a fresh
interpreter, because the pytest process itself has numpy (and scipy,
hypothesis, networkx) loaded.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

HEAVY = ("networkx", "numpy", "scipy")

_PRELUDE = textwrap.dedent("""
    import json
    import sys

    def heavy():
        return sorted({name.split(".")[0] for name in sys.modules}
                      & set(%r))
""" % (HEAVY,))

#: All pairs on the 4x4 torus at ν=3, then one pass through every layer a
#: paper-scale run touches: evaluator, protocol simulation, snapshot and
#: restore.
_WORKLOAD = _PRELUDE + textwrap.dedent("""
    from repro.channels.qos import FaultToleranceQoS
    from repro.core.bcp import BCPNetwork
    from repro.experiments.setup import load_network
    from repro.faults.enumerate import all_single_link_failures
    from repro.network.spec import TopologySpec
    from repro.obs import obs_session
    from repro.protocol.runtime import ProtocolSimulation
    from repro.recovery.evaluator import RecoveryEvaluator
    from repro.serve.state import restore_network, snapshot_network

    config = TopologySpec(rows=4, cols=4)
    with obs_session():
        network, report = load_network(
            config, FaultToleranceQoS(num_backups=1, mux_degree=3))
        scenarios = all_single_link_failures(network.topology)
        stats = RecoveryEvaluator(network).evaluate_many(scenarios)
        simulation = ProtocolSimulation(network)
        simulation.inject_scenario(scenarios[0], at=1.0)
        simulation.run(until=200.0)
        snapshot = snapshot_network(network)
        restored = BCPNetwork(config.build())
        restore_network(restored, snapshot)
    assert snapshot_network(restored) == snapshot
    print(json.dumps({
        "heavy": heavy(),
        "established": report.established,
        "scenarios": stats.scenarios,
        "recovered": simulation.metrics.recovered_count(),
        "spare_fraction": network.spare_fraction().hex(),
        "restored_spare_fraction": restored.spare_fraction().hex(),
    }))
""")


def run_fresh(script: str, *argv: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line is one
    JSON object."""
    source = os.path.dirname(os.path.dirname(repro.__file__))
    completed = subprocess.run(
        [sys.executable, "-c", script, *argv], check=True, timeout=120,
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": source},
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module, shared", [
    ("repro.cli", []),
    # The scenario runner the server builds on uses the Γ-bound formula
    # and the traffic-pattern generators; neither is an experiment.
    ("repro.serve", ["repro.analysis.delay", "repro.experiments.workloads"]),
])
def test_entry_point_import_loads_no_numerics(module, shared):
    script = _PRELUDE + textwrap.dedent(f"""
        import {module}
        print(json.dumps({{
            "heavy": heavy(),
            "experiments": sorted(
                name for name in sys.modules
                if name.startswith(("repro.experiments.", "repro.analysis."))
            ),
        }}))
    """)
    loaded = run_fresh(script)
    assert loaded["heavy"] == []
    # A command imports what it runs: no table, figure or Markov model
    # before a handler asks for one.
    assert loaded["experiments"] == shared


def test_experiment_setup_loads_no_protocol_chaos_or_scenario():
    """The tables describe their network with the same ``TopologySpec``
    a scenario cell does, without paying for the event-level protocol,
    the chaos engine or the scenario runner."""
    script = _PRELUDE + textwrap.dedent("""
        import repro.experiments.setup
        print(json.dumps(sorted(
            name for name in sys.modules
            if name.startswith(("repro.protocol", "repro.chaos",
                                "repro.scenario"))
        )))
    """)
    assert run_fresh(script) == []


def test_paper_scale_layers_never_load_numpy():
    run = run_fresh(_WORKLOAD)
    assert run["established"] == 240 and run["scenarios"] == 64
    assert run["recovered"] > 0
    assert run["heavy"] == []
    assert run["restored_spare_fraction"] == run["spare_fraction"]


def test_dense_links_run_the_scalar_pass_without_numpy():
    """All pairs on a 32-node ring put 360-376 backups on every link,
    past the 256 at which links were once moved to a numpy kernel: the
    build loads no numpy, every link stays a ``LinkMuxState``, and the
    spare fraction is the bits the kernel-promoting build produced."""
    script = _PRELUDE + textwrap.dedent("""
        from repro.channels.qos import FaultToleranceQoS
        from repro.experiments.setup import load_network
        from repro.network.spec import TopologySpec

        network, report = load_network(
            TopologySpec(family="ring", size=32, capacity=1e6),
            FaultToleranceQoS(num_backups=1, mux_degree=1))
        states = network.mux.link_states().values()
        print(json.dumps({
            "heavy": heavy(),
            "established": report.established,
            "smallest": min(len(state) for state in states),
            "kinds": sorted({type(state).__name__ for state in states}),
            "spare_fraction": network.spare_fraction().hex(),
        }))
    """)
    run = run_fresh(script)
    assert run["established"] == 992 and run["smallest"] == 360
    assert run["kinds"] == ["LinkMuxState"]
    assert run["heavy"] == []
    assert run["spare_fraction"] == "0x1.4b4070329802cp-12"


def test_markov_reliability_command_loads_no_numerics():
    """The one command that once needed numpy, the Markov model
    comparison of ``repro reliability``, runs on the standard library."""
    script = _PRELUDE + textwrap.dedent("""
        import contextlib
        import io

        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            status = main(["reliability", "--rows", "4", "--cols", "4"])
        print(json.dumps({"heavy": heavy(), "status": status}))
    """)
    run = run_fresh(script)
    assert run["status"] in (0, None)
    assert run["heavy"] == []


@pytest.mark.parametrize("package", ["repro.core", "repro.analysis"])
def test_lazy_package_exports_every_name_of_all(package):
    """The two packages resolve their re-exports on first read (PEP
    562); ``__all__``, ``from package import name`` and ``import *`` must
    not notice."""
    module = importlib.import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    for name in module.__all__:
        value = getattr(module, name)
        assert namespace[name] is value
        assert value.__module__.startswith(package + ".")
        assert vars(module)[name] is value  # cached: a plain attribute now
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})
