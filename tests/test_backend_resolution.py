"""Backend resolution of :class:`repro.core.Simulator`, as one table.

Every row pairs a requested engine, a daemon, a graph size on either side
of the ``engine="auto"`` size floor, a protocol capability and an initial
configuration the array codec accepts or declines, and pins what the
simulator resolved (:attr:`Simulator.engine`) and which backend its run
used (:attr:`Simulator.last_run_backend`).  The expected outcome is
written out independently of the simulator's code:

* protocols whose transitions are not the stock ones run the reference
  engine, whatever was asked for;
* ``engine="reference"`` runs the reference engine;
* the array backend ("vector") needs the synchronous daemon, a usable array
  engine, and either ``engine="vector"`` or ``engine="auto"`` with at
  least 32 vertices; its run falls back to the dict engine when the codec
  declines the initial configuration;
* everything else is the incremental dict engine.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import (
    CentralDaemon,
    Configuration,
    DistributedDaemon,
    Protocol,
    Simulator,
    StarvationDaemon,
    SynchronousDaemon,
    array_engine,
)
from repro.graphs import ring_graph
from repro.unison import AsynchronousUnison


class _StrippedUnison(AsynchronousUnison):
    """Declares no array capability."""

    def array_codec(self):
        return None

    def array_kernel(self):
        return None


class _ChooserUnison(AsynchronousUnison):
    """Overrides ``choose_rule``, which the array kernel hard-codes."""

    def choose_rule(self, enabled_rules, view):
        return enabled_rules[-1]


class _CustomApplyUnison(AsynchronousUnison):
    """Overrides ``apply``, so its transitions are not the stock ones."""

    def apply(self, configuration, selected, prepared=None):
        return Protocol.apply(self, configuration, selected, prepared=prepared)


CAPABILITIES = {
    "declared": AsynchronousUnison,
    "stripped": _StrippedUnison,
    "choose-rule": _ChooserUnison,
    "non-stock": _CustomApplyUnison,
}

DAEMONS = {
    "sd": SynchronousDaemon,
    "cd": CentralDaemon,
    "dd": lambda: DistributedDaemon(0.5),
    "ud": StarvationDaemon,
}

ENGINES = ("auto", "incremental", "vector", "reference")


def _expected(engine, daemon, n, capability, decline):
    if capability == "non-stock" or engine == "reference":
        return ("reference", None)
    if (
        daemon == "sd"
        and capability == "declared"
        and (engine == "vector" or (engine == "auto" and n >= 32))
    ):
        return ("vector", "dict" if decline else "vector")
    return ("incremental", "dict")


ROWS = list(
    itertools.product(ENGINES, DAEMONS, (31, 32), CAPABILITIES, (False, True))
)


@pytest.mark.parametrize(
    "engine, daemon, n, capability, decline",
    ROWS,
    ids=[
        f"{engine}-{daemon}-n{n}-{capability}" + ("-declined" if decline else "")
        for engine, daemon, n, capability, decline in ROWS
    ],
)
def test_backend_resolution_table(engine, daemon, n, capability, decline):
    protocol = CAPABILITIES[capability](ring_graph(n), validate_parameters=False)
    initial = protocol.random_configuration(random.Random(n))
    if decline:
        # A float clock value is fine for the Python guards but does not fit
        # the codec's integer layout.
        initial = Configuration({**initial.as_dict(), 0: 1.5})
    simulator = Simulator(protocol, DAEMONS[daemon](), rng=random.Random(1), engine=engine)
    assert simulator.last_run_backend is None
    simulator.run(initial, max_steps=5)
    assert (simulator.engine, simulator.last_run_backend) == _expected(
        engine, daemon, n, capability, decline
    )


def test_array_engine_is_probed_once_per_protocol():
    """The probe keeps the engine it builds on the protocol, so every
    simulator over one protocol runs the same engine; a protocol without
    a usable capability gets None."""
    protocol = AsynchronousUnison(ring_graph(32), validate_parameters=False)
    engine = array_engine(protocol)
    assert engine is not None and array_engine(protocol) is engine
    for capability in ("stripped", "choose-rule", "non-stock"):
        other = CAPABILITIES[capability](ring_graph(32), validate_parameters=False)
        assert array_engine(other) is None
