"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import strategies as st

from repro.core.machine import Machine
from repro.policies import (
    BalanceCountPolicy,
    GreedyHalvingPolicy,
    NaiveOverloadedPolicy,
    ProvableWeightedPolicy,
    WeightedBalancePolicy,
)
from repro.verify import StateScope


@pytest.fixture
def paper_machine() -> Machine:
    """The Section 4.3 three-core machine: [idle, 1 thread, 2 threads]."""
    return Machine.from_loads([0, 1, 2])


@pytest.fixture
def listing1_policy() -> BalanceCountPolicy:
    """Listing 1's policy with the proven margin of 2."""
    return BalanceCountPolicy(margin=2)


@pytest.fixture
def naive_policy() -> NaiveOverloadedPolicy:
    """Section 4.3's broken filter."""
    return NaiveOverloadedPolicy()


@pytest.fixture
def small_scope() -> StateScope:
    """3 cores, loads 0..3 — enough to exhibit every paper behaviour."""
    return StateScope(n_cores=3, max_load=3)


@pytest.fixture
def medium_scope() -> StateScope:
    """4 cores, loads 0..4 with a total cap to keep sweeps fast."""
    return StateScope(n_cores=4, max_load=4, max_total=10)


#: Policies whose full proof pipeline must succeed.
PROVEN_POLICIES = [
    BalanceCountPolicy(margin=2),
    GreedyHalvingPolicy(),
    ProvableWeightedPolicy(),
]

#: (policy, obligation keys expected to fail) pairs for mutation tests.
BROKEN_POLICIES = [
    (BalanceCountPolicy(margin=1), {"lemma1", "steal_soundness"}),
    (NaiveOverloadedPolicy(), {"steal_soundness", "work_conservation"}),
    (WeightedBalancePolicy(), {"steal_soundness"}),
]


#: Host CPU counts the ``jobs=0`` tests run under: one CPU resolves
#: ``jobs=0`` to a serial run, several to a pool, so exercising both
#: keeps host-dependent behaviour from hiding on any test machine.
HOST_CPU_COUNTS = (1, 4)


def host_cpu_counts(monkeypatch):
    """Yield each of :data:`HOST_CPU_COUNTS` with ``os.cpu_count``
    patched to report it."""
    for cpus in HOST_CPU_COUNTS:
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        yield cpus


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

#: Abstract load vectors: 2..6 cores, loads 0..6.
load_states = st.lists(
    st.integers(min_value=0, max_value=6), min_size=2, max_size=6
).map(tuple)

#: Load vectors guaranteed to contain an idle and an overloaded core.
bad_load_states = load_states.filter(
    lambda s: 0 in s and any(x >= 2 for x in s)
)

#: Niceness values across the full CFS range.
nice_values = st.integers(min_value=-20, max_value=19)
