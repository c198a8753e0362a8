"""Shared fixtures: a fresh machine / memory system per test."""

from __future__ import annotations

import pytest

from repro.common.params import DEFAULT_PARAMS
from repro.cpu.core import Cpu
from repro.machine import Machine, MachineConfig
from repro.mem.system import MemorySystem
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator


@pytest.fixture
def params():
    return DEFAULT_PARAMS


@pytest.fixture
def metrics():
    """The one registry the ``sim`` and ``memsys`` fixtures report to."""
    return MetricsRegistry()


@pytest.fixture
def sim(metrics):
    return Simulator(metrics)


@pytest.fixture
def memsys(params, metrics):
    return MemorySystem(params, metrics)


@pytest.fixture
def cpu(sim, memsys, params):
    return Cpu(sim, memsys, params)


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def small_machine():
    """Machine with a reduced task library (faster boot for kernel tests)."""
    return Machine(MachineConfig(tasks=("fft256", "qam16")))
