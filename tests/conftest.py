"""Shared fixtures.

Scenario builds cost ~1 s each (threshold calibration plus, for the
house, 75 training trace walks), so the expensive read-mostly ones are
session-scoped.  Tests that mutate a scenario build their own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.random import RngHub
from repro.sim.simulator import Simulator


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="regenerate the committed golden-trace fixtures "
             "(tests/goldens/) instead of asserting against them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture
def sim() -> Simulator:
    return Simulator()

@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def hub() -> RngHub:
    return RngHub(seed=99)
