"""Shared fixtures: small geometries and cached cycle-sim profiles.

Also registers the Hypothesis profiles and loads ``ci``, the
derandomized tier-1 profile: every property test draws the same
examples on every run, so the suite is repeatable. ``deep`` is the
randomized fuzz profile (``pytest --hypothesis-profile=deep``): at
least 10^4 fresh examples per property and no deadline; per-test
example pins never cap it (see :func:`oracle.settings`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.dram.geometry import DeviceGeometry
from repro.dram.timing import DDR4_2133
from repro.optim.sgd import MomentumSGD
from repro.system.update_model import UpdatePhaseModel

settings.register_profile(
    "ci", derandomize=True, database=None, print_blob=True
)
settings.register_profile(
    "deep",
    derandomize=False,
    max_examples=10_000,
    deadline=None,
    database=None,
    print_blob=True,
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def timing():
    """The paper's DDR4-2133 grade."""
    return DDR4_2133


@pytest.fixture(scope="session")
def geometry():
    """The paper's 4-rank, 4x4-bank geometry."""
    return DeviceGeometry()


@pytest.fixture(scope="session")
def small_geometry():
    """A reduced geometry (2 ranks, fewer rows) for cheap cycle sims."""
    return DeviceGeometry(ranks=2, rows=256, dimms=2)


@pytest.fixture()
def rng():
    """Deterministic random generator for functional tests."""
    return np.random.default_rng(20210215)  # the paper's arXiv date


@pytest.fixture(scope="session")
def momentum_optimizer():
    """The paper's default update algorithm."""
    return MomentumSGD(eta=0.01, alpha=0.9, weight_decay=1e-4)


@pytest.fixture(scope="session")
def update_model(timing, geometry):
    """A session-cached update-phase model with a small sample window."""
    return UpdatePhaseModel(
        timing=timing, geometry=geometry, columns_per_stripe=8
    )
