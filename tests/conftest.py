"""Sweeps shared across the test modules, built once per session, and the
small scenario the unit tests draw."""

import time
from functools import partial

import pytest

from precodesim import channel
from precodesim.channel import ScenarioConfig
from precodesim.harness import SweepConfig, run_sweep


@pytest.fixture(scope="session")
def default_run():
    """The default sweep (varied path loss, 0:40:4 dB, 40 seeds, every
    method) and the seconds it took."""
    start = time.monotonic()
    result = run_sweep(SweepConfig())
    return result, time.monotonic() - start


@pytest.fixture(scope="session")
def equal_run():
    """The equal-path-loss sweep of ``wrzf`` and ``arzf``, otherwise default."""
    return run_sweep(SweepConfig(scenario="equal", methods=("wrzf", "arzf")))


@pytest.fixture
def quick_config(monkeypatch):
    """Factory of small scenario configs: 16 transmit antennas and 3 users
    of 4 antennas and 2 layers, drawn by a generator patched to 4 paths,
    pools of 16 and a correlation cap of 0.5 for the test."""
    for name, value in (("NUM_PATHS", 4), ("CANDIDATE_POOL", 16), ("CORR_THRESHOLD", 0.5)):
        monkeypatch.setattr(channel, name, value)
    return partial(ScenarioConfig, num_tx=16, num_users=3, rx_per_user=4, layers_per_user=2)
