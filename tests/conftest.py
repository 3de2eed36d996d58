"""Sweeps shared across the test modules, built once per session."""

import time

import pytest

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
