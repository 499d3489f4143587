"""Shared fixtures: session-scoped results of deterministic default runs,
and ``no_step`` for refusals that must come before any step.

Several tests read the same default run; each is computed once per session
and must be treated as read-only.
"""

import pytest

from massclock import dynamics
from massclock.experiments import exp_newtonian_sweep, exp_wep


@pytest.fixture(scope="session")
def default_sweep():
    """``exp_newtonian_sweep()`` at its defaults."""
    return exp_newtonian_sweep()


@pytest.fixture(scope="session")
def default_wep():
    """``exp_wep()`` at its defaults."""
    return exp_wep()


@pytest.fixture
def no_step(monkeypatch):
    """``dynamics._strang_step``, the one step of free and x-space blocks,
    fails: a run refused before its first step must take none."""
    def fail(*args):
        raise AssertionError("a run refused before its first step took one")

    monkeypatch.setattr(dynamics, "_strang_step", fail)
