"""Session-scoped results of deterministic default runs.

Several tests read the same default run; each is computed once per session
and must be treated as read-only.
"""

import pytest

from massclock.experiments import exp_newtonian_sweep, exp_wep


@pytest.fixture(scope="session")
def default_sweep():
    """``exp_newtonian_sweep()`` at its defaults."""
    return exp_newtonian_sweep()


@pytest.fixture(scope="session")
def default_wep():
    """``exp_wep()`` at its defaults."""
    return exp_wep()
