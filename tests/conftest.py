"""Shared fixtures: reference ensembles for the adaptive protocol.

The two 500-repetition ensembles below feed the convergence, scaling,
and thermal-enhancement acceptance checks. They are expensive (about a
minute each on one core), so they are computed once per session and
only when a test actually requests them.
"""

import pytest

from qsense.simkit import reference_config, run_repetitions

REFERENCE_REPS = 500


@pytest.fixture(scope="session")
def ensemble_nbar10():
    return run_repetitions(reference_config(nbar=10.0), REFERENCE_REPS)


@pytest.fixture(scope="session")
def ensemble_nbar1000():
    return run_repetitions(reference_config(nbar=1000.0), REFERENCE_REPS)
