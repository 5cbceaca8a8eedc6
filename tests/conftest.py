import time

import numpy as np
import pytest

from cpflow.spectral import build_grid
from cpflow.spectrum import neutral_search


@pytest.fixture(scope="session")
def grid32():
    return build_grid(32)


@pytest.fixture(scope="session")
def grid48():
    return build_grid(48)


@pytest.fixture(scope="session")
def grid64():
    return build_grid(64)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def neutral_full():
    """(point, seconds) of the acceptance-settings neutral search, run once."""
    t0 = time.time()
    npt = neutral_search((0.8, 1.3), (5000.0, 6500.0), tol=1e-6, N=200, N_check=300)
    return npt, time.time() - t0
