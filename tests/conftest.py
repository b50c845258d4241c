import numpy as np
import pytest
from hypothesis import settings

# No example database: a property test passes or fails the same way on any
# checkout, whatever an earlier run left in a local .hypothesis directory.
settings.register_profile("no-database", database=None)
settings.load_profile("no-database")


@pytest.fixture
def rng():
    import random

    return random.Random(1234)


def assert_close(a, b, tol=1e-12):
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape, f"shape {a.shape} != {b.shape}"
    dev = float(np.max(np.abs(a - b))) if a.size else 0.0
    assert dev <= tol, f"max deviation {dev:.3e} exceeds {tol:.1e}"
