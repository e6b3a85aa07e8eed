import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_state(box, rng):
    """Normalized random complex position-space state on the box."""
    from kinlab.lattice import WaveFunction

    v = rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume)
    v /= np.linalg.norm(v)
    return WaveFunction(box, v)
