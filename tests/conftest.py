import csv

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


def read_csv(path):
    """Rows of a harness CSV as dicts; numeric-looking fields parsed back to int/float."""
    out = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r)
        for row in r:
            d = {}
            for key, cell in zip(header, row):
                try:
                    d[key] = int(cell)
                except ValueError:
                    try:
                        d[key] = float(cell)
                    except ValueError:
                        d[key] = cell
            out.append(d)
    return out
