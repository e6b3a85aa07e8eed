import csv

import numpy as np
import pytest
from scipy.optimize import minimize


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_state(box, rng):
    """Normalized random complex position-space state on the box."""
    from kinlab.lattice import WaveFunction

    v = rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume)
    v /= np.linalg.norm(v)
    return WaveFunction(box, v)


def velocity_max_abs(J):
    """max_V |h(V)| of a TestObservable, dense grid plus local polish (good to ~1e-8)."""
    grid = np.linspace(0.0, 1.0, 48, endpoint=False)
    V = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = np.abs(J.velocity(V))
    best = V[int(np.argmax(vals))]

    def neg(v):
        return -abs(complex(J.velocity(v.reshape(1, 3))[0]))

    res = minimize(neg, best, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
    return float(max(vals.max(), -res.fun))


def cj_constant(J):
    """C_J = Int dxi sup_v |J^(xi, v)| = ||g^||_L1 * max|h| = |amplitude| * max|h|."""
    return abs(J.amplitude) * velocity_max_abs(J)


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
