"""Outside-in spans, counters and invariant checks around kinlab's public functions.

`install` replaces module attributes with wrappers, so only calls that look
the function up through that module at call time are seen: the harness
calls `experiments.evolve_full`, `bz.solve`, ... that way.  Each wrapper
records a span (layer, start, end, parent).  The checks it runs before and
after the call record a `trace.check` span of their own, so that checking
never inflates a layer's self time.

Counts labelled computed (split steps, FFT calls, grid points, bytes moved)
come from each call's arguments through a fixed cost model below, so they
repeat exactly; they are not hardware measurements.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import defaultdict

import numpy as np

NORM_DRIFT_LIMIT = 1e-12
SHELL_DRIFT_LIMIT = 1e-8
POOLED_MAX_ENERGIES = 32  # sample_energy_shell_batch's flat-pool threshold

LAYER_SECONDS = {
    "dynamics.evolve": "dynamics.evolve_s",
    "wigner.pair": "wigner.pair_s",
    "lattice.disorder": "lattice.disorder_s",
    "lattice.wkb": "lattice.wkb_s",
    "boltzmann.dos": "boltzmann.dos_s",
    "boltzmann.shell": "boltzmann.shell_s",
    "boltzmann.transport": "boltzmann.transport_self_s",
    "resolvent.one_res": "resolvent.one_res_s",
    "resolvent.two_res": "resolvent.two_res_s",
    "resolvent.three_res": "resolvent.three_res_s",
    "harness.output": "harness.output_s",
    "trace.check": "trace.check_s",
}
CALL_COUNTS = {
    "dynamics.evolve": "dynamics.evolve_calls",
    "wigner.pair": "wigner.pair_calls",
    "lattice.disorder": "lattice.disorder_calls",
    "lattice.wkb": "lattice.wkb_calls",
}
COUNTERS = (
    "dynamics.split_steps",
    "dynamics.fft_calls",
    "dynamics.bytes_moved",
    "boltzmann.dos_samples",
    "boltzmann.shell_slots",
    "boltzmann.shell_calls_pooled",
    "boltzmann.shell_calls_per_slot",
    "resolvent.grid_points",
    "resolvent.bytes_moved",
)
HEALTH = ("dynamics.norm_drift_max", "wigner.truncation_max", "boltzmann.shell_energy_drift_max")


class InvariantViolation(AssertionError):
    """A physics invariant failed at a wrapped boundary."""


class Tracer:
    """Spans kept in memory plus counters and health maxima for one process."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self._open = []
        self.counts = defaultdict(int)
        self.health = defaultdict(float)

    def begin(self, layer: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def note_max(self, key: str, value: float):
        self.health[key] = max(self.health[key], float(value))

    def self_seconds(self) -> dict:
        """Per-layer span duration minus the part covered by child spans."""
        out = defaultdict(float)
        for layer, start, end, parent in self.spans:
            out[layer] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def wrap(self, owner, attr: str, layer: str, before=None, after=None):
        """Replace owner.attr by a traced wrapper; absent attributes are skipped."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if (before or after) else None
            ctx = None
            if before:
                idx = tracer.begin("trace.check")
                try:
                    ctx = before(tracer, bound)
                finally:
                    tracer.end(idx)
            idx = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after:
                idx = tracer.begin("trace.check")
                try:
                    after(tracer, bound, ctx, result)
                finally:
                    tracer.end(idx)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", attr)
        traced.__doc__ = getattr(fn, "__doc__", None)
        setattr(owner, attr, traced)


# ---------------------------------------------------------------------------
# Per-call counters and checks
# ---------------------------------------------------------------------------


def split_steps(t: float, dt: float) -> int:
    """Uniform steps of dt plus one shortened step to land on t."""
    n_full = int(math.floor(t / dt + 1e-12))
    return n_full + (1 if t - n_full * dt > 1e-12 * max(t, dt) else 0)


def _evolve_before(tracer, a):
    return float(np.linalg.norm(a["psi"].values))


def _evolve_after(tracer, a, norm0, result):
    n = split_steps(float(a["t"]), float(a["cfg"].dt))
    side3 = a["psi"].box.side ** 3
    ffts = 2 * n + 2 if n else 0
    phase_multiplies = 2 * n + 1 if n else 0
    c = tracer.counts
    c["dynamics.split_steps"] += n
    c["dynamics.fft_calls"] += ffts
    # computed: each FFT reads and writes the complex128 array once; each phase
    # multiply reads the float64 exponent grid and reads/writes the array
    c["dynamics.bytes_moved"] += side3 * (32 * ffts + 40 * phase_multiplies)
    drift = abs(float(np.linalg.norm(result.values)) - norm0)
    tracer.note_max("dynamics.norm_drift_max", drift)
    if drift > NORM_DRIFT_LIMIT:
        raise InvariantViolation(f"split step changed the norm by {drift:.3e}")


def _pair_after(tracer, a, _, result):
    tracer.note_max("wigner.truncation_max", result.truncation_error)


def _dos_before(tracer, a):
    tracer.counts["boltzmann.dos_samples"] += int(a["n_samples"])


def _shell_before(tracer, a):
    n = int(a["n"])
    E = np.broadcast_to(np.asarray(a["E"], dtype=float), (n,))
    pooled = np.unique(E).size <= POOLED_MAX_ENERGIES
    tracer.counts["boltzmann.shell_calls_pooled" if pooled else "boltzmann.shell_calls_per_slot"] += 1
    tracer.counts["boltzmann.shell_slots"] += n
    return E.copy()


def _shell_after(tracer, a, E, U):
    from kinlab.lattice import dispersion

    drift = float(np.max(np.abs(dispersion(U) - E))) if len(E) else 0.0
    tracer.note_max("boltzmann.shell_energy_drift_max", drift)
    if drift > SHELL_DRIFT_LIMIT:
        raise InvariantViolation(f"post-collision energy off the shell by {drift:.3e}")


def _weights_after(tracer, a, _, result):
    for ens in result if isinstance(result, list) else [result]:
        if not np.all(ens.weight == 1.0 / ens.size):
            raise InvariantViolation("particle weights differ from 1/n")


def _resolvent_after(grids: int, dtype_of_n):
    def after(tracer, a, _, result):
        N = int(a["N"])
        itemsize = dtype_of_n(N)
        points = grids * N**3
        # computed: each grid value is written and read once at its dtype
        moved = 2 * itemsize * points
        if grids == 3:
            # plus two forward real transforms and one inverse, each reading
            # its input and writing its output once
            spectrum = N * N * (N // 2 + 1) * 2 * itemsize
            moved += 3 * (N**3 * itemsize + spectrum)
        tracer.counts["resolvent.grid_points"] += points
        tracer.counts["resolvent.bytes_moved"] += moved

    return after


def install(tracer: Tracer):
    """Wrap the public functions as the harness and the benchmark look them up."""
    from kinlab import boltzmann, resolvent
    from kinlab.harness import experiments
    from kinlab.harness.manifest import RunManifest

    tracer.wrap(experiments, "sample_disorder", "lattice.disorder")
    tracer.wrap(experiments, "wkb_state", "lattice.wkb")
    tracer.wrap(experiments, "evolve_full", "dynamics.evolve", _evolve_before, _evolve_after)
    tracer.wrap(experiments, "pair_wigner", "wigner.pair", after=_pair_after)
    tracer.wrap(experiments, "write_csv", "harness.output")
    tracer.wrap(RunManifest, "add_output", "harness.output")
    tracer.wrap(RunManifest, "write", "harness.output")
    tracer.wrap(boltzmann, "build_dos_table", "boltzmann.dos", _dos_before)
    tracer.wrap(boltzmann, "solve", "boltzmann.transport", after=_weights_after)
    tracer.wrap(boltzmann, "snapshots", "boltzmann.transport", after=_weights_after)
    tracer.wrap(boltzmann, "sample_energy_shell_batch", "boltzmann.shell", _shell_before, _shell_after)
    # integral_3res runs in float32 on grids with N >= 384 (its documented switch)
    tracer.wrap(resolvent, "integral_1res", "resolvent.one_res", after=_resolvent_after(1, lambda N: 8))
    tracer.wrap(resolvent, "integral_2res", "resolvent.two_res", after=_resolvent_after(2, lambda N: 8))
    tracer.wrap(
        resolvent, "integral_3res", "resolvent.three_res",
        after=_resolvent_after(3, lambda N: 4 if N >= 384 else 8),
    )


def layer_metrics(tracer: Tracer, wall_s: float, cpu_s: float) -> dict:
    """Every per-layer metric of one traced repetition (zero where a layer is idle)."""
    selfs = tracer.self_seconds()
    calls = defaultdict(int)
    for layer, *_ in tracer.spans:
        calls[layer] += 1
    out = {name: selfs.get(layer, 0.0) for layer, name in LAYER_SECONDS.items()}
    out.update({name: calls.get(layer, 0) for layer, name in CALL_COUNTS.items()})
    out.update({name: tracer.counts.get(name, 0) for name in COUNTERS})
    out.update({name: tracer.health.get(name, 0.0) for name in HEALTH})
    out["harness.cpu_s"] = cpu_s
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(selfs.values())
    return out
