"""Experiment configuration: flat key-value text files with sections.

Grammar (INI, parsed with configparser; `#` comments allowed):

    [run]
    lambdas = 0.6 0.45 0.3        # descending couplings
    T = 0.5                       # macroscopic final time
    tau_grid = 6                  # points of the time-supremum grid
    L = 64                        # box side (even, >= 4)
    dt = 0.05                     # split-step size (microscopic time)
    n_realizations = 64
    master_seed = 20260810
    n_particles = 100000          # Boltzmann sample size
    shell_halfwidth = 0.005       # collision-kernel shell
    dos_samples = 4000000
    dos_bins = 512
    out_dir = out

    [wkb]
    center = 0 0 0
    sigma = 0.35
    linear = 1.5707963 0 0        # linear phase coefficient p (S = p.X + trig)
    trig =                        # optional lines "m1 m2 m3 : a b"

    [observable]
    center = 0.25 0 0
    sigma = 1.0 1.0 1.0
    amplitude = 1.0
    harmonics = 0 0 0 : 0.5 0 ; 1 0 0 : 0.25 0 ; -1 0 0 : 0.25 0

    [duhamel]                     # optional; expansion-decay study
    L = 16
    t = 2.0
    lam = 0.3
    dt = 0.001
    N = 4

All physical numbers are in lattice units (spacing 1, hbar 1); eta = lam^2
throughout.  Loading validates the per-coupling box budget
L >= 2 (T/lam^2 + 6 sigma/lam^2): ballistic travel plus envelope support
must stay clear of the periodic seam.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field

from kinlab.lattice import BoxSpec, TrigPolynomial, WkbSpec
from kinlab.wigner import TestObservable


class ConfigError(ValueError):
    pass


def _number(s: str, kind, what: str):
    """`kind(s)` for kind int or float; ConfigError if s does not parse."""
    try:
        return kind(s)
    except ValueError:
        raise ConfigError(f"{what} needs {kind.__name__} values, got {s!r}") from None


def _floats(s: str, what: str) -> tuple:
    return tuple(_number(tok, float, what) for tok in s.split())


def _vector(s: str, what: str) -> tuple:
    """Exactly three floats."""
    v = _floats(s, what)
    if len(v) != 3:
        raise ConfigError(f"{what} needs 3 components, got {s!r}")
    return v


def _parse_terms(s: str) -> dict:
    """Terms "m1 m2 m3 : a b" separated by ";" as {(m1, m2, m3): (a, b)}; b defaults to 0."""
    out = {}
    for chunk in s.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition(":")
        if not sep or ":" in right:
            raise ConfigError(f"term needs the form 'm1 m2 m3 : a b', got {chunk!r}")
        m = _vector(left, "frequency")
        if not all(x.is_integer() for x in m):
            raise ConfigError(f"frequency needs integer components, got {left.strip()!r}")
        a_b = list(_floats(right, "term coefficient")) + [0.0, 0.0]
        out[tuple(int(x) for x in m)] = (a_b[0], a_b[1])
    return out


@dataclass(frozen=True)
class DuhamelStudySpec:
    L: int = 16
    t: float = 2.0
    lam: float = 0.3
    dt: float = 1e-3
    N: int = 4


@dataclass
class ExperimentConfig:
    lambdas: tuple
    T: float
    tau_grid: int
    L: int
    dt: float
    n_realizations: int
    master_seed: int
    n_particles: int
    shell_halfwidth: float
    dos_samples: int
    dos_bins: int
    out_dir: str
    wkb: WkbSpec
    observable: TestObservable
    duhamel: DuhamelStudySpec = field(default_factory=DuhamelStudySpec)

    def __post_init__(self):
        if not self.lambdas:
            raise ConfigError("need at least one coupling")
        if any(b >= a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ConfigError("lambdas must be strictly descending")
        BoxSpec(self.L)  # side validity
        for lam in self.lambdas:
            eta = lam**2
            budget = 2.0 * (self.T / eta + 6.0 * self.wkb.sigma / eta)
            if self.L < budget:
                raise ConfigError(
                    f"L={self.L} below the box budget {budget:.1f} at lam={lam} "
                    f"(ballistic travel + envelope support)"
                )
        if self.dt <= 0 or self.T < 0:
            raise ConfigError("dt must be positive and T nonnegative")
        for key in ("n_realizations", "n_particles", "dos_samples", "dos_bins"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")

    def box(self) -> BoxSpec:
        return BoxSpec(self.L)

    def digest(self) -> str:
        canon = canonical_text(self)
        return hashlib.sha256(canon.encode()).hexdigest()


def canonical_text(cfg: ExperimentConfig) -> str:
    """Deterministic serialization used for config digests."""
    buf = io.StringIO()
    buf.write("[run]\n")
    buf.write(f"lambdas = {' '.join(repr(x) for x in cfg.lambdas)}\n")
    for key in ("T", "dt", "shell_halfwidth"):
        buf.write(f"{key} = {repr(getattr(cfg, key))}\n")
    for key in ("tau_grid", "L", "n_realizations", "master_seed", "n_particles",
                "dos_samples", "dos_bins"):
        buf.write(f"{key} = {getattr(cfg, key)}\n")
    buf.write(f"out_dir = {cfg.out_dir}\n")
    buf.write("[wkb]\n")
    buf.write(f"center = {' '.join(repr(x) for x in cfg.wkb.center)}\n")
    buf.write(f"sigma = {repr(cfg.wkb.sigma)}\n")
    buf.write(f"linear = {' '.join(repr(x) for x in cfg.wkb.linear)}\n")
    buf.write(f"trig = {cfg.wkb.trig.terms}\n")
    buf.write("[observable]\n")
    buf.write(f"center = {' '.join(repr(x) for x in cfg.observable.center)}\n")
    buf.write(f"sigma = {' '.join(repr(x) for x in cfg.observable.sigma)}\n")
    buf.write(f"amplitude = {repr(cfg.observable.amplitude)}\n")
    buf.write(f"harmonics = {cfg.observable.coeffs}\n")
    buf.write("[duhamel]\n")
    d = cfg.duhamel
    buf.write(f"L = {d.L}\nt = {repr(d.t)}\nlam = {repr(d.lam)}\ndt = {repr(d.dt)}\nN = {d.N}\n")
    return buf.getvalue()


DEFAULTS = {
    "tau_grid": "6",
    "n_particles": "100000",
    "shell_halfwidth": "0.005",
    "dos_samples": "4000000",
    "dos_bins": "512",
    "out_dir": "out",
}


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(text)
    if "run" not in cp:
        raise ConfigError("missing [run] section")
    run = cp["run"]

    def get(key, default=None):
        if key in run:
            return run[key]
        if default is not None:
            return default
        if key in DEFAULTS:
            return DEFAULTS[key]
        raise ConfigError(f"missing run key {key!r}")

    def num(key, kind):
        return _number(get(key), kind, key)

    wkb_sec = cp["wkb"] if "wkb" in cp else {}
    wkb_sigma = _number(wkb_sec.get("sigma", "0.35"), float, "wkb sigma")
    if not wkb_sigma > 0:
        raise ConfigError(f"wkb sigma must be positive, got {wkb_sigma}")
    wkb = WkbSpec(
        center=_vector(wkb_sec.get("center", "0 0 0"), "wkb center"),
        sigma=wkb_sigma,
        linear=_vector(wkb_sec.get("linear", "0 0 0"), "wkb linear"),
        trig=TrigPolynomial.from_dict(_parse_terms(wkb_sec.get("trig", ""))),
    )
    obs_sec = cp["observable"] if "observable" in cp else {}
    obs_sigma = _vector(obs_sec.get("sigma", "1 1 1"), "observable sigma")
    if not all(x > 0 for x in obs_sigma):
        raise ConfigError(f"observable sigma must be positive, got {obs_sigma}")
    observable = TestObservable.make(
        center=_vector(obs_sec.get("center", "0 0 0"), "observable center"),
        sigma=obs_sigma,
        amplitude=_number(obs_sec.get("amplitude", "1.0"), float, "observable amplitude"),
        coeffs={
            m: complex(a, b)
            for m, (a, b) in _parse_terms(obs_sec.get("harmonics", "0 0 0 : 1 0")).items()
        },
    )
    duh_sec = cp["duhamel"] if "duhamel" in cp else {}
    duhamel = DuhamelStudySpec(
        L=_number(duh_sec.get("L", "16"), int, "duhamel L"),
        t=_number(duh_sec.get("t", "2.0"), float, "duhamel t"),
        lam=_number(duh_sec.get("lam", "0.3"), float, "duhamel lam"),
        dt=_number(duh_sec.get("dt", "0.001"), float, "duhamel dt"),
        N=_number(duh_sec.get("N", "4"), int, "duhamel N"),
    )
    return ExperimentConfig(
        lambdas=_floats(get("lambdas"), "lambdas"),
        T=num("T", float),
        tau_grid=num("tau_grid", int),
        L=num("L", int),
        dt=num("dt", float),
        n_realizations=num("n_realizations", int),
        master_seed=num("master_seed", int),
        n_particles=num("n_particles", int),
        shell_halfwidth=num("shell_halfwidth", float),
        dos_samples=num("dos_samples", int),
        dos_bins=num("dos_bins", int),
        out_dir=get("out_dir"),
        wkb=wkb,
        observable=observable,
        duhamel=duhamel,
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return parse_config(f.read())
