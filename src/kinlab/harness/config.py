"""Experiment configuration: flat key-value text files with sections.

Grammar (INI, parsed with configparser; `#` comments allowed):

    [run]
    lambdas = 0.6 0.45 0.3        # descending couplings in (0, 1]
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

The sections are the dataclasses `ExperimentConfig` ([run]), `WkbSpec`,
`TestObservable` and `DuhamelStudySpec`, one key per field (the observable's
`coeffs` are written as `harmonics`).  A missing key takes its field's
default; a field without a default is a required key.  Unknown keys and
sections, values the classes reject, and a file that cannot be read raise
ConfigError.

All physical numbers are in lattice units (spacing 1, hbar 1); eta = lam^2
throughout.  Loading validates the per-coupling box budget
L >= 2 (T/lam^2 + 6 sigma/lam^2): ballistic travel plus envelope support
must stay clear of the periodic seam.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import get_type_hints

from kinlab.boltzmann import ShellSamplerConfig
from kinlab.dynamics import MAX_ORDER, PropagatorConfig
from kinlab.lattice import BoxSpec, TrigPolynomial, WkbSpec
from kinlab.wigner import TestObservable


class ConfigError(ValueError):
    pass


def _number(kind, s: str, what: str):
    """`kind(s)` for kind int or float; ConfigError if s does not parse or is not finite."""
    try:
        x = kind(s)
    except ValueError:
        raise ConfigError(f"{what} needs {kind.__name__} values, got {s!r}") from None
    if kind is float and not math.isfinite(x):
        raise ConfigError(f"{what} needs finite values, got {s!r}")
    return x


def _floats(s: str, what: str) -> tuple:
    return tuple(_number(float, tok, what) for tok in s.split())


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


def _harmonics(s: str, what: str) -> tuple:
    """`TestObservable.coeffs` from terms: sorted ((m1, m2, m3), a + ib) pairs."""
    return tuple((m, complex(a, b)) for m, (a, b) in sorted(_parse_terms(s).items()))


# value parsers by field type
_TYPE_PARSERS = MappingProxyType({
    int: partial(_number, int),
    float: partial(_number, float),
    str: lambda s, what: s,
    tuple: _vector,
    TrigPolynomial: lambda s, what: TrigPolynomial.from_dict(_parse_terms(s)),
})
# fields with their own key name or grammar: field -> (key, parser)
_OWN_PARSERS = MappingProxyType({
    "lambdas": ("lambdas", _floats),
    "coeffs": ("harmonics", _harmonics),
})


@dataclass(frozen=True)
class DuhamelStudySpec:
    L: int = 16
    t: float = 2.0
    lam: float = 0.3
    dt: float = 1e-3
    N: int = 4

    def __post_init__(self):
        BoxSpec(self.L)  # side validity
        PropagatorConfig(dt=self.dt)
        if self.t < 0:
            raise ValueError(f"t must be nonnegative, got {self.t}")
        if not 0 <= self.N <= MAX_ORDER:
            raise ValueError(f"N must lie in [0, {MAX_ORDER}], got {self.N}")


@dataclass
class ExperimentConfig:
    lambdas: tuple
    T: float
    L: int
    dt: float
    n_realizations: int
    master_seed: int
    tau_grid: int = 6
    n_particles: int = 100_000
    shell_halfwidth: float = 0.005
    dos_samples: int = 4_000_000
    dos_bins: int = 512
    out_dir: str = "out"
    wkb: WkbSpec = field(default_factory=WkbSpec)
    observable: TestObservable = field(default_factory=TestObservable)
    duhamel: DuhamelStudySpec = field(default_factory=DuhamelStudySpec)

    def __post_init__(self):
        if not self.lambdas:
            raise ConfigError("need at least one coupling")
        if any(b >= a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ConfigError("lambdas must be strictly descending")
        if not all(0 < lam <= 1 for lam in self.lambdas):
            raise ConfigError(f"couplings must lie in (0, 1], got {self.lambdas}")
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
        if self.tau_grid < 4:
            raise ConfigError(f"tau_grid needs >= 4 points, got {self.tau_grid}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        ShellSamplerConfig(shell_halfwidth=self.shell_halfwidth)

    def box(self) -> BoxSpec:
        return BoxSpec(self.L)

    def digest(self) -> str:
        """sha256 of the dataclass repr, which lists every field and nested spec."""
        import hashlib  # here, so that loading the CLI does not load OpenSSL

        return hashlib.sha256(repr(self).encode()).hexdigest()


def _parse_section(cp, name: str, cls, **given):
    """`cls` from section [name]: each field's key parsed by the field's type.

    Fields in `given` are set as passed and are not keys of the section.
    """
    values = dict(cp[name]) if cp.has_section(name) else {}  # keys lowercased
    types = get_type_hints(cls)
    kwargs = dict(given)
    keys = set()
    for f in dataclasses.fields(cls):
        if f.name in given:
            continue
        key, parse = _OWN_PARSERS.get(f.name, (f.name, _TYPE_PARSERS[types[f.name]]))
        lower = key.lower()
        keys.add(lower)
        if lower in values:
            kwargs[f.name] = parse(values[lower], f"{name} {key}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing {name} key {key!r}")
    unknown = sorted(set(values) - keys)
    if unknown:
        raise ConfigError(f"unknown {name} keys {unknown}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"[{name}] {e}") from None


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(str(e)) from None
    types = get_type_hints(ExperimentConfig)
    specs = {f.name: types[f.name] for f in dataclasses.fields(ExperimentConfig)
             if dataclasses.is_dataclass(types[f.name])}
    unknown = sorted(set(cp.sections()) - {"run", *specs})
    if unknown:
        raise ConfigError(f"unknown sections {unknown}")
    nested = {name: _parse_section(cp, name, cls) for name, cls in specs.items()}
    return _parse_section(cp, "run", ExperimentConfig, **nested)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config: {e}") from None
    return parse_config(text)
