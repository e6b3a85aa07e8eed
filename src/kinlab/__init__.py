"""kinlab: a numerical laboratory for weakly disordered lattice quantum dynamics.

The package simulates a single quantum particle on a periodic cubic lattice
with a weak i.i.d. Gaussian on-site potential, measures phase-space
observables of the evolved state through scaled Wigner transforms, and
compares ensembles of such measurements against the linear Boltzmann
transport equation that governs the weak-coupling limit.  Side laboratories
probe the two ingredients that control the error budget of that limit:
torus resolvent integrals and the combinatorics of pairings in the variance
expansion.

Modules
-------
lattice    dispersion, box geometry, disorder fields, position-space states,
           semiclassical wave-packet construction
dynamics   the split-step propagator, iterated-integral expansion of the
           full evolution, residual norms of its partial sums; the only
           module with momentum arrays (numpy's unnormalised fftn)
wigner     phase-space test observables and Wigner pairings
boltzmann  particle Monte Carlo for the linear Boltzmann equation
resolvent  torus integrals of resolvent products and scaling fits
graphs     pairing enumeration and classification
bounds     amplitude, remainder and variance bound formulas
harness    experiment orchestration, config files, CSV/manifest output, CLI
"""

__version__ = "0.1.0"
