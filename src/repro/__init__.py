"""repro — a reproduction of "Efficient Deterministic Leader Election for
Programmable Matter" (Dufoulon, Kutten, Moses Jr., PODC 2021).

The package implements, from scratch:

* a triangular-grid and amoebot-model substrate (:mod:`repro.grid`,
  :mod:`repro.amoebot`),
* the paper's contribution — Algorithm DLE, Algorithm Collect and the
  outer-boundary-detection primitive OBD (:mod:`repro.core`),
* the prior-work baselines of Table 1 (:mod:`repro.baselines`), and
* the experiment harness that regenerates the paper's comparison table and
  asymptotic claims (:mod:`repro.analysis`, :mod:`repro.orchestrator`).

The public API lives in :mod:`repro.api`; this package file binds only
``__version__``, so importing a submodule does not import the whole
package.  Quick start::

    from repro.api import ParticleSystem, elect_leader, hexagon_with_holes

    shape = hexagon_with_holes(radius=7)
    system = ParticleSystem.from_shape(shape, orientation_seed=1)
    outcome = elect_leader(system)
    print(outcome.stage_rounds())
"""

__version__ = "1.2.0"

__all__ = ["__version__"]
