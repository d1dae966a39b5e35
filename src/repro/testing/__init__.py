"""Test infrastructure shipped with the package (nothing here is on a
request path): :mod:`repro.testing.chaos` is the chaos framework behind
``scripts/sim.py``."""
