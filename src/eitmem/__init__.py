"""Pulse storage in three-level ensembles via control-driven slow light.

The spectral engine evolves the dark collective mode under the adiabatic
evolution law; an independent reduced-system integrator exists to check it.
Each name is imported from its own module: the package re-exports nothing,
so importing the integrator or the scenario loader loads no engine module.
"""
