"""Solver, quantum-dynamics simulator, and resource model for the
stochastic collision-coalescence master equation.  Import the modules
themselves: the package root holds only ``__version__``."""

__version__ = "0.1.0"
