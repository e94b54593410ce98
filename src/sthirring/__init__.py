"""Symbolic perturbation, contraction combinatorics and power counting for
the stochastic Thirring model, with a numerical backend for the closed-form
kernels in one and two dimensions.

The package root re-exports nothing: import each name from its module
(`sthirring.perturbation`, `sthirring.deformation`, ...).  The command
line in `sthirring.cli` is the one entry point that the outputs come from.
"""

__version__ = "0.1.0"
