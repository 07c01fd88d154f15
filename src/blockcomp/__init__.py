"""Certified lower bounds for block-composed Boolean functions.

Submodules: boolcube (cube/Fourier basics), approxdeg (exact LP degree and
dual witnesses), specdisc (spectral discrepancy), mainlemma (trace-norm
certificates), applications (padding reductions), protocols
(classical upper-bound simulations), cli (command line).
"""

__version__ = "0.1.0"
