"""Gradient conjugate prior networks for outlier-robust regression.

Submodules:
    special   A(alpha) solver, digamma gap, Gaussian quadrature
    gcp       normal-gamma parameters, marginal NLL, prognostic variances
    net       MLP heads, backprop, Adam, ensembles
    dynamics  training-dynamics ODE, equilibria, verification sweeps
    data      synthetic generator, contamination, normalization, CSV loading
    metrics   rejection curves (the first point is the RMSE), AUC
    cli       command-line entry points
"""

__version__ = "0.1.0"
