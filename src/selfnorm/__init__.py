"""Exponential tail bounds for self-normalized martingales, their simulation
models, and Monte Carlo / exact sign-type verification.

Names are imported from their modules, e.g.
``from selfnorm.bounds import evaluate_bound``."""

__version__ = "0.1.0"
