"""Largest-root distribution of the noncentral complex Wishart matrix.

Four independent evaluation routes for the CDF/PDF of the largest
eigenvalue of S = X*X (rows of X complex Gaussian with identity
covariance), plus exact machine verification of the recurrence and
differential-operator structure behind them:

* ``distribution`` -- determinantal quadrature route, exact truncated
  series route, and the determinantal closed forms (G-functions);
* ``hgm``          -- Taylor march of the Pfaffian system of the quadrature
  route's divided-difference rows (m(m+2) components);
* ``series_engine``, ``exp_poly`` -- exact series/coefficient arithmetic;
* ``operators``    -- annihilating-operator verification (exact zeros);
* ``h_integrals``  -- the kernel integrals and their recurrences;
* ``mc_validator`` -- seeded Monte Carlo oracle with its own eigensolver;
* ``cli``          -- the ``wishart-roots`` command.
"""

from .distribution import EvalConfig, WishartParams, cdf, pdf

__all__ = ["EvalConfig", "WishartParams", "cdf", "pdf"]
__version__ = "0.1.0"
