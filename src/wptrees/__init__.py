"""Exact genus-zero Weil-Petersson volumes from tree sums.

The package computes the volume polynomials V_{0,n}(L) and the half-tight
volumes H_n(L) by exact summation over boundary-labeled tree families,
cross-checks them through Bessel-series generating functions and a
boundary-insertion recursion, and validates the underlying polytope picture
with a seeded Monte Carlo sampler.  See the ``wptrees`` command-line tool.
"""
from .algebra import AUX, INV_GAMMA1, PI2, GradedSeries, Polynomial, ghat, lsq, mom, that
from .genfun import (
    MomentContext,
    f_from_trees,
    f_recursion,
    f_substituted,
    htc_genfun,
    mu_average,
    solve_r,
    symmetric_from_moments,
    z_residual,
    z_series,
)
from .montecarlo import McReport, mc_full_volume, mc_htc_volume, polytope_dimension
from .trees import (
    DoubleTree,
    Tree,
    brute_force_enumerate,
    canonical_key,
    enumerate_family,
    plane_embedding_count,
)
from .volumes import (
    ell_integral,
    full_decomposition_v0n,
    htc_volume,
    known_v0n,
    v0n_graph_sum,
    v0n_reduced,
    weight_gamma,
    weight_t,
)

__version__ = "0.1.0"
