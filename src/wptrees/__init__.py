"""Exact genus-zero Weil-Petersson volumes from tree sums.

The package computes the volume polynomials V_{0,n}(L) and the half-tight
volumes H_n(L) by exact summation over boundary-labeled tree families,
cross-checks them through Bessel-series generating functions and a
boundary-insertion recursion, and validates the underlying polytope picture
with a seeded Monte Carlo sampler.  See the ``wptrees`` command-line tool.

The API is the submodules: ``algebra`` (exact polynomials and graded
series), ``trees`` (tree families), ``volumes`` (the tree-sum routes),
``genfun`` (generating functions and the recursion), ``polytope`` (the
polytope geometry), ``checks`` (the identity battery), ``montecarlo`` (the
sampler) and ``cli``; ``import wptrees`` loads none of them.  Besides
``__version__``, the package itself holds only :class:`UsageError`.
"""

__version__ = "0.1.0"


class UsageError(ValueError):
    """Input refused before any work: the command line prints its message
    and exits 2.  Every other exception is an internal error."""
