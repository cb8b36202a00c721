"""Exact desk-scale verification of K-theory operation identities.

The package models the K-theory of a truncated projective space with exact
rational coefficients, layers Adams and p-typical operations on top, bridges
to cohomology through the Chern character, and uses the resulting numbers to
check Bernoulli valuation identities, a p-local logarithm, one disproof via
a mod-p homology pairing, and the closed-form pages of two model Bockstein
spectral sequences.  Everything is exact; nothing is floating point.

Each name is read from its module (``from kverify.chern import ch``), and
importing the package loads only ``exact`` and the ``report`` rows it
builds, which every command loads anyway: a subcommand imports only the
modules its suite runs.
"""

# perfbench/test_perfbench.py reads kverify.bernoulli until the benchmark
# stops naming it (ROADMAP item 1)
from .exact import bernoulli  # noqa: F401
