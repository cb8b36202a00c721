"""Exact desk-scale verification of K-theory operation identities.

The package models the K-theory of a truncated projective space with exact
rational coefficients, layers Adams and p-typical operations on top, bridges
to cohomology through the Chern character, and uses the resulting numbers to
check Bernoulli valuation identities, a p-local logarithm, one disproof via
a mod-p homology pairing, and the closed-form pages of two model Bockstein
spectral sequences.  Everything is exact; nothing is floating point.
"""

from .bockstein import ModelKind, build_model, compute_page, verify_closed_form_pages
from .chern import ch, eigenvalue_closed_form, rk_eigenvalue, s_eval
from .dyerlashof import akita_counterexample, q_on_bu
from .exact import bernoulli, choose_k, num_denom, vp
from .kops import artin_hasse_log, l_double_loop, psi, theta
from .polyring import (
    INTEGRAL,
    RATIONAL,
    KClass,
    SuspensionClass,
    k_inverted,
    line_power,
    p_local,
    suspend,
)

__version__ = "0.1.0"

__all__ = [
    "INTEGRAL",
    "KClass",
    "ModelKind",
    "RATIONAL",
    "SuspensionClass",
    "akita_counterexample",
    "artin_hasse_log",
    "bernoulli",
    "build_model",
    "ch",
    "choose_k",
    "compute_page",
    "eigenvalue_closed_form",
    "k_inverted",
    "l_double_loop",
    "line_power",
    "num_denom",
    "p_local",
    "psi",
    "q_on_bu",
    "rk_eigenvalue",
    "s_eval",
    "suspend",
    "theta",
    "verify_closed_form_pages",
    "vp",
]
