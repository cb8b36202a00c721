"""Exact desk-scale verification of K-theory operation identities.

The package models the K-theory of a truncated projective space with exact
rational coefficients, layers Adams and p-typical operations on top, bridges
to cohomology through the Chern character, and uses the resulting numbers to
check Bernoulli valuation identities, a p-local logarithm, one disproof via
a mod-p homology pairing, and the closed-form pages of two model Bockstein
spectral sequences.  Everything is exact; nothing is floating point.

The public names resolve on first use (PEP 562), each from its home module,
so importing the package or one module loads nothing else: a subcommand
imports only the modules its suite runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The home module of each public name.
_HOMES = {
    name: module
    for module, names in (
        ("exact", ("bernoulli", "choose_k", "num_denom", "vp")),
        ("polyring", ("KClass", "line_power")),
        ("kops", ("artin_hasse_log", "l_double_loop", "psi", "theta")),
        ("chern", ("ch", "eigenvalue_closed_form", "rk_eigenvalue", "s_eval")),
        ("dyerlashof", ("akita_counterexample", "q_on_bu")),
        ("bockstein", ("ModelKind", "build_model", "compute_page", "verify_closed_form_pages")),
    )
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # not cached, so a name always reads its home module's current binding
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_HOMES[name]}", __name__), name)
