"""Numeric tolerances, scoped to the call that sets them.

Every comparison in the package reads ``TOL``, a read-only view of the frozen
``Tolerances`` in effect in the current context (thread or asyncio task).
``with tolerances(feasibility=x):`` puts a rescaled copy in effect for the
block only, so a CLI ``--tol`` call is seen by no other thread or call.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    # value-type hygiene
    sym_rtol: float = 1e-12      # relative asymmetry absorbed by symmetrization
    membership: float = 1e-10    # polyhedron / quadric membership slack
    psd: float = 1e-9            # relative eigenvalue floor and zero test
    # certificates / coefficient identities
    feasibility: float = 1e-8    # certificate, coefficient-match and fit residuals
    lam_clip: float = 1e-10      # clamp threshold for tiny negative multipliers
    interior_slack: float = 1e-9 # least normalized slack counting as interior
    # transforms and decompositions
    zero_row: float = 1e-9       # scale-relative zero test for coupling rows
    block_identity: float = 1e-9 # canonical-transform block residual
    sampled_min: float = 1e-7    # least separator gap of psd_decompose's refusal


_CURRENT: ContextVar[Tolerances] = ContextVar("tolerances", default=Tolerances())


def current() -> Tolerances:
    """The tolerances in effect in this context."""
    return _CURRENT.get()


@contextmanager
def tolerances(feasibility: float):
    """Put the defaults, rescaled so that ``feasibility`` is the coefficient
    tolerance, in effect for the block: every check tolerance keeps its ratio
    to it; ``sym_rtol`` is not a check tolerance and stays.  No tolerance
    bounds where a point may lie: a model and its translate by any vector
    are checked alike."""
    base = Tolerances()
    factor = feasibility / base.feasibility
    scaled = replace(base, **{f.name: getattr(base, f.name) * factor
                              for f in fields(base) if f.name != "sym_rtol"})
    token = _CURRENT.set(scaled)
    try:
        yield scaled
    finally:
        _CURRENT.reset(token)


class _CurrentView:
    """``TOL.psd`` reads the field of the tolerances in effect; there is no
    setter."""

    __slots__ = ()

    def __getattr__(self, name: str):
        return getattr(_CURRENT.get(), name)


TOL = _CurrentView()
