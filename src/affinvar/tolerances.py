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
    psd: float = 1e-9            # relative eigenvalue floor for PSD tests
    # linear programming / coefficient identities
    feasibility: float = 1e-8    # LP feasibility and coefficient-match residuals
    lam_clip: float = 1e-10      # clamp threshold for tiny negative multipliers
    interior_slack: float = 1e-9 # minimal Chebyshev radius counting as interior
    box: float = 1e6             # LP box bound for multipliers and witnesses
    # transforms and decompositions
    zero_row: float = 1e-9       # scale-relative zero test for coupling rows
    block_identity: float = 1e-9 # canonical-transform block residual
    fit_residual: float = 1e-8   # least-squares fit residuals (psi, bases)
    eig_zero: float = 1e-9       # relative eigenvalue-zero threshold (quadrics)
    sampled_min: float = 1e-7    # grid-minimum slack for sampled inequality checks


_CURRENT: ContextVar[Tolerances] = ContextVar("tolerances", default=Tolerances())


def current() -> Tolerances:
    """The tolerances in effect in this context."""
    return _CURRENT.get()


@contextmanager
def tolerances(feasibility: float):
    """Put the defaults, rescaled so that ``feasibility`` is the LP/coefficient
    tolerance, in effect for the block: every check tolerance keeps its ratio
    to it; ``sym_rtol`` and ``box`` are not check tolerances and stay."""
    base = Tolerances()
    factor = feasibility / base.feasibility
    scaled = replace(base, **{f.name: getattr(base, f.name) * factor
                              for f in fields(base)
                              if f.name not in ("sym_rtol", "box")})
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
