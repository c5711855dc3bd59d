"""Timing at a reference machine speed.

On a shared host the speed of a core changes from one second to the next:
other tenants take the sibling hardware thread, the caches and the memory
bus, and the same call can take 40% longer a minute later.  Wall time then
measures the neighbours as much as the program, and neither the best nor the
median of repeats within one run removes a slowdown that lasts the whole run.

So every timed piece of work is bracketed by a *probe*: a fixed piece of
interpreter work outside the package (a dict and float loop), timed just
before and just after.  The work's time is reported at the reference speed,
where the probe takes `REF_PROBE_S`:

    adjusted = wall * REF_PROBE_S / mean(probe before, probe after)

A change to the package moves `wall` and not the probe, so it shows in full;
a change of the machine's speed moves both and cancels.  Callers also keep
the raw wall times, which the benchmark prints beside the adjusted figures.

Probes that also ran small LAPACK calls or copied 16 MB tracked the calls
no better, the copy worse even beside a neighbour that copies memory.  The
module imports nothing but `time`, so a fresh interpreter can probe
before it imports the package (see `run.IMPORT_PROBE`).
"""

from __future__ import annotations

import time

# The probe's time at the reference speed, about its time on an unloaded
# core of a 2-core x86-64 cloud VM under CPython 3.11.
REF_PROBE_S = 4.4e-3


def probe() -> float:
    """Seconds taken by the fixed reference work."""
    t0 = time.perf_counter()
    d: dict[int, float] = {}
    for i in range(30000):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
    return time.perf_counter() - t0


def timed(fn, *args):
    """Call fn(*args) between two probes.  Returns (result, error, wall
    seconds, seconds at the reference speed, the probes' mean); when fn
    raises, result is None and error is the exception."""
    before = probe()
    result = error = None
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - handed to the caller
        error = exc
    wall = time.perf_counter() - t0
    ref = 0.5 * (before + probe())
    return result, error, wall, wall * REF_PROBE_S / ref, ref
