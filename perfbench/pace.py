"""A fixed reference loop that tracks how fast the machine runs right now.

On a host shared with other tenants, the speed one core delivers drifts.
On the 2-core x86_64 virtual machine these sizes were chosen on, the
median time of one bulk_lookup step, taken over 10 s in each of eight
processes run one after another, ranged 108–163 ms, and whole sets of
ten runs a few minutes apart moved by up to 28%.  A run cannot tell that
drift from a change in the program.

So every timed operation is paired with one run of `reference_loop`
just before it, and the gated figures use the ratio of the two times:
what the operation costs in units of fixed work.  The ratio does not
depend on anything the program does, since the loop touches none of its
state, so a faster program lowers it in proportion.

Figures are reported *at reference speed*: the ratio times `REF_S`, the
loop's nominal time.  They read as seconds or operations per second on
a machine where the loop takes exactly `REF_S`; the wall-clock figures
are printed beside them on the ``named`` line.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# The loop's nominal time: about its median on the machine above.
REF_S = 0.018

_rng = np.random.default_rng(0)
_BIG = _rng.integers(0, 1 << 40, size=1_000_000)  # 8 MB: larger than a core's cache
_TABLE = {int(k): i for i, k in enumerate(_BIG[:100_000])}
_PROBES = [int(k) for k in _BIG[_rng.integers(0, 100_000, size=8_000)]]
_GATHER = _rng.integers(0, _BIG.size, size=200_000)
_SMALL = _BIG[:64].copy()
_SLOTS = _BIG[:1024].copy()


def reference_loop() -> float:
    """Seconds one fixed piece of work takes now.

    The work mixes, in about equal parts, what the program spends its
    time on: dict lookups from the interpreter, many NumPy calls on small
    arrays (as a cuckoo probe makes), and a gather and sort over an array
    larger than the cache.  A loop of any one kind tracked the program's
    drift less well.  The collector is paused, so the size of the
    program's heap never reaches into the figure.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for k in _PROBES:
            total += _TABLE[k]
        for _ in range(550):
            h = (_SMALL * 2654435761) >> 17
            np.flatnonzero(_SLOTS[h & 1023] == _SMALL)
        gathered = _BIG[_GATHER]
        gathered.sort()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_reference(seconds: float, ref_s: float) -> float:
    """``seconds`` measured next to a loop that took ``ref_s``, rescaled
    to a machine where the loop takes `REF_S`."""
    return seconds / ref_s * REF_S
