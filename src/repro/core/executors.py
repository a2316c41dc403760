"""Playout executor selection: the ``playout="compiled"|"numpy"`` seam.

Every spot that drives a lockstep playout batch to completion -- the
engines' :class:`~repro.core.base.BatchExecutor`, the virtual GPU, the
serving lane batcher -- routes through :func:`tracked_runner`, so one
constructor argument (or the ``@numpy`` spec modifier) switches the
whole stack between the two drivers.  ``"compiled"`` (the default) is
:func:`~repro.games.batch.run_playouts_tracked`, which runs the C
kernel whenever it loads and falls back to NumPy otherwise;
``"numpy"`` forces the :func:`~repro.games.batch.run_playouts_lockstep`
loop.  The two are bit-identical by contract (same winners/scores/
finish steps, same RNG side effects), which the differential wall
pins.
"""

from __future__ import annotations

from typing import Callable

from repro.games.batch import (
    TrackedPlayouts,
    run_playouts_lockstep,
    run_playouts_tracked,
)

#: Registered playout executors, in canonical order.
PLAYOUT_EXECUTORS = ("numpy", "compiled")

TrackedRunner = Callable[..., TrackedPlayouts]


def validate_playout(playout: str) -> str:
    """Check an executor name; returns it for chaining."""
    if playout not in PLAYOUT_EXECUTORS:
        raise ValueError(
            f"unknown playout executor {playout!r}; "
            f"available: {PLAYOUT_EXECUTORS}"
        )
    return playout


def tracked_runner(playout: str) -> TrackedRunner:
    """The ``run_playouts_tracked``-compatible driver for ``playout``.

    ``"compiled"`` checks the library on every batch, so availability
    is re-checked after environment changes and the fallback needs no
    caller-side handling.
    """
    validate_playout(playout)
    if playout == "numpy":
        return run_playouts_lockstep
    return run_playouts_tracked


__all__ = [
    "PLAYOUT_EXECUTORS",
    "tracked_runner",
    "validate_playout",
]
