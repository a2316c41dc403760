"""Compiled playout executor: the C kernels the default playout paths
run whenever the library loads.

Public surface:

* :func:`compiled_available` -- is the toolchain-built library usable?
* :func:`run_playouts_tracked_compiled` -- bit-identical drop-in for
  :func:`repro.games.batch.run_playouts_lockstep`, called by
  :func:`repro.games.batch.run_playouts_tracked`.
* :data:`COMPILED_GAMES` -- games with a compiled kernel.
"""

from repro.compiled.build import (
    build_library,
    compiled_disabled,
    load_library,
    reset_cache,
    unavailable_reason,
)
from repro.compiled.runner import (
    COMPILED_GAMES,
    compiled_available,
    run_playouts_tracked_compiled,
)

__all__ = [
    "COMPILED_GAMES",
    "build_library",
    "compiled_available",
    "compiled_disabled",
    "load_library",
    "reset_cache",
    "run_playouts_tracked_compiled",
    "unavailable_reason",
]
