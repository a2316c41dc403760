"""Compiled drop-ins for the NumPy batch driver and Reversi's scalar
playout.

``run_playouts_tracked_compiled`` produces bit-identical results to the
NumPy lockstep driver -- same winners, scores and finish steps, and the
same side effect on the caller's :class:`BatchXorShift128Plus` (its
lanes end advanced exactly as far as the lockstep loop would have
advanced them before the first compaction).
:func:`repro.games.batch.run_playouts_tracked` calls it whenever
:func:`has_kernel` holds; called directly, it falls back to
:func:`run_playouts_lockstep` when the library is unavailable or the
game has no kernel (breakthrough -- see docs/fusion.md).

``reversi_playout`` is the C twin of
:func:`repro.games.reversi.fast_playout`: same winner, plies and
``XorShift64Star`` state afterwards.  The differential suite pins both
equivalences.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.compiled.build import load_library
from repro.games.batch import (
    BatchGame,
    TrackedPlayouts,
    run_playouts_lockstep,
)
from repro.rng import BatchXorShift128Plus, XorShift64Star

#: Games with a compiled kernel; everything else uses the NumPy path.
COMPILED_GAMES = frozenset({"reversi", "tictactoe", "connect4"})


def compiled_available() -> bool:
    """Is the compiled kernel library loadable right now?"""
    return load_library() is not None


def has_kernel(game) -> bool:
    """Will :func:`run_playouts_tracked_compiled` run C for ``game``
    (the library loads and the game has a kernel)?"""
    return game.name in COMPILED_GAMES and load_library() is not None


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def run_playouts_tracked_compiled(
    game: BatchGame,
    batch,
    rng: BatchXorShift128Plus,
    compact_threshold: float = 0.5,
    min_compact_size: int = 64,
) -> TrackedPlayouts:
    """Drive a batch to completion through the compiled kernel.

    Falls back to :func:`run_playouts_lockstep` (identical results by
    contract) when the library is unavailable or the game has no
    kernel.
    """
    lib = load_library() if game.name in COMPILED_GAMES else None
    if lib is None:
        return run_playouts_lockstep(
            game,
            batch,
            rng,
            compact_threshold=compact_threshold,
            min_compact_size=min_compact_size,
        )

    n = len(batch)
    n_rng, s0, s1 = rng.getstate()
    if n_rng != n:
        raise ValueError(
            f"rng has {n_rng} lanes for a {n}-lane batch"
        )
    winners = np.zeros(n, dtype=np.int8)
    scores = np.zeros(n, dtype=np.int16)
    finish = np.zeros(n, dtype=np.int64)
    to_move = np.ascontiguousarray(batch.to_move, dtype=np.int8)

    u64 = ctypes.c_uint64
    common = (
        _ptr(s0, u64),
        _ptr(s1, u64),
        _ptr(winners, ctypes.c_int8),
        _ptr(scores, ctypes.c_int16),
        _ptr(finish, ctypes.c_int64),
        game.max_game_length,
        min_compact_size,
        compact_threshold,
    )
    if game.name == "reversi":
        own = np.ascontiguousarray(batch.own, dtype=np.uint64)
        opp = np.ascontiguousarray(batch.opp, dtype=np.uint64)
        passed = np.ascontiguousarray(batch.passed, dtype=np.uint8)
        done = np.ascontiguousarray(batch.done, dtype=np.uint8)
        rc = lib.repro_reversi_playouts(
            n, _ptr(own, u64), _ptr(opp, u64),
            _ptr(to_move, ctypes.c_int8), _ptr(passed, ctypes.c_uint8),
            _ptr(done, ctypes.c_uint8), *common,
        )
    elif game.name == "tictactoe":
        x = np.ascontiguousarray(batch.x, dtype=np.uint64)
        o = np.ascontiguousarray(batch.o, dtype=np.uint64)
        done = np.ascontiguousarray(batch.done, dtype=np.uint8)
        rc = lib.repro_tictactoe_playouts(
            n, _ptr(x, u64), _ptr(o, u64),
            _ptr(to_move, ctypes.c_int8), _ptr(done, ctypes.c_uint8),
            *common,
        )
    else:  # connect4
        p1 = np.ascontiguousarray(batch.p1, dtype=np.uint64)
        p2 = np.ascontiguousarray(batch.p2, dtype=np.uint64)
        done = np.ascontiguousarray(batch.done, dtype=np.uint8)
        rc = lib.repro_connect4_playouts(
            n, _ptr(p1, u64), _ptr(p2, u64),
            _ptr(to_move, ctypes.c_int8), _ptr(done, ctypes.c_uint8),
            *common,
        )
    if rc == -1:
        raise RuntimeError(
            f"{game.name} playout exceeded max_game_length="
            f"{game.max_game_length}; engine bug"
        )
    if rc != 0:
        raise MemoryError("compiled playout kernel allocation failed")
    rng.setstate((n, s0, s1))
    return TrackedPlayouts(
        winners=winners, scores=scores, finish_steps=finish
    )


def reversi_playout(state, rng) -> "tuple[int, int] | None":
    """One uniformly random Reversi playout in C, bit-identical to
    :func:`repro.games.reversi.fast_playout` -- ``(winner, plies)``
    with ``rng`` advanced exactly as far.  ``None`` when the library
    is unavailable or ``rng`` is not an :class:`XorShift64Star` (the
    only generator the kernel replays)."""
    if type(rng) is not XorShift64Star:
        return None
    lib = load_library()
    if lib is None:
        return None
    word = ctypes.c_uint64(rng.getstate())
    plies = ctypes.c_int64()
    winner = lib.repro_reversi_playout_scalar(
        state.black,
        state.white,
        state.to_move,
        ctypes.byref(word),
        ctypes.byref(plies),
    )
    rng.setstate(word.value)
    return winner, plies.value
