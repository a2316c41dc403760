"""Tests for generic batch compaction and the tracked runner."""

import numpy as np
import pytest

from repro.games import (
    BatchBreakthrough,
    BatchConnect4,
    BatchReversi,
    BatchTicTacToe,
    make_batch_game,
    make_game,
)
from repro.games.batch import run_playouts_lockstep
from repro.rng import BatchXorShift128Plus

ALL_BATCH = [BatchReversi, BatchTicTacToe, BatchConnect4, BatchBreakthrough]


@pytest.mark.parametrize("cls", ALL_BATCH)
class TestCompact:
    def test_keeps_selected_lanes(self, cls):
        bg = cls()
        game = make_game(bg.name)
        batch = bg.make_batch([game.initial_state()], 8)
        keep = np.array([True, False] * 4)
        small = bg.compact(batch, keep)
        assert len(small) == 4
        for i in range(4):
            assert bg.lane_state(small, i) == bg.lane_state(batch, 2 * i)

    def test_tracked_runner_with_and_without_compaction_agree(self, cls):
        """Compaction is a pure optimisation of the NumPy lockstep loop:
        winners and finish steps must be identical either way."""
        bg = cls()
        game = make_game(bg.name)
        a = run_playouts_lockstep(
            bg,
            bg.make_batch([game.initial_state()], 64),
            BatchXorShift128Plus(64, seed=7),
            compact_threshold=0.5,
            min_compact_size=16,
        )
        b = run_playouts_lockstep(
            bg,
            bg.make_batch([game.initial_state()], 64),
            BatchXorShift128Plus(64, seed=7),
            compact_threshold=0.0,  # never compacts
        )
        np.testing.assert_array_equal(a.winners, b.winners)
        np.testing.assert_array_equal(a.finish_steps, b.finish_steps)
        np.testing.assert_array_equal(a.scores, b.scores)


@pytest.mark.parametrize(
    "name", ["reversi", "tictactoe", "connect4", "breakthrough"]
)
def test_virtual_gpu_runs_every_game(name):
    from repro.gpu import LaunchConfig, TESLA_C2050, VirtualGpu
    from repro.util.clock import Clock

    game = make_game(name)
    gpu = VirtualGpu(TESLA_C2050, Clock(), name, seed=5)
    res = gpu.run_playouts([game.initial_state()], LaunchConfig(2, 32))
    assert res.playouts == 64
    assert res.timing.total_s > 0
    assert np.all(res.block_steps <= make_batch_game(name).max_game_length)
