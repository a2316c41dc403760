"""Bit-identity wall for the compiled playout kernels.

The compiled C kernels must be indistinguishable from the NumPy
lockstep loop at the playout-call level: identical winners, scores and
finish steps for every lane, *and* identical RNG side effects (the
caller's generator must advance by exactly the same per-lane streams,
including the compaction k* rule), across games, widths and starting
states.  The scalar Reversi kernel must match ``fast_playout`` on
winner, plies and the generator state.  When no C toolchain is
available every test still passes -- the runners fall back to the
NumPy/Python paths, which are trivially identical.
"""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import (
    COMPILED_GAMES,
    compiled_available,
    run_playouts_tracked_compiled,
    unavailable_reason,
)
from repro.compiled.runner import reversi_playout
from repro.games import make_batch_game, make_game
from repro.games import reversi as reversi_module
from repro.games.batch import run_playouts_lockstep, run_playouts_tracked
from repro.games.reversi import Reversi, ReversiState, fast_playout
from repro.rng import BatchXorShift128Plus, XorShift64Star

pytestmark = pytest.mark.compiled

GAMES = sorted(COMPILED_GAMES)
#: Widths straddling the scalar cutoff, the compaction threshold
#: (>= 64) and a wide vectorised batch.
WIDTHS = [1, 3, 63, 64, 200, 1024]


def _mid_state(game_name: str, plies: int, seed: int = 7):
    game = make_game(game_name)
    rng = np.random.default_rng(seed)
    state = game.initial_state()
    for _ in range(plies):
        if game.is_terminal(state):
            break
        moves = game.legal_moves(state)
        state = game.apply(state, int(rng.choice(moves)))
    return state


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("n", WIDTHS)
def test_initial_state_identical(game_name, n):
    state = make_game(game_name).initial_state()
    _run_both_state(game_name, state, n, seed=11)


def _run_both_state(game_name, state, n, seed):
    bg = make_batch_game(game_name)
    ref_rng = BatchXorShift128Plus(n, seed)
    cmp_rng = BatchXorShift128Plus(n, seed)
    ref = run_playouts_lockstep(bg, bg.make_batch([state], n), ref_rng)
    got = run_playouts_tracked_compiled(
        bg, bg.make_batch([state], n), cmp_rng
    )
    np.testing.assert_array_equal(got.winners, ref.winners)
    np.testing.assert_array_equal(got.scores, ref.scores)
    np.testing.assert_array_equal(got.finish_steps, ref.finish_steps)
    assert cmp_rng.state_digest() == ref_rng.state_digest()


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("plies", [2, 5, 9])
def test_mid_game_states_identical(game_name, plies):
    game = make_game(game_name)
    state = _mid_state(game_name, plies)
    _run_both_state(game_name, state, 128, seed=plies)
    if game.is_terminal(state):
        return
    # Mixed batch: mid-game roots at a non-compacting width too.
    _run_both_state(game_name, state, 17, seed=plies + 100)


@pytest.mark.parametrize("game_name", GAMES)
def test_terminal_state_identical(game_name):
    game = make_game(game_name)
    state = _mid_state(game_name, 200)
    assert game.is_terminal(state)
    _run_both_state(game_name, state, 96, seed=1)


@pytest.mark.parametrize("game_name", GAMES)
def test_repeated_calls_share_rng_stream(game_name):
    """Two consecutive calls on the same generator stay aligned: the
    compiled path's k* advance rule must leave the generator exactly
    where the NumPy path leaves it, or call two diverges."""
    bg = make_batch_game(game_name)
    state = make_game(game_name).initial_state()
    ref_rng = BatchXorShift128Plus(256, 5)
    cmp_rng = BatchXorShift128Plus(256, 5)
    for _ in range(3):
        ref = run_playouts_lockstep(
            bg, bg.make_batch([state], 256), ref_rng
        )
        got = run_playouts_tracked_compiled(
            bg, bg.make_batch([state], 256), cmp_rng
        )
        np.testing.assert_array_equal(got.winners, ref.winners)
        assert cmp_rng.state_digest() == ref_rng.state_digest()


def test_unsupported_game_falls_back():
    """Breakthrough has no C kernel: both the default runner and the
    compiled driver run the NumPy loop for it, bit-identically and
    without a warning (it is the default path, not a degraded ask)."""
    import warnings

    assert "breakthrough" not in COMPILED_GAMES
    bg = make_batch_game("breakthrough")
    state = make_game("breakthrough").initial_state()
    ref_rng = BatchXorShift128Plus(32, 3)
    ref = run_playouts_lockstep(bg, bg.make_batch([state], 32), ref_rng)
    for runner in (run_playouts_tracked, run_playouts_tracked_compiled):
        cmp_rng = BatchXorShift128Plus(32, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = runner(bg, bg.make_batch([state], 32), cmp_rng)
        np.testing.assert_array_equal(got.winners, ref.winners)
        np.testing.assert_array_equal(got.scores, ref.scores)
        np.testing.assert_array_equal(
            got.finish_steps, ref.finish_steps
        )
        assert cmp_rng.state_digest() == ref_rng.state_digest()


def test_default_runner_takes_the_compiled_kernel(monkeypatch):
    """``run_playouts_tracked`` dispatches to the C driver exactly when
    the library loads, and to the lockstep loop otherwise."""
    from repro.compiled import runner

    calls = []
    real = runner.run_playouts_tracked_compiled

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "run_playouts_tracked_compiled", spy)
    bg = make_batch_game("tictactoe")
    state = make_game("tictactoe").initial_state()
    expected = int(compiled_available())
    run_playouts_tracked(
        bg, bg.make_batch([state], 8), BatchXorShift128Plus(8, 1)
    )
    assert len(calls) == expected
    monkeypatch.setenv("REPRO_COMPILED", "0")
    run_playouts_tracked(
        bg, bg.make_batch([state], 8), BatchXorShift128Plus(8, 1)
    )
    assert len(calls) == expected  # the lockstep loop ran instead


def test_disabled_env_reports_unavailable(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "never")
    assert not compiled_available()
    assert unavailable_reason() is not None


def test_availability_is_consistent():
    """Whichever way the toolchain probe went, the module agrees with
    itself: available means no unavailability reason and vice versa."""
    if compiled_available():
        assert unavailable_reason() is None
    else:
        assert unavailable_reason() is not None


# -- scalar Reversi ---------------------------------------------------------


def _walk(plies: int, seed: int) -> ReversiState:
    """A legal position ``plies`` random moves (passes included) from
    the start, or the terminal position it reaches first."""
    game = Reversi()
    rng = XorShift64Star(seed)
    state = game.initial_state()
    for _ in range(plies):
        moves = game.legal_moves(state)
        if not moves:
            break
        state = game.apply(state, moves[rng.randrange(len(moves))])
    return state


def _assert_scalar_identical(state: ReversiState, seed: int) -> None:
    ref_rng, got_rng = XorShift64Star(seed), XorShift64Star(seed)
    ref = fast_playout(state, ref_rng)
    got = Reversi().playout(state, got_rng)
    assert got == ref
    assert got_rng.getstate() == ref_rng.getstate()


@settings(max_examples=150, deadline=None)
@given(
    plies=st.integers(0, 64),
    walk_seed=st.integers(0, 2**32),
    seed=st.integers(0, 2**32),
)
def test_scalar_reversi_matches_fast_playout_on_walks(plies, walk_seed, seed):
    """Reachable positions from the opening to the last few plies
    (near-terminal and terminal included)."""
    _assert_scalar_identical(_walk(plies, walk_seed), seed)


@settings(max_examples=150, deadline=None)
@given(
    black=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    white=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    to_move=st.sampled_from([1, -1]),
    seed=st.integers(0, 2**32),
)
def test_scalar_reversi_matches_fast_playout_on_random_boards(
    black, white, to_move, seed
):
    """Disjoint random discs, each colour the AND of 1-4 random words:
    boards from crowded to nearly empty, often unbalanced enough that
    one side is out of moves, so forced passes are common."""
    b = functools.reduce(operator.and_, black)
    w = functools.reduce(operator.and_, white) & ~b
    _assert_scalar_identical(ReversiState(b, w, to_move), seed)


def test_scalar_reversi_covers_passes_and_terminal_positions():
    """Forced passes and terminal starts: the kernel counts a pass as
    a ply that draws nothing, and a terminal start as one pass."""
    game = Reversi()
    full = 2**64 - 1
    terminal = ReversiState(full & ~1, 0, -1)  # white has no discs
    assert game.is_terminal(terminal)
    # Black to move with no legal move, white can still play: a pass.
    forced = ReversiState(0b0110, 0b0001, 1)
    assert game.legal_moves(forced) == (reversi_module.PASS_MOVE,)
    for state in (terminal, forced):
        for seed in range(20):
            _assert_scalar_identical(state, seed)
    assert fast_playout(terminal, XorShift64Star(1))[1] == 1


def test_scalar_reversi_uses_the_kernel_when_it_loads(monkeypatch):
    """With the library loaded ``Reversi.playout`` never calls the
    Python oracle; under ``REPRO_COMPILED=0`` it takes the Python
    path, with the same answer."""
    calls = []
    real = reversi_module.fast_playout

    def spy(state, rng):
        calls.append(1)
        return real(state, rng)

    monkeypatch.setattr(reversi_module, "fast_playout", spy)
    state = _walk(20, 4)
    enabled = Reversi().playout(state, XorShift64Star(9))
    assert len(calls) == (0 if compiled_available() else 1)
    assert (reversi_playout(state, XorShift64Star(9)) is None) == (
        not compiled_available()
    )
    monkeypatch.setenv("REPRO_COMPILED", "0")
    assert reversi_playout(state, XorShift64Star(9)) is None
    disabled = Reversi().playout(state, XorShift64Star(9))
    assert calls and disabled == enabled
