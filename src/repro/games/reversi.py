"""Scalar bitboard Reversi (Othello), 8x8.

The board is a pair of 64-bit words (black discs, white discs).  Move
generation and flipping use the classic Kogge-Stone 8-direction
propagation: for each direction, flood own discs through contiguous
opponent discs, then one more step lands on the candidate squares.
Identical logic drives the batched engine in
:mod:`repro.games.reversi_batch`; the two are cross-checked in the test
suite square by square.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.games.base import Game
from repro.util.bitops import (
    ALL_SHIFTS,
    FULL_MASK,
    NOT_COL_0,
    NOT_COL_7,
    bit_count,
    bits_of,
    square_mask,
)

#: Move id for "pass" (square ids are 0..63).
PASS_MOVE = 64

#: Initial discs: white on d4/e5, black on e4/d5 (standard setup).
_INITIAL_BLACK = square_mask(3, 4) | square_mask(4, 3)
_INITIAL_WHITE = square_mask(3, 3) | square_mask(4, 4)


class ReversiState(NamedTuple):
    """Immutable position: black/white bitboards and the side to move."""

    black: int
    white: int
    to_move: int  # +1 = black, -1 = white


def _own_opp(state: ReversiState) -> tuple[int, int]:
    if state.to_move == 1:
        return state.black, state.white
    return state.white, state.black


def mobility(own: int, opp: int) -> int:
    """Bitboard of all squares where ``own`` may legally move."""
    empty = ~(own | opp) & FULL_MASK
    moves = 0
    for shift in ALL_SHIFTS:
        x = shift(own) & opp
        # An othello line holds at most 6 flippable discs.
        for _ in range(5):
            x |= shift(x) & opp
        moves |= shift(x) & empty
    return moves


def flips_for_move(own: int, opp: int, move_bit: int) -> int:
    """Bitboard of opponent discs flipped by playing ``move_bit``."""
    flips = 0
    for shift in ALL_SHIFTS:
        x = shift(move_bit) & opp
        for _ in range(5):
            x |= shift(x) & opp
        if shift(x) & own:
            flips |= x
    return flips


#: (shift amount, post-shift mask, True if left shift) per direction,
#: for the inlined playout loop below.
_DIR_TABLE = (
    (1, NOT_COL_0, True),  # east
    (8, FULL_MASK, True),  # south
    (9, NOT_COL_0, True),  # south-east
    (7, NOT_COL_7, True),  # south-west
    (1, NOT_COL_7, False),  # west
    (8, FULL_MASK, False),  # north
    (9, NOT_COL_7, False),  # north-west
    (7, NOT_COL_0, False),  # north-east
)


def fast_playout(state: ReversiState, rng) -> tuple[int, int]:
    """Uniformly random playout, heavily inlined for the CPU engines.

    Semantically identical to ``random_playout(Reversi(), state, rng)``
    (cross-checked in the tests) but ~5x faster: no state objects, no
    per-direction function calls, random set-bit extraction via
    ``lsb``-stripping.  Returns ``(winner, plies)`` with the winner
    absolute (+1 black / -1 white / 0 draw).
    """
    if state.to_move == 1:
        own, opp = state.black, state.white
    else:
        own, opp = state.white, state.black
    sign = state.to_move  # +1 while `own` is black's board
    plies = 0
    passed = False
    dirs = _DIR_TABLE
    full = FULL_MASK
    while True:
        empty = ~(own | opp) & full
        mob = 0
        for amount, mask, left in dirs:
            if left:
                x = ((own << amount) & mask) & opp
                x |= ((x << amount) & mask) & opp
                x |= ((x << amount) & mask) & opp
                x |= ((x << amount) & mask) & opp
                x |= ((x << amount) & mask) & opp
                x |= ((x << amount) & mask) & opp
                mob |= (x << amount) & mask
            else:
                x = ((own >> amount) & mask) & opp
                x |= ((x >> amount) & mask) & opp
                x |= ((x >> amount) & mask) & opp
                x |= ((x >> amount) & mask) & opp
                x |= ((x >> amount) & mask) & opp
                x |= ((x >> amount) & mask) & opp
                mob |= (x >> amount) & mask
        mob &= empty

        if not mob:
            if passed:
                break  # two passes in a row: game over
            passed = True
            own, opp = opp, own
            sign = -sign
            plies += 1
            continue
        passed = False

        # Pick a uniformly random set bit of the mobility mask.
        k = rng.randrange(mob.bit_count())
        m = mob
        for _ in range(k):
            m &= m - 1
        mv = m & -m

        flips = 0
        for amount, mask, left in dirs:
            if left:
                x = ((mv << amount) & mask) & opp
                x |= ((x << amount) & mask) & opp
                x |= ((x << amount) & mask) & opp
                x |= ((x << amount) & mask) & opp
                x |= ((x << amount) & mask) & opp
                x |= ((x << amount) & mask) & opp
                if (x << amount) & mask & own:
                    flips |= x
            else:
                x = ((mv >> amount) & mask) & opp
                x |= ((x >> amount) & mask) & opp
                x |= ((x >> amount) & mask) & opp
                x |= ((x >> amount) & mask) & opp
                x |= ((x >> amount) & mask) & opp
                x |= ((x >> amount) & mask) & opp
                if (x >> amount) & mask & own:
                    flips |= x
        own, opp = opp & ~flips, own | mv | flips
        sign = -sign
        plies += 1

    black = own if sign == 1 else opp
    white = opp if sign == 1 else own
    diff = black.bit_count() - white.bit_count()
    return (diff > 0) - (diff < 0), plies


class Reversi(Game):
    """8x8 Reversi with explicit pass moves."""

    name = "reversi"
    num_moves = 65  # 64 squares + pass
    # 60 disc placements + interleaved passes; 128 is a safe lockstep bound.
    max_game_length = 128

    def initial_state(self) -> ReversiState:
        return ReversiState(_INITIAL_BLACK, _INITIAL_WHITE, 1)

    def to_move(self, state: ReversiState) -> int:
        return state.to_move

    def legal_moves(self, state: ReversiState) -> tuple[int, ...]:
        own, opp = _own_opp(state)
        mob = mobility(own, opp)
        if mob:
            return tuple(bits_of(mob))
        if mobility(opp, own):
            return (PASS_MOVE,)
        return ()  # terminal: neither side can move

    def legal_mask(self, state: ReversiState) -> int:
        own, opp = _own_opp(state)
        mob = mobility(own, opp)
        if mob:
            return mob
        if mobility(opp, own):
            return 1 << PASS_MOVE
        return 0

    def apply(self, state: ReversiState, move: int) -> ReversiState:
        own, opp = _own_opp(state)
        if move == PASS_MOVE:
            if mobility(own, opp):
                raise ValueError("cannot pass while a legal move exists")
            return ReversiState(state.black, state.white, -state.to_move)
        move_bit = 1 << move
        if move_bit & (own | opp):
            raise ValueError(f"square {move} is occupied")
        flips = flips_for_move(own, opp, move_bit)
        if not flips:
            raise ValueError(f"move {move} flips nothing (illegal)")
        own |= move_bit | flips
        opp &= ~flips
        if state.to_move == 1:
            return ReversiState(own, opp, -1)
        return ReversiState(opp, own, 1)

    def is_terminal(self, state: ReversiState) -> bool:
        own, opp = _own_opp(state)
        return not mobility(own, opp) and not mobility(opp, own)

    def winner(self, state: ReversiState) -> int:
        diff = self.score(state)
        return (diff > 0) - (diff < 0)

    def score(self, state: ReversiState) -> int:
        """Disc difference, black minus white (black is player +1)."""
        return bit_count(state.black) - bit_count(state.white)

    def disc_count(self, state: ReversiState) -> int:
        """Total discs on the board (monotone: 4 + plies played)."""
        return bit_count(state.black | state.white)

    def zobrist_planes(self, state: ReversiState) -> tuple[int, int]:
        return state.black, state.white

    def playout(self, state: ReversiState, rng) -> tuple[int, int]:
        """The compiled kernel when its library loads (bit-identical,
        ``rng`` included), :func:`fast_playout` otherwise."""
        from repro.compiled.runner import reversi_playout

        result = reversi_playout(state, rng)
        return fast_playout(state, rng) if result is None else result

    def render(self, state: ReversiState) -> str:
        rows = ["  a b c d e f g h"]
        for r in range(8):
            cells = []
            for c in range(8):
                bit = 1 << (r * 8 + c)
                if state.black & bit:
                    cells.append("X")
                elif state.white & bit:
                    cells.append("O")
                else:
                    cells.append(".")
            rows.append(f"{r + 1} " + " ".join(cells))
        mover = "black (X)" if state.to_move == 1 else "white (O)"
        rows.append(f"to move: {mover}")
        return "\n".join(rows)
