"""Deterministic uniform streams with reproducible per-trial spawning.

Every random decision in the package flows through :class:`RngStream.u`,
one float in [0, 1) at a time.  That discipline is what makes two
different engines driven by the same stream land on the same outcomes
draw for draw, and what makes a recorded master seed enough to replay a
whole experiment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError

# scalar draws come in windows of _WINDOW doubles, generated in fills of
# _FILL0, _FILL0, 2 _FILL0, 4 _FILL0, ... that tile each window exactly
_WINDOW = 8192
_FILL0 = 64


class RngStream:
    """Buffered PCG64 uniform source.

    Constructed from a master seed plus an optional spawn key; equal
    (seed, key) pairs give identical streams on every platform numpy
    supports.

    Scalar draws are served as Python floats from a list.  They are
    taken from the generator in windows of 8,192 doubles.  A window opens
    at the first scalar draw after the previous one is used up, and it
    holds the next 8,192 doubles of the generator.  This window
    invariant is what fixes every value a mix of scalar and block draws
    sees (see :meth:`block`).  Within a window the doubles are generated
    lazily, 64 first and then fills that double the part generated so
    far (64, 128, ..., 4,096), so a stream that draws a few dozen
    uniforms never pays for 8,192.  PCG64 emits its doubles in one
    sequence, so how a window is split into fills does not change a
    single value.
    """

    __slots__ = ("seed", "spawn_key", "_gen", "_it", "_left", "_end")

    def __init__(self, seed: int, spawn_key: Sequence[int] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(map(int, spawn_key))
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self._it = iter(())    # generated scalar draws not yet served
        self._left = 0         # doubles of the current window not yet generated
        self._end = 0          # n_drawn once _it is spent

    @property
    def n_drawn(self) -> int:
        """Uniforms handed out so far, scalar and block."""
        return self._end - self._it.__length_hint__()

    def _fill(self) -> None:
        """Serve the next fill of the current window, opening a new
        window when the current one is all generated."""
        left = self._left or _WINDOW
        n = _WINDOW - left or _FILL0
        self._it = iter(self._gen.random(n).tolist())
        self._left = left - n
        self._end += n

    def u(self) -> float:
        """Next uniform in [0, 1)."""
        try:
            return next(self._it)
        except StopIteration:
            self._fill()
            return next(self._it)

    def index(self, n: int) -> int:
        """Uniform integer in [0, n) consuming exactly one draw."""
        if n < 1:
            raise DomainError(f"index range must hold at least one value, got n={n}")
        i = int(self.u() * n)
        return n - 1 if i >= n else i

    def block(self, n: int) -> np.ndarray:
        """Array of n uniforms pulled directly from the generator.

        The block comes from where the generator stands after the current
        scalar window, never from inside it.  The rest of the window is
        generated into the scalar list first, so the block holds the same
        values as it would if the whole window had been generated at its
        first draw, and the scalar draws that follow go on through the
        window unchanged.

        Interleaving block and scalar draws is thus reproducible only if
        the call order itself is fixed.  Consumers that mix the two (the
        vectorized chains) own their whole stream and never share it with
        a coupled twin.
        """
        if n < 0:
            raise DomainError(f"block size must be nonnegative, got n={n}")
        if self._left:
            rest = self._gen.random(self._left).tolist()
            self._it = iter(list(self._it) + rest)
            self._end += self._left
            self._left = 0
        self._end += n
        return self._gen.random(n)

    def fork(self, *key: int) -> "RngStream":
        """Stream for a labeled child task; independent of the parent."""
        return RngStream(self.seed, self.spawn_key + key)
