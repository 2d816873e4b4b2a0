"""Deterministic uniform streams with reproducible per-trial spawning.

Every random decision in the package flows through :class:`RngStream.u`,
one float in [0, 1) at a time.  That discipline is what makes two
different engines driven by the same stream land on the same outcomes
draw for draw, and what makes a recorded master seed enough to replay a
whole experiment.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_BUF = 8192


class RngStream:
    """Buffered PCG64 uniform source.

    Constructed from a master seed plus an optional spawn key; equal
    (seed, key) pairs give identical streams on every platform numpy
    supports.
    """

    __slots__ = ("seed", "spawn_key", "_gen", "_buf", "_i", "n_drawn")

    def __init__(self, seed: int, spawn_key: Sequence[int] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self._buf: Optional[np.ndarray] = None
        self._i = 0
        self.n_drawn = 0

    def u(self) -> float:
        """Next uniform in [0, 1)."""
        if self._buf is None or self._i >= _BUF:
            self._buf = self._gen.random(_BUF)
            self._i = 0
        x = self._buf[self._i]
        self._i += 1
        self.n_drawn += 1
        return x

    def index(self, n: int) -> int:
        """Uniform integer in [0, n) consuming exactly one draw."""
        i = int(self.u() * n)
        return n - 1 if i >= n else i

    def block(self, n: int) -> np.ndarray:
        """Array of n uniforms pulled directly from the generator.

        Bypasses the scalar buffer, so interleaving block and scalar
        draws is reproducible only if the call order itself is fixed.
        Consumers that mix the two (the vectorized chains) own their
        whole stream and never share it with a coupled twin.
        """
        self.n_drawn += n
        return self._gen.random(n)

    def fork(self, *key: int) -> "RngStream":
        """Stream for a labeled child task; independent of the parent."""
        return RngStream(self.seed, self.spawn_key + key)


def trial_stream(master_seed: int, trial: int) -> RngStream:
    """Stream for one trial of an experiment; stable across runs and
    independent across trial indices."""
    return RngStream(master_seed, (trial,))
