"""Deterministic uniform streams with reproducible per-trial spawning.

Every random decision in the package flows through an :class:`RngStream`:
one float in [0, 1) at a time through :meth:`RngStream.u`, or a numpy
block of them through :meth:`RngStream.block` on the vectorized paths.
That discipline is what makes two different engines driven by the same
stream land on the same outcomes draw for draw, and what makes a
recorded master seed enough to replay a whole experiment.

A stream's PCG64 is seeded with exactly the words numpy's
``SeedSequence(seed, spawn_key=key).generate_state(4, uint64)`` gives,
computed here by a copy of that hash.  Experiments fork one child per
trial, so the copy hashes the children of a parent in aligned chunks of
``_CHUNK`` consecutive last key words at once, with numpy uint64
arithmetic masked to 32 bits, and keeps the last few chunks.
``tests/test_rng.py`` pins the copy against numpy's own SeedSequence.

So a one-word fork costs its generator and, on its first draw, the
generator's first fill, and nothing else: its seed row is read from the
parent's chunk table, and only the new key word is checked, the
parent's seed and key having been checked when it was built.
``numpy.random`` is imported on the first stream, not with this module.
"""

from __future__ import annotations

from functools import cache
from operator import index
from typing import Sequence

import numpy as np

from .errors import DomainError

# scalar draws are generated in fills of the doubles generated so far,
# clipped to [_FILL0, _FILL_MAX]: 64, 64, 128, ..., 4,096, 4,096, ...
_FILL0 = 64
_FILL_MAX = 4096

# every uniform is a multiple of _U_SPACING = 2^-53: u * 2^53 is an exact
# integer below 2^53, and a mass at or below _U_SPACING is below the
# spacing of the draws, the certification rule of every truncated law
_U_BITS = 53
_U_SPACING = 2.0**-_U_BITS

# SeedSequence's hash constants, pool size and word mask
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_POOL = 4
_M32 = 0xFFFFFFFF

# children are seeded in chunks of _CHUNK consecutive last key words; a
# power of two that divides 2^32, so every word in a chunk has as many
# 32-bit digits as the others.  _TABLES keeps the last _MAX_TABLES chunks,
# keyed by (seed, key head, first last word); it memoises a pure function,
# so sharing it between all streams changes no value any of them draws.
_CHUNK = 1024
_MAX_TABLES = 8
_TABLES: dict = {}


def _digits(n: int) -> list:
    """Little-endian 32-bit digits of n >= 0; zero has one digit."""
    out = [n & _M32]
    while n > _M32:
        n >>= 32
        out.append(n & _M32)
    return out


def _hash(value, const: int, mult: int):
    """One SeedSequence hash of value (an int or a uint64 array of
    32-bit values) under a running constant; returns (hash, next const)."""
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    z = (_MIX_L * x - _MIX_R * y) & _M32
    return z ^ z >> 16


def _pool(entropy: list) -> list:
    """SeedSequence.mix_entropy: the pool after the entropy digits, any
    of which may be a uint64 array of digits (one per row)."""
    const = _INIT_A
    pool = []
    for i in range(_POOL):
        h, const = _hash(entropy[i] if i < len(entropy) else 0, const, _MULT_A)
        pool.append(h)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            h, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    return pool


def _state(pool: list) -> np.ndarray:
    """SeedSequence.generate_state(4, uint64), one C-contiguous row per
    pool column."""
    const = _INIT_B
    half = []
    for i in range(2 * _POOL):
        h, const = _hash(pool[i % _POOL], const, _MULT_B)
        half.append(h)
    return np.column_stack([np.asarray(half[i] | half[i + 1] << 32, np.uint64)
                            for i in range(0, 2 * _POOL, 2)])


def _table(seed: int, head: tuple, base: int) -> np.ndarray:
    """PCG64 seed rows of the spawn keys head + (base + i,), i < _CHUNK,
    for base a multiple of _CHUNK; SeedSequence pads the seed to the
    pool size whenever there is a spawn key."""
    entropy = _digits(seed)
    entropy += [0] * (_POOL - len(entropy))
    for word in head:
        entropy += _digits(word)
    entropy.append(np.arange(_CHUNK, dtype=np.uint64) + (base & _M32))
    if base > _M32:
        entropy += _digits(base >> 32)
    if len(_TABLES) >= _MAX_TABLES:
        del _TABLES[next(iter(_TABLES))]
    table = _TABLES[seed, head, base] = _state(_pool(entropy))
    return table


@cache
def _seeding() -> tuple:
    """(Generator, PCG64, RowSeed), RowSeed an ISeedSequence that hands
    PCG64 one precomputed row; bound on first use, since numpy.random is
    loaded lazily."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row    # PCG64 asks for exactly 4 uint64 words

    return Generator, PCG64, RowSeed


def _generator(row: np.ndarray):
    """The numpy Generator on the PCG64 seeded with one table row."""
    generator, pcg64, row_seed = _seeding()
    return generator(pcg64(row_seed(row)))


def _word(value) -> int:
    """A seed or key word as a nonnegative Python int; numpy integers are
    words, floats and other non-integral values are not."""
    try:
        word = index(value)
    except TypeError:
        raise DomainError(f"seed and spawn key words must be integers, got {value!r}") from None
    if word < 0:
        raise DomainError(f"seed and spawn key words must be nonnegative, got {word}")
    return word


def _row(seed: int, head: tuple, last: int) -> np.ndarray:
    """PCG64 seed row of the spawn key head + (last,), from its chunk's
    table (built if not kept)."""
    base = last & -_CHUNK
    table = _TABLES.get((seed, head, base))
    if table is None:
        table = _table(seed, head, base)
    return table[last - base]


class RngStream:
    """Buffered PCG64 uniform source.

    Constructed from a master seed plus an optional spawn key, all
    nonnegative integers (numpy integers too; a float or any other
    value raises DomainError); equal (seed, key) pairs give identical streams
    on every platform numpy supports.  The generator is the PCG64 that
    numpy's ``SeedSequence(seed, spawn_key=key)`` would seed: the state
    words come from this module's copy of the SeedSequence hash, computed
    for a chunk of sibling keys at once and cached per parent prefix
    (see the module docstring).

    Scalar draws are served as Python floats from a list, generated
    lazily in fills as large as everything generated so far, at least 64
    and at most 4,096 doubles (64, 64, 128, ..., 4,096, 4,096, ...), so a
    stream that draws a few dozen uniforms never pays for thousands.
    PCG64 emits its doubles in one sequence, so how the scalar draws are
    split into fills does not change a single value: a stream that draws
    only scalars reads the generator's doubles in order.
    """

    __slots__ = ("seed", "spawn_key", "_gen", "_it", "_end")

    def __init__(self, seed: int, spawn_key: Sequence[int] = ()):
        self.seed = seed = _word(seed)
        self.spawn_key = key = tuple(map(_word, spawn_key))
        if key:
            row = _row(seed, key[:-1], key[-1])
        else:
            row = _state(_pool(_digits(seed)))[0]
        self._gen = _generator(row)
        self._it = iter(())    # generated scalar draws not yet served
        self._end = 0          # doubles generated, n_drawn once _it is spent

    @property
    def n_drawn(self) -> int:
        """Uniforms handed out so far, scalar and block."""
        return self._end - self._it.__length_hint__()

    def _fill(self) -> None:
        """Generate the next fill of scalar draws."""
        n = min(max(self._end, _FILL0), _FILL_MAX)
        self._it = iter(self._gen.random(n).tolist())
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

        The block holds the generator's next n doubles after everything
        generated so far; scalar draws already generated but not yet
        served stay in the list and are served first.  Which doubles a
        block gets thus depends on the fills before it, so interleaving
        block and scalar draws is reproducible only if the call order
        itself is fixed.  Consumers that mix the two (the vectorized
        chains) own their whole stream and never share it with a coupled
        twin.
        """
        if n < 0:
            raise DomainError(f"block size must be nonnegative, got n={n}")
        self._end += n
        return self._gen.random(n)

    def fork(self, *key: int) -> "RngStream":
        """Stream for a labeled child task, seeded by (seed, spawn_key +
        key); independent of the parent, and of every other child.

        A one-word fork checks and converts only its new word: the
        parent's seed and key are already checked, so the child takes
        them as they are, its seed row from the parent's chunk table, and
        a new generator.  What it costs is that generator and, on its
        first draw, its first fill.  A fork of two or more words is
        built as ``RngStream(seed, spawn_key + key)``; a fork of none
        would replay its parent and is refused.
        """
        if len(key) != 1:
            if not key:
                raise DomainError("a fork needs at least one key word")
            return RngStream(self.seed, self.spawn_key + key)
        last = _word(key[0])
        seed, head = self.seed, self.spawn_key
        child = object.__new__(RngStream)
        child.seed = seed
        child.spawn_key = (*head, last)
        child._gen = _generator(_row(seed, head, last))
        child._it = iter(())
        child._end = 0
        return child
