"""RngStream against a reference model of its stream, and its input checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripeel.errors import DomainError
from tripeel.rng import RngStream


class FixedWindowStream:
    """Reference model: each window of 8,192 scalar draws generated whole
    at its first draw, blocks taken straight from the generator."""

    def __init__(self, seed, spawn_key=()):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(spawn_key))
        self.gen = np.random.Generator(np.random.PCG64(ss))
        self.buf = None
        self.i = 0
        self.n_drawn = 0

    def u(self):
        if self.buf is None or self.i >= 8192:
            self.buf = self.gen.random(8192)
            self.i = 0
        x = self.buf[self.i]
        self.i += 1
        self.n_drawn += 1
        return float(x)

    def index(self, n):
        i = int(self.u() * n)
        return n - 1 if i >= n else i

    def block(self, n):
        self.n_drawn += n
        return self.gen.random(n)


def _apply(stream, op, arg):
    if op == "u":
        return [stream.u() for _ in range(arg)]
    if op == "index":
        return stream.index(arg)
    return stream.block(arg).tolist()


def _check_same(ops, seed=11, key=(3,)):
    rng, ref = RngStream(seed, key), FixedWindowStream(seed, key)
    for op, arg in ops:
        assert _apply(rng, op, arg) == _apply(ref, op, arg), (op, arg)
        assert rng.n_drawn == ref.n_drawn


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("u"), st.integers(1, 300) | st.integers(1, 9000)),
        st.tuples(st.just("index"), st.integers(1, 10 ** 9)),
        st.tuples(st.just("block"), st.integers(0, 200) | st.integers(0, 9000)),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(_OPS, st.integers(0, 2 ** 32))
def test_stream_matches_fixed_window_model(ops, seed):
    _check_same(ops, seed=seed)


@pytest.mark.parametrize("before", [0, 1, 63, 64, 8191, 8192, 8193])
def test_block_after_scalar_draws(before):
    _check_same([("u", before), ("block", 100), ("u", 9000), ("block", 5), ("u", 70)])


def test_scalar_draws_are_python_floats():
    rng = RngStream(4)
    assert type(rng.u()) is float
    rng.block(3)
    assert all(type(rng.u()) is float for _ in range(9000))


@pytest.mark.parametrize("n", [0, -3])
def test_index_rejects_empty_range(n):
    rng = RngStream(5)
    with pytest.raises(DomainError):
        rng.index(n)
    assert rng.n_drawn == 0


def test_block_rejects_negative_size():
    rng = RngStream(6)
    with pytest.raises(DomainError):
        rng.block(-1)
    assert rng.block(0).shape == (0,)
    assert rng.n_drawn == 0
