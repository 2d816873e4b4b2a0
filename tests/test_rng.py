"""RngStream against a reference model of its stream, its seeding against
numpy's SeedSequence, and its input checks."""

import numpy as np
import numpy.random.bit_generator
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripeel.rng as rngmod
from tripeel.errors import DomainError
from tripeel.experiments import run_inv_degree
from tripeel.params import build_params
from tripeel.rng import RngStream


class FillStream:
    """Reference model: scalar draws generated in fills of
    min(max(generated, 64), 4096) doubles, generated counting every
    double taken so far, and blocks taken straight from the generator
    after everything generated so far."""

    def __init__(self, seed, spawn_key=()):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(spawn_key))
        self.gen = np.random.Generator(np.random.PCG64(ss))
        self.buf = []
        self.generated = 0
        self.n_drawn = 0

    def u(self):
        if not self.buf:
            n = min(max(self.generated, 64), 4096)
            self.buf = self.gen.random(n).tolist()[::-1]
            self.generated += n
        self.n_drawn += 1
        return self.buf.pop()

    def index(self, n):
        i = int(self.u() * n)
        return n - 1 if i >= n else i

    def block(self, n):
        self.generated += n
        self.n_drawn += n
        return self.gen.random(n)


def _apply(stream, op, arg):
    if op == "u":
        return [stream.u() for _ in range(arg)]
    if op == "index":
        return stream.index(arg)
    return stream.block(arg).tolist()


def _check_same(ops, seed=11, key=(3,)):
    rng, ref = RngStream(seed, key), FillStream(seed, key)
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
@given(_OPS, st.integers(0, 2 ** 32), st.lists(st.integers(0, 2 ** 70), max_size=3))
def test_stream_matches_fill_model(ops, seed, key):
    _check_same(ops, seed=seed, key=tuple(key))


@pytest.mark.parametrize("before", [0, 1, 63, 64, 4095, 4096, 8191, 8192, 8193, 12289])
def test_block_after_scalar_draws(before):
    _check_same([("u", before), ("block", 100), ("u", 9000), ("block", 5), ("u", 70)])


def test_scalar_draws_read_the_generator_in_order():
    # however the scalar draws are split into fills, a stream that draws
    # only scalars reads numpy's own generator value for value
    rng = RngStream(13, (2,))
    ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(13, spawn_key=(2,))))
    assert [rng.u() for _ in range(20_000)] == ref.random(20_000).tolist()
    assert rng.n_drawn == 20_000


def test_draws_are_multiples_of_the_spacing():
    # the spacing that certifies every truncated law: each scalar and
    # block draw times 2^53 is an exact integer below 2^53
    rng = RngStream(17)
    assert rngmod._U_SPACING == 2.0**-rngmod._U_BITS == 2.0**-53
    n = np.concatenate([[rng.u() for _ in range(5000)], rng.block(5000)]) / rngmod._U_SPACING
    assert np.all(n == np.floor(n)) and n.min() >= 0 and n.max() < 2.0**rngmod._U_BITS


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


# -- seeding: the copy of SeedSequence's hash against numpy's own ----------

_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 128, 2 ** 200 + 3]
_WORDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 64]
_KEYS = (
    [()]
    + [(w,) for w in _WORDS]
    + [(k, t) for k in _WORDS for t in _WORDS]
    + [(2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3), (2 ** 64, 0, 2 ** 32 - 1), (7, 2 ** 64, 2 ** 32)]
)


def _seeded_like_numpy(rng, ref=None):
    """True when rng's generator is the PCG64 SeedSequence seeds from
    (rng.seed, rng.spawn_key): same state words, same first draws."""
    if ref is None:
        ref = np.random.SeedSequence(rng.seed, spawn_key=rng.spawn_key)
    words = rng._gen.bit_generator.seed_seq.generate_state(4, np.uint64)
    draws = np.random.Generator(np.random.PCG64(ref)).random(5).tolist()
    return (np.array_equal(words, ref.generate_state(4, np.uint64))
            and [rng.u() for _ in range(5)] == draws)


@pytest.mark.parametrize("seed", _SEEDS)
def test_seeding_matches_numpy(seed, monkeypatch):
    monkeypatch.setattr(rngmod, "_TABLES", {})
    for key in _KEYS:
        assert _seeded_like_numpy(RngStream(seed, key)), key


@pytest.mark.parametrize("order", [(2 ** 32 - 1, 2 ** 32), (2 ** 32, 2 ** 32 - 1)])
def test_seeding_across_a_digit_boundary(order, monkeypatch):
    monkeypatch.setattr(rngmod, "_TABLES", {})
    parent = RngStream(5, (3,))
    for t in order:
        assert _seeded_like_numpy(parent.fork(t)), t


def test_seeding_across_chunks(monkeypatch):
    monkeypatch.setattr(rngmod, "_TABLES", {})
    parent = RngStream(2 ** 64 + 9, (4,))
    assert all(_seeded_like_numpy(parent.fork(t)) for t in range(3001))


def test_children_are_not_seeded_through_seed_sequence(monkeypatch):
    """The batched hash runs switched on: with SeedSequence unusable,
    forks still seed the same generators, and an experiment runs."""
    parent = RngStream(12, (1,))
    refs = [np.random.SeedSequence(12, spawn_key=(1, t)) for t in range(3000)]

    def refuse(*args, **kwargs):
        raise AssertionError("SeedSequence constructed")

    for owner in (np.random, numpy.random.bit_generator):
        monkeypatch.setattr(owner, "SeedSequence", refuse)
    monkeypatch.setattr(rngmod, "_TABLES", {})
    for t, ref in enumerate(refs):
        child = parent.fork(t)
        assert not isinstance(child._gen.bit_generator.seed_seq, type(ref))
        assert _seeded_like_numpy(child, ref), t
    rep = run_inv_degree(build_params(kappa="2/27"), RngStream(3, (2,)), trials=200)
    assert rep["results"]["inv_degree"]["trials"] == 200


def test_seed_tables_stay_bounded(monkeypatch):
    monkeypatch.setattr(rngmod, "_TABLES", {})
    for p in range(20):
        parent = RngStream(8, (p,))
        for t in (0, 1500, 2 ** 40):
            parent.fork(t)
        assert len(rngmod._TABLES) <= rngmod._MAX_TABLES


@pytest.mark.parametrize("seed, key", [(-1, ()), (1, (-1,)), (1, (2, -3)), (-5, (0,))])
def test_negative_seed_or_key_rejected(seed, key):
    with pytest.raises(DomainError):
        RngStream(seed, key)


# -- forks: built from the parent's checked key, equal to a direct build ------

_FORK_WORDS = [0, 1, 1023, 1024, 1025, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1025, 2 ** 40 + 3, 2 ** 64]


def _draws(rng):
    """A stream's record over scalar, index and block draws, crossing its
    first fill, with n_drawn after each."""
    out = []
    for op, arg in (("u", 70), ("block", 100), ("index", 10 ** 6), ("u", 3), ("block", 5)):
        out.append(_apply(rng, op, arg))
        out.append(rng.n_drawn)
    return out


def _same_stream(child, seed, key):
    ref = RngStream(seed, key)
    assert type(child) is RngStream
    assert (child.seed, child.spawn_key, child.n_drawn) == (ref.seed, ref.spawn_key, 0)
    assert all(type(w) is int for w in child.spawn_key)
    assert _draws(child) == _draws(ref)


@pytest.mark.parametrize("word", _FORK_WORDS)
@pytest.mark.parametrize("head", [(), (7,), (2 ** 33, 0)])
def test_fork_equals_direct_build(head, word):
    parent = RngStream(3, head)
    _same_stream(parent.fork(word), 3, head + (word,))


@pytest.mark.parametrize(
    "word", [np.int64(1025), np.uint64(2 ** 63 + 5), np.int32(1023), np.uint8(7)]
)
def test_fork_takes_numpy_integer_words(word):
    parent = RngStream(np.uint64(4), (np.int16(2),))
    assert parent.seed == 4 and parent.spawn_key == (2,)
    _same_stream(parent.fork(word), 4, (2, int(word)))


@pytest.mark.parametrize("words", [(1024, 3), (3, 2 ** 32), (np.int64(1), 2 ** 64, 0)])
def test_multi_word_fork_equals_direct_build(words):
    parent = RngStream(6, (1,))
    _same_stream(parent.fork(*words), 6, (1, *map(int, words)))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2 ** 70),
    st.lists(st.integers(0, 2 ** 70), max_size=2),
    st.lists(st.integers(0, 2 ** 40) | st.integers(1020, 1030), min_size=1, max_size=3),
)
def test_forks_of_forks_equal_direct_builds(seed, head, words):
    child = RngStream(seed, head)
    for w in words:
        child = child.fork(w)
    _same_stream(child, seed, (*head, *words))


def test_fork_without_a_word_is_refused():
    # it would replay its parent draw for draw
    with pytest.raises(DomainError, match="at least one key word"):
        RngStream(5, (2,)).fork()


@pytest.mark.parametrize("word", [1.7, 2.0, np.float64(3.0), "4", None])
def test_fork_rejects_non_integral_words(word):
    parent = RngStream(5)
    with pytest.raises(DomainError, match="must be integers"):
        parent.fork(word)
    with pytest.raises(DomainError, match="must be integers"):
        parent.fork(1, word)


@pytest.mark.parametrize("seed, key", [(5.9, ()), (5.9, (1,)), (5, (1.7,)), (5, (1, 0.5))])
def test_non_integral_seed_or_key_rejected(seed, key):
    with pytest.raises(DomainError, match="must be integers"):
        RngStream(seed, key)
