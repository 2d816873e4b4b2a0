"""Peeling engines for the Markovian triangulations of the plane.

The exploration grows a triangulation from its root edge one peel step
at a time: a boundary edge of the current map is selected, a triangle is
glued onto it according to the perimeter-tilted step law, and any pocket
fenced off by the triangle is immediately resolved by an independent
Boltzmann filling.  Which boundary edge gets peeled is up to one of the
named selectors in :data:`SELECTORS`; the law of the perimeter and
volume processes does not depend on that choice, and the test suite
leans on this both ways: map-backed engines are coupled draw for draw
against arithmetic twins that track only (perimeter, volume), and
different selectors are compared in distribution.

Contents:

* :class:`StepSampler`, exact rejection sampling of one peel event;
* :class:`PeelEngine` plus named selectors and :func:`run_algorithm`;
* :class:`LayerEngine` and :func:`run_layers`: a :class:`PeelEngine`
  driven by the layer selector, the cyclic exploration that
  materializes hulls of balls around the root origin;
* :class:`LayerChain`, the one map-free twin, with a vectorized fast
  path for deep layer runs, and :func:`run_chain`, its perimeter and
  volume series;
* :func:`complete_ball`, targeted peeling until a metric ball of the
  infinite map is provably complete;
* trace and hull-series containers with CSV/JSON export and replay.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .boltzmann import BoltzmannFiller
from .errors import (
    BudgetExceededError,
    DomainError,
    InvariantViolationError,
    MisuseError,
)
from .params import _TABLE0, PeelParams, build_params, q_tail_bound
from .planarmap import FLAG_MAIN, TriMap
from .rng import RngStream

TRACE_SCHEMA = "tripeel-trace-v1"
HULL_SCHEMA = "tripeel-hull-v1"

__all__ = [
    "StepSampler",
    "StepRecord",
    "HullRecord",
    "PeelTrace",
    "PeelEngine",
    "LayerEngine",
    "LayerChain",
    "run_algorithm",
    "run_layers",
    "run_chain",
    "complete_ball",
    "trace_to_csv",
    "trace_from_csv",
    "trace_to_json",
    "trace_from_json",
    "hull_to_csv",
    "hull_from_csv",
    "replay_trace",
    "SELECTORS",
]


# -- one peel event ------------------------------------------------------


class StepSampler:
    """Exact sampler for the peel event at a given perimeter.

    Proposes from the untilted step law by inverse cdf (index 0 is the
    fresh-vertex event, index k >= 1 a size-k swallow) and accepts a
    size-k proposal with probability C~_{p-k} / C~_{p+1}.  The harmonic
    sequence is non-decreasing, so the ratio is a valid acceptance
    probability, and the accepted law is exactly the tilted transition
    kernel.  A fresh proposal is always accepted; an accepted swallow
    then draws its side.  Illegal sizes (k > p - 2) land on a zero
    acceptance and are rejected without consuming a coin.
    """

    __slots__ = ("params",)

    def __init__(self, params: PeelParams):
        self.params = params

    def sample(self, p: int, rng: RngStream) -> tuple[str, int, Optional[str]]:
        """One event at perimeter p: ('fresh', 0, None) or
        ('swallow', k, side)."""
        if p < 2:
            raise MisuseError(f"cannot peel at perimeter {p}")
        par = self.params
        ct = par._ct
        if p + 1 >= len(ct) and par._ct_clamp is None:
            par.ensure_ctilde(p + 1)
        # past the end of a clamped table C~ reads as its last entry
        last = len(ct) - 1
        denom = ct[p + 1 if p < last else last]
        qcum = par._qcum
        nq = len(qcum)
        u = rng.u
        while True:
            x = u()
            idx = bisect_right(qcum, x)
            if idx >= nq:
                while idx >= len(qcum) and par.i_max < p - 2:
                    # mass beyond the table and legal sizes not yet covered
                    par.ensure_q(min(p - 2, max(2 * par.i_max, 64)))
                    idx = bisect_right(qcum, x)
                nq = len(qcum)
                if idx >= nq:
                    continue
            if idx == 0:
                return "fresh", 0, None
            k = idx
            j = p - k
            if j < 2:
                # C~_j = 0: an illegal size, rejected without a coin
                continue
            acc = ct[j if j < last else last] / denom
            if acc < 1.0 and u() >= acc:
                continue
            side = "next" if u() < 0.5 else "prev"
            return "swallow", k, side


# an inverse cdf starts each search from one of _GUIDE buckets
_GUIDE = 1 << 12


class _InverseCdf:
    """Inverse cdf over arrays of uniforms: for each u, the number of
    entries of ``cdf`` (non-decreasing) that are <= u.

    So a law on 0, 1, 2, ... whose first n cumulative masses are the
    entries comes out clipped at n.  A guide table holds the answer at
    each bucket start b / _GUIDE (exact: the scaling is by a power of
    two), a lower bound for every u in the bucket; it is the answer
    unless the next entry is <= u, and only those few uniforms are
    searched.  ``mean`` is the mean clipped value, the sum over i < n
    of P(value > i) = 1 - cdf[i].
    """

    __slots__ = ("mean", "_cdf", "_next", "_guide")

    def __init__(self, cdf):
        cdf = np.asarray(cdf, dtype=float)
        self._cdf = cdf
        self._next = np.append(cdf, np.inf)
        self._guide = np.searchsorted(cdf, np.arange(_GUIDE) / _GUIDE, side="right")
        self.mean = float((1.0 - cdf).sum())

    def __call__(self, u: np.ndarray) -> np.ndarray:
        ks = self._guide[(u * _GUIDE).astype(np.intp)]
        fix = self._next[ks] <= u
        ks[fix] = np.searchsorted(self._cdf, u[fix], side="right")
        return ks


def _block_cap(params: PeelParams) -> int:
    """Swallow-size cap K of the block path: the smallest size at least
    ``_TABLE0`` whose certified step-law tail beyond it is at most 2^-53,
    the spacing of the stream's uniforms.  Grows the table to K.

    Finite off the critical point, where the tail is geometric.
    """
    k = _TABLE0
    while q_tail_bound(params.alpha, k, params.q_neg(k)) > 2.0 ** -53:
        k += 1
    return k


def _event_laws(params: PeelParams, cap: int) -> tuple:
    """The two laws of a block event, the raw step law's fresh steps up
    to and including the next swallow: the gap G, the number of fresh
    steps, with P(G = g) = q_0^g (1 - q_0), and the swallow size less
    one, with P(k) = q_{-k} / (1 - q_0), as :class:`_InverseCdf`.

    The gap is clipped at the first n with q_0^n <= 2^-53 and the size
    at ``cap``: per step the size clip moves the step law's tail beyond
    cap, as a raw-law clip at cap does, and per event the gap clip moves
    at most 2^-53.
    """
    q0 = params.q_cumulative()[0]
    n = 1
    while q0**n > 2.0**-53:
        n += 1
    gaps = _InverseCdf(1.0 - q0 ** np.arange(1, n + 1))
    # P(size > k) = (q_{-(k+1)} + ... + q_{-cap}) / (1 - q_0), summed from
    # the small end up
    tail = np.cumsum(params._qneg[cap:1:-1])[::-1]
    sizes = _InverseCdf(1.0 - tail / (1.0 - q0))
    return gaps, sizes


# -- trace containers ----------------------------------------------------


@dataclass(slots=True)
class StepRecord:
    """One peel step: what was peeled, what happened, and the running
    perimeter and volume after the step (volume counts vertices)."""

    step: int
    edge: int
    kind: str
    k: int
    side: Optional[str]
    dperim: int
    dvol: int
    filler: int
    perimeter: int
    volume: int


@dataclass(slots=True)
class HullRecord:
    """Completed layer r: the step count tau at which the explored map
    became the hull of the radius-r ball, and its boundary/volume."""

    r: int
    tau: int
    perimeter: int
    volume: Optional[int]


@dataclass
class PeelTrace:
    """A peeling run: metadata sufficient to replay it, the per-step
    records, and the final map.  A layer run also carries its hull
    series, its engine (arcs, seam) and whether a budget
    stopped it before r_max."""

    meta: dict
    records: list
    hull: Optional[list] = None
    map: Optional[TriMap] = None
    truncated: bool = False
    engine: Optional["LayerEngine"] = None


def _check_records(records: list) -> None:
    prev_p, prev_v = 2, 2
    for rec in records:
        if rec.kind == "fresh":
            ok = rec.dperim == 1 and rec.k == 0
        else:
            ok = rec.dperim == -rec.k and rec.k >= 1
        if not ok or rec.perimeter != prev_p + rec.dperim or rec.perimeter < 2:
            raise InvariantViolationError(f"inconsistent step record {rec}")
        if rec.volume != prev_v + rec.dvol or rec.dvol < 0:
            raise InvariantViolationError(f"volume went backwards at {rec}")
        prev_p, prev_v = rec.perimeter, rec.volume


# -- the map-backed engine ----------------------------------------------


class PeelEngine:
    """Grows a triangulation from the two-sided root edge.

    Holds the arena, the event sampler, the pocket filler, and a cursor
    half-edge that is kept on the main hole across steps (fresh moves it
    to the edge closing on the old boundary, swallows to the replacement
    edge).  Selectors may use the cursor or ignore it.
    """

    def __init__(
        self,
        params: PeelParams,
        rng: RngStream,
        *,
        record: bool = True,
        max_steps: Optional[int] = None,
        max_vertices: Optional[int] = None,
    ):
        self.params = params
        self.rng = rng
        self.map = TriMap.root_edge()
        self.sampler = StepSampler(params)
        self.filler = BoltzmannFiller(params)
        self.steps = 0
        self.records: Optional[list] = [] if record else None
        self.cursor = self.map.root
        self.max_steps = max_steps
        self.max_vertices = max_vertices

    def _check_budget(self) -> None:
        if self.max_steps is not None and self.steps >= self.max_steps:
            raise BudgetExceededError(
                f"peel step budget {self.max_steps} exhausted", partial=self
            )
        if self.max_vertices is not None and self.map.nv >= self.max_vertices:
            raise BudgetExceededError(
                f"vertex budget {self.max_vertices} exhausted", partial=self
            )

    def peel_step(self, edge: int) -> StepRecord:
        """Peel one boundary edge of the main hole and resolve fallout."""
        m = self.map
        if not m.alive(edge) or m.hflag[edge] != FLAG_MAIN:
            raise MisuseError(f"half-edge {edge} is not on the main boundary")
        return self._peel(edge)

    def _peel(self, edge: int) -> StepRecord:
        """The step body every engine shares: budget check, event,
        surgery and filling, step record.  A fresh step leaves the cursor
        on the edge leaving the new apex, so its origin is the apex."""
        m = self.map
        self._check_budget()
        kind, k, side = self.sampler.sample(m.perimeter, self.rng)
        if kind == "fresh":
            _, self.cursor, _ = m.attach_fresh(edge)
            dperim, dvol, filler = 1, 1, 0
        else:
            self.cursor, enclosed, _ = m.open_swallow(edge, k, side)
            filler = self.filler.fill_hole(m, enclosed, k + 1, self.rng)
            dperim, dvol = -k, filler
        self.steps += 1
        rec = StepRecord(
            self.steps, edge, kind, k, side, dperim, dvol, filler, m.perimeter, m.nv
        )
        if self.records is not None:
            self.records.append(rec)
        return rec


def _select_stay(engine: PeelEngine) -> int:
    return engine.cursor


def _select_advance(engine: PeelEngine) -> int:
    return engine.map.nxt[engine.cursor]


def _select_uniform(engine: PeelEngine) -> int:
    cyc = engine.map.hole_cycle(engine.cursor)
    return cyc[engine.rng.index(len(cyc))]


SELECTORS: dict = {
    "stay": _select_stay,
    "advance": _select_advance,
    "uniform": _select_uniform,
}


def _trace_meta(
    params: PeelParams,
    rng: RngStream,
    *,
    selector: str,
    driver: str,
    n_steps: Optional[int] = None,
    r_max: Optional[int] = None,
) -> dict:
    return {
        "schema": TRACE_SCHEMA,
        "params": params.identity(),
        "digest": params.digest(),
        "seed": rng.seed,
        "spawn_key": list(rng.spawn_key),
        "selector": selector,
        "driver": driver,
        "n_steps": n_steps,
        "r_max": r_max,
    }


def run_algorithm(
    params: PeelParams,
    algorithm: str,
    n_steps: int,
    rng: RngStream,
) -> PeelTrace:
    """Run n_steps recorded peel steps under the selector registered in
    :data:`SELECTORS` by that name.

    A selector may read the explored map and consume engine.rng, but
    the step law itself never depends on the choice.  Returns the trace
    with the final map attached.
    """
    try:
        select = SELECTORS[algorithm]
    except KeyError:
        raise DomainError(f"unknown selector {algorithm!r}") from None
    engine = PeelEngine(params, rng)
    for _ in range(n_steps):
        engine.peel_step(select(engine))
    return PeelTrace(
        meta=_trace_meta(params, rng, selector=algorithm, driver="steps", n_steps=n_steps),
        records=engine.records,
        map=engine.map,
    )


# -- peeling by layers ---------------------------------------------------


def _arc_step(layers, k: int, side: Optional[str], perimeter: int, volume) -> None:
    """The layer arc rule, shared by :class:`LayerEngine` and
    :class:`LayerChain`: apply one counted peel event (k = 0 fresh, else
    a size-k swallow on the given side) to the old and new arc lengths.

    A fresh apex joins the new arc.  A swallow toward the old arc
    ('next') that takes all of it fires tau_r: what is left of the new
    arc becomes the old arc of the next layer, and the hull record is
    appended with the post-step perimeter and volume.  A swallow toward
    the new arc that takes all of it eats into the old arc instead.
    """
    a, n = layers._A, layers._N
    fired = False
    if k == 0:
        n += 1
    elif side == "next":
        if k < a:
            a -= k
        else:
            a, n = n - (k - a), 0
            fired = True
    elif k < n:
        n -= k
    else:
        a, n = a - (k - n), 0
    if a + n != perimeter or a < 1 or perimeter < 2:
        raise InvariantViolationError(
            f"arc bookkeeping lost the boundary at step {layers.steps}"
        )
    layers._A, layers._N = a, n
    if fired:
        layers.hull.append(HullRecord(layers.cur_r, layers.steps, perimeter, volume))
        layers.cur_r += 1


class LayerEngine(PeelEngine):
    """Cyclic exploration that turns around the successive hull
    boundaries: a :class:`PeelEngine` driven by the layer selector.

    The boundary always splits into an old arc (vertices at distance
    r - 1 from the origin of the root edge) and a new arc (distance r),
    and the peeled edge is the seam oriented from the new arc's tail to
    the old arc's head.  The very first step peels the root half-edge
    itself; the second then lands on its reverse side, after which the
    seam rule keeps sweeping the old arc until no old vertex is left.
    That moment is tau_r: the explored map is exactly the hull of the
    radius-r ball, and the arcs relabel.

    A fresh apex glued while layer r is explored lies at graph distance
    r from the root origin in the final infinite map, so at tau_r every
    boundary vertex is at distance exactly r.  Peeling any other edge
    through :meth:`peel_step` voids the arc bookkeeping.
    """

    def __init__(
        self,
        params: PeelParams,
        rng: RngStream,
        *,
        record: bool = False,
        max_steps: Optional[int] = None,
        max_vertices: Optional[int] = None,
    ):
        super().__init__(
            params, rng, record=record, max_steps=max_steps, max_vertices=max_vertices
        )
        self.hull: list = []
        self.cur_r = 1
        # old arc = {origin}, new arc = {target of the root edge}
        self._A = 1
        self._N = 1
        self.seam = self.map.root

    def step(self) -> StepRecord:
        m = self.map
        first = self.steps == 0
        rec = self._peel(self.seam)
        # the opening step (fresh, as perimeter 2 forces) hands the seam
        # to the reverse root side; after that the seam is the cursor
        self.seam = m.twin[m.root] if first else self.cursor
        _arc_step(self, rec.k, rec.side, m.perimeter, m.nv)
        return rec


def run_layers(
    params: PeelParams,
    r_max: int,
    rng: RngStream,
    *,
    n_steps: Optional[int] = None,
    record: bool = False,
    max_steps: Optional[int] = None,
    max_vertices: Optional[int] = None,
) -> PeelTrace:
    """Explore with the layers selector until tau_{r_max} (or n_steps).

    Returns the trace (records empty unless recording) with the hull
    series, final map and engine attached.  A budget overrun returns the
    partial series with ``truncated=True``.
    """
    if r_max < 1:
        raise DomainError(f"r_max must be at least 1, got {r_max}")
    engine = LayerEngine(
        params,
        rng,
        record=record,
        max_steps=max_steps,
        max_vertices=max_vertices,
    )
    truncated = False
    try:
        while engine.cur_r <= r_max and (n_steps is None or engine.steps < n_steps):
            engine.step()
    except BudgetExceededError:
        truncated = True
    trace = PeelTrace(
        meta=_trace_meta(
            params, rng, selector="layers", driver="layers",
            n_steps=n_steps, r_max=r_max,
        ),
        records=engine.records if engine.records is not None else [],
        hull=engine.hull,
        map=engine.map,
        truncated=truncated,
        engine=engine,
    )
    trace.meta["truncated"] = truncated
    return trace


# -- map-free twins ------------------------------------------------------


def run_chain(
    params: PeelParams,
    n_steps: int,
    rng: RngStream,
    *,
    selector_draws: str = "stay",
) -> dict:
    """Run the map-free chain; returns the full perimeter and volume
    series (index 0 is the initial state P_0 = V_0 = 2).

    With selector_draws='uniform' every step first spends the one draw
    the map engine's uniform selector takes, so the chain stays coupled
    draw for draw with ``run_algorithm(..., "uniform", ...)``.
    """
    chain = LayerChain(params, rng)
    uniform = selector_draws == "uniform"
    ps, vs = [2], [2]
    for _ in range(n_steps):
        if uniform:
            rng.index(chain.p)
        chain.step()
        ps.append(chain.p)
        vs.append(chain.v)
    return {"perimeters": ps, "volumes": vs, "steps": chain.steps}


# run_fast samples in blocks once the perimeter reaches the floor the
# clamp index and the swallow cap set, one event (a geometric run of
# fresh steps, then one swallow) per three uniforms, in chunks of
# _CHUNK_MIN to _CHUNK events sized from the chain state; while the new
# arc is shorter than _N_SHORT a swallow toward it may cut at once, so
# the chunk is _CHUNK_MIN.  With volume tracked a chunk holds at most
# _CHUNK_VOL events, which keeps the fill blocks and their peak RSS small
_CHUNK = 1 << 14
_CHUNK_VOL = 1 << 11
_CHUNK_MIN = 64
_N_SHORT = 16


class LayerChain:
    """Map-free twin of :class:`LayerEngine`, and the chain behind
    :func:`run_chain`.

    Tracks only the two arc lengths, the perimeter, the step count and
    (optionally) the volume.  With volume enabled, :meth:`run` (and
    :meth:`step`) consume the stream exactly like the map engine and
    produce the identical hull series (and, through :func:`run_chain`,
    the identical perimeter and volume series); with volume disabled they
    skip the filler draws, which changes the realization but not the law
    of (tau_r, P_{tau_r}).  :meth:`run_fast` draws wide boundaries in
    blocks of events, each a geometric run of fresh steps and then one
    swallow, so its realization differs from :meth:`run`'s on the same
    stream, its law does not.

    With volume enabled it also knows ``root_degree``, the degree of the
    root edge's origin in the final map, from tau_1 on (None before, and
    always None with volume off).  Throughout layer 1 the old arc is the
    origin alone, so every step peels the seam into it and gives it one
    edge; the swallow that fires tau_1 encloses it, at index 1 of the
    enclosed hole, and closes its fan once that hole is filled.  So the
    degree is 1 + tau_1 plus what the filling adds, which
    :meth:`BoltzmannFiller.fill_degree` follows on the same draws as the
    map engine's filler.
    """

    def __init__(
        self,
        params: PeelParams,
        rng: RngStream,
        *,
        volume: bool = True,
        max_steps: Optional[int] = None,
    ):
        self.params = params
        self.rng = rng
        self.sampler = StepSampler(params)
        self.filler = BoltzmannFiller(params) if volume else None
        self.p = 2
        self.v = 2
        self.steps = 0
        self.block_steps = 0  # steps run_fast took in blocks, cut steps included
        self.cur_r = 1
        self._A = 1
        self._N = 1
        self.hull: list = []
        self.max_steps = max_steps
        self.root_degree: Optional[int] = None

    def _check_budget(self) -> None:
        if self.max_steps is not None and self.steps >= self.max_steps:
            raise BudgetExceededError(
                f"peel step budget {self.max_steps} exhausted", partial=self
            )

    def step(self) -> None:
        self._check_budget()
        kind, k, side = self.sampler.sample(self.p, self.rng)
        if kind == "fresh":
            self.p += 1
            self.v += 1
        else:
            self.p -= k
            if self.filler is not None:
                if self.cur_r == 1 and side == "next":
                    # tau_1: the root origin got one edge from each step so
                    # far and one from this one, then what the fill adds
                    dv, dd = self.filler.fill_degree(k + 1, 1, self.rng)
                    self.v += dv
                    self.root_degree = self.steps + 2 + dd
                else:
                    self.v += self.filler.fill_volume(k + 1, self.rng)
        self.steps += 1
        _arc_step(self, k, side, self.p, self.v if self.filler is not None else None)

    def run(self, r_max: int) -> list:
        while self.cur_r <= r_max:
            self.step()
        return self.hull

    # -- vectorized deep-layer path ------------------------------------

    def run_fast(self, r_max: int) -> list:
        """Layer run that switches to block sampling on wide boundaries.

        Once the harmonic table has clamped, every acceptance ratio
        C~_{p-k} / C~_{p+1} with p - k past the clamp index is exactly
        1.0, so while the perimeter stays at least clamp + K (K from
        :func:`_block_cap`, which caps a block's swallow sizes) the
        tilted kernel coincides with the raw step law, and whole chunks
        of i.i.d. steps can be drawn at once.  Every other step is an
        exact scalar :meth:`step`: before the table clamps (always, at
        the critical point), on narrow boundaries, and with volume
        tracked throughout layer 1, whose tau_1 fill gives
        ``root_degree``.

        A block draws events, not steps: an event is G fresh steps, G
        geometric with P(G = g) = q_0^g (1 - q_0), then one swallow of
        size k with probability q_{-k} / (1 - q_0) and its side, three
        uniforms in all (laws from :func:`_event_laws`).  That is the raw
        step law, step for step, up to a moved mass of at most 2^-53 per
        step (the size clip at K, as a raw-law clip at K) or per event
        (the gap clip).  A fresh step only lengthens the new arc and the
        perimeter, so no step inside a gap can empty an arc or leave the
        floor; the chunk is cut at the first event whose swallow could,
        and that event's gap is applied, then its swallow with the full
        arc rule.  Under a step budget a chunk that would pass it takes
        its whole events, then as many fresh steps of the next gap as
        the budget leaves, and the next budget check raises.

        With volume tracked, the swallows of a chunk's taken events are
        filled after the events are drawn, in law exactly as
        :meth:`step` fills them, through
        :meth:`BoltzmannFiller.fill_volumes`: one more block of uniforms
        for the holes its tables cover, then a scalar fill for each
        larger hole.  With volume off no filler draw is made.

        Each chunk is sized from the state at its start only: the old
        arc A, the new arc N, the margin above the floor and the mean
        swallow size mu.  The old arc loses mu / 2 an event on average,
        so a chunk holds min(A, p - floor + 1) / (mu / 2) events,
        clipped to [_CHUNK_MIN, _CHUNK] (_CHUNK_VOL with volume
        tracked), and _CHUNK_MIN while N < _N_SHORT (right after tau_r,
        N = 0).  Events past a cut are never looked at, so sizing the
        next chunk from the state leaves every step an i.i.d. raw-law
        draw, and few uniforms are drawn past a cut.

        So the run depends only on the coupling and the stream, never on
        how far the shared tables have grown.
        """
        rng = self.rng
        filler = self.filler
        sizes = None  # the event laws, once the table has clamped
        chunk = _CHUNK if filler is None else _CHUNK_VOL
        while self.cur_r <= r_max:
            if sizes is None:
                clamp = self.params.ctilde_clamp_index()
                if clamp is not None:
                    cap = _block_cap(self.params)
                    gaps, sizes = _event_laws(self.params, cap)
                    # mean arc loss of an event: half its mean swallow
                    rate = (1.0 + sizes.mean) / 2
                    # a pre-step perimeter at or above the floor is exact
                    p_floor = clamp + cap
            if (
                sizes is None
                or self.p < p_floor + 2
                or (filler is not None and self.cur_r == 1)
            ):
                self.step()
                continue
            self._check_budget()
            if self._N < _N_SHORT:
                m = _CHUNK_MIN
            else:
                reach = min(self._A, self.p - p_floor + 1)
                m = min(max(int(reach / rate), _CHUNK_MIN), chunk)
            left = None
            if self.max_steps is not None:
                left = self.max_steps - self.steps
                m = min(m, left)
            us = rng.block(3 * m)
            gs = gaps(us[:m])
            ks = sizes(us[m : 2 * m])
            ks += 1
            # swallows toward the old arc ('next')
            old = us[2 * m :] < 0.5
            cg = gs.cumsum()
            oka = self._A - (ks * old).cumsum()
            okp = self.p + cg - ks.cumsum()
            bad = (oka < 1) | (okp - oka < 1) | (okp < p_floor)
            # j whole events, then `tail` fresh steps of event j and, on a
            # cut, its swallow
            j = int(bad.argmax())
            cut = bool(bad[j])
            if not cut:
                j = m
            if left is not None and int(cg[-1]) + m > left:
                # steps through event i: cg[i] + i + 1
                whole = int(np.searchsorted(cg + np.arange(1, m + 1), left, side="right"))
                if whole <= j:
                    j, cut = whole, False
            base = int(cg[j - 1]) + j if j else 0
            if cut:
                tail = int(gs[j])
            elif j < m:
                # the budget runs out inside event j
                tail = left - base
            else:
                tail = 0
            if filler is not None:
                # fresh steps, then the fills of the taken swallows in order
                self.v += base - j + tail + filler.fill_volumes(ks[: j + cut] + 1, rng)
            if j:
                self._A = int(oka[j - 1])
                self.p = int(okp[j - 1])
            self.p += tail
            self._N = self.p - self._A
            self.steps += base + tail
            self.block_steps += base + tail
            if cut:
                # event j was drawn from a clean state, so its swallow is
                # still an exact raw-law step; apply it with full case handling
                k = int(ks[j])
                self.p -= k
                self.steps += 1
                self.block_steps += 1
                _arc_step(
                    self, k, "next" if old[j] else "prev", self.p,
                    self.v if filler is not None else None,
                )
        return self.hull


# -- complete metric balls -----------------------------------------------


def complete_ball(
    engine: PeelEngine,
    center: int,
    radius: int,
    *,
    max_steps: Optional[int] = None,
) -> list[int]:
    """Peel until the radius-r ball around a vertex is provably final.

    Strategy: take a distance snapshot, close the fan of every boundary
    vertex the snapshot puts within the radius, repeat.  Once a snapshot
    shows every boundary vertex at distance >= radius + 1, no future
    discovery can shorten any distance <= radius, because a path leaving
    the explored map must pass through the boundary; the returned
    distance array is exact out to the radius.  (Distances only shrink
    as the map grows, which is why each round must re-snapshot, and why
    stopping is sound the moment one snapshot comes up empty.)
    """
    if radius < 0:
        raise DomainError(f"radius must be nonnegative, got {radius}")
    m = engine.map
    spent = 0
    while True:
        dist = m.bfs_distances(center, max_dist=radius + 1)
        near = sorted(
            (dist[m.org[he]], m.org[he])
            for he in m.hole_cycle(engine.cursor)
            if 0 <= dist[m.org[he]] <= radius
        )
        if not near:
            return dist
        for _, v in near:
            while m.v_hole[v] != -1:
                if max_steps is not None and spent >= max_steps:
                    raise BudgetExceededError(
                        f"ball completion exceeded {max_steps} peel steps",
                        partial=dist,
                    )
                engine.peel_step(m.v_hole[v])
                spent += 1


# -- export, import, replay ----------------------------------------------

_COLUMNS = ("step", "edge", "kind", "k", "side", "dperim", "dvol", "filler",
            "perimeter", "volume")
_HULL_COLUMNS = ("r", "tau", "perimeter", "volume")


def trace_to_csv(trace: PeelTrace) -> str:
    head = json.dumps(trace.meta, sort_keys=True)
    lines = [f"#{TRACE_SCHEMA} {head}", ",".join(_COLUMNS)]
    for r in trace.records:
        side = r.side if r.side is not None else ""
        lines.append(
            f"{r.step},{r.edge},{r.kind},{r.k},{side},{r.dperim},"
            f"{r.dvol},{r.filler},{r.perimeter},{r.volume}"
        )
    return "\n".join(lines) + "\n"


def _json_object(text: str, what: str) -> dict:
    """The JSON object in text; DomainError when text is not one."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise DomainError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DomainError(f"{what} is not a JSON object")
    return doc


def _csv_rows(text: str, schema: str, columns: tuple, what: str) -> tuple[dict, list]:
    """Header metadata and data rows of a CSV export, each row split into
    one field per column."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or not lines[0].startswith(f"#{schema} "):
        raise DomainError(f"not a {what} export")
    meta = _json_object(lines[0].split(" ", 1)[1], f"{what} header")
    if lines[1:2] != [",".join(columns)]:
        raise DomainError(f"unexpected {what} column schema")
    rows = [ln.split(",") for ln in lines[2:]]
    for f in rows:
        if len(f) != len(columns):
            raise DomainError(f"{what} row {','.join(f)!r} needs {len(columns)} fields")
    return meta, rows


def trace_from_csv(text: str) -> PeelTrace:
    meta, rows = _csv_rows(text, TRACE_SCHEMA, _COLUMNS, "trace")
    try:
        records = [
            StepRecord(
                step=int(f[0]), edge=int(f[1]), kind=f[2], k=int(f[3]),
                side=f[4] or None, dperim=int(f[5]), dvol=int(f[6]),
                filler=int(f[7]), perimeter=int(f[8]), volume=int(f[9]),
            )
            for f in rows
        ]
    except ValueError as exc:
        raise DomainError(f"malformed trace row: {exc}") from None
    _check_records(records)
    return PeelTrace(meta=meta, records=records, truncated=bool(meta.get("truncated")))


def trace_to_json(trace: PeelTrace) -> str:
    doc = {
        "meta": trace.meta,
        "records": [asdict(r) for r in trace.records],
    }
    if trace.hull is not None:
        doc["hull"] = [asdict(h) for h in trace.hull]
    return json.dumps(doc, sort_keys=True)


def trace_from_json(text: str) -> PeelTrace:
    doc = _json_object(text, "trace")
    meta = doc.get("meta")
    if not isinstance(meta, dict) or meta.get("schema") != TRACE_SCHEMA:
        raise DomainError("not a trace export")
    try:
        records = [StepRecord(**d) for d in doc["records"]]
        hull = [HullRecord(**h) for h in doc["hull"]] if "hull" in doc else None
        _check_records(records)
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed trace record: {exc!r}") from None
    return PeelTrace(
        meta=meta, records=records, hull=hull, truncated=bool(meta.get("truncated"))
    )


def hull_to_csv(hull: Sequence[HullRecord], meta: Optional[dict] = None) -> str:
    head = json.dumps(meta or {}, sort_keys=True)
    lines = [f"#{HULL_SCHEMA} {head}", ",".join(_HULL_COLUMNS)]
    for h in hull:
        vol = h.volume if h.volume is not None else ""
        lines.append(f"{h.r},{h.tau},{h.perimeter},{vol}")
    return "\n".join(lines) + "\n"


def hull_from_csv(text: str) -> tuple[list, dict]:
    meta, rows = _csv_rows(text, HULL_SCHEMA, _HULL_COLUMNS, "hull")
    out = []
    prev_tau = 0
    for f in rows:
        try:
            rec = HullRecord(int(f[0]), int(f[1]), int(f[2]), int(f[3]) if f[3] else None)
        except ValueError as exc:
            raise DomainError(f"malformed hull row: {exc}") from None
        if rec.tau <= prev_tau or rec.perimeter < 2:
            raise InvariantViolationError(f"inconsistent hull record {rec}")
        prev_tau = rec.tau
        out.append(rec)
    return out, meta


def _recorded_params(ident: dict, digest: str) -> Optional[PeelParams]:
    """The parameters of a recorded identity: rebuilt from the exact
    kappa when there is one, else from the float kappa or the float
    alpha, whichever reproduces the recorded digest (a float coupling
    comes back only from the handle it was built from, since the root
    of the other is a few ulp to a thousand ulp off).  None when
    neither does."""
    exact = ident.get("kappa_exact")
    handles = [{"kappa": exact}] if exact else [
        {"kappa": float(ident["kappa"])}, {"alpha": float(ident["alpha"])}
    ]
    for handle in handles:
        params = build_params(**handle)
        if params.digest() == digest:
            return params
    return None


def replay_trace(source: Union[PeelTrace, str]) -> dict:
    """Re-run an exported trace and verify it step for step.

    Accepts a PeelTrace or an exported string (CSV or JSON form).  The
    run is reconstructed from the recorded parameters, seed and
    selector; every reproduced step record must match the stored one.
    Returns the final map, its canonical code, and the verified trace.
    """
    if isinstance(source, str):
        stripped = source.lstrip()
        trace = (
            trace_from_json(source) if stripped.startswith("{") else trace_from_csv(source)
        )
    else:
        trace = source
    meta = trace.meta
    if meta.get("digest") is None or meta.get("seed") is None:
        raise DomainError("trace metadata is incomplete; cannot replay")
    try:
        params = _recorded_params(meta["params"], meta["digest"])
        rng = RngStream(meta["seed"], tuple(meta.get("spawn_key", ())))
        layers = meta["driver"] == "layers"
        r_max = int(meta["r_max"]) if layers else None
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed trace metadata; cannot replay: {exc!r}") from None
    if params is None:
        raise InvariantViolationError("trace parameter digest does not match")
    n = len(trace.records)
    if layers:
        rerun = run_layers(params, r_max, rng, n_steps=n, record=True)
    else:
        rerun = run_algorithm(params, meta.get("selector", "stay"), n, rng)
    if rerun.records != trace.records:
        raise InvariantViolationError("replay diverged from the recorded trace")
    return {
        "map": rerun.map,
        "canonical_code": rerun.map.canonical_code(),
        "trace": rerun,
    }
