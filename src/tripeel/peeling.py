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
* :class:`LayerChain`, the one map-free twin, with a vectorized block
  path off the critical point and scalar sampler events elsewhere;
* :func:`complete_ball`, targeted peeling until a metric ball of the
  infinite map is provably complete;
* traces (``tripeel-trace-v2``): each step's event and running perimeter
  and volume, no arena id; metadata to replay the run, with
  ``map_digest`` (16 hex digits of the sha256 of the final map's
  canonical code); one JSON document with the hull series and the
  canonical code, or CSV with an optional hull block.  :func:`replay_trace`
  reads both and refuses a ``tripeel-trace-v1`` trace by name.
"""

from __future__ import annotations

import json
import weakref
from bisect import bisect_right
from dataclasses import asdict, dataclass
from hashlib import sha256
from operator import index
from typing import Optional, Sequence, Union

import numpy as np

from .boltzmann import BoltzmannFiller
from .errors import (
    BudgetExceededError,
    DomainError,
    InvariantViolationError,
    MisuseError,
)
from .params import PeelParams, build_params, q_tail_bound
from .planarmap import FLAG_MAIN, TriMap
from .rng import _U_SPACING, RngStream

TRACE_SCHEMA = "tripeel-trace-v2"
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

_NEW_VERTEX_EVENT = ("fresh", 0, None)


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

    Two entry points share one rejection core.  :meth:`sample` draws one
    step; :meth:`event` draws a run of fresh steps and the swallow that
    ends it, on exactly the uniforms that as many :meth:`sample` calls
    would draw at the perimeters those steps pass through.  Each keeps
    only the fresh test, a first proposal below q_1; every other first
    proposal goes to :meth:`_resolve`, the rejection loop, which grows
    the tables as the loop needs them.

    It holds nothing but the parameters, so the engines and chains of a
    coupling share one: built on first use, and kept on the
    :class:`PeelParams` while an engine or chain holds it.
    """

    __slots__ = ("params", "__weakref__")

    def __init__(self, params: PeelParams):
        self.params = params

    def sample(self, p: int, rng: RngStream) -> tuple[str, int, Optional[str]]:
        """One event at perimeter p: ('fresh', 0, None) or
        ('swallow', k, side).

        A first proposal below q_1 is the fresh event, returned before
        any C~ entry is read; the tables grow only for a swallow
        proposal."""
        if p < 2:
            raise MisuseError(f"cannot peel at perimeter {p}")
        x = rng.u()
        if x < self.params._qcum[0]:
            return _NEW_VERTEX_EVENT
        return self._resolve(p, x, rng.u)

    def event(self, p: int, rng: RngStream, limit: int) -> tuple[int, int, Optional[str]]:
        """Steps from perimeter p up to and including the first swallow,
        at most ``limit`` of them: (g, k, side), g fresh steps, then a
        size-k swallow on that side taken at perimeter p + g, with
        g < limit; or (limit, 0, None) after ``limit`` fresh steps and no
        further draw.

        Draw for draw this is :meth:`sample` called at p, p + 1, ... until
        it returns a swallow or has returned ``limit`` fresh events."""
        if p < 2:
            raise MisuseError(f"cannot peel at perimeter {p}")
        q1 = self.params._qcum[0]
        u = rng.u
        g = 0
        while g < limit:
            x = u()
            if x >= q1:
                _, k, side = self._resolve(p + g, x, u)
                if k:
                    return g, k, side
            g += 1
        return g, 0, None

    def _resolve(self, p: int, x: float, u) -> tuple[str, int, Optional[str]]:
        """The rejection loop at perimeter p, from a first proposal x at
        or above q_1; u draws the stream's next uniform.  Returns the
        event as :meth:`sample` does."""
        par = self.params
        qcum = par._qcum
        ct = par._ct
        if p + 1 >= len(ct) and par._ct_clamp is None:
            par.ensure_ctilde(p + 1)
        # past the end of a clamped table C~ reads as its last entry
        last = len(ct) - 1
        denom = ct[p + 1 if p < last else last]
        nq = len(qcum)
        while True:
            idx = bisect_right(qcum, x)
            if idx >= nq:
                while idx >= len(qcum) and par.i_max < p - 2:
                    # mass beyond the table and legal sizes not yet covered
                    par.ensure_q(min(p - 2, max(2 * par.i_max, 64)))
                    idx = bisect_right(qcum, x)
                nq = len(qcum)
            if idx == 0:
                return _NEW_VERTEX_EVENT
            j = p - idx
            # j < 2 (C~_j = 0, an illegal size) and mass beyond the table
            # are rejected without a coin
            if j >= 2 and idx < nq:
                acc = ct[j if j < last else last] / denom
                if acc >= 1.0 or u() < acc:
                    return "swallow", idx, "next" if u() < 0.5 else "prev"
            x = u()


# an inverse cdf starts each search from one of _GUIDE buckets
_GUIDE = 1 << 12


class _InverseCdf:
    """Inverse cdf over arrays of uniforms: for each u, the number of
    entries of ``cdf`` (non-decreasing) that are <= u.

    So a law on 0, 1, 2, ... whose first n cumulative masses are the
    entries comes out clipped at n.  A guide table splits [0, 1) into
    _GUIDE buckets [b / _GUIDE, (b + 1) / _GUIDE) (exact: the scaling is
    by a power of two).  Where no entry lies strictly inside a bucket,
    every u in it has the same answer, which the table holds; a bucket
    with an entry inside holds -1, and only the uniforms that land in
    one are searched.  ``mean`` is the mean clipped value, the sum over
    i < n of P(value > i) = 1 - cdf[i].
    """

    __slots__ = ("mean", "_cdf", "_guide")

    def __init__(self, cdf):
        cdf = np.asarray(cdf, dtype=float)
        self._cdf = cdf
        edges = np.arange(_GUIDE + 1) / _GUIDE
        lo = cdf.searchsorted(edges[:-1], side="right")
        self._guide = np.where(lo == cdf.searchsorted(edges[1:], side="left"), lo, -1)
        self.mean = float((1.0 - cdf).sum())

    def __call__(self, u: np.ndarray) -> np.ndarray:
        ks = self._guide[(u * _GUIDE).astype(np.intp)]
        at = (ks < 0).nonzero()
        ks[at] = self._cdf.searchsorted(u[at], side="right")
        return ks


# A coupling whose swallow cap would pass _CAP_MAX (alpha within about
# 3e-5 of 2/3) takes scalar steps, like the critical point.  K grows like
# 1 / (alpha - 2/3), and so do its search and the tables it fills: K is
# 117,893 at alpha 0.6667 and 970,039 at 0.66667 (1.6 s and 178 MiB
# before the first step, on one core of a shared x86 host), and within
# about 3e-7 of 2/3 it passes the tables' hard cap
_CAP_MAX = 1 << 17


def _block_cap(params: PeelParams) -> Optional[int]:
    """Swallow-size cap K of the block path: the smallest size K >= 1
    whose certified step-law tail beyond it is at most 2^-53, the spacing
    of the stream's uniforms.  Grows the table to K.

    None at the critical point, where the tail is not geometric, and
    where no K up to _CAP_MAX is certified.  K reads the step law alone,
    never the tables' current length.
    """
    if params.critical:
        return None
    for k in range(1, _CAP_MAX + 1):
        if q_tail_bound(params.alpha, k, params.q_neg(k)) <= _U_SPACING:
            return k
    return None


def _event_laws(params: PeelParams, cap: int) -> tuple:
    """The two laws of a block event, the raw step law's proposals up to
    and including the next swallow proposal: the gap G, the number of
    fresh proposals, with P(G = g) = q_0^g (1 - q_0), and the proposed
    swallow size less one, with P(k) = q_{-k} / (1 - q_0), as
    :class:`_InverseCdf`.  A fresh proposal is always accepted, so the
    gap is that many fresh steps; whether the swallow is accepted is the
    block path's business (:meth:`LayerChain.run_fast`).

    The gap is clipped at the first n with q_0^n <= 2^-53 and the size
    at ``cap``: per proposal the size clip moves the step law's tail
    beyond cap, as a raw-law clip at cap does, and per event the gap
    clip moves at most 2^-53.
    """
    q0 = params.q_cumulative()[0]
    n = 1
    while q0**n > _U_SPACING:
        n += 1
    gaps = _InverseCdf(1.0 - q0 ** np.arange(1, n + 1))
    # P(size > k) = (q_{-(k+1)} + ... + q_{-cap}) / (1 - q_0), summed from
    # the small end up
    tail = np.cumsum(params._qneg[cap:1:-1])[::-1]
    sizes = _InverseCdf(1.0 - tail / (1.0 - q0))
    return gaps, sizes


def _block_laws(params: PeelParams) -> Optional[tuple]:
    """(gaps, sizes, ct), the whole law the block path reads:
    :func:`_event_laws` at the swallow cap of :func:`_block_cap`, and C~
    through its clamp index as a numpy array.  None where the cap is
    None.  Built on the first call and kept on the parameters, since it
    reads only the step law.

    Off the critical point the table's later term ratios stay below
    4 geo < 1, so it always reaches its clamp index, grown there through
    :meth:`PeelParams.ensure_ctilde`.
    """
    laws = params._block_laws
    if laws is None:
        cap = _block_cap(params)
        laws = ()  # no block path
        if cap is not None:
            while params.ctilde_clamp_index() is None:
                params.ensure_ctilde(2 * params.p_max)
            laws = (*_event_laws(params, cap), np.array(params._ct))
        params._block_laws = laws
    return laws or None


def _shared(params: PeelParams, cls):
    """The coupling's one driver of class cls (:class:`StepSampler` or
    :class:`BoltzmannFiller`): built on first use, and kept on the
    parameters while an engine or chain holds it."""
    ref = params._drivers.get(cls)
    driver = ref() if ref is not None else None
    if driver is None:
        driver = cls(params)
        params._drivers[cls] = weakref.ref(driver)
    return driver


# -- trace containers ----------------------------------------------------


@dataclass(slots=True)
class StepRecord:
    """One peel step: its event (fresh with k = 0, or a swallow of k edges
    on a side), then the running perimeter and volume (in vertices)."""

    kind: str
    k: int
    side: Optional[str]
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
    series; ``meta["truncated"]`` says whether a budget cut it short."""

    meta: dict
    records: list
    hull: Optional[list] = None
    map: Optional[TriMap] = None


def _check_records(records: list) -> None:
    """Each record follows from its event and the record before it."""
    p, v = 2, 2
    for rec in records:
        if rec.kind == "fresh":
            ok = rec.k == 0 and rec.side is None and rec.volume == v + 1
        else:
            ok = rec.kind == "swallow" and rec.k >= 1 and rec.side in ("next", "prev")
        p += 1 if rec.k == 0 else -rec.k
        if not ok or rec.perimeter != p or p < 2 or rec.volume < v:
            raise InvariantViolationError(f"inconsistent step record {rec}")
        v = rec.volume


def _check_hull(hull: Sequence[HullRecord]) -> None:
    """Hull records run r = 1, 2, ... at increasing tau, each at perimeter
    2 or more, and no volume below the one before (None reads as 0)."""
    prev_tau = prev_vol = 0
    for r, rec in enumerate(hull, 1):
        vol = 0 if rec.volume is None else rec.volume
        if rec.r != r or rec.tau <= prev_tau or rec.perimeter < 2 or vol < prev_vol:
            raise InvariantViolationError(f"inconsistent hull record {rec}")
        prev_tau, prev_vol = rec.tau, vol


def _steps_spent(driver) -> BudgetExceededError:
    """The error a driver raises when its step budget is spent."""
    return BudgetExceededError(f"peel step budget {driver.max_steps} exhausted", partial=driver)


def _budget(name: str, value: Optional[int]) -> Optional[int]:
    """A step or vertex budget: None for none, else a nonnegative count."""
    if value is not None and value < 0:
        raise DomainError(f"{name} must be nonnegative, got {value}")
    return value


# -- the map-backed engine ----------------------------------------------


class PeelEngine:
    """Grows a triangulation from the two-sided root edge.

    Holds the arena, the coupling's shared event sampler and pocket
    filler, and a cursor half-edge that is kept on the main hole across
    steps (fresh moves it to the edge closing on the old boundary,
    swallows to the replacement edge).  Selectors may use the cursor or
    ignore it.  A :class:`StepRecord` is built for a step only when the
    engine records (``record=True``); the walk engines do not.
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
        self.sampler = _shared(params, StepSampler)
        self.filler = _shared(params, BoltzmannFiller)
        self.steps = 0
        self.records: Optional[list] = [] if record else None
        self.cursor = self.map.root
        self.max_steps = _budget("max_steps", max_steps)
        self.max_vertices = _budget("max_vertices", max_vertices)

    def _check_budget(self) -> None:
        if self.max_steps is not None and self.steps >= self.max_steps:
            raise _steps_spent(self)
        if self.max_vertices is not None and self.map.nv >= self.max_vertices:
            raise BudgetExceededError(
                f"vertex budget {self.max_vertices} exhausted", partial=self
            )

    def peel_step(self, edge: int) -> Optional[StepRecord]:
        """Peel one boundary edge of the main hole and resolve fallout.

        Returns the step's record when the engine records, else None.
        """
        hflag = self.map.hflag
        if not 0 <= edge < len(hflag) or hflag[edge] != FLAG_MAIN:
            raise MisuseError(f"half-edge {edge} is not on the main boundary")
        self._peel(edge)
        return self.records[-1] if self.records is not None else None

    def _peel(self, edge: int) -> tuple[str, int, Optional[str]]:
        """The step body every engine shares: budget check, event,
        surgery and filling, and the step record when recording.  Returns
        the event, as :meth:`StepSampler.sample` does.  As in
        :meth:`LayerChain.step`, a fresh step adds its apex, the origin
        of the new cursor, and a swallow is glued and filled by
        :meth:`BoltzmannFiller.swallow`, which returns the cursor."""
        m = self.map
        if self.max_steps is not None or self.max_vertices is not None:
            self._check_budget()
        rng = self.rng
        event = kind, k, side = self.sampler.sample(m.perimeter, rng)
        if k == 0:
            _, self.cursor, _ = m.attach_fresh(edge)
        else:
            self.cursor = self.filler.swallow(m, edge, k, side, rng)
        self.steps += 1
        if self.records is not None:
            self.records.append(StepRecord(kind, k, side, m.perimeter, m.nv))
        return event


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
    r_max: Optional[int] = None,
    truncated: bool = False,
) -> dict:
    return {
        "schema": TRACE_SCHEMA,
        "params": params.identity(),
        "digest": params.digest(),
        "seed": rng.seed,
        "spawn_key": list(rng.spawn_key),
        "selector": selector,
        "r_max": r_max,
        "truncated": truncated,
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
    except (KeyError, TypeError):
        raise DomainError(f"unknown selector {algorithm!r}") from None
    engine = PeelEngine(params, rng)
    for _ in range(n_steps):
        engine.peel_step(select(engine))
    return PeelTrace(
        meta=_trace_meta(params, rng, selector=algorithm),
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

    def step(self) -> Optional[StepRecord]:
        """One layer step; returns its record when recording, else None."""
        m = self.map
        _, k, side = self._peel(self.cursor)
        if self.steps == 1:
            # the opening step (fresh, as perimeter 2 forces) hands the
            # seam to the reverse root side; after that it is the cursor
            self.cursor = m.twin[m.root]
        _arc_step(self, k, side, m.perimeter, m.nv)
        return self.records[-1] if self.records is not None else None


def run_layers(
    params: PeelParams,
    r_max: int,
    rng: RngStream,
    *,
    record: bool = False,
    max_steps: Optional[int] = None,
    max_vertices: Optional[int] = None,
) -> PeelTrace:
    """Explore with the layers selector until tau_{r_max}.

    Returns the trace (records empty unless recording) with the hull
    series and final map attached.  A budget overrun returns the
    partial series with ``meta["truncated"]`` true.
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
        while engine.cur_r <= r_max:
            engine.step()
    except BudgetExceededError:
        truncated = True
    return PeelTrace(
        meta=_trace_meta(params, rng, selector="layers", r_max=r_max, truncated=truncated),
        records=engine.records if engine.records is not None else [],
        hull=engine.hull,
        map=engine.map,
    )


# -- map-free twins ------------------------------------------------------


# run_fast chunks hold _CHUNK_MIN to _CHUNK events, sized to run to the
# layer's end; the cap keeps the blocks (with volume, the fill blocks too)
# and their peak RSS small.  Perimeters below _P_BLOCK take scalar steps
_CHUNK = 1 << 14
_CHUNK_MIN = 64
_P_BLOCK = 4
# the fresh-run cap of a scalar event without a budget
_UNLIMITED = 1 << 62


def _event_arcs(a: int, n: int, gs, ks, old) -> tuple:
    """(nega, okn, cut): the arcs after each event (gs fresh steps, a
    size-ks swallow toward the old arc where ``old``) from arcs (a, n),
    all taken, and the first event that leaves the old arc below 1.

    Both arcs come from one cumsum down the two columns of an (m, 2)
    array, the start arcs added to its first row: the old arc negated,
    ``nega``, and the new arc ``okn``.  N follows Lindley's recursion
    n_j = max(0, n_{j-1} + g_j - k_j): what a swallow takes past its end
    comes off A.  So A never grows, ``nega`` is nondecreasing and ``cut``
    (m where no event takes A below 1) is a sorted search.  Exact up to
    that event, tau_r.
    """
    x = np.empty((ks.size, 2), dtype=np.intp)
    nega, okn = x.T
    np.multiply(ks, old, out=nega)
    np.subtract(gs, ks, out=okn)
    okn += nega
    x[0, 0] -= a
    x[0, 1] += n
    x.cumsum(axis=0, out=x)
    if okn.min() < 0:
        over = np.minimum.accumulate(np.minimum(okn, 0))
        okn -= over
        nega -= over
    return nega, okn, int(nega.searchsorted(0))


class LayerChain:
    """Map-free twin of the map engines.

    Tracks only the two arc lengths, the perimeter, the step count and
    the volume ``v`` (with volume disabled, 2 plus the fresh steps on
    every path: no fill is counted).  With volume enabled, :meth:`run`
    (and :meth:`step`) consume the stream exactly like :class:`LayerEngine`
    and produce the identical hull series; step for step they also give
    a :class:`PeelEngine`'s perimeter and volume under any selector (the
    uniform one once the caller spends its draw, ``rng.index(p)``, before
    each step).  With volume disabled they skip the filler draws, which
    changes the realization but not the law of (tau_r, P_{tau_r}).
    :meth:`run_fast` draws in blocks of events, each a geometric run of
    fresh steps and then one swallow proposal, from perimeter 4 on and
    off the critical point, so its realization differs from
    :meth:`run`'s on the same stream, its law does not.  Its other
    steps are :meth:`run`'s and :meth:`step`'s, draw for draw:
    :meth:`step` takes one step a call, as :class:`LayerEngine` does,
    and :meth:`run` a run of fresh steps and one swallow a call
    (:meth:`StepSampler.event`).

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
        self.sampler = _shared(params, StepSampler)
        self.filler = _shared(params, BoltzmannFiller) if volume else None
        self.p = 2
        self.v = 2
        self.steps = 0
        self.block_steps = 0  # steps run_fast took in blocks, cut steps included
        self.cur_r = 1
        self._A = 1
        self._N = 1
        self.hull: list = []
        self.max_steps = _budget("max_steps", max_steps)
        self.root_degree: Optional[int] = None

    def step(self) -> None:
        if self.max_steps is not None and self.steps >= self.max_steps:
            raise _steps_spent(self)
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
        """Steps until tau_{r_max}, one :meth:`StepSampler.event` at a
        time, and the hull series.

        Each event's fresh steps move p, v, N and the step count at once;
        its swallow is filled and applied as :meth:`step` does it.  Fresh
        runs are capped at the budget left, so this is :meth:`step`
        called until tau_{r_max}, draw for draw: the same draws, state,
        hull, root degree and budget error."""
        event, rng, filler = self.sampler.event, self.rng, self.filler
        max_steps = self.max_steps
        p, v, steps = self.p, self.v, self.steps
        try:
            while self.cur_r <= r_max:
                limit = _UNLIMITED
                if max_steps is not None:
                    if steps >= max_steps:
                        raise _steps_spent(self)
                    limit = max_steps - steps
                g, k, side = event(p, rng, limit)
                p += g
                v += g
                steps += g
                self._N += g
                if not k:
                    continue
                p -= k
                if filler is not None:
                    if self.cur_r == 1 and side == "next":
                        # tau_1, as in step()
                        dv, dd = filler.fill_degree(k + 1, 1, rng)
                        v += dv
                        self.root_degree = steps + 2 + dd
                    else:
                        v += filler.fill_volume(k + 1, rng)
                steps += 1
                self.steps = steps
                _arc_step(self, k, side, p, v if filler is not None else None)
        finally:
            self.p, self.v, self.steps = p, v, steps
        return self.hull

    # -- vectorized path -------------------------------------------------

    def run_fast(self, r_max: int) -> list:
        """Layer run that draws its steps in blocks of events.

        An event is G fresh proposals, G geometric with P(G = g) =
        q_0^g (1 - q_0), then one swallow proposal of size k with
        probability q_{-k} / (1 - q_0) and its side (laws from
        :func:`_event_laws`).  That is the raw step law, proposal for
        proposal, up to a moved mass of at most 2^-53 per proposal (the
        size clip at K, from :func:`_block_cap`) or per event (the gap
        clip).  A fresh proposal is always accepted, so the gap is G
        fresh steps.  A chunk of events is drawn at once, assuming every
        swallow is accepted, so event j proposes its swallow at perimeter
        p'_j = p + sum_{i<=j} G_i - sum_{i<j} k_i.

        The chunk loop reads one frozen law, :func:`_block_laws`: the two
        event laws and C~ through its clamp index.  It is built once per
        :class:`PeelParams` from the step law alone, so the run depends
        only on the coupling and the stream.

        The swallow of event j is accepted with probability
        C~_{p'_j - k_j} / C~_{p'_j + 1}, C~ read past its clamp index as
        its last entry, the plateau :meth:`StepSampler.sample` reads, and
        C~_0 = C~_1 = 0.  Where p'_j - k_j is at or past the clamp index
        both entries read the plateau, the ratio is exactly 1.0 and the
        event draws no coin.  The other events each draw one coin c, in
        event order, from a second block drawn after the chunk's three
        uniforms an event, and their swallow is rejected if c is at or
        above the ratio.  Those events are looked for only when the
        chunk's least p'_j - k_j is below the clamp index; on a boundary
        well past it, almost no chunk has one.  The chunk is cut at the
        first rejected event: its fresh steps are taken and its swallow is
        not.  A rejected proposal leaves the state as it was in the scalar
        sampler too, so every event taken was drawn at its true state.

        Both arcs follow in closed form (:func:`_event_arcs`): a swallow
        past the new arc's end eats into the old arc, which only moves
        length between them, so p'_j and the coins are unchanged.  The
        chunk is also cut at tau_r, the first swallow toward the old arc
        that takes all of it, applied with the full arc rule and its hull
        record.  The old arc never grows, so that event is found by a
        sorted search.  Events past a cut are never looked at.  So a chunk
        runs to about the layer's end: sized from the state at its start,
        it holds A / (mu / 2) events clipped to [_CHUNK_MIN, _CHUNK], A the
        old arc and mu / 2 its mean loss an event, mu the mean swallow
        size.

        An event takes at most the gap clip + 1 steps, so under a step
        budget a chunk holds at most the remaining budget over that many
        events and never passes the budget.  Where not one event fits,
        the rest of the run is :meth:`run`'s, which spends the budget
        exactly and then raises.

        Scalar steps remain at perimeters below 4, taken by :meth:`step`,
        and whole segments of the run are :meth:`run`'s: layer 1 with
        volume tracked, whose tau_1 fill gives ``root_degree``, and every
        step where :func:`_block_cap` finds no K, at the critical point,
        where no finite K exists, and for alpha within about 3e-5 of it,
        where K would pass _CAP_MAX.  So there :meth:`run_fast` is
        :meth:`run`: the same draws, state, hull, root degree and budget
        error.  Scalar steps are not block steps.  Layer 1 with volume
        runs before the block law is built, so a run to tau_1
        (inv-degree's) never builds it.

        With volume tracked, the swallows of a chunk's taken events are
        then filled, in law as :meth:`step` fills them, through
        :meth:`BoltzmannFiller.fill_volumes`.  With volume off no filler
        draw is made.
        """
        filler = self.filler
        if filler is not None and self.cur_r == 1:
            # before the block law is built: a run that ends at tau_1
            # never needs it
            self.run(min(r_max, 1))
        if self.cur_r > r_max:
            return self.hull
        laws = _block_laws(self.params)
        if laws is None:
            return self.run(r_max)
        gaps, sizes, ct = laws
        rng = self.rng
        # mean arc loss of an event: half its mean swallow
        rate = (1.0 + sizes.mean) / 2
        # the most steps an event takes: its clipped gap, then its swallow
        event_max = gaps._cdf.size + 1
        last = ct.size - 1
        while self.cur_r <= r_max:
            p = self.p
            if p < _P_BLOCK:
                self.step()
                continue
            m = min(max(int(self._A / rate), _CHUNK_MIN), _CHUNK)
            if self.max_steps is not None:
                m = min(m, (self.max_steps - self.steps) // event_max)
                if not m:
                    # the budget left only shrinks, so no later event fits
                    return self.run(r_max)
            us = rng.block(3 * m)
            gs = gaps(us[:m])
            ks = sizes(us[m : 2 * m])
            ks += 1
            # swallows toward the old arc ('next')
            old = us[2 * m :] < 0.5
            nega, okn, j = _event_arcs(self._A, self._N, gs, ks, old)
            # j whole events, then event j's fresh steps and its swallow:
            # a cut at tau_r, a swallow toward the old arc that takes all
            # of it, takes the swallow; a cut at a rejected coin does not
            swallow = j < m
            # one coin for each event whose swallow leaves the perimeter
            # below the clamp index.  Events past a cut may read p' < 2:
            # the clips keep their unused ratios finite
            okp = okn - nega
            if okp.min() < last:
                at = np.flatnonzero(okp < last)
                okc = okp[at]
                den = np.minimum(np.maximum(okc + ks[at] + 1, 2), last)
                no = at[rng.block(at.size) >= ct[np.maximum(okc, 0)] / ct[den]]
                if no.size and no[0] <= j:
                    j, swallow = int(no[0]), False
            fresh = int(gs[: j + 1].sum())
            taken = fresh + j + swallow
            self.v += fresh
            if filler is not None:
                # the fills of the taken swallows, in order
                self.v += filler.fill_volumes(ks[: j + swallow] + 1, rng)
            if j:
                self._A = -int(nega[j - 1])
            self.p = p + fresh - int(ks[:j].sum())
            self._N = self.p - self._A
            self.steps += taken
            self.block_steps += taken
            if swallow:
                # event j was drawn at its true state, so its swallow is
                # an exact step; apply it with full case handling
                k = int(ks[j])
                self.p -= k
                _arc_step(
                    self, k, "next" if old[j] else "prev", self.p,
                    self.v if filler is not None else None,
                )
        return self.hull


# -- complete metric balls -----------------------------------------------


def complete_ball(engine: PeelEngine, center: int, radius: int) -> list[int]:
    """Peel until the radius-r ball around a vertex is provably final.

    Strategy: take a distance snapshot, close the fan of every boundary
    vertex the snapshot puts within the radius, repeat.  Once a snapshot
    shows every boundary vertex at distance >= radius + 1, no future
    discovery can shorten any distance <= radius, because a path leaving
    the explored map must pass through the boundary; the returned
    distance array is exact out to the radius.  (Distances only shrink
    as the map grows, which is why each round must re-snapshot, and why
    stopping is sound the moment one snapshot comes up empty.)

    The near vertices of a snapshot are the ones its search reached
    within the radius that are on the main boundary (``v_hole`` set),
    closed in order of distance, then id.  The main boundary is simple,
    so that is each near boundary vertex once, and a round costs the
    size of the ball, not of the boundary.

    Every step is an ``engine.peel_step``, spending the engine's own step
    and vertex budgets; a spent one raises its BudgetExceededError.
    """
    if radius < 0:
        raise DomainError(f"radius must be nonnegative, got {radius}")
    m = engine.map
    v_hole = m.v_hole
    while True:
        reached: list = []
        dist = m.bfs_distances(center, max_dist=radius + 1, reached=reached)
        near = sorted(
            (dist[v], v) for v in reached if v_hole[v] != -1 and dist[v] <= radius
        )
        if not near:
            return dist
        for _, v in near:
            while v_hole[v] != -1:
                engine.peel_step(v_hole[v])


# -- export, import, replay ----------------------------------------------

_COLUMNS = ("kind", "k", "side", "perimeter", "volume")
_HULL_COLUMNS = ("r", "tau", "perimeter", "volume")


def _code_digest(code) -> str:
    """map_digest: 16 hex digits of the sha256 of a canonical code's JSON."""
    return sha256(json.dumps(code).encode()).hexdigest()[:16]


def _export_meta(trace: PeelTrace) -> tuple[dict, Optional[tuple]]:
    """Meta as written, with map_digest; the map's canonical code or None."""
    if trace.map is None:
        return trace.meta, None
    code = trace.map.canonical_code()
    return {**trace.meta, "map_digest": _code_digest(code)}, code


def trace_to_csv(trace: PeelTrace) -> str:
    meta, _ = _export_meta(trace)
    lines = [f"#{TRACE_SCHEMA} {json.dumps(meta, sort_keys=True)}", ",".join(_COLUMNS)]
    for r in trace.records:
        lines.append(f"{r.kind},{r.k},{r.side or ''},{r.perimeter},{r.volume}")
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


def _check_schema(found, schema: str, what: str) -> None:
    """DomainError unless found is schema; another schema is named."""
    if found != schema:
        raise DomainError(f"this version reads {schema} {what} exports, not {found}"
                          if isinstance(found, str) else f"not a {what} export")


def _csv_rows(text: str, schema: str, columns: tuple, what: str) -> tuple[dict, list]:
    """Header metadata and data rows of a CSV export, each row split into
    one field per column."""
    lines = [ln for ln in text.splitlines() if ln]
    head, _, rest = lines[0].partition(" ") if lines else ("", "", "")
    _check_schema(head[1:] if head.startswith("#") else None, schema, what)
    meta = _json_object(rest, f"{what} header")
    if lines[1:2] != [",".join(columns)]:
        raise DomainError(f"unexpected {what} column schema")
    rows = [ln.split(",") for ln in lines[2:]]
    for f in rows:
        if len(f) != len(columns):
            raise DomainError(f"{what} row {','.join(f)!r} needs {len(columns)} fields")
    return meta, rows


def trace_from_csv(text: str) -> PeelTrace:
    """A CSV trace, with its hull series when a hull block follows it
    (sample-map's CSV on stdout, or its CSV file and OUT.hull.csv
    joined in that order)."""
    text, cut, tail = text.partition(f"\n#{HULL_SCHEMA} ")
    hull = hull_from_csv(cut[1:] + tail) if cut else None
    meta, rows = _csv_rows(text, TRACE_SCHEMA, _COLUMNS, "trace")
    try:
        records = [
            StepRecord(kind, int(k), side or None, int(p), int(v))
            for kind, k, side, p, v in rows
        ]
    except ValueError as exc:
        raise DomainError(f"malformed trace row: {exc}") from None
    _check_records(records)
    return PeelTrace(meta=meta, records=records, hull=hull)


def trace_to_json(trace: PeelTrace) -> str:
    """The one JSON trace document, as ``tripeel sample-map`` writes it:
    meta, records, hull series (if any) and final canonical code."""
    meta, code = _export_meta(trace)
    doc = {"meta": meta, "records": [asdict(r) for r in trace.records]}
    if trace.hull is not None:
        doc["hull"] = [asdict(h) for h in trace.hull]
    if code is not None:
        doc["canonical_code"] = code
    return json.dumps(doc, sort_keys=True) + "\n"


def trace_from_json(text: str) -> PeelTrace:
    doc = _json_object(text, "trace")
    meta = doc.get("meta")
    meta = meta if isinstance(meta, dict) else {}
    # a v1 sample-map document named its own schema at the top
    _check_schema(meta.get("schema", doc.get("schema")), TRACE_SCHEMA, "trace")
    try:
        records = [StepRecord(**d) for d in doc["records"]]
        hull = [HullRecord(**h) for h in doc["hull"]] if "hull" in doc else None
        _check_records(records)
        _check_hull(hull or ())
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed trace record: {exc!r}") from None
    return PeelTrace(meta=meta, records=records, hull=hull)


def hull_to_csv(hull: Sequence[HullRecord]) -> str:
    lines = [f"#{HULL_SCHEMA} {{}}", ",".join(_HULL_COLUMNS)]
    for h in hull:
        vol = h.volume if h.volume is not None else ""
        lines.append(f"{h.r},{h.tau},{h.perimeter},{vol}")
    return "\n".join(lines) + "\n"


def hull_from_csv(text: str) -> list:
    _, rows = _csv_rows(text, HULL_SCHEMA, _HULL_COLUMNS, "hull")
    try:
        hull = [HullRecord(*map(int, f[:3]), int(f[3]) if f[3] else None) for f in rows]
    except ValueError as exc:
        raise DomainError(f"malformed hull row: {exc}") from None
    _check_hull(hull)
    return hull


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
    """Re-run a trace and verify it step for step.

    Accepts a PeelTrace or any form ``tripeel sample-map`` writes: the
    JSON document, a CSV trace, or a CSV trace followed by its hull
    block.  The run is rebuilt from the recorded parameters, seed and
    selector; every reproduced step record must match the stored one,
    so must the hull series when the trace carries one, and the final
    map's canonical code must hash to the recorded ``map_digest``.
    Returns the final map, its canonical code, and the verified trace:
    the recorded meta (``map_digest`` and ``truncated`` included), records
    and hull, with the rebuilt map, so a JSON source re-exports to itself.
    """
    trace = source
    if isinstance(source, str):
        trace = (trace_from_json if source.lstrip().startswith("{") else trace_from_csv)(source)
    meta, _ = _export_meta(trace)
    if any(meta.get(key) is None for key in ("digest", "seed", "map_digest")):
        raise DomainError("trace metadata is incomplete; cannot replay")
    try:
        if not isinstance(meta["params"], dict):
            raise TypeError("trace params must be an object")
        params = _recorded_params(meta["params"], meta["digest"])
        rng = RngStream(meta["seed"], tuple(meta.get("spawn_key", ())))
        layers = meta["selector"] == "layers"
        r_max = index(meta["r_max"]) if layers else None
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed trace metadata; cannot replay: {exc!r}") from None
    if params is None:
        raise InvariantViolationError("trace parameter digest does not match")
    n = len(trace.records)
    if layers:
        rerun = run_layers(params, r_max, rng, record=True, max_steps=n)
    else:
        rerun = run_algorithm(params, meta["selector"], n, rng)
    if rerun.records != trace.records:
        raise InvariantViolationError("replay diverged from the recorded trace")
    if trace.hull is not None and rerun.hull != trace.hull:
        raise InvariantViolationError("replay hull differs from the recorded hull")
    code = rerun.map.canonical_code()
    if _code_digest(code) != meta["map_digest"]:
        raise InvariantViolationError("replay map differs from the recorded map_digest")
    verified = PeelTrace(meta=meta, records=trace.records, hull=trace.hull, map=rerun.map)
    return {"map": rerun.map, "canonical_code": code, "trace": verified}
