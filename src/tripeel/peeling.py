"""Peeling engines for the Markovian triangulations of the plane.

The exploration grows a triangulation from its root edge one peel step
at a time: a boundary edge of the current map is selected, a triangle is
glued onto it according to the perimeter-tilted step law, and any pocket
fenced off by the triangle is immediately resolved by an independent
Boltzmann filling.  Which boundary edge gets peeled is up to a pluggable
selector; the law of the perimeter and volume processes does not depend
on that choice, and the test suite leans on this both ways: map-backed
engines are coupled draw for draw against arithmetic twins that track
only (perimeter, volume), and different selectors are compared in
distribution.

Contents:

* :class:`StepSampler`, exact rejection sampling of one peel event;
* :class:`PeelEngine` plus named selectors and :func:`run_algorithm`;
* :class:`LayerEngine` and :func:`run_layers`: a :class:`PeelEngine`
  driven by the layer selector, the cyclic exploration that
  materializes hulls of balls around the root origin, with exact
  distance labels;
* :class:`ChainState` / :func:`run_chain`, the map-free twin;
* :class:`LayerChain`, the map-free layer twin, with a vectorized fast
  path for deep layer runs;
* :func:`complete_ball`, targeted peeling until a metric ball of the
  infinite map is provably complete;
* trace and hull-series containers with CSV/JSON export and replay.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .boltzmann import BoltzmannFiller
from .errors import (
    BudgetExceededError,
    DomainError,
    InvariantViolationError,
    MisuseError,
)
from .params import PeelParams, build_params, parse_rational
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
    "LayerResult",
    "ChainState",
    "LayerChain",
    "run_algorithm",
    "run_layers",
    "run_chain",
    "estimate_pi_kappa",
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
        denom = par.ctilde(p + 1)
        qcum = par._qcum
        while True:
            u = rng.u()
            idx = bisect.bisect_right(qcum, u)
            while idx >= len(qcum) and par.i_max < p - 2:
                # mass beyond the table and legal sizes not yet covered
                par.ensure_q(min(p - 2, max(2 * par.i_max, 64)))
                qcum = par._qcum
                idx = bisect.bisect_right(qcum, u)
            if idx >= len(qcum):
                continue
            if idx == 0:
                return "fresh", 0, None
            k = idx
            acc = par.ctilde(p - k) / denom
            if acc <= 0.0:
                continue
            if acc < 1.0 and rng.u() >= acc:
                continue
            side = "next" if rng.u() < 0.5 else "prev"
            return "swallow", k, side


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
    records, and the hull series when the run was layer-driven."""

    meta: dict
    records: list
    hull: Optional[list] = None
    map: Optional[TriMap] = None
    truncated: bool = False

    def perimeters(self) -> list[int]:
        return [r.perimeter for r in self.records]

    def volumes(self) -> list[int]:
        return [r.volume for r in self.records]

    def final(self) -> tuple[int, int]:
        if not self.records:
            return 2, 2
        last = self.records[-1]
        return last.perimeter, last.volume


def _check_record_invariants(rec: StepRecord, prev_p: int, prev_v: int) -> None:
    if rec.kind == "fresh":
        ok = rec.dperim == 1 and rec.k == 0
    else:
        ok = rec.dperim == -rec.k and rec.k >= 1
    if not ok or rec.perimeter != prev_p + rec.dperim or rec.perimeter < 2:
        raise InvariantViolationError(f"inconsistent step record {rec}")
    if rec.volume != prev_v + rec.dvol or rec.dvol < 0:
        raise InvariantViolationError(f"volume went backwards at {rec}")


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

    @property
    def perimeter(self) -> int:
        return self.map.perimeter

    @property
    def volume(self) -> int:
        return self.map.nv

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
            step=self.steps,
            edge=edge,
            kind=kind,
            k=k,
            side=side,
            dperim=dperim,
            dvol=dvol,
            filler=filler,
            perimeter=m.perimeter,
            volume=m.nv,
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
    algorithm: Union[str, Callable[[PeelEngine], int]],
    n_steps: int,
    rng: RngStream,
    *,
    record: bool = True,
    max_steps: Optional[int] = None,
    max_vertices: Optional[int] = None,
) -> PeelTrace:
    """Run n_steps peel steps under the given edge selector.

    The selector is either a registered name or a callable mapping the
    engine to a main-hole half-edge; it may read the explored map and
    consume engine.rng, but the step law itself never depends on the
    choice.  Returns the trace with the final map attached.
    """
    if isinstance(algorithm, str):
        try:
            select = SELECTORS[algorithm]
        except KeyError:
            raise DomainError(f"unknown selector {algorithm!r}") from None
        name = algorithm
    else:
        select = algorithm
        name = getattr(algorithm, "__name__", "custom")
    engine = PeelEngine(
        params, rng, record=record, max_steps=max_steps, max_vertices=max_vertices
    )
    for _ in range(n_steps):
        engine.peel_step(select(engine))
    trace = PeelTrace(
        meta=_trace_meta(params, rng, selector=name, driver="steps", n_steps=n_steps),
        records=engine.records if record else [],
        map=engine.map,
    )
    return trace


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

    Fresh apexes are tagged with their layer index, which equals their
    graph distance to the root origin in the final infinite map; the
    tags of already-explored vertices never change afterwards.  Peeling
    any other edge through :meth:`peel_step` voids the arc bookkeeping.
    """

    def __init__(
        self,
        params: PeelParams,
        rng: RngStream,
        *,
        record: bool = False,
        labels: bool = False,
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
        self.labels: Optional[dict] = None
        if labels:
            self.labels = {self.map.org[self.map.root]: 0, self.map.target(self.map.root): 1}

    def step(self) -> StepRecord:
        m = self.map
        first = self.steps == 0
        rec = self._peel(self.seam)
        if rec.kind == "fresh" and self.labels is not None:
            self.labels[m.org[self.cursor]] = self.cur_r
        # the opening step (fresh, as perimeter 2 forces) hands the seam
        # to the reverse root side; after that the seam is the cursor
        self.seam = m.twin[m.root] if first else self.cursor
        _arc_step(self, rec.k, rec.side, m.perimeter, m.nv)
        return rec


@dataclass
class LayerResult:
    """Outcome of a layer run: trace (records may be empty when not
    recording), hull series, final map, and a truncation flag set when a
    budget stopped the run before r_max."""

    trace: PeelTrace
    hull: list
    map: TriMap
    truncated: bool
    engine: LayerEngine

    def hull_perimeters(self) -> list[int]:
        return [h.perimeter for h in self.hull]


def run_layers(
    params: PeelParams,
    r_max: int,
    rng: RngStream,
    *,
    n_steps: Optional[int] = None,
    record: bool = False,
    labels: bool = False,
    max_steps: Optional[int] = None,
    max_vertices: Optional[int] = None,
    on_budget: str = "partial",
) -> LayerResult:
    """Explore with the layers selector until tau_{r_max} (or n_steps).

    A budget overrun either returns the partial series with
    ``truncated=True`` (default) or re-raises when on_budget='raise'.
    """
    if r_max < 1:
        raise DomainError(f"r_max must be at least 1, got {r_max}")
    if on_budget not in ("partial", "raise"):
        raise DomainError(f"on_budget must be 'partial' or 'raise', got {on_budget!r}")
    engine = LayerEngine(
        params,
        rng,
        record=record,
        labels=labels,
        max_steps=max_steps,
        max_vertices=max_vertices,
    )
    truncated = False
    try:
        while engine.cur_r <= r_max and (n_steps is None or engine.steps < n_steps):
            engine.step()
    except BudgetExceededError:
        if on_budget == "raise":
            raise
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
    )
    trace.meta["truncated"] = truncated
    return LayerResult(trace, engine.hull, engine.map, truncated, engine)


def estimate_pi_kappa(hull: Sequence[HullRecord], params: PeelParams) -> dict:
    """Rescaled-perimeter series and its terminal value.

    The boundary of the radius-r hull grows like ((alpha + delta) /
    (alpha - delta))^r times a random positive constant; multiplying by
    the reciprocal factor makes the series converge, and the last entry
    is the estimate.  Successive ratios minus one diagnose convergence.
    """
    if params.critical:
        raise DomainError("rescaled perimeters are defined for kappa < 2/27 only")
    if len(hull) < 5:
        raise DomainError(f"hull series of length {len(hull)} is too short")
    shrink = (params.alpha - params.drift) / (params.alpha + params.drift)
    rescaled = [h.perimeter * shrink ** h.r for h in hull]
    ratios = [b / a - 1.0 for a, b in zip(rescaled, rescaled[1:])]
    out = {
        "rescaled": rescaled,
        "estimate": rescaled[-1],
        "ratio_diagnostic": ratios,
    }
    last = hull[-1]
    if last.volume is not None:
        out["volume_per_boundary"] = last.volume / last.perimeter
    return out


# -- map-free twins ------------------------------------------------------


class ChainState:
    """Perimeter/volume chain identical in law (and, under an equal
    stream, identical draw for draw) to the map-backed engine."""

    __slots__ = ("params", "rng", "sampler", "filler", "p", "v", "steps")

    def __init__(self, params: PeelParams, rng: RngStream):
        self.params = params
        self.rng = rng
        self.sampler = StepSampler(params)
        self.filler = BoltzmannFiller(params)
        self.p = 2
        self.v = 2
        self.steps = 0

    def step(self, selector_draws: str = "stay") -> tuple[int, int]:
        if selector_draws == "uniform":
            self.rng.index(self.p)
        kind, k, _side = self.sampler.sample(self.p, self.rng)
        if kind == "fresh":
            self.p += 1
            self.v += 1
        else:
            self.p -= k
            self.v += self.filler.fill_volume(k + 1, self.rng)
        self.steps += 1
        return self.p, self.v


def run_chain(
    params: PeelParams,
    n_steps: int,
    rng: RngStream,
    *,
    selector_draws: str = "stay",
) -> dict:
    """Run the map-free chain; returns the full perimeter and volume
    series (index 0 is the initial state P_0 = V_0 = 2)."""
    st = ChainState(params, rng)
    ps, vs = [2], [2]
    for _ in range(n_steps):
        p, v = st.step(selector_draws)
        ps.append(p)
        vs.append(v)
    return {"perimeters": ps, "volumes": vs, "steps": st.steps}


class LayerChain:
    """Map-free twin of :class:`LayerEngine`.

    Tracks only the two arc lengths, the perimeter, the step count and
    (optionally) the volume.  With volume enabled it consumes the stream
    exactly like the map engine and produces the identical hull series;
    with volume disabled it skips the filler draws, which changes the
    realization but not the law of (tau_r, P_{tau_r}).
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
        self.cur_r = 1
        self._A = 1
        self._N = 1
        self.hull: list = []
        self.max_steps = max_steps

    def step(self) -> None:
        if self.max_steps is not None and self.steps >= self.max_steps:
            raise BudgetExceededError(
                f"peel step budget {self.max_steps} exhausted", partial=self
            )
        kind, k, side = self.sampler.sample(self.p, self.rng)
        if kind == "fresh":
            self.p += 1
            self.v += 1
        else:
            self.p -= k
            if self.filler is not None:
                self.v += self.filler.fill_volume(k + 1, self.rng)
        self.steps += 1
        _arc_step(self, k, side, self.p, self.v if self.filler is not None else None)

    def run(self, r_max: int) -> list:
        while self.cur_r <= r_max:
            self.step()
        return self.hull

    # -- vectorized deep-layer path ------------------------------------

    def run_fast(self, r_max: int, *, p_fast: int = 512, chunk: int = 1 << 16) -> list:
        """Layer run that switches to block sampling on wide boundaries.

        Valid only when the harmonic table has clamped: beyond the
        clamp index every acceptance ratio is exactly 1.0, so while
        p - k_cap stays past the clamp the tilted kernel coincides with
        the raw step law and whole chunks of i.i.d. proposals can be
        consumed at once.  Chunks are cut at the first step that could
        empty an arc; that step and narrow-boundary stretches run
        through the exact scalar sampler.
        """
        if self.filler is not None:
            raise MisuseError("fast layer runs track no volume; build with volume=False")
        clamp = self.params.ctilde_clamp_index()
        if clamp is None:
            raise MisuseError("fast layer runs need a clamped harmonic table")
        qcum = np.asarray(self.params.q_cumulative(), dtype=np.float64)
        k_cap = len(qcum) - 1
        # every acceptance ratio is exactly 1.0 while the pre-step
        # perimeter stays at or above this floor
        p_floor = clamp + k_cap
        p_fast = max(p_fast, p_floor + 2)
        rng = self.rng
        while self.cur_r <= r_max:
            if self.p < p_fast:
                self.step()
                continue
            if self.max_steps is not None and self.steps >= self.max_steps:
                raise BudgetExceededError(
                    f"peel step budget {self.max_steps} exhausted", partial=self
                )
            m = chunk
            if self.max_steps is not None:
                m = min(m, self.max_steps - self.steps)
            u = rng.block(m)
            s = rng.block(m)
            ks = np.searchsorted(qcum, u, side="right")
            # beyond-table mass is below float resolution; clip defensively
            np.minimum(ks, k_cap, out=ks)
            fresh = ks == 0
            oka = self._A - np.where(~fresh & (s < 0.5), ks, 0).cumsum()
            okn = self._N + (
                fresh.astype(np.int64) - np.where(~fresh & (s >= 0.5), ks, 0)
            ).cumsum()
            bad = (oka < 1) | (okn < 1) | (oka + okn < p_floor)
            j = int(np.argmax(bad)) if bad.any() else m
            if j > 0:
                self._A = int(oka[j - 1])
                self._N = int(okn[j - 1])
                self.steps += j
                self.p = self._A + self._N
            if j < m:
                # step j was proposed from a clean state, so it is still
                # an exact raw-law step; apply it with full case handling
                k = int(ks[j])
                self.p += 1 if k == 0 else -k
                self.steps += 1
                _arc_step(self, k, "next" if s[j] < 0.5 else "prev", self.p, None)
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


def trace_from_csv(text: str) -> PeelTrace:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or not lines[0].startswith(f"#{TRACE_SCHEMA} "):
        raise DomainError("not a trace export")
    meta = json.loads(lines[0].split(" ", 1)[1])
    if lines[1] != ",".join(_COLUMNS):
        raise DomainError("unexpected trace column schema")
    records = []
    prev_p, prev_v = 2, 2
    for ln in lines[2:]:
        f = ln.split(",")
        rec = StepRecord(
            step=int(f[0]), edge=int(f[1]), kind=f[2], k=int(f[3]),
            side=f[4] or None, dperim=int(f[5]), dvol=int(f[6]),
            filler=int(f[7]), perimeter=int(f[8]), volume=int(f[9]),
        )
        _check_record_invariants(rec, prev_p, prev_v)
        prev_p, prev_v = rec.perimeter, rec.volume
        records.append(rec)
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
    doc = json.loads(text)
    meta = doc["meta"]
    if meta.get("schema") != TRACE_SCHEMA:
        raise DomainError("not a trace export")
    records = []
    prev_p, prev_v = 2, 2
    for d in doc["records"]:
        rec = StepRecord(**d)
        _check_record_invariants(rec, prev_p, prev_v)
        prev_p, prev_v = rec.perimeter, rec.volume
        records.append(rec)
    hull = None
    if "hull" in doc:
        hull = [HullRecord(**h) for h in doc["hull"]]
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
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or not lines[0].startswith(f"#{HULL_SCHEMA} "):
        raise DomainError("not a hull export")
    meta = json.loads(lines[0].split(" ", 1)[1])
    if lines[1] != ",".join(_HULL_COLUMNS):
        raise DomainError("unexpected hull column schema")
    out = []
    prev_tau = 0
    for ln in lines[2:]:
        f = ln.split(",")
        rec = HullRecord(int(f[0]), int(f[1]), int(f[2]), int(f[3]) if f[3] else None)
        if rec.tau <= prev_tau or rec.perimeter < 2:
            raise InvariantViolationError(f"inconsistent hull record {rec}")
        prev_tau = rec.tau
        out.append(rec)
    return out, meta


def _params_from_meta(meta: dict) -> PeelParams:
    ident = meta["params"]
    if ident.get("kappa_exact"):
        return build_params(kappa=parse_rational(ident["kappa_exact"]))
    return build_params(kappa=float(ident["kappa"]))


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
    params = _params_from_meta(meta)
    if params.digest() != meta["digest"]:
        raise InvariantViolationError("trace parameter digest does not match")
    rng = RngStream(meta["seed"], tuple(meta.get("spawn_key", ())))
    n = len(trace.records)
    if meta["driver"] == "layers":
        result = run_layers(
            params, meta["r_max"], rng, n_steps=n, record=True, on_budget="raise"
        )
        rerun = result.trace
        final_map = result.map
    else:
        selector = meta.get("selector", "stay")
        if selector not in SELECTORS:
            raise MisuseError(f"cannot replay custom selector {selector!r}")
        rerun = run_algorithm(params, selector, n, rng, record=True)
        final_map = rerun.map
    if rerun.records != trace.records:
        raise InvariantViolationError("replay diverged from the recorded trace")
    return {
        "map": final_map,
        "canonical_code": final_map.canonical_code(),
        "trace": rerun,
    }
