"""Simple random walk on the lazily peeled triangulation.

The walk and the exploration are interleaved by one rule: while the
walker's current position lies on the boundary of the explored map, a
peel step is spent at that position; once the position is interior its
full fan is known and the walker moves through a uniformly random
outgoing half-edge (multi-edges counted with multiplicity).  The step
is legal exactly because closure of the fan was forced first.

The walk path starts along the root edge itself: X_0 is its origin,
X_1 its target, and the first move is made from X_1.  Counters f and g
track peel and move operations, f(0) = 0 and g(0) = 1, so f + g always
equals the operation count plus one.

A position that lands on the explored boundary is a pioneer point: it
is exactly there that fresh territory must be opened before the walk
can continue, and the operational flag coincides with the geometric
statement that the walker sits on the boundary of the hull of its past
positions (:func:`pioneer_audit` verifies the equivalence on a trace).

Distances reported by a trace are measured inside the finally explored
map.  They upper-bound true graph distances; :func:`distance_audit`
quantifies the gap at small radii by completing exact metric balls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, DomainError
from .params import PeelParams
from .peeling import LayerEngine, PeelEngine, complete_ball
from .planarmap import FLAG_TRIANGLE, TriMap, extract_submap
from .rng import RngStream
from .stats import (
    batch_slopes,
    chi2_two_sample,
    linfit,
    mean_ci,
    proportion_lower_bound,
)

WALK_SCHEMA = "tripeel-walk-v1"

__all__ = [
    "WalkTrace",
    "run_walk_peeling",
    "speed_estimate",
    "range_growth",
    "intersection_experiment",
    "estimate_inv_degree",
    "stationarity_test",
    "pioneer_audit",
    "distance_audit",
    "walk_to_csv",
    "walk_to_json",
]


@dataclass
class WalkTrace:
    """One interleaved walk-and-peel run.

    positions[m] is X_m; pioneer[m] says whether X_m landed on the
    explored boundary (index 0 is never a landing).  move_edges[m] is
    the half-edge traversed from X_m to X_{m+1}; the root edge itself
    is move_edges[0].  f_series/g_series hold the counters after each
    operation.  x0_closed is the move count g at the first peel after
    which X_0 was off the explored boundary (None while it is still on
    it).
    """

    meta: dict
    positions: list
    pioneer: list
    move_edges: list
    f_series: list
    g_series: list
    map: TriMap
    engine: PeelEngine
    x0: int
    truncated: bool = False
    x0_closed: Optional[int] = None
    _disp: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.positions) - 1

    @property
    def f(self) -> int:
        return self.f_series[-1] if self.f_series else 0

    @property
    def g(self) -> int:
        return self.g_series[-1] if self.g_series else 1

    def displacement_series(self) -> np.ndarray:
        """d(n) = distance from X_0 to X_n inside the explored map."""
        if self._disp is None:
            dist = self.map.bfs_distances(self.x0)
            self._disp = np.array([dist[v] for v in self.positions], dtype=np.int64)
            if (self._disp < 0).any():
                raise DomainError("walk position outside the explored component")
        return self._disp

    def range_series(self) -> np.ndarray:
        """#[distinct vertices among X_0..X_n] for every n."""
        seen: set = set()
        out = np.empty(len(self.positions), dtype=np.int64)
        for i, v in enumerate(self.positions):
            seen.add(v)
            out[i] = len(seen)
        return out

    def pioneer_fraction(self) -> float:
        return sum(self.pioneer[1:]) / max(1, self.n_steps)


def run_walk_peeling(
    params: PeelParams,
    n_steps: int,
    rng: RngStream,
    *,
    record_peels: bool = False,
    close_final: bool = False,
    max_peel_steps: Optional[int] = None,
    max_vertices: Optional[int] = None,
) -> WalkTrace:
    """Walk n_steps positions past X_0, peeling on demand.

    close_final additionally peels until the last position is interior,
    which makes the explored map exactly the hull of all positions.  A
    budget overrun stops the run early and flags the trace truncated.
    """
    if n_steps < 1:
        raise DomainError(f"need at least one walk step, got {n_steps}")
    engine = PeelEngine(
        params, rng, record=record_peels,
        max_steps=max_peel_steps, max_vertices=max_vertices,
    )
    m = engine.map
    x0 = m.org[m.root]
    x1 = m.target(m.root)
    positions = [x0, x1]
    pioneer = [False, m.v_hole[x1] != -1]
    move_edges = [m.root]
    f_series: list = []
    g_series: list = []
    f, g = 0, 1
    x0_closed = None
    truncated = False
    try:
        while g < n_steps or (close_final and m.v_hole[positions[-1]] != -1):
            pos = positions[-1]
            if m.v_hole[pos] != -1:
                engine.peel_step(m.v_hole[pos])
                f += 1
                if x0_closed is None and m.v_hole[x0] == -1:
                    x0_closed = g
            else:
                fan = m.out_half_edges(pos)
                he = fan[rng.index(len(fan))]
                positions.append(m.target(he))
                move_edges.append(he)
                pioneer.append(m.v_hole[positions[-1]] != -1)
                g += 1
            f_series.append(f)
            g_series.append(g)
    except BudgetExceededError:
        truncated = True
    meta = {
        "schema": WALK_SCHEMA,
        "params": params.identity(),
        "digest": params.digest(),
        "seed": rng.seed,
        "spawn_key": list(rng.spawn_key),
        "n_steps": n_steps,
        "truncated": truncated,
    }
    return WalkTrace(
        meta=meta,
        positions=positions,
        pioneer=pioneer,
        move_edges=move_edges,
        f_series=f_series,
        g_series=g_series,
        map=m,
        engine=engine,
        x0=x0,
        truncated=truncated,
        x0_closed=x0_closed,
    )


def speed_estimate(trace: WalkTrace, *, n_batches: int = 8, min_len: int = 1000) -> dict:
    """Displacement growth rate over the second half of the trace.

    Returns the batch-means estimate with a t interval plus a straight
    least-squares fit and its R^2.  The distance is explored-map
    distance, an upper bound on the true metric; see distance_audit.
    """
    n = trace.n_steps
    if n < min_len:
        raise DomainError(f"trace of {n} steps is too short for a speed estimate")
    d = trace.displacement_series()
    half = n // 2
    ns = list(range(half, n + 1))
    ys = d[half:].tolist()
    slopes = batch_slopes(ns, ys, n_batches)
    ci = mean_ci(slopes, level=0.99)
    fit = linfit(ns, ys)
    return {
        "speed": ci["mean"],
        "low": ci["low"],
        "high": ci["high"],
        "se": ci["se"],
        "batches": n_batches,
        "fit_slope": fit["slope"],
        "r2": fit["r2"],
        "n": n,
    }


def range_growth(trace: WalkTrace, *, n_batches: int = 8) -> dict:
    """Linear growth rate of the range, with a first/second half split."""
    n = trace.n_steps
    if n < 2 * (n_batches + 1):
        raise DomainError(f"trace of {n} steps is too short for a range estimate")
    r = trace.range_series()
    half = n // 2
    second = batch_slopes(list(range(half, n + 1)), r[half:].tolist(), n_batches)
    first = batch_slopes(list(range(0, half + 1)), r[: half + 1].tolist(), n_batches)
    ci = mean_ci(second, level=0.99)
    return {
        "eta": ci["mean"],
        "low": ci["low"],
        "high": ci["high"],
        "first_half": float(np.mean(first)),
        "second_half": ci["mean"],
        "n": n,
    }


def intersection_experiment(
    params: PeelParams,
    n_steps: int,
    trials: int,
    rng: RngStream,
    *,
    survival_points: int = 20,
    max_peel_steps: Optional[int] = None,
) -> dict:
    """Frequency of the root origin staying on the hull boundary.

    Per trial the walk-peeling runs to X_{n_steps} with the final
    position closed, so the explored map is the hull of the whole path;
    the event is that X_0 still lies on its boundary.  The moment the
    origin left the boundary is recorded per trial, which yields the
    whole survival curve (non-increasing by construction) and its
    terminal frequency with a one-sided 99% lower bound.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    closures = []
    truncated = 0
    for t in range(trials):
        trace = run_walk_peeling(
            params, n_steps, rng.fork(t), close_final=True, max_peel_steps=max_peel_steps
        )
        if trace.truncated:
            truncated += 1
        else:
            closures.append(trace.x0_closed)
    used = len(closures)
    if used == 0:
        raise DomainError("every trial exceeded its budget")
    survive_end = sum(1 for c in closures if c is None)
    grid = sorted({max(1, round(n_steps * i / survival_points)) for i in range(1, survival_points + 1)})
    survival = [
        (n, sum(1 for c in closures if c is None or c > n) / used) for n in grid
    ]
    freq = survive_end / used
    return {
        "frequency": freq,
        "low_99": proportion_lower_bound(survive_end, used, level=0.99),
        "survival": survival,
        "n_steps": n_steps,
        "trials": trials,
        "used": used,
        "truncated": truncated,
    }


def estimate_inv_degree(
    params: PeelParams,
    trials: int,
    rng: RngStream,
    *,
    max_steps_per_trial: int = 50_000,
) -> dict:
    """Mean reciprocal degree of the root origin, by layer peeling.

    Each trial peels with the layer rule until the origin's fan closes
    (pocket fillings keep every off-boundary fan complete, so leaving
    the boundary is closure).  Trials that exhaust the step budget are
    discarded and counted.
    """
    if trials < 2:
        raise DomainError("need at least two trials")
    vals = []
    discarded = 0
    for t in range(trials):
        trial_rng = rng.fork(t)
        eng = LayerEngine(params, trial_rng, record=False, max_steps=max_steps_per_trial)
        m = eng.map
        origin = m.org[m.root]
        try:
            while m.v_hole[origin] != -1:
                eng.step()
        except BudgetExceededError:
            discarded += 1
            continue
        vals.append(1.0 / m.degree(origin))
    if len(vals) < 2:
        raise DomainError("too few completed trials for an estimate")
    ci = mean_ci(vals, level=0.99)
    ci.update({"trials": trials, "used": len(vals), "discarded": discarded})
    return ci


# -- re-rooting test -------------------------------------------------------


def _ball_code(engine: PeelEngine, root_he: int, radius: int, max_steps: int) -> tuple:
    """Canonical code of the radius-ball submap around org(root_he)."""
    m = engine.map
    center = m.org[root_he]
    dist = complete_ball(engine, center, radius, max_steps=max_steps)
    keep = set()
    for h in m.alive_half_edges():
        if m.hflag[h] != FLAG_TRIANGLE:
            continue
        a, b, c = m.org[h], m.org[m.nxt[h]], m.org[m.nxt[m.nxt[h]]]
        if all(0 <= dist[v] <= radius for v in (a, b, c)):
            keep.add(h)
    sub, hmap = extract_submap(m, keep, root_he)
    return sub.canonical_code(hmap[root_he])


def stationarity_test(
    params: PeelParams,
    n_steps: int,
    trials: int,
    rng: RngStream,
    *,
    k: int = 5,
    radius: int = 2,
    mode: str = "walk",
    max_peel_steps: int = 200_000,
    max_categories: int = 40,
) -> dict:
    """Two-sample test that re-rooting preserves the local law.

    Even trials encode the radius-ball around the root edge; odd trials
    encode the ball around a re-rooted edge: the k-th walk edge
    (mode='walk'), the reversed root edge (mode='reversed'), or the
    root edge again (mode='null', a calibration case).  The two
    independent samples of canonical ball codes are compared by pooled
    chi-square.
    """
    if mode not in ("walk", "reversed", "null"):
        raise DomainError(f"unknown stationarity mode {mode!r}")
    if mode == "walk" and (k < 0 or n_steps < k + 1):
        raise DomainError(f"need n_steps > k, got n_steps={n_steps} k={k}")
    counts_a: dict = {}
    counts_b: dict = {}
    discarded = 0
    for t in range(trials):
        trial_rng = rng.fork(t)
        trace = run_walk_peeling(
            params, n_steps, trial_rng, max_peel_steps=max_peel_steps
        )
        if trace.truncated:
            discarded += 1
            continue
        m = trace.map
        if t % 2 == 0:
            root_he = m.root
        elif mode == "walk":
            root_he = m.root if k == 0 else trace.move_edges[k]
        elif mode == "reversed":
            root_he = m.twin[m.root]
        else:
            root_he = m.root
        try:
            code = _ball_code(trace.engine, root_he, radius, max_peel_steps)
        except BudgetExceededError:
            discarded += 1
            continue
        bucket = counts_a if t % 2 == 0 else counts_b
        bucket[code] = bucket.get(code, 0) + 1
    report = chi2_two_sample(counts_a, counts_b, max_categories=max_categories)
    report.update({
        "trials": trials,
        "discarded": discarded,
        "mode": mode,
        "k": k,
        "radius": radius,
        "n_a": sum(counts_a.values()),
        "n_b": sum(counts_b.values()),
    })
    del report["labels"]  # ball codes are unwieldy; table order is by frequency
    return report


# -- audits ----------------------------------------------------------------


def pioneer_audit(trace: WalkTrace) -> dict:
    """Check pioneer flags against the hull-boundary characterization.

    For every position index m, the operational flag (X_m landed on the
    explored boundary) must equal the geometric statement that X_m lies
    on the boundary of the hull of X_1..X_{m-1}: the faces incident to
    earlier positions plus the finite components they enclose.  The
    audit closes every visited fan first so the hull is computable in
    the final map, then rebuilds each hull's outer component directly.
    """
    engine = trace.engine
    m = trace.map
    for v in set(trace.positions):
        while m.v_hole[v] != -1:
            engine.peel_step(m.v_hole[v])

    def face_of(h: int) -> int:
        return min(h, m.nxt[h], m.nxt[m.nxt[h]])

    def faces_at(v: int) -> list:
        return [face_of(h) for h in m.out_half_edges(v)]

    mismatches = []
    for idx in range(1, len(trace.positions)):
        x = trace.positions[idx]
        past = trace.positions[1:idx]
        if not past:
            # the hull of nothing is the root edge; its boundary is both ends
            geometric = x in (trace.x0, trace.positions[1])
        else:
            hull_faces = {f for v in set(past) for f in faces_at(v)}
            # flood the complement from the unexplored side: a face is
            # outside the hull iff it reaches the main hole off-hull
            outside: set = set()
            stack = []
            for h in m.alive_half_edges():
                if m.hflag[h] == FLAG_TRIANGLE:
                    continue
                t = m.twin[h]
                if m.hflag[t] == FLAG_TRIANGLE:
                    f = face_of(t)
                    if f not in hull_faces and f not in outside:
                        outside.add(f)
                        stack.append(f)
            while stack:
                f = stack.pop()
                for h in (f, m.nxt[f], m.nxt[m.nxt[f]]):
                    t = m.twin[h]
                    if m.hflag[t] != FLAG_TRIANGLE:
                        continue
                    g2 = face_of(t)
                    if g2 not in hull_faces and g2 not in outside:
                        outside.add(g2)
                        stack.append(g2)
            geometric = m.v_hole[x] != -1 or any(
                f in outside for f in faces_at(x)
            )
        if bool(trace.pioneer[idx]) != bool(geometric):
            mismatches.append(idx)
    return {"checked": len(trace.positions) - 1, "mismatches": mismatches}


def _ball_audit(trace: WalkTrace, radius: int, max_steps: Optional[int]) -> tuple:
    """Complete the exact radius ball around X_0 and count the walk
    moments whose explored distance is at most the radius (audited) and,
    of those, the ones whose true distance differs (mismatched).

    The explored distances are read before the completion peels further,
    so the extra peeling cannot shorten them.
    """
    d = trace.displacement_series()
    true_dist = complete_ball(trace.engine, trace.x0, radius, max_steps=max_steps)
    audited = mismatched = 0
    for n, v in enumerate(trace.positions):
        if d[n] <= radius:
            audited += 1
            mismatched += int(d[n] != true_dist[v])
    return audited, mismatched


def distance_audit(
    params: PeelParams,
    rng: RngStream,
    *,
    trials: int = 10,
    n_steps: int = 200,
    r0: int = 6,
    max_ball_steps: int = 200_000,
) -> dict:
    """Gap between explored-map distance and true distance near X_0.

    Runs short walks, then completes the exact metric ball of radius r0
    around X_0; every walk moment whose explored distance is at most r0
    is compared with the true distance.  Returns the discrepancy rate.
    """
    audited = 0
    mismatched = 0
    per_trial = []
    for t in range(trials):
        trace = run_walk_peeling(params, n_steps, rng.fork(t))
        tot, bad = _ball_audit(trace, r0, max_ball_steps)
        audited += tot
        mismatched += bad
        per_trial.append((tot, bad))
    return {
        "audited": audited,
        "mismatched": mismatched,
        "rate": mismatched / audited if audited else 0.0,
        "r0": r0,
        "trials": trials,
        "n_steps": n_steps,
        "per_trial": per_trial,
    }


# -- export ------------------------------------------------------------------

_WALK_COLUMNS = ("op", "kind", "f", "g", "vertex", "pioneer", "perimeter", "volume")


def walk_to_csv(trace: WalkTrace) -> str:
    """Operation log: peel rows carry the running perimeter and volume
    (when the peel records were kept); move rows add the walk columns."""
    head = json.dumps(trace.meta, sort_keys=True)
    lines = [f"#{WALK_SCHEMA} {head}", ",".join(_WALK_COLUMNS)]
    recs = trace.engine.records
    g_prev = 1
    for op, (f, g) in enumerate(zip(trace.f_series, trace.g_series), start=1):
        if g > g_prev:
            v = trace.positions[g]
            lines.append(f"{op},move,{f},{g},{v},{int(trace.pioneer[g])},,")
        else:
            pv = f"{recs[f - 1].perimeter},{recs[f - 1].volume}" if recs else ","
            lines.append(f"{op},peel,{f},{g},,,{pv}")
        g_prev = g
    return "\n".join(lines) + "\n"


def walk_to_json(trace: WalkTrace) -> str:
    doc = {
        "meta": trace.meta,
        "positions": trace.positions,
        "pioneer": [int(b) for b in trace.pioneer],
        "f": trace.f_series,
        "g": trace.g_series,
        "displacement": trace.displacement_series().tolist(),
        "range": trace.range_series().tolist(),
    }
    return json.dumps(doc, sort_keys=True)
