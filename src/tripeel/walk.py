"""Simple random walk on the lazily peeled triangulation.

The walk and the exploration are interleaved by one rule: while the
walker's current position lies on the boundary of the explored map, a
peel step is spent at that position; once the position is interior its
full fan is known and the walker moves through a uniformly random
outgoing half-edge (multi-edges counted with multiplicity).  The step
is legal exactly because closure of the fan was forced first.

The walk path starts along the root edge itself: X_0 is its origin,
X_1 its target, and the first move is made from X_1.  The move count
g therefore starts at 1, and the run stops once g reaches the requested
number of steps.

A position that lands on the explored boundary is a pioneer point: it
is exactly there that fresh territory must be opened before the walk
can continue, and the operational flag coincides with the geometric
statement that the walker sits on the boundary of the hull of its past
positions.

Distances reported by a trace are measured inside the finally explored
map.  They upper-bound true graph distances; the ``audit`` of the
walk-speed experiment quantifies the gap at small radii by completing
exact metric balls around X_0 (:func:`_ball_audit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, DomainError
from .params import PeelParams
from .peeling import PeelEngine, complete_ball
from .planarmap import TriMap
from .rng import RngStream
from .stats import batch_slopes, linfit, mean_ci

__all__ = [
    "WalkTrace",
    "run_walk_peeling",
    "speed_estimate",
]

_SPEED_MIN_STEPS = 1000  # the shortest walk a speed estimate takes


@dataclass
class WalkTrace:
    """One interleaved walk-and-peel run.

    positions[m] is X_m; pioneer[m] says whether X_m landed on the
    explored boundary (index 0 is never a landing).  move_edges[m] is
    the half-edge traversed from X_m to X_{m+1}; move_edges[0] is the
    root edge's id at the start (a 2-gon closure may later move the
    root).  x0_closed is the move count g at the first peel
    after which X_0 was off the explored boundary (None while it is
    still on it).
    """

    positions: list
    pioneer: list
    move_edges: list
    map: TriMap
    engine: PeelEngine
    x0: int
    truncated: bool = False
    x0_closed: Optional[int] = None
    _disp: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.positions) - 1

    def displacement_series(self) -> np.ndarray:
        """d(n) = distance from X_0 to X_n inside the explored map."""
        if self._disp is None:
            dist = self.map.bfs_distances(self.x0)
            self._disp = np.array([dist[v] for v in self.positions], dtype=np.int64)
            if (self._disp < 0).any():
                raise DomainError("walk position outside the explored component")
        return self._disp

    def pioneer_fraction(self) -> float:
        return sum(self.pioneer[1:]) / max(1, self.n_steps)


def run_walk_peeling(
    params: PeelParams,
    n_steps: int,
    rng: RngStream,
    *,
    close_final: bool = False,
    max_peel_steps: Optional[int] = None,
) -> WalkTrace:
    """Walk n_steps positions past X_0, peeling on demand.

    close_final additionally peels until the last position is interior,
    which makes the explored map exactly the hull of all positions.  A
    budget overrun stops the run early and flags the trace truncated.
    """
    if n_steps < 1:
        raise DomainError(f"need at least one walk step, got {n_steps}")
    engine = PeelEngine(params, rng, record=False, max_steps=max_peel_steps)
    m = engine.map
    # the arena's lists are extended in place, so these stay current
    v_hole, v_out, nxt, twin, org = m.v_hole, m.v_out, m.nxt, m.twin, m.org
    peel, index = engine.peel_step, rng.index
    x0 = org[m.root]
    pos = org[twin[m.root]]
    positions = [x0, pos]
    pioneer = [False, v_hole[pos] != -1]
    move_edges = [m.root]
    g = 1
    x0_closed = None
    truncated = False
    try:
        while g < n_steps or (close_final and v_hole[pos] != -1):
            if v_hole[pos] != -1:
                peel(v_hole[pos])
                if x0_closed is None and v_hole[x0] == -1:
                    x0_closed = g
            else:
                # the fan of pos, as TriMap.out_half_edges lists it
                h0 = v_out[pos]
                fan = [h0]
                h = nxt[twin[h0]]
                while h != h0:
                    fan.append(h)
                    h = nxt[twin[h]]
                he = fan[index(len(fan))]
                pos = org[twin[he]]
                positions.append(pos)
                move_edges.append(he)
                pioneer.append(v_hole[pos] != -1)
                g += 1
    except BudgetExceededError:
        truncated = True
    return WalkTrace(
        positions=positions,
        pioneer=pioneer,
        move_edges=move_edges,
        map=m,
        engine=engine,
        x0=x0,
        truncated=truncated,
        x0_closed=x0_closed,
    )


def speed_estimate(trace: WalkTrace) -> dict:
    """Displacement growth rate over the second half of a trace of at
    least 1000 steps.

    Returns the batch-means estimate with a t interval plus a straight
    least-squares fit and its R^2.  The distance is explored-map
    distance, an upper bound on the true metric; the walk-speed
    experiment's ``audit`` measures the gap.
    """
    n = trace.n_steps
    if n < _SPEED_MIN_STEPS:
        raise DomainError(f"trace of {n} steps is too short for a speed estimate")
    d = trace.displacement_series()
    half = n // 2
    ns = list(range(half, n + 1))
    ys = d[half:].tolist()
    slopes = batch_slopes(ns, ys)
    ci = mean_ci(slopes)
    fit = linfit(ns, ys)
    return {
        "speed": ci["mean"],
        "low": ci["low"],
        "high": ci["high"],
        "se": ci["se"],
        "batches": len(slopes),
        "fit_slope": fit["slope"],
        "r2": fit["r2"],
        "n": n,
    }


def _ball_audit(trace: WalkTrace, radius: int, max_steps: int) -> tuple:
    """Complete the exact radius ball around X_0 and count the walk
    moments whose explored distance is at most the radius (audited) and,
    of those, the ones whose true distance differs (mismatched).

    The explored distances are read before the completion peels further,
    so the extra peeling cannot shorten them.  The completion spends the
    walk engine's budget: its step budget is set (replacing any) to allow
    max_steps more peel steps, and running out raises the engine's
    :class:`BudgetExceededError`.
    """
    d = trace.displacement_series()
    engine = trace.engine
    engine.max_steps = engine.steps + max_steps
    true_dist = complete_ball(engine, trace.x0, radius)
    audited = mismatched = 0
    for n, v in enumerate(trace.positions):
        if d[n] <= radius:
            audited += 1
            mismatched += int(d[n] != true_dist[v])
    return audited, mismatched
