"""Named experiment runners and their machine-readable reports.

Each runner wraps library calls into one plain dict: schema tag,
experiment name, parameter identity and digest, master seed, settings,
results.  Child tasks draw from streams forked off the master stream by
task index, so reports are bit-identical across reruns and independent
of aggregation order.  Reports carry no timestamps or host details.

The CSV form flattens the report into (path, value) rows with the values
JSON-encoded per cell; both forms round-trip losslessly.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
from collections import Counter
from typing import Callable, Optional, Sequence

import numpy as np

from .counting import count_decomposition, count_triangulations
from .errors import BudgetExceededError, DomainError
from .params import (
    PeelParams,
    drift_sum_residual,
    harmonicity_residual,
    normalization_residual,
    q_step,
    z_partition,
)
from .peeling import LayerChain, _InverseCdf, _check_schema, _json_object, complete_ball
from .rng import RngStream
from .stats import MIN_EXPECTED, chi2_two_sample, linfit, mean_ci, proportion_lower_bound
from .walk import _SPEED_MIN_STEPS, _ball_audit, run_walk_peeling, speed_estimate

REPORT_SCHEMA = "tripeel-report-v1"

# points of the intersection survival curve, evenly spaced up to n_steps
_SURVIVAL_POINTS = 20
# stationarity's re-rootings, each run on its own fork of the master stream
_REROOTINGS = ("walk", "reversed", "null")
# stationarity's chi-square keeps the 39 most frequent ball codes, pools the rest
_MAX_BALL_CATEGORIES = 40
# walk-speed's peel step budget for completing one audit ball
_MAX_BALL_STEPS = 500_000
# per-trial peel step budgets of volume-growth, layer-stats and stationarity
_VOLUME_STEPS = 5_000_000
_LAYER_STEPS = 100_000_000
_REROOT_STEPS = 200_000
# law-equivalence's selector test: steps to the joint law, and its categories
_JOINT_STEPS = 5
_MAX_JOINT_CATEGORIES = 64

__all__ = [
    "EXPERIMENTS",
    "REPORT_SCHEMA",
    "constants_report",
    "growth_targets",
    "report_from_csv",
    "report_from_json",
    "report_to_csv",
    "report_to_json",
    "run_enumeration",
    "run_experiment",
    "run_intersection",
    "run_inv_degree",
    "run_law_equivalence",
    "run_layer_stats",
    "run_stationarity",
    "run_volume_growth",
    "run_walk_speed",
]


# -- report plumbing ---------------------------------------------------------


def _report(
    name: str,
    params: Optional[PeelParams],
    rng: Optional[RngStream],
    settings: dict,
    results: dict,
) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "experiment": name,
        "params": None if params is None else {**params.identity(), "digest": params.digest()},
        "seed": None if rng is None else rng.seed,
        "spawn_key": None if rng is None else list(rng.spawn_key),
        "seed_rule": "child tasks fork the master stream by task index",
        "settings": settings,
        "results": results,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> dict:
    doc = _json_object(text, "report")
    _check_schema(doc.get("schema"), REPORT_SCHEMA, "report")
    return doc


def _flatten(node, prefix: str, out: list) -> None:
    if isinstance(node, dict) and node:
        for k in sorted(node):
            if "/" in k:
                raise DomainError(f"report key {k!r} may not contain '/'")
            _flatten(node[k], f"{prefix}/{k}", out)
    else:
        out.append((prefix, json.dumps(node, sort_keys=True)))


def report_to_csv(report: dict) -> str:
    """Flat (path, value) rows; nested dicts become /-joined paths and
    every value cell is JSON."""
    rows: list = []
    _flatten(report, "", rows)
    buf = io.StringIO()
    buf.write(f"#{REPORT_SCHEMA}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("path", "value"))
    w.writerows(rows)
    return buf.getvalue()


def report_from_csv(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != f"#{REPORT_SCHEMA}":
        raise DomainError("not a report csv")
    rdr = csv.reader(io.StringIO("\n".join(lines[1:])))
    if next(rdr, None) != ["path", "value"]:
        raise DomainError("report csv header mismatch")
    doc: dict = {}
    for row in rdr:
        if len(row) != 2:
            raise DomainError(f"malformed report row {row!r}")
        path, val = row
        parts = path.strip("/").split("/")
        node = doc
        for k in parts[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise DomainError(f"report path {path!r} runs through a value")
        try:
            node[parts[-1]] = json.loads(val)
        except ValueError:
            raise DomainError(f"report cell {path!r} is not valid JSON") from None
    _check_schema(doc.get("schema"), REPORT_SCHEMA, "report")
    return doc


# -- derived targets ---------------------------------------------------------


def growth_targets(params: PeelParams) -> dict:
    """Asymptotic layer constants implied by the step law.

    Boundary growth per layer (a + d)/(a - d), bulk per unit boundary
    a(2a - 1)/d^2, and steps per layer per unit boundary 2/(a - d).
    All three degenerate at the critical point.
    """
    if params.critical:
        raise DomainError("layer growth constants diverge at the critical kappa")
    a, d = params.alpha, params.drift
    return {
        "boundary_ratio": (a + d) / (a - d),
        "volume_per_boundary": a * (2 * a - 1) / (d * d),
        "layer_time_ratio": 2.0 / (a - d),
    }


def constants_report(params: PeelParams, *, head: int = 8) -> dict:
    """Parameter card: derived constants, table heads, identity residuals."""
    if head < 0:
        raise DomainError(f"head must be nonnegative, got {head}")
    a = params.alpha_exact if params.alpha_exact is not None else params.alpha
    q_head = [["1", params.q1]] + [
        [str(-k), float(q_step(-k, a))] for k in range(1, head + 1)
    ]
    params.ensure_ctilde(head + 1)
    ct_head = [[p, params.ctilde(p)] for p in range(2, head + 2)]
    z_head = [[p, z_partition(params.kappa_exact or params.kappa, p)] for p in range(2, head + 2)]
    results = {
        "alpha": params.alpha,
        "beta": params.beta,
        "kappa": params.kappa,
        "drift": params.drift,
        "critical": params.critical,
        "q_head": q_head,
        "ctilde_head": ct_head,
        "ctilde_limit": None if params.critical else params.ctilde_limit,
        "z_head": z_head,
        "residuals": {
            # the tail certificates are geometric and void at criticality
            "normalization": None if params.critical else normalization_residual(params),
            "drift_sum": None if params.critical else drift_sum_residual(params),
            "harmonicity_max_p": max(
                harmonicity_residual(params, p) for p in range(2, 51)
            ),
        },
    }
    return _report("constants", params, None, {"head": head}, results)


# -- experiment runners ------------------------------------------------------


_WORK = ("steps", "block_steps", "uniforms")


def _chain_work(work: dict, chain: LayerChain) -> None:
    """Add a finished trial's peel steps, block steps and uniforms drawn
    from its stream to the counts in ``work``.  They depend only on the
    coupling, the seed and the settings, so reports stay reproducible."""
    work["steps"] += chain.steps
    work["block_steps"] += chain.block_steps
    work["uniforms"] += chain.rng.n_drawn


def run_volume_growth(
    params: PeelParams,
    rng: RngStream,
    *,
    trials: int = 50,
    r_max: int = 12,
    window: Optional[Sequence[int]] = None,
) -> dict:
    """Hull growth by layers: boundary ratios and bulk per unit boundary.

    Per trial one layer chain runs to depth r_max + 1 with volume
    tracking, through :meth:`LayerChain.run_fast`: after layer 1, whose
    scalar steps give the root degree, every boundary of perimeter 4 or
    more takes block steps (with an acceptance coin for each swallow
    that leaves the perimeter below the clamp index), their fill volumes
    drawn from the filler's volume tables.  The trial statistic is the
    mean boundary ratio over the window (by default the last five layers
    up to r_max) plus the volume/boundary quotient at r_max.
    ``results.work`` sums the trials' steps, block steps and uniforms
    (see :func:`_chain_work`), and ``settings.fast_path`` records whether
    any trial took a block step.
    """
    if trials < 2:
        raise DomainError("need at least two trials")
    if r_max < 1:
        raise DomainError(f"r_max must be at least 1, got {r_max}")
    lo, hi = window or (max(1, r_max - 4), r_max)
    if not 1 <= lo <= hi <= r_max:
        raise DomainError(f"window {(lo, hi)} outside [1, {r_max}]")
    targets = growth_targets(params)
    ratio_vals, vp_vals = [], []
    work = dict.fromkeys(_WORK, 0)
    for t in range(trials):
        chain = LayerChain(params, rng.fork(t), volume=True, max_steps=_VOLUME_STEPS)
        hull = chain.run_fast(r_max + 1)
        _chain_work(work, chain)
        per = {rec.r: rec.perimeter for rec in hull}
        vol = {rec.r: rec.volume for rec in hull}
        ratio_vals.append(
            float(np.mean([per[r + 1] / per[r] for r in range(lo, hi + 1)]))
        )
        vp_vals.append(vol[r_max] / per[r_max])
    results = {
        "boundary_ratio": mean_ci(ratio_vals),
        "volume_per_boundary": mean_ci(vp_vals),
        "targets": targets,
        "per_trial": [
            {"trial": t, "boundary_ratio": r, "volume_per_boundary": v}
            for t, (r, v) in enumerate(zip(ratio_vals, vp_vals))
        ],
        "work": work,
    }
    settings = {
        "trials": trials,
        "r_max": r_max,
        "window": [lo, hi],
        "max_steps": _VOLUME_STEPS,
        "fast_path": work["block_steps"] > 0,
    }
    return _report("volume-growth", params, rng, settings, results)


def run_layer_stats(
    params: PeelParams,
    rng: RngStream,
    *,
    trials: int = 50,
    window: Sequence[int] = (6, 10),
) -> dict:
    """Steps per layer: mean of (tau_{r+1} - tau_r)/P_{tau_r} over a window.

    Volume draws are skipped, and off the critical point every boundary
    of perimeter 4 or more goes through the block sampler of
    :meth:`LayerChain.run_fast` (with an acceptance coin for each swallow
    that leaves the perimeter below the clamp index); at the critical
    point, and for alpha within about 3e-5 of it, where no swallow cap is
    affordable, every step is scalar.
    ``results.work`` sums the trials' steps, block steps and uniforms
    (see :func:`_chain_work`), and ``settings.fast_path`` records
    whether any trial took a block step.
    """
    if trials < 2:
        raise DomainError("need at least two trials")
    lo, hi = window
    if lo < 1 or hi < lo:
        raise DomainError(f"bad layer window {tuple(window)}")
    vals = []
    work = dict.fromkeys(_WORK, 0)
    for t in range(trials):
        chain = LayerChain(params, rng.fork(t), volume=False, max_steps=_LAYER_STEPS)
        hull = chain.run_fast(hi + 1)
        _chain_work(work, chain)
        by_r = {rec.r: rec for rec in hull}
        vals.append(
            float(
                np.mean(
                    [
                        (by_r[r + 1].tau - by_r[r].tau) / by_r[r].perimeter
                        for r in range(lo, hi + 1)
                    ]
                )
            )
        )
    results = {
        "layer_time_ratio": mean_ci(vals),
        "target": None if params.critical else growth_targets(params)["layer_time_ratio"],
        "per_trial": [{"trial": t, "layer_time_ratio": v} for t, v in enumerate(vals)],
        "work": work,
    }
    settings = {
        "trials": trials,
        "window": [lo, hi],
        "max_steps": _LAYER_STEPS,
        "fast_path": work["block_steps"] > 0,
    }
    return _report("layer-stats", params, rng, settings, results)


def run_walk_speed(
    params: PeelParams,
    rng: RngStream,
    *,
    walks: int = 20,
    n_steps: int = 10_000,
    audit_trials: int = 10,
    audit_radius: int = 6,
) -> dict:
    """Displacement growth of the walk along its own peeling.

    Per-walk batch-mean speeds give the t interval; the pooled fit runs
    over the mean displacement curve.  The explored-map metric is an
    upper bound that tightens as exploration grows, so the audit
    completes exact balls around the start vertex of the measured walks
    themselves, not around fresh short runs.  Each completion spends its
    walk engine's peel budget, set to allow ``_MAX_BALL_STEPS`` more
    steps; a completion that runs out raises :class:`BudgetExceededError`.
    """
    if walks < 2:
        raise DomainError("need at least two walks")
    if audit_trials < 0:
        raise DomainError(f"audit_trials={audit_trials} must be nonnegative")
    if audit_radius < 0:
        raise DomainError(f"audit_radius={audit_radius} must be nonnegative")
    if n_steps < _SPEED_MIN_STEPS:
        raise DomainError(f"need at least {_SPEED_MIN_STEPS} walk steps, got {n_steps}")
    speeds = []
    per_walk = []
    mean_curve = np.zeros(n_steps + 1)
    audited = mismatched = 0
    per_audit = []
    for w in range(walks):
        trace = run_walk_peeling(params, n_steps, rng.fork(w))
        d = trace.displacement_series()
        est = speed_estimate(trace)
        speeds.append(est["speed"])
        mean_curve += d
        per_walk.append(
            {
                "trial": w,
                "speed": est["speed"],
                "r2": est["r2"],
                "final_displacement": int(d[-1]),
                "pioneer_fraction": trace.pioneer_fraction(),
            }
        )
        if w < audit_trials:
            tot, bad = _ball_audit(trace, audit_radius, _MAX_BALL_STEPS)
            audited += tot
            mismatched += bad
            per_audit.append([tot, bad])
        # release this walk's map before the next walk builds its own
        del trace
    mean_curve /= walks
    half = n_steps // 2
    pooled = linfit(list(range(half, n_steps + 1)), mean_curve[half:].tolist())
    results = {
        "speed": mean_ci(speeds),
        "pooled_fit": pooled,
        "per_walk": per_walk,
        "audit": {
            "audited": audited,
            "mismatched": mismatched,
            "rate": mismatched / audited if audited else 0.0,
            "r0": audit_radius,
            "trials": min(audit_trials, walks),
            "n_steps": n_steps,
            "per_trial": per_audit,
        },
    }
    settings = {
        "walks": walks,
        "n_steps": n_steps,
        "audit_trials": audit_trials,
        "audit_radius": audit_radius,
    }
    return _report("walk-speed", params, rng, settings, results)


def run_inv_degree(
    params: PeelParams,
    rng: RngStream,
    *,
    trials: int = 100_000,
    max_steps_per_trial: int = 50_000,
) -> dict:
    """Mean reciprocal degree of the root origin; target 1/6 at the
    critical kappa.

    Each trial runs a layer chain until tau_1, when the origin's fan
    closes, and reads :attr:`LayerChain.root_degree`; draw for draw this
    is the map-backed layer engine peeled until the origin leaves the
    boundary, with no map built.  It runs through
    :meth:`LayerChain.run_fast`, whose layer 1 with volume tracked is
    ``run(1)`` at every coupling, a run of fresh steps and its swallow
    at a time.  Trials that exhaust the step budget are discarded and
    counted.
    """
    if trials < 2:
        raise DomainError("need at least two trials")
    vals = []
    discarded = 0
    for t in range(trials):
        chain = LayerChain(params, rng.fork(t), max_steps=max_steps_per_trial)
        try:
            chain.run_fast(1)
        except BudgetExceededError:
            discarded += 1
            continue
        vals.append(1.0 / chain.root_degree)
    if len(vals) < 2:
        raise DomainError("too few completed trials for an estimate")
    est = mean_ci(vals)
    est.update({"trials": trials, "used": len(vals), "discarded": discarded})
    results = {"inv_degree": est, "target": 1.0 / 6.0 if params.critical else None}
    settings = {"trials": trials, "max_steps_per_trial": max_steps_per_trial}
    return _report("inv-degree", params, rng, settings, results)


def run_intersection(
    params: PeelParams,
    rng: RngStream,
    *,
    trials: int = 1_000,
    n_steps: int = 1_000,
    max_peel_steps: int = 2_000_000,
) -> dict:
    """Frequency of the start vertex staying on the hull boundary.

    Per trial the walk-peeling runs to X_{n_steps} with the final
    position closed, so the explored map is the hull of the whole path;
    the event is that X_0 still lies on its boundary.  The moment the
    origin left the boundary is recorded per trial, which yields the
    whole survival curve (non-increasing by construction) and its
    terminal frequency with a one-sided 99% lower bound.  Trials that
    exhaust the peel budget are counted as truncated and left out.
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
    grid = sorted(
        {max(1, round(n_steps * i / _SURVIVAL_POINTS)) for i in range(1, _SURVIVAL_POINTS + 1)}
    )
    survival = [
        [n, sum(1 for c in closures if c is None or c > n) / used] for n in grid
    ]
    freqs = [f for _, f in survival]
    results = {
        "frequency": survive_end / used,
        "low_99": proportion_lower_bound(survive_end, used),
        "survival": survival,
        "non_increasing": all(a >= b for a, b in zip(freqs, freqs[1:])),
        "n_steps": n_steps,
        "trials": trials,
        "used": used,
        "truncated": truncated,
    }
    settings = {
        "trials": trials,
        "n_steps": n_steps,
        "survival_points": _SURVIVAL_POINTS,
        "max_peel_steps": max_peel_steps,
    }
    return _report("intersection", params, rng, settings, results)


def run_stationarity(
    params: PeelParams,
    rng: RngStream,
    *,
    trials: int = 400,
    n_steps: int = 64,
    k: int = 5,
    radius: int = 2,
) -> dict:
    """Re-rooting tests of the local law around the root edge.

    Each re-rooting mode draws its trials from its own fork of the
    master stream.  Even trials encode the radius-ball around the root
    edge; odd trials encode the ball around a re-rooted edge: the k-th
    walk edge (mode 'walk'), the reversed root edge (mode 'reversed'),
    or the root edge again (mode 'null', a calibration case).  The two
    independent samples of canonical ball codes are compared by pooled
    chi-square.  Trials whose walk and ball together exhaust the walk
    engine's peel budget are discarded and counted.
    """
    if trials < 2:
        raise DomainError("need at least two trials")
    if k < 0 or n_steps < k + 1:
        raise DomainError(f"need n_steps > k, got n_steps={n_steps} k={k}")
    if radius < 1:
        raise DomainError(f"radius={radius} must be at least 1")
    out = {}
    for i, mode in enumerate(_REROOTINGS):
        arm = rng.fork(i)
        counts = (Counter(), Counter())
        discarded = 0
        for t in range(trials):
            trace = run_walk_peeling(params, n_steps, arm.fork(t), max_peel_steps=_REROOT_STEPS)
            if trace.truncated:
                discarded += 1
                continue
            m = trace.map
            root_he = m.root
            if t % 2 and mode == "walk" and k:
                root_he = trace.move_edges[k]
            elif t % 2 and mode == "reversed":
                root_he = m.twin[m.root]
            try:
                dist = complete_ball(trace.engine, m.org[root_he], radius)
            except BudgetExceededError:
                discarded += 1
                continue
            counts[t % 2][m.ball_code(root_he, dist, radius)] += 1
        report = chi2_two_sample(*counts, max_categories=_MAX_BALL_CATEGORIES)
        del report["labels"]  # ball codes are unwieldy; table order is by frequency
        report.update({
            "trials": trials,
            "discarded": discarded,
            "mode": mode,
            "k": k,
            "radius": radius,
            "n_a": sum(counts[0].values()),
            "n_b": sum(counts[1].values()),
        })
        out[mode] = report
    settings = {
        "trials": trials,
        "n_steps": n_steps,
        "k": k,
        "radius": radius,
        "modes": list(_REROOTINGS),
        "max_peel_steps": _REROOT_STEPS,
    }
    return _report("stationarity", params, rng, settings, {"modes": out})


def _rejection_counts(
    params: PeelParams,
    arm: RngStream,
    want: int,
    horizon: int,
    survive_horizon: int,
) -> tuple:
    """Raw-step walks from 2 kept while min >= 2; counts of the value at
    the readout time, by block rejection sampling."""
    counts: Counter = Counter()
    accepted = 0
    proposed = 0
    rows = max(1, (1 << 21) // survive_horizon)
    # from 2, a swallow larger than survive_horizon kills its row whatever
    # its size, so clipping there keeps every accepted row
    cap = survive_horizon + 1
    params.ensure_q(cap)
    sizes = _InverseCdf(params.q_cumulative()[:cap])
    while accepted < want:
        u = arm.block(rows * survive_horizon).reshape(rows, survive_horizon)
        ks = sizes(u)
        steps = np.where(ks == 0, 1, -ks).astype(np.int64)
        xi = 2 + np.cumsum(steps, axis=1)
        ok = (xi >= 2).all(axis=1)
        vals = xi[ok, horizon - 1]
        if accepted + vals.size > want:
            vals = vals[: want - accepted]
        uniq, cnt = np.unique(vals, return_counts=True)
        for v, c in zip(uniq.tolist(), cnt.tolist()):
            counts[str(int(v))] += int(c)
        accepted += int(vals.size)
        proposed += rows
    return counts, proposed


def run_law_equivalence(
    params: PeelParams,
    rng: RngStream,
    *,
    runs: int = 100_000,
    horizon: int = 10,
    survive_horizon: int = 150,
) -> dict:
    """Two distribution-equality tests on the perimeter chain.

    Selector invariance: the joint (perimeter, volume) law after a few
    steps of :class:`LayerChain` is the same with and without the uniform
    selector's one draw before each step, although the streams differ; the
    map engine follows the chain draw for draw under either selector (the
    coupling tests).  Conditioned walk: the perimeter at the horizon, from
    a chain run without volume (so it draws no fills), matches the raw
    step walk started at 2 and conditioned to stay at or above 2,
    rejection-sampled over a horizon long enough that later dips are
    beyond float resolution.
    """
    if runs < 1000:
        raise DomainError("law comparisons need at least 1000 runs per arm")
    if horizon < 1:
        raise DomainError(f"horizon={horizon} must be at least 1")
    if survive_horizon < horizon:
        raise DomainError("survival horizon shorter than the readout time")
    joint_counts = []
    for arm_i in range(2):  # stay, then uniform
        arm = rng.fork(arm_i)
        c: Counter = Counter()
        for _ in range(runs):
            chain = LayerChain(params, arm)
            for _ in range(_JOINT_STEPS):
                if arm_i:
                    arm.index(chain.p)  # the uniform selector's draw
                chain.step()
            c[f"{chain.p},{chain.v}"] += 1
        joint_counts.append(c)
    selector_test = chi2_two_sample(*joint_counts, max_categories=_MAX_JOINT_CATEGORIES)

    arm = rng.fork(2)
    cp: Counter = Counter()
    for _ in range(runs):
        chain = LayerChain(params, arm, volume=False)
        for _ in range(horizon):
            chain.step()
        cp[str(chain.p)] += 1
    cx, proposed = _rejection_counts(params, rng.fork(3), runs, horizon, survive_horizon)
    conditioned_test = chi2_two_sample(cp, cx)
    conditioned_test.update(
        {
            "accepted": runs,
            "proposed": proposed,
            "acceptance_rate": runs / proposed,
        }
    )
    results = {
        "selector_invariance": selector_test,
        "conditioned_walk": conditioned_test,
    }
    settings = {
        "runs": runs,
        "joint_steps": _JOINT_STEPS,
        "horizon": horizon,
        "survive_horizon": survive_horizon,
        "min_expected": MIN_EXPECTED,
        "max_categories": _MAX_JOINT_CATEGORIES,
    }
    return _report("law-equivalence", params, rng, settings, results)


def run_enumeration(
    params: Optional[PeelParams] = None,
    rng: Optional[RngStream] = None,
    *,
    max_total: int = 10,
) -> dict:
    """Closed-formula counts against the root-edge recursion, all (n, p)
    with n + p <= max_total."""
    if max_total < 3:
        raise DomainError("need max_total >= 3 for at least one table row")
    rows = []
    mismatches = 0
    for p in range(2, max_total + 1):
        for n in range(0, max_total - p + 1):
            closed = count_triangulations(n, p)
            oracle = count_decomposition(n, p)
            equal = closed == oracle
            mismatches += not equal
            rows.append(
                {"n": n, "p": p, "closed": closed, "decomposition": oracle, "equal": equal}
            )
    results = {"rows": rows, "mismatches": mismatches}
    return _report("enumerate", params, rng, {"max_total": max_total}, results)


EXPERIMENTS: dict = {
    "volume-growth": run_volume_growth,
    "layer-stats": run_layer_stats,
    "walk-speed": run_walk_speed,
    "inv-degree": run_inv_degree,
    "intersection": run_intersection,
    "stationarity": run_stationarity,
    "law-equivalence": run_law_equivalence,
    "enumerate": run_enumeration,
}


def run_experiment(
    name: str,
    params: Optional[PeelParams],
    rng: Optional[RngStream],
    **overrides,
) -> dict:
    runner: Optional[Callable] = EXPERIMENTS.get(name)
    if runner is None:
        raise DomainError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    takes = [
        p.name
        for p in inspect.signature(runner).parameters.values()
        if p.kind is p.KEYWORD_ONLY
    ]
    unknown = sorted(set(overrides) - set(takes))
    if unknown:
        raise DomainError(
            f"experiment {name!r} does not take {', '.join(unknown)}; "
            f"it takes {', '.join(takes)}"
        )
    if name != "enumerate" and (params is None or rng is None):
        raise DomainError(f"experiment {name!r} needs parameters and a seed")
    return runner(params, rng, **overrides)
