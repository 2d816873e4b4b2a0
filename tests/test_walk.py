"""Walk-and-peel tests: counters, pioneer geometry, estimators, audits."""

from fractions import Fraction

import numpy as np
import pytest

from tripeel import BudgetExceededError, DomainError, RngStream, build_params
from tripeel.walk import _ball_audit, run_walk_peeling, speed_estimate

from oracles import pioneer_audit, target

PAR = build_params(kappa=Fraction(9, 128))


def test_counters_and_start_convention():
    trace = run_walk_peeling(PAR, 200, RngStream(101, (0,)))
    m = trace.map
    assert trace.positions[0] == trace.x0 == m.org[m.root]
    assert trace.positions[1] == target(m, m.root)
    assert trace.pioneer[0] is False
    assert trace.pioneer[1] is True  # the first pioneer point
    assert trace.n_steps == 200
    assert len(trace.move_edges) == trace.n_steps
    # move_edges[i] runs from X_i to X_{i+1}; the root edge's id is not
    # stable (a 2-gon closure can move the root), the moves' ids are
    for i in range(1, trace.n_steps):
        he = trace.move_edges[i]
        assert (m.org[he], target(m, he)) == (trace.positions[i], trace.positions[i + 1])
    m.validate()


def test_displacement_is_lipschitz_path_bound():
    trace = run_walk_peeling(PAR, 300, RngStream(103, (1,)))
    d = trace.displacement_series()
    assert d[0] == 0 and d[1] == 1
    assert all(int(d[n]) <= n for n in range(len(d)))
    assert all(abs(int(b) - int(a)) <= 1 for a, b in zip(d, d[1:]))


def test_pioneer_flag_matches_hull_boundary():
    for seed in (107, 109):
        trace = run_walk_peeling(PAR, 25, RngStream(seed, (2,)))
        audit = pioneer_audit(trace)
        assert audit["mismatches"] == []
        assert audit["checked"] == 25


def test_speed_estimate():
    trace = run_walk_peeling(PAR, 1500, RngStream(127, (4,)))
    est = speed_estimate(trace)
    assert est["low"] <= est["speed"] <= est["high"]
    assert 0 < est["speed"] < 1
    with pytest.raises(DomainError):
        speed_estimate(run_walk_peeling(PAR, 50, RngStream(127, (5,))))
    # a walker that never moves away has speed exactly zero
    trace._disp = np.zeros(trace.n_steps + 1, dtype=np.int64)
    frozen = speed_estimate(trace)
    assert frozen["speed"] == 0.0 and frozen["se"] == 0.0


def test_distance_audit_clean_at_small_radius():
    rng = RngStream(163, (13,))
    audited = mismatched = 0
    for t in range(4):
        tot, bad = _ball_audit(run_walk_peeling(PAR, 120, rng.fork(t)), 5, 200_000)
        audited += tot
        mismatched += bad
    assert audited > 50
    assert mismatched / audited <= 0.02


def test_ball_audit_spends_the_walk_engines_budget():
    """The audit's allowance is a step budget on the walk engine: it
    stops exactly that many steps past the walk, with the engine as the
    partial result, and a roomy allowance finishes the ball."""
    trace = run_walk_peeling(PAR, 300, RngStream(67, (6,)))
    walked = trace.engine.steps
    with pytest.raises(BudgetExceededError) as exc:
        _ball_audit(trace, 6, 5)
    assert exc.value.partial is trace.engine
    assert trace.engine.steps == walked + 5
    trace = run_walk_peeling(PAR, 300, RngStream(67, (6,)))
    assert _ball_audit(trace, 6, 500_000) == (30, 2)
    assert trace.engine.steps == 90_958


def test_budget_truncates_trace():
    trace = run_walk_peeling(PAR, 5000, RngStream(167, (14,)), max_peel_steps=40)
    assert trace.truncated
    assert trace.n_steps < 5000


def test_close_final_interiorizes_last_position():
    trace = run_walk_peeling(PAR, 40, RngStream(173, (15,)), close_final=True)
    assert trace.map.v_hole[trace.positions[-1]] == -1
