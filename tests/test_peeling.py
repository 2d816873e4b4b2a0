"""Engine-level tests: couplings, layer bookkeeping, replay, budgets."""

import math
from fractions import Fraction

import pytest

from tripeel import (
    BudgetExceededError,
    DomainError,
    InvariantViolationError,
    MisuseError,
    RngStream,
    build_params,
    peel_transition,
)
from tripeel.peeling import (
    LayerChain,
    PeelEngine,
    StepSampler,
    complete_ball,
    estimate_pi_kappa,
    hull_from_csv,
    hull_to_csv,
    replay_trace,
    run_algorithm,
    run_chain,
    run_layers,
    trace_from_csv,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
)

PAR = build_params(kappa=Fraction(9, 128))
CRIT = build_params(kappa=Fraction(2, 27))


def test_chain_couples_with_map_engine():
    rng_map = RngStream(7, (1,))
    trace = run_algorithm(PAR, "stay", 400, rng_map)
    rng_chain = RngStream(7, (1,))
    chain = run_chain(PAR, 400, rng_chain)
    assert [2] + trace.perimeters() == chain["perimeters"]
    assert [2] + trace.volumes() == chain["volumes"]
    assert rng_map.n_drawn == rng_chain.n_drawn


def test_uniform_selector_couples():
    rng_map = RngStream(11, (2,))
    trace = run_algorithm(PAR, "uniform", 300, rng_map)
    rng_chain = RngStream(11, (2,))
    chain = run_chain(PAR, 300, rng_chain, selector_draws="uniform")
    assert [2] + trace.perimeters() == chain["perimeters"]
    assert [2] + trace.volumes() == chain["volumes"]
    assert rng_map.n_drawn == rng_chain.n_drawn


def test_selector_changes_map_not_law():
    # different selectors consume the same sampler stream differently,
    # but every engine keeps a valid triangulation
    for name in ("stay", "advance", "uniform"):
        trace = run_algorithm(PAR, name, 150, RngStream(3, (4,)))
        trace.map.validate()


# the couplings of volume-growth's and inv-degree's default runs, too
@pytest.mark.parametrize("params", [PAR, CRIT, build_params(alpha=Fraction(7, 10))],
                         ids=["kappa_9_128", "kappa_2_27", "alpha_7_10"])
def test_layer_engine_couples_with_layer_chain(params):
    rng_map = RngStream(5, (3,))
    result = run_layers(params, 5, rng_map, labels=True)
    rng_chain = RngStream(5, (3,))
    chain = LayerChain(params, rng_chain, volume=True)
    chain.run(5)
    assert [(h.r, h.tau, h.perimeter, h.volume) for h in chain.hull] == [
        (h.r, h.tau, h.perimeter, h.volume) for h in result.hull
    ]
    assert rng_map.n_drawn == rng_chain.n_drawn


def test_layer_labels_are_exact_distances():
    result = run_layers(PAR, 4, RngStream(19, (6,)), labels=True)
    m = result.map
    m.validate()
    labels = result.engine.labels
    dist = m.bfs_distances(m.org[m.root])
    assert all(dist[v] == r for v, r in labels.items())
    # the boundary after tau_4 is the new arc: every vertex at distance 4
    boundary = {m.org[h] for h in m.hole_cycle(result.engine.seam)}
    assert all(labels[v] == 4 for v in boundary)
    assert len(boundary) == m.perimeter


def test_first_two_steps_turn_around_the_root_edge():
    result = run_layers(PAR, 2, RngStream(23, (7,)), record=True)
    recs = result.trace.records
    assert recs[0].edge == result.map.root
    assert recs[0].kind == "fresh"  # forced at perimeter 2
    assert recs[1].edge == result.map.twin[result.map.root]


def test_sampler_legality():
    for par in (PAR, CRIT):
        rng = RngStream(31, (8,))
        sampler = StepSampler(par)
        for p in (2, 3, 4, 7, 20):
            for _ in range(200):
                kind, k, side = sampler.sample(p, rng)
                if kind == "fresh":
                    assert k == 0 and side is None
                else:
                    assert 1 <= k <= p - 2
                    assert side in ("next", "prev")
    with pytest.raises(MisuseError):
        StepSampler(PAR).sample(1, RngStream(0))


def test_sampler_frequencies_match_transition_kernel():
    rng = RngStream(37, (9,))
    sampler = StepSampler(PAR)
    n = 20000
    counts = {}
    for _ in range(n):
        kind, k, side = sampler.sample(5, rng)
        counts[(kind, k)] = counts.get((kind, k), 0) + 1
        counts[side] = counts.get(side, 0) + 1
    for key, prob in (
        (("fresh", 0), peel_transition(5, PAR, kind="fresh")),
        (("swallow", 1), peel_transition(5, PAR, kind="swallow", k=1)),
        (("swallow", 2), peel_transition(5, PAR, kind="swallow", k=2)),
        (("swallow", 3), peel_transition(5, PAR, kind="swallow", k=3)),
    ):
        se = math.sqrt(prob * (1 - prob) / n)
        assert abs(counts.get(key, 0) / n - prob) < 5 * se + 1e-12
    n_sw = counts[("swallow", 1)] + counts[("swallow", 2)] + counts[("swallow", 3)]
    assert abs(counts.get("next", 0) / n_sw - 0.5) < 5 * math.sqrt(0.25 / n_sw)


def test_budget_guards():
    eng = PeelEngine(PAR, RngStream(41, (10,)), max_steps=25)
    with pytest.raises(BudgetExceededError) as exc:
        for _ in range(100):
            eng.peel_step(eng.cursor)
    assert exc.value.partial is eng
    assert eng.steps == 25

    res = run_layers(PAR, 50, RngStream(43, (11,)), max_steps=200)
    assert res.truncated
    assert res.trace.meta["truncated"]
    assert res.hull == res.trace.hull
    with pytest.raises(BudgetExceededError):
        run_layers(PAR, 50, RngStream(43, (11,)), max_steps=200, on_budget="raise")


def test_selector_misuse():
    eng = PeelEngine(PAR, RngStream(47, (12,)))
    rec = eng.peel_step(eng.cursor)
    if rec.kind == "swallow":
        pytest.skip("first step must be fresh at perimeter 2")
    dead_or_inner = eng.map.twin[eng.cursor]
    # cursor twin faces the triangle side, not the main hole
    with pytest.raises(MisuseError):
        eng.peel_step(dead_or_inner)
    with pytest.raises(DomainError):
        run_algorithm(PAR, "sideways", 3, RngStream(0))


def test_trace_roundtrip_and_replay():
    rng = RngStream(53, (13,))
    trace = run_algorithm(PAR, "stay", 60, rng)
    code = trace.map.canonical_code()

    text = trace_to_csv(trace)
    back = trace_from_csv(text)
    assert back.records == trace.records
    assert back.meta == trace.meta
    doc = trace_to_json(trace)
    assert trace_from_json(doc).records == trace.records

    for source in (text, doc):
        replayed = replay_trace(source)
        assert replayed["canonical_code"] == code

    broken = text.replace("fresh", "swallow", 1)
    with pytest.raises(InvariantViolationError):
        replay_trace(broken)
    with pytest.raises(DomainError):
        trace_from_csv("not,a,trace\n")


def test_layer_trace_replay():
    res = run_layers(PAR, 3, RngStream(59, (14,)), record=True)
    code = res.map.canonical_code()
    replayed = replay_trace(trace_to_json(res.trace))
    assert replayed["canonical_code"] == code


def test_hull_series_export():
    res = run_layers(PAR, 5, RngStream(61, (15,)))
    text = hull_to_csv(res.hull, {"digest": PAR.digest()})
    hull, meta = hull_from_csv(text)
    assert meta["digest"] == PAR.digest()
    assert [(h.r, h.tau, h.perimeter, h.volume) for h in hull] == [
        (h.r, h.tau, h.perimeter, h.volume) for h in res.hull
    ]
    assert [h.r for h in hull] == list(range(1, 6))
    assert all(b.tau > a.tau for a, b in zip(hull, hull[1:]))


def test_estimate_pi_kappa():
    res = run_layers(PAR, 8, RngStream(67, (16,)))
    est = estimate_pi_kappa(res.hull, PAR)
    assert est["estimate"] > 0
    assert len(est["rescaled"]) == 8
    assert abs(est["ratio_diagnostic"][-1]) < 0.5
    with pytest.raises(DomainError):
        estimate_pi_kappa(res.hull[:3], PAR)
    with pytest.raises(DomainError):
        estimate_pi_kappa(res.hull, CRIT)


def test_fast_chain_matches_scalar_when_disabled():
    # a huge switchover keeps run_fast on the scalar path: identical run
    a = LayerChain(PAR, RngStream(73, (19,)), volume=False)
    a.run(6)
    b = LayerChain(PAR, RngStream(73, (19,)), volume=False)
    b.run_fast(6, p_fast=10**9)
    assert [(h.r, h.tau, h.perimeter) for h in a.hull] == [
        (h.r, h.tau, h.perimeter) for h in b.hull
    ]


def test_fast_chain_invariants():
    chain = LayerChain(PAR, RngStream(79, (20,)), volume=False)
    hull = chain.run_fast(10)
    assert [h.r for h in hull] == list(range(1, 11))
    assert all(b.tau > a.tau for a, b in zip(hull, hull[1:]))
    assert all(h.perimeter >= 2 for h in hull)
    with pytest.raises(MisuseError):
        LayerChain(CRIT, RngStream(0), volume=False).run_fast(3)
    with pytest.raises(MisuseError):
        LayerChain(PAR, RngStream(0), volume=True).run_fast(3)


def test_complete_ball_is_stable_under_more_peeling():
    rng = RngStream(83, (21,))
    eng = PeelEngine(PAR, rng)
    eng.peel_step(eng.cursor)
    center = eng.map.org[eng.map.root]
    dist = complete_ball(eng, center, 2)
    frozen = {v: d for v, d in enumerate(dist) if 0 <= d <= 2}
    for _ in range(300):
        eng.peel_step(eng.cursor)
    later = eng.map.bfs_distances(center)
    assert all(later[v] == d for v, d in frozen.items())
    # no new vertex can enter the ball either
    assert sum(1 for d in later if 0 <= d <= 2) == len(frozen)


def test_complete_ball_budget():
    eng = PeelEngine(PAR, RngStream(89, (22,)))
    with pytest.raises(BudgetExceededError):
        complete_ball(eng, eng.map.org[eng.map.root], 10, max_steps=5)
