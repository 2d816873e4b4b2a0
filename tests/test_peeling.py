"""Engine-level tests: couplings, layer bookkeeping, replay, budgets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from tripeel import (
    BudgetExceededError,
    DomainError,
    InvariantViolationError,
    MisuseError,
    RngStream,
    build_params,
)
from tripeel import peeling
from tripeel.params import q_step
from tripeel.peeling import (
    LayerChain,
    LayerEngine,
    PeelEngine,
    StepSampler,
    complete_ball,
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
    assert [2] + [r.perimeter for r in trace.records] == chain["perimeters"]
    assert [2] + [r.volume for r in trace.records] == chain["volumes"]
    assert rng_map.n_drawn == rng_chain.n_drawn


def test_uniform_selector_couples():
    rng_map = RngStream(11, (2,))
    trace = run_algorithm(PAR, "uniform", 300, rng_map)
    rng_chain = RngStream(11, (2,))
    chain = run_chain(PAR, 300, rng_chain, selector_draws="uniform")
    assert [2] + [r.perimeter for r in trace.records] == chain["perimeters"]
    assert [2] + [r.volume for r in trace.records] == chain["volumes"]
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
    result = run_layers(params, 5, rng_map)
    rng_chain = RngStream(5, (3,))
    chain = LayerChain(params, rng_chain, volume=True)
    chain.run(5)
    assert [(h.r, h.tau, h.perimeter, h.volume) for h in chain.hull] == [
        (h.r, h.tau, h.perimeter, h.volume) for h in result.hull
    ]
    assert rng_map.n_drawn == rng_chain.n_drawn


def test_hull_boundaries_are_at_exact_distances():
    # at tau_r the boundary is the new arc of layer r: every vertex on it
    # is at graph distance exactly r from the root origin
    engine = LayerEngine(PAR, RngStream(19, (6,)))
    for r in range(1, 5):
        while engine.cur_r <= r:
            engine.step()
        m = engine.map
        m.validate()
        dist = m.bfs_distances(m.org[m.root])
        boundary = {m.org[h] for h in m.hole_cycle(engine.seam)}
        assert len(boundary) == m.perimeter
        assert all(dist[v] == r for v in boundary), r


def test_first_two_steps_turn_around_the_root_edge():
    result = run_layers(PAR, 2, RngStream(23, (7,)), record=True)
    recs = result.records
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
        (("fresh", 0), PAR.fresh_prob(5)),
        (("swallow", 1), PAR.swallow_prob(5, 1, both_sides=True)),
        (("swallow", 2), PAR.swallow_prob(5, 2, both_sides=True)),
        (("swallow", 3), PAR.swallow_prob(5, 3, both_sides=True)),
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
    assert res.meta["truncated"]
    assert len(res.hull) < 50


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
    # selectors are named; the callable behind a name is not one
    with pytest.raises(DomainError):
        run_algorithm(PAR, peeling.SELECTORS["stay"], 3, RngStream(0))


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
    replayed = replay_trace(trace_to_json(res))
    assert replayed["canonical_code"] == code


# float couplings whose other handle does not round-trip: the float root
# of kappa_from_alpha(0.7) is 0.7000000000000002, so replay must rebuild
# from the handle the trace was made with
@pytest.mark.parametrize(
    "coupling", [{"alpha": 0.7}, {"alpha": 0.68}, {"alpha": 0.6667}, {"kappa": 0.07}],
    ids=["alpha-0.7", "alpha-0.68", "alpha-0.6667", "kappa-0.07"],
)
def test_float_coupling_trace_replay(coupling):
    params = build_params(**coupling)
    res = run_layers(params, 3, RngStream(67, (16,)), record=True)
    replayed = replay_trace(trace_to_json(res))
    assert replayed["canonical_code"] == res.map.canonical_code()
    steps = run_algorithm(params, "stay", 40, RngStream(71, (17,)))
    assert replay_trace(trace_to_csv(steps))["canonical_code"] == steps.map.canonical_code()


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


def test_fast_chain_matches_scalar_when_disabled():
    # this run's boundary never reaches the block floor (clamp index plus
    # swallow cap plus 2), so run_fast stays on the scalar path:
    # identical run, identical draws
    a = LayerChain(PAR, RngStream(73, (19,)), volume=False)
    peak = a.p
    while a.cur_r <= 3:
        a.step()
        peak = max(peak, a.p)
    assert peak < PAR.ctilde_clamp_index() + peeling._block_cap(PAR) + 2
    b = LayerChain(PAR, RngStream(73, (19,)), volume=False)
    b.run_fast(3)
    assert [(h.r, h.tau, h.perimeter) for h in a.hull] == [
        (h.r, h.tau, h.perimeter) for h in b.hull
    ]
    assert a.rng.n_drawn == b.rng.n_drawn


def test_fast_chain_matches_scalar_in_law(monkeypatch):
    # two-sample KS tests of the scalar chain against run_fast with the
    # block path on.  Alpha 3/4 clamps early, so by depth 6 the block
    # path carries most steps.  Alpha 7/10 barely reaches the block path
    # by depth 7, and the near-critical alpha 0.672 (clamp index 1430)
    # would need depths too costly for this suite.
    par = build_params(alpha=Fraction(3, 4))
    trials = 250

    def layer_ratios(run):
        time_ratio, boundary_ratio = [], []
        for t in range(trials):
            h = run(t)
            time_ratio.append((h[5].tau - h[4].tau) / h[4].perimeter)
            boundary_ratio.append(h[5].perimeter / h[4].perimeter)
        return time_ratio, boundary_ratio

    scalar = layer_ratios(
        lambda t: LayerChain(par, RngStream(97, (t,)), volume=False).run(6)
    )

    calls = {"scalar": 0, "block": 0, "all": 0}
    step = LayerChain.step

    def counted_step(chain):
        calls["scalar"] += 1
        step(chain)

    monkeypatch.setattr(LayerChain, "step", counted_step)

    def fast(t):
        chain = LayerChain(par, RngStream(101, (t,)), volume=False)
        hull = chain.run_fast(6)
        calls["all"] += chain.steps
        calls["block"] += chain.block_steps
        return hull

    block = layer_ratios(fast)
    assert calls["scalar"] < 0.2 * calls["all"]
    assert calls["block"] == calls["all"] - calls["scalar"]
    for a, b in zip(scalar, block):
        assert sps.ks_2samp(a, b).pvalue > 1e-3


@pytest.mark.parametrize("alpha", ["3/4", "0.68"])
def test_block_step_sizes_match_searchsorted(alpha):
    # each guide-table inverse cdf gives the searchsorted answer element
    # by element, uniforms at and next to every cdf entry included: the
    # raw step law clipped at the cap (with the table grown past it), the
    # event gap law and the event swallow-size law; the event tables are
    # within 1e-15 of their exact values
    par = build_params(alpha=alpha)
    cap = peeling._block_cap(par)
    raw = peeling._InverseCdf(par.q_cumulative()[:cap])
    gaps, sizes = peeling._event_laws(par, cap)
    par.ensure_q(cap + 100)
    q = np.asarray(par.q_cumulative())
    draws = RngStream(3).block(200_000)
    for law, cdf, clip in (
        (raw, q, cap),
        (gaps, gaps._cdf, gaps._cdf.size),
        (sizes, sizes._cdf, sizes._cdf.size),
    ):
        at = cdf[:clip]
        edges = np.concatenate(
            [[0.0, 1.0 - 2.0**-53], at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)]
        )
        edges = edges[(edges >= 0.0) & (edges < 1.0)]
        for u in (draws, draws.reshape(400, 500), edges):
            want = np.minimum(np.searchsorted(cdf, u, side="right"), clip)
            got = law(u)
            assert got.shape == u.shape
            assert np.array_equal(got, want)
    a = Fraction(alpha)
    n = gaps._cdf.size
    assert a**n <= Fraction(1, 2**53) < a ** (n - 1)
    assert max(abs(Fraction(x) - (1 - a ** (g + 1))) for g, x in enumerate(gaps._cdf)) <= 1e-15
    assert sizes._cdf.size == cap - 1
    swallowed = Fraction(0)
    for k, x in enumerate(sizes._cdf, start=1):
        swallowed += q_step(-k, a)
        assert abs(Fraction(x) - swallowed / (1 - a)) <= 1e-15, k
    # the mean swallow size that sizes the chunks
    assert 1 + sizes.mean == pytest.approx(raw.mean / (1 - par.alpha), rel=1e-12)


def _chunk_events(gaps, us, steps):
    """Events of a block of 3m uniforms that a chunk of the given block
    steps used: the number of whole events whose steps (gap plus one)
    add up to it."""
    m = us.size // 3
    through = np.cumsum(gaps(us[:m]) + 1)
    e = int(np.searchsorted(through, steps)) + 1
    assert through[e - 1] == steps
    return e


def test_fast_chain_draws_only_what_it_uses(monkeypatch):
    # a block event (a run of fresh steps, then a swallow) uses three
    # uniforms; chunks sized from the chain state leave almost nothing
    # unused, and the chunk at the start of a layer (new arc empty) is
    # the smallest one
    par = build_params(alpha=Fraction(3, 4))
    gaps, _ = peeling._event_laws(par, peeling._block_cap(par))
    chain = None
    scalar_draws = 0
    chunks = []
    step, block = LayerChain.step, RngStream.block

    def counted_step(c):
        nonlocal scalar_draws
        n0 = c.rng.n_drawn
        step(c)
        scalar_draws += c.rng.n_drawn - n0

    def recorded_block(rng, n):
        us = block(rng, n)
        chunks.append((chain._N, us, chain.block_steps))
        return us

    monkeypatch.setattr(LayerChain, "step", counted_step)
    monkeypatch.setattr(RngStream, "block", recorded_block)
    drawn = used = 0
    sizes = []
    for t in range(4):
        chain = LayerChain(par, RngStream(103, (t,)), volume=False)
        chunks.clear()
        chain.run_fast(9)
        drawn += chain.rng.n_drawn
        ends = [b0 for _, _, b0 in chunks[1:]] + [chain.block_steps]
        for (n_new, us, b0), b1 in zip(chunks, ends):
            used += 3 * _chunk_events(gaps, us, b1 - b0)
            sizes.append((n_new, us.size))
    used += scalar_draws
    assert used <= drawn <= 1.05 * used
    assert any(n_new == 0 for n_new, _ in sizes)
    assert all(n == 3 * peeling._CHUNK_MIN for n_new, n in sizes if n_new < peeling._N_SHORT)
    assert max(n for _, n in sizes) > 3 * peeling._CHUNK_MIN


@pytest.mark.parametrize("volume", [False, True], ids=["volume-off", "volume-on"])
def test_fast_chain_budget_cuts_inside_a_gap(monkeypatch, volume):
    # a step budget that runs out inside a chunk takes the whole events
    # before it, then as many fresh steps of the next event's gap as it
    # leaves; the next budget check raises with the budget spent exactly
    par = build_params(alpha=Fraction(3, 4))
    gaps, sizes = peeling._event_laws(par, peeling._block_cap(par))
    chain = None
    chunks = []
    block, fill_volumes = RngStream.block, peeling.BoltzmannFiller.fill_volumes

    def recorded_block(rng, n):
        us = block(rng, n)
        chunks.append((chain.steps, chain.block_steps, chain.p, chain._A, us))
        return us

    def unrecorded_fills(filler, holes, rng):
        n = len(chunks)
        added = fill_volumes(filler, holes, rng)
        del chunks[n:]
        return added

    monkeypatch.setattr(RngStream, "block", recorded_block)
    monkeypatch.setattr(peeling.BoltzmannFiller, "fill_volumes", unrecorded_fills)
    inside = 0
    for budget in range(30_000, 30_200, 20):
        chain = LayerChain(par, RngStream(127, (budget,)), volume=volume, max_steps=budget)
        chunks.clear()
        with pytest.raises(BudgetExceededError):
            chain.run_fast(40)
        assert chain.steps == budget
        assert chain._A + chain._N == chain.p
        assert chain.block_steps <= chain.steps
        steps0, blocks0, p0, a0, us = chunks[-1]
        left = budget - steps0
        m = us.size // 3
        gs, ks = gaps(us[:m]), sizes(us[m : 2 * m]) + 1
        through = np.cumsum(gs + 1)
        if chain.block_steps - blocks0 == left and left not in through:
            # the last chunk ran out of budget inside the gap of event
            # `whole`: the events before it were applied whole, then
            # only fresh steps
            whole = int(np.searchsorted(through, left))
            done = through[whole - 1] if whole else 0
            assert 0 < left - done <= gs[whole]
            assert chain.p == p0 + (gs - ks)[:whole].sum() + left - done
            assert chain._A == a0 - (ks * (us[2 * m :] < 0.5))[:whole].sum()
            inside += 1
    assert inside >= 3


def test_fast_chain_invariants():
    chain = LayerChain(PAR, RngStream(79, (20,)), volume=False)
    hull = chain.run_fast(10)
    assert [h.r for h in hull] == list(range(1, 11))
    assert all(b.tau > a.tau for a, b in zip(hull, hull[1:]))
    assert all(h.perimeter >= 2 for h in hull)
    # the table never clamps at criticality: there run_fast takes every
    # step through step(), draw for draw, with or without volume
    for volume in (False, True):
        a = LayerChain(CRIT, RngStream(79, (21,)), volume=volume)
        b = LayerChain(CRIT, RngStream(79, (21,)), volume=volume)
        assert a.run(6) == b.run_fast(6)
        assert a.steps == b.steps
        assert b.block_steps == 0
        assert a.rng.n_drawn == b.rng.n_drawn
    # with volume tracked, layer 1 stays scalar, so tau_1's hull record
    # and the root degree are run()'s; deeper layers take block steps
    a = LayerChain(PAR, RngStream(79, (21,)))
    b = LayerChain(PAR, RngStream(79, (21,)))
    a.run(6)
    b.run_fast(6)
    assert b.block_steps > 0
    assert b.hull[0] == a.hull[0]
    assert b.root_degree == a.root_degree is not None


def test_fast_chain_counts_every_fill(monkeypatch):
    # with each fill of a p-hole replaced by M p + 1 vertices, the volume
    # after step tau at perimeter P is 2 + tau + M (tau - P + 2): one
    # vertex per step, and the swallowed sizes plus one per swallow sum
    # to tau - P + 2.  A fill lost, counted twice or given the wrong
    # hole breaks it at every hull record
    m = 1000
    monkeypatch.setattr(peeling.BoltzmannFiller, "fill_volume", lambda f, p, rng: m * p + 1)
    monkeypatch.setattr(
        peeling.BoltzmannFiller, "fill_degree", lambda f, p, mark, rng: (m * p + 1, 0)
    )
    monkeypatch.setattr(
        peeling.BoltzmannFiller, "fill_volumes", lambda f, holes, rng: int((m * holes + 1).sum())
    )
    par = build_params(alpha=Fraction(3, 4))
    for t in range(3):
        for fast in (False, True):
            chain = LayerChain(par, RngStream(113, (t,)))
            hull = chain.run_fast(7) if fast else chain.run(7)
            assert chain.block_steps > 0 or not fast
            for h in hull:
                assert h.volume == 2 + h.tau + m * (h.tau - h.perimeter + 2), (fast, h)


def test_fast_chain_with_volume_matches_scalar_in_law():
    # two-sample KS tests of (P, V, tau) at tau_5 and tau_7 between run()
    # and run_fast() with volume at alpha 7/10.  The block floor is 548
    # there: by tau_5 only about 6% of the steps are block steps, by
    # tau_7 more than half, so both depths are compared
    par = build_params(alpha=Fraction(7, 10))
    trials = 250
    depths = (5, 7)

    def series(run):
        out = {(r, f): [] for r in depths for f in ("tau", "perimeter", "volume")}
        for t in range(trials):
            hull = run(t)
            for r in depths:
                for f in ("tau", "perimeter", "volume"):
                    out[r, f].append(getattr(hull[r - 1], f))
        return out

    scalar = series(lambda t: LayerChain(par, RngStream(107, (t,))).run(7))
    counts = {"steps": 0, "block": 0}

    def fast(t):
        chain = LayerChain(par, RngStream(109, (t,)))
        hull = chain.run_fast(7)
        counts["steps"] += chain.steps
        counts["block"] += chain.block_steps
        return hull

    block = series(fast)
    assert counts["block"] > 0.4 * counts["steps"]
    for key in scalar:
        assert sps.ks_2samp(scalar[key], block[key]).pvalue > 1e-3, key


@pytest.mark.slow
def test_fast_chain_matches_scalar_in_law_near_critical():
    # two-sample KS tests of (tau_r, P_{tau_r}) between run() and
    # run_fast() at alpha 0.672, where the harmonic table clamps only at
    # p = 1,430 and the swallow cap K is 1,027: the block floor is 2,459.
    # By tau_14 about a tenth of the steps are block steps, by tau_18
    # more than half
    par = build_params(alpha=Fraction(84, 125))
    trials = 300
    depths = (14, 18)

    def series(run):
        out = {(r, f): [] for r in depths for f in ("tau", "perimeter")}
        for t in range(trials):
            hull = run(t)
            for r in depths:
                for f in ("tau", "perimeter"):
                    out[r, f].append(getattr(hull[r - 1], f))
        return out

    scalar = series(lambda t: LayerChain(par, RngStream(131, (t,)), volume=False).run(18))
    counts = {"steps": 0, "block": 0}

    def fast(t):
        chain = LayerChain(par, RngStream(137, (t,)), volume=False)
        hull = chain.run_fast(18)
        counts["steps"] += chain.steps
        counts["block"] += chain.block_steps
        return hull

    block = series(fast)
    assert counts["block"] > 0.4 * counts["steps"]
    for key in scalar:
        assert sps.ks_2samp(scalar[key], block[key]).pvalue > 1e-3, key


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
