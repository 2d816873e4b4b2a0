"""Engine-level tests: couplings, layer bookkeeping, replay, budgets."""

import gc
import json
import math
import weakref
from collections import Counter
from dataclasses import asdict, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
from tripeel.params import q_step, q_tail_bound
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
    run_layers,
    trace_from_csv,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
)
from tripeel.planarmap import TriMap
from tripeel.walk import run_walk_peeling

from oracles import block_chunk, complete_ball_by_hole_cycle, ear_by_two_surgeries, sample_event

PAR = build_params(kappa=Fraction(9, 128))
CRIT = build_params(kappa=Fraction(2, 27))


@pytest.mark.parametrize("selector", ["stay", "uniform"])
def test_chain_couples_with_map_engine(selector):
    # the uniform selector spends one draw per step before the step's own
    rng_map = RngStream(7, (1,))
    trace = run_algorithm(PAR, selector, 400, rng_map)
    rng_chain = RngStream(7, (1,))
    chain = LayerChain(PAR, rng_chain)
    for rec in trace.records:
        if selector == "uniform":
            rng_chain.index(chain.p)
        chain.step()
        assert (chain.p, chain.v) == (rec.perimeter, rec.volume)
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


# -- one sampler and one filler per coupling ------------------------------


def _chain_run(chain, r_max):
    """(p, v) after each step of a chain run to tau_{r_max}."""
    series = []
    while chain.cur_r <= r_max:
        chain.step()
        series.append((chain.p, chain.v))
    return series


@pytest.mark.parametrize("coupling", [{"kappa": "9/128"}, {"kappa": "2/27"}],
                         ids=["kappa_9_128", "kappa_2_27"])
@pytest.mark.parametrize("volume", [True, False])
def test_chains_sharing_a_coupling_run_as_alone(coupling, volume):
    # two chains on one PeelParams stepped in turn, each on its own stream,
    # against each run alone on parameters of its own
    shared = build_params(**coupling)
    chains = [LayerChain(shared, RngStream(8, (t,)), volume=volume) for t in range(2)]
    assert chains[0].sampler is chains[1].sampler
    assert chains[0].filler is chains[1].filler and (chains[0].filler is None) is not volume
    series = [[], []]
    while any(c.cur_r <= 4 for c in chains):
        for c, s in zip(chains, series):
            if c.cur_r <= 4:
                c.step()
                s.append((c.p, c.v))
    for t, (c, s) in enumerate(zip(chains, series)):
        alone = LayerChain(build_params(**coupling), RngStream(8, (t,)), volume=volume)
        assert _chain_run(alone, 4) == s and len(s) > 4
        assert alone.hull == c.hull and alone.root_degree == c.root_degree
        assert alone.rng.n_drawn == c.rng.n_drawn


@pytest.mark.parametrize("selector", ["stay", "uniform"])
def test_engines_sharing_a_coupling_run_as_alone(selector):
    shared = build_params(kappa=Fraction(9, 128))
    engines = [PeelEngine(shared, RngStream(9, (t,))) for t in range(2)]
    assert engines[0].sampler is engines[1].sampler and engines[0].filler is engines[1].filler
    select = peeling.SELECTORS[selector]
    for _ in range(300):
        for e in engines:
            e.peel_step(select(e))
    for t, e in enumerate(engines):
        rng = RngStream(9, (t,))
        alone = run_algorithm(build_params(kappa=Fraction(9, 128)), selector, 300, rng)
        assert e.records == alone.records
        assert e.rng.n_drawn == rng.n_drawn
        assert peeling._code_digest(e.map.canonical_code()) == peeling._code_digest(
            alone.map.canonical_code())


def test_drivers_are_built_once_per_coupling():
    params = build_params(alpha=Fraction(3, 4))
    chain = LayerChain(params, RngStream(1))
    engine = LayerEngine(params, RngStream(2))
    assert engine.sampler is chain.sampler and engine.filler is chain.filler
    other = build_params(alpha=Fraction(3, 4))
    assert PeelEngine(other, RngStream(1)).filler is not chain.filler


def test_dropped_parameters_are_freed_at_once():
    # the parameters hold their drivers weakly: no cycle keeps them, and
    # their tables, alive once the last chain is dropped
    params = build_params(alpha=Fraction(7, 10))
    chain = LayerChain(params, RngStream(3))
    chain.run_fast(3)
    gone = weakref.ref(params)
    gc.disable()
    try:
        del chain, params
        assert gone() is None
    finally:
        gc.enable()


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
        boundary = {m.org[h] for h in m.hole_cycle(engine.cursor)}
        assert len(boundary) == m.perimeter
        assert all(dist[v] == r for v in boundary), r


def test_first_two_steps_turn_around_the_root_edge():
    engine = LayerEngine(PAR, RngStream(23, (7,)), record=True)
    peeled = []
    peel = engine._peel
    engine._peel = lambda edge: peeled.append(edge) or peel(edge)
    engine.step()
    engine.step()
    m = engine.map
    assert peeled == [m.root, m.twin[m.root]]
    assert engine.records[0].kind == "fresh"  # forced at perimeter 2


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


@pytest.mark.parametrize(
    "handle, p",
    [
        ({"kappa": "9/128"}, 2),
        ({"kappa": "9/128"}, 3),
        ({"kappa": "9/128"}, 4),
        ({"kappa": "9/128"}, 200),
        ({"alpha": "3/4"}, 200),
        ({"kappa": "2/27"}, 400),
    ],
    ids=["p2", "p3", "p4", "past_clamp_kappa", "past_clamp_alpha", "q_growth_critical"],
)
def test_sampler_shortcut_matches_reference_draw_for_draw(handle, p):
    # each sampler gets its own freshly built tables, so both grow them
    # while they sample
    ours, ref = build_params(**handle), build_params(**handle)
    sampler = StepSampler(ours)
    rng_ours, rng_ref = RngStream(53, (p,)), RngStream(53, (p,))
    for _ in range(3000):
        assert sampler.sample(p, rng_ours) == sample_event(ref, p, rng_ref)
        assert rng_ours.n_drawn == rng_ref.n_drawn
    assert ours._qcum == ref._qcum
    if p == 200:
        assert ours.ctilde_clamp_index() < p
    if p == 400:
        assert ours.ctilde_clamp_index() is None and ours.i_max > 64


def _event_by_steps(draw, p, limit):
    """StepSampler.event's result from one-step draws, draw(p) the event
    at perimeter p."""
    g = 0
    while g < limit:
        _, k, side = draw(p + g)
        if k:
            return g, k, side
        g += 1
    return g, 0, None


@pytest.mark.parametrize(
    "handle",
    [{"kappa": "2/27"}, {"kappa": "9/128"}, {"alpha": "7/10"}, {"alpha": "0.6667"}],
    ids=["critical", "nine-128ths", "seven-tenths", "near-critical"],
)
def test_sampler_event_matches_samples_draw_for_draw(handle):
    # one event (a run of fresh steps, then the swallow that ends it, or
    # limit fresh steps) draws exactly what as many sample() calls draw,
    # and grows the tables as they do, also where the tables grow in the
    # middle of an event; plain rejection (oracles.sample_event) agrees
    # on every event and every draw
    ours, ref, orc = (build_params(**handle) for _ in range(3))
    sampler, by_sample = StepSampler(ours), StepSampler(ref)
    rngs = [RngStream(59, (32,)) for _ in range(3)]
    perimeters = list(range(2, 40)) + list(range(40, 720, 11))
    grew = 0
    for i, p in enumerate(perimeters):
        for limit in (1 + (7 * i) % 64, 1 + (7 * i + 31) % 64):
            sizes = (ours.i_max, ours.p_max)
            got = sampler.event(p, rngs[0], limit)
            assert got == _event_by_steps(lambda q: by_sample.sample(q, rngs[1]), p, limit)
            assert got == _event_by_steps(lambda q: sample_event(orc, q, rngs[2]), p, limit)
            g, k, side = got
            assert 0 <= g <= limit and (side is None) == (k == 0)
            assert g < limit if k else g == limit
            assert 1 <= k <= p + g - 2 or k == 0
            assert rngs[0].n_drawn == rngs[1].n_drawn == rngs[2].n_drawn
            assert (ours.i_max, ours.p_max) == (ref.i_max, ref.p_max)
            grew += g > 0 and (ours.i_max, ours.p_max) != sizes
    assert ours._qcum == ref._qcum and ours._ct == ref._ct
    assert grew > 0
    # a perimeter below 2 is refused by both entry points, before a draw
    rng = RngStream(0)
    for p in (1, 0):
        with pytest.raises(MisuseError):
            sampler.sample(p, rng)
        with pytest.raises(MisuseError):
            sampler.event(p, rng, 5)
    assert rng.n_drawn == 0


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
    assert res.meta["truncated"]
    assert len(res.hull) < 50


def test_negative_budgets_are_domain_errors():
    for budget in ({"max_steps": -5}, {"max_vertices": -1}):
        with pytest.raises(DomainError, match="nonnegative"):
            PeelEngine(PAR, RngStream(0), **budget)
    with pytest.raises(DomainError, match="nonnegative"):
        LayerChain(PAR, RngStream(0), max_steps=-1)
    # a zero budget stays legal and stops the first step
    with pytest.raises(BudgetExceededError):
        PeelEngine(PAR, RngStream(0), max_steps=0).peel_step(0)
    assert run_layers(PAR, 2, RngStream(0), max_steps=0).meta["truncated"]


@pytest.mark.parametrize("params", [PAR, build_params(alpha=Fraction(7, 10)), CRIT],
                         ids=["kappa_9_128", "alpha_7_10", "kappa_2_27"])
def test_ears_peel_the_maps_of_two_surgeries(monkeypatch, params):
    # close_ear stands for open_swallow(a, 1, side) plus close_two_gon of
    # its 2-gon: every engine peels the same maps from the same draws
    # either way, and only arena ids differ
    ears = []
    close_ear = TriMap.close_ear

    def counted(m, a, side):
        ears.append(side)
        return close_ear(m, a, side)

    def runs():
        out = []
        rng = RngStream(41, (0,))
        walk = run_walk_peeling(params, 2000, rng)
        out.append((walk.map.canonical_code(), rng.n_drawn, walk.positions))
        rng = RngStream(41, (1,))
        layers = run_layers(params, 4, rng)
        out.append((layers.map.canonical_code(), rng.n_drawn, layers.hull))
        for i, selector in enumerate(peeling.SELECTORS):
            rng = RngStream(41, (2, i))
            trace = run_algorithm(params, selector, 400, rng)
            out.append((trace.map.canonical_code(), rng.n_drawn, trace.records))
        return out

    monkeypatch.setattr(TriMap, "close_ear", counted)
    new = runs()
    assert {"next", "prev"} <= set(ears)
    monkeypatch.setattr(TriMap, "close_ear", ear_by_two_surgeries)
    assert runs() == new


@pytest.mark.parametrize("selector", ["stay", "uniform"])
def test_record_modes_peel_the_same_map(selector):
    # a record is built only when recording; the map, the cursor and the
    # stream do not depend on it
    select = peeling.SELECTORS[selector]
    engines = [PeelEngine(PAR, RngStream(59, (3,)), record=r) for r in (False, True)]
    for eng in engines:
        for _ in range(400):
            rec = eng.peel_step(select(eng))
            if eng.records is None:
                assert rec is None
            else:
                assert rec is eng.records[-1]
                assert (len(eng.records), rec.perimeter, rec.volume) == (
                    eng.steps, eng.map.perimeter, eng.map.nv
                )
    lean, full = engines
    for name in TriMap.__slots__:
        assert getattr(lean.map, name) == getattr(full.map, name), name
    assert (lean.cursor, lean.steps, lean.rng.n_drawn) == (
        full.cursor, full.steps, full.rng.n_drawn
    )
    assert len(full.records) == 400


def test_layer_step_returns_its_record_only_when_recording():
    lean = LayerEngine(PAR, RngStream(61, (4,)))
    full = LayerEngine(PAR, RngStream(61, (4,)), record=True)
    for _ in range(300):
        assert lean.step() is None
        assert full.step() is full.records[-1]
    assert lean.hull == full.hull
    for name in TriMap.__slots__:
        assert getattr(lean.map, name) == getattr(full.map, name), name


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
    with pytest.raises(DomainError):
        run_algorithm(PAR, ["stay"], 3, RngStream(0))


def test_trace_roundtrip_and_replay():
    rng = RngStream(53, (13,))
    trace = run_algorithm(PAR, "stay", 60, rng)
    code = trace.map.canonical_code()

    text = trace_to_csv(trace)
    back = trace_from_csv(text)
    assert back.records == trace.records
    # the writer adds the final map's digest to the run's metadata
    assert back.meta == {**trace.meta, "map_digest": back.meta["map_digest"]}
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


@pytest.mark.parametrize(
    "budget",
    [{}, {"max_steps": 60}, {"max_vertices": 40}],
    ids=["full", "budget-cut", "vertex-cut"],
)
def test_replayed_trace_reexports_to_its_source(budget):
    # the replayed trace keeps the recorded meta (map_digest, and truncated
    # for a budget-cut run) with the rebuilt map, so it writes back the
    # document it was read from
    res = run_layers(build_params(alpha="7/10"), 6, RngStream(13), record=True, **budget)
    assert res.meta["truncated"] is bool(budget)
    doc = trace_to_json(res)
    assert trace_to_json(replay_trace(doc)["trace"]) == doc


@pytest.mark.parametrize(
    "tamper",
    [
        lambda hull: hull[1].update(perimeter=hull[1]["perimeter"] + 7),
        lambda hull: hull[-1].update(volume=1),
        lambda hull: hull.pop(),
    ],
    ids=["perimeter", "volume", "dropped-layer"],
)
def test_replay_checks_the_stored_hull(tamper):
    doc = json.loads(trace_to_json(run_layers(PAR, 3, RngStream(59, (14,)), record=True)))
    tamper(doc["hull"])
    with pytest.raises(InvariantViolationError, match="hull"):
        replay_trace(json.dumps(doc))


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
    text = hull_to_csv(res.hull)
    assert text.startswith("#tripeel-hull-v1 {}\n")
    hull = hull_from_csv(text)
    assert [(h.r, h.tau, h.perimeter, h.volume) for h in hull] == [
        (h.r, h.tau, h.perimeter, h.volume) for h in res.hull
    ]
    assert [h.r for h in hull] == list(range(1, 6))
    assert all(b.tau > a.tau for a, b in zip(hull, hull[1:]))


@pytest.mark.parametrize(
    "edit",
    [{"tau": 1}, {"perimeter": 1}, {"r": 5}, {"volume": 2}],
    ids=["tau-backwards", "perimeter-1", "r-skips", "volume-drops"],
)
def test_both_hull_imports_reject_an_inconsistent_hull(edit):
    res = run_layers(PAR, 3, RngStream(61, (15,)), record=True)
    bad = [replace(h, **edit) if h.r == 3 else h for h in res.hull]
    doc = json.loads(trace_to_json(res))
    doc["hull"] = [asdict(h) for h in bad]
    with pytest.raises(InvariantViolationError, match="inconsistent hull record"):
        trace_from_json(json.dumps(doc))
    with pytest.raises(InvariantViolationError, match="inconsistent hull record"):
        hull_from_csv(hull_to_csv(bad))


def test_fast_chain_matches_scalar_when_disabled():
    # run_fast keeps the scalar step where it must: at the critical point
    # (no finite swallow cap) every step, and with volume tracked all of
    # layer 1, whose tau_1 fill gives the root degree.  There it is run(),
    # draw for draw
    for volume in (False, True):
        a = LayerChain(CRIT, RngStream(73, (19,)), volume=volume)
        b = LayerChain(CRIT, RngStream(73, (19,)), volume=volume)
        assert a.run(5) == b.run_fast(5)
        assert (a.steps, a.rng.n_drawn, b.block_steps) == (b.steps, b.rng.n_drawn, 0)
    for t in range(20):
        a = LayerChain(PAR, RngStream(73, (t,)))
        b = LayerChain(PAR, RngStream(73, (t,)))
        assert a.run(1) == b.run_fast(1)
        assert a.root_degree == b.root_degree is not None
        assert (a.steps, a.rng.n_drawn, b.block_steps) == (b.steps, b.rng.n_drawn, 0)


def _step_to(chain, r_max):
    """The step-by-step reference of run: step() until tau_{r_max}."""
    while chain.cur_r <= r_max:
        chain.step()
    return chain.hull


def test_fast_chain_scalar_budget_matches_run(monkeypatch):
    # run, and run_fast where it takes no block step (every step at the
    # critical point, layer 1 with volume anywhere), spend a step budget
    # as step() calls do: the same error with the chain as its partial
    # result, and the same state, draws and root degree.  Off the
    # critical point, with or without volume, run is step() too.  Some
    # budgets run out inside a fresh run, an event cut at the budget
    events = []
    event = StepSampler.event

    def logged_event(sampler, p, rng, limit):
        events.append(event(sampler, p, rng, limit))
        return events[-1]

    def state(c):
        return (c.p, c.v, c.steps, c._A, c._N, c.cur_r, c.hull, c.rng.n_drawn, c.root_degree)

    monkeypatch.setattr(StepSampler, "event", logged_event)
    par34 = build_params(alpha=Fraction(3, 4))
    near = build_params(alpha="0.6667")
    cases = [(CRIT, False, 3, True), (CRIT, True, 3, True), (par34, True, 1, True)]
    cases += [(par, volume, 3, False) for par in (PAR, near) for volume in (False, True)]
    cut, raised = 0, 0
    for par, volume, r_max, scalar_fast in cases:
        drivers = [_step_to, LayerChain.run] + [LayerChain.run_fast] * scalar_fast
        for t in range(50):
            for budget in (0, 1, 3, 7, 20, 100):
                chains, errors = [], []
                for drive in drivers:
                    chain = LayerChain(
                        par, RngStream(163, (t, budget)), volume=volume, max_steps=budget
                    )
                    del events[:]
                    try:
                        assert drive(chain, r_max) is chain.hull
                        errors.append(None)
                    except BudgetExceededError as err:
                        assert err.partial is chain
                        errors.append(str(err))
                    chains.append(chain)
                ref = chains[0]
                for chain, error in zip(chains[1:], errors[1:]):
                    assert error == errors[0]
                    assert chain.block_steps == 0
                    assert state(chain) == state(ref)
                if errors[0] is not None:
                    raised += 1
                    assert ref.steps == budget
                    # an event without a swallow stopped at its limit
                    cut += bool(events) and events[-1][1] == 0
    assert raised > 1300 and cut > 600
    # a run to tau_1 with volume never builds the block law, nor does run
    assert par34._block_laws is None and near._block_laws is None


def test_fast_chain_matches_scalar_in_law(monkeypatch):
    # two-sample KS tests of the scalar chain against run_fast with the
    # block path on.  Alpha 3/4 clamps early, at p = 88, so by depth 6
    # events without coins, past the clamp index, carry most steps.
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

    # run_fast takes its scalar steps through step() and run()
    calls = {"scalar": 0, "block": 0, "all": 0}

    def counted(fn):
        def scalar(chain, *args):
            steps = chain.steps
            try:
                return fn(chain, *args)
            finally:
                calls["scalar"] += chain.steps - steps

        return scalar

    _wrap_scalar(monkeypatch, counted)

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


@pytest.mark.parametrize(
    "alpha, want",
    [("0.672", 1027), ("0.68", 430), ("7/10", 178), ("3/4", 71), ("4/5", 42), ("9/10", 20)],
)
def test_block_cap_is_smallest_certified_size(alpha, want):
    # the swallow cap is the first size whose certified step-law tail is
    # at most 2^-53, whether the tables are fresh or grown far past it
    par = build_params(alpha=alpha)
    cap = peeling._block_cap(par)
    assert cap == want
    tails = [q_tail_bound(par.alpha, k, par.q_neg(k)) for k in range(1, cap + 1)]
    assert tails[-1] <= 2.0**-53
    assert all(t > 2.0**-53 for t in tails[:-1])
    grown = build_params(alpha=alpha)
    grown.ensure_q(4 * cap)
    grown.ensure_ctilde(4 * cap)
    assert peeling._block_cap(grown) == cap


# cdfs whose entries sit where a guide bucket's answer could go wrong:
# on bucket starts, repeated (zero-mass outcomes), one double below 1, and
# at 1 itself
_G = peeling._GUIDE
_EDGE_CDFS = (
    np.arange(0, _G, 5) / _G,
    np.repeat(np.array([1, 2, 3, 1000, 2048, _G - 1]) / _G, 3),
    np.repeat([0.0, 0.1, 0.3, 0.3 + 2.0**-40, 0.7], [2, 1, 4, 1, 2]),
    np.array([0.25, 0.5, 0.75, 1.0 - 2.0**-53]),
    np.array([0.0, 0.5, 1.0 - 2.0**-53, 1.0 - 2.0**-53, 1.0]),
)


@pytest.mark.parametrize("alpha", ["3/4", "0.68"])
def test_block_step_sizes_match_searchsorted(alpha):
    # each guide-table inverse cdf gives the searchsorted answer element
    # by element, on 1-D and 2-D input: the raw step law clipped at the
    # cap (with the table grown past it), the event gap law, the event
    # swallow-size law and the edge cdfs above.  The uniforms include
    # every cdf entry and its two neighbours, and both ends of every
    # guide bucket, b / _GUIDE and the last double below (b + 1) / _GUIDE.
    # The event tables are within 1e-15 of their exact values
    par = build_params(alpha=alpha)
    cap = peeling._block_cap(par)
    raw = peeling._InverseCdf(par.q_cumulative()[:cap])
    gaps, sizes = peeling._event_laws(par, cap)
    par.ensure_q(cap + 100)
    q = np.asarray(par.q_cumulative())
    draws = RngStream(3).block(200_000)
    starts = np.arange(_G) / _G
    buckets = np.stack([starts, np.nextafter(starts + 1.0 / _G, 0.0)])
    laws = [
        (raw, q, cap),
        (gaps, gaps._cdf, gaps._cdf.size),
        (sizes, sizes._cdf, sizes._cdf.size),
    ]
    laws += [(peeling._InverseCdf(cdf), cdf, cdf.size) for cdf in _EDGE_CDFS]
    for law, cdf, clip in laws:
        at = cdf[:clip]
        edges = np.concatenate(
            [[0.0, 1.0 - 2.0**-53], at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)]
        )
        edges = edges[(edges >= 0.0) & (edges < 1.0)]
        for u in (draws, draws.reshape(400, 500), edges, buckets, buckets.ravel()):
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


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(1, 600),
    n=st.integers(0, 200),
    events=st.lists(
        st.tuples(st.integers(0, 4), st.integers(1, 12), st.booleans()), min_size=1, max_size=200
    ),
)
@example(a=500, n=60, events=[(1, 3, False)] * 150 + [(0, 12, True)] * 50)
def test_event_arcs_match_the_arc_rule(a, n, events):
    # the closed-form arcs after each event of a chunk are the arc rule
    # applied step by step, from a start whose new arc may be empty (as
    # right after tau_r) or run dry anywhere in the chunk (the example
    # dries it at event 29 and takes the old arc at event 171), up to the
    # first swallow toward the old arc that takes all of it: there, and
    # not before, the old arc reads below 1.  The old arc never grows,
    # and the cut is the first event that leaves it below 1 (the chunk's
    # length where none does).  Events are replayed while their swallows
    # leave a perimeter >= 2
    gs, ks, old = map(np.array, zip(*events))
    nega, okn, cut = peeling._event_arcs(a, n, gs, ks, old)
    oka = -nega
    assert np.all(np.diff(oka) <= 0) and oka[0] <= a
    below = np.flatnonzero(oka < 1)
    assert cut == (below[0] if below.size else len(events))
    chain = SimpleNamespace(_A=a, _N=n, steps=0, hull=[], cur_r=1)
    for j, (g, k, toward_old) in enumerate(events):
        p = chain._A + chain._N + g
        if p - k < 2:
            break
        chain._N += g
        peeling._arc_step(chain, k, "next" if toward_old else "prev", p - k, None)
        if chain.hull:
            assert cut == j
            break
        assert (oka[j], okn[j]) == (chain._A, chain._N)


def _wrap_scalar(monkeypatch, wrap) -> None:
    """Patch the scalar paths run_fast hands steps to, LayerChain.run and
    LayerChain.step, each fn by wrap(fn)."""
    for name in ("run", "step"):
        monkeypatch.setattr(LayerChain, name, wrap(getattr(LayerChain, name)))


def _chunk_log(monkeypatch) -> list:
    """Log the chains that run_fast runs: a snapshot (kind, steps, block
    steps, perimeter, old arc, uniforms drawn, volume, block) before each
    chunk's block of events ('block', with the block) and before its
    block of coins ('coins', with the block; fill blocks are not logged),
    before each run() and step() call it makes ('step') and when run_fast
    returns or raises ('end').  A chunk's coin block is the block that
    follows its event block with the chain unchanged and no draw between
    them; a chunk without coins takes at least one step, so the next
    chunk's event block never looks like that."""
    log, running = [], []
    block, run_fast = RngStream.block, LayerChain.run_fast
    fill_volumes = peeling.BoltzmannFiller.fill_volumes

    def snap(kind, chain, us=None):
        log.append((
            kind, chain.steps, chain.block_steps, chain.p, chain._A, chain.rng.n_drawn, chain.v, us
        ))

    def logged(fn):
        def scalar(chain, *args):
            if running and running[-1] is chain:
                snap("step", chain)
            return fn(chain, *args)

        return scalar

    def logged_block(rng, n):
        chain = running[-1]
        if chain is None:
            return block(rng, n)
        prev = log[-1] if log else ("end",)
        snap("block", chain)
        now = log[-1]
        if prev[0] == "block" and prev[1:5] == now[1:5] and prev[5] + prev[7].size == now[5]:
            now = ("coins",) + now[1:]
        us = block(rng, n)
        log[-1] = now[:-1] + (us,)
        return us

    def unlogged_fills(filler, holes, rng):
        running.append(None)
        try:
            return fill_volumes(filler, holes, rng)
        finally:
            running.pop()

    def logged_run_fast(chain, r_max):
        running.append(chain)
        try:
            return run_fast(chain, r_max)
        finally:
            snap("end", chain)

    _wrap_scalar(monkeypatch, logged)
    monkeypatch.setattr(RngStream, "block", logged_block)
    monkeypatch.setattr(LayerChain, "run_fast", logged_run_fast)
    monkeypatch.setattr(peeling.BoltzmannFiller, "fill_volumes", unlogged_fills)
    return log


def _replayed_chunks(par, log):
    """Each chunk of a log: its start (steps, block steps, perimeter, old
    arc, uniforms drawn), the snapshot after it, its event block, its
    coin block (empty when it drew none), its event-by-event replay
    (oracles.block_chunk) and the volume it added."""
    for i, (kind, *start, v, us) in enumerate(log):
        if kind != "block":
            continue
        coins = log[i + 1][-1] if log[i + 1][0] == "coins" else np.empty(0)
        after = log[i + 1 + (log[i + 1][0] == "coins")]
        _, _, p, a, _ = start
        yield start, after[1:6], us, coins, block_chunk(par, p, a, us, coins), after[6] - v


@pytest.mark.parametrize("alpha, depth, clamp", [("7/10", 6, 226), ("3/4", 7, 88)])
def test_block_chunks_replay_event_by_event(monkeypatch, alpha, depth, clamp):
    # every chunk ends where the scalar replay of its events ends: same
    # steps, perimeter and old arc, and its event block and the coin
    # block after it are all it drew, one coin for each event whose
    # p' - k is below the clamp index.  Every swallow proposal taken
    # without a coin has acceptance exactly 1.0, read from C~ itself.
    # Events with and without coins are seen, and every way a chunk can
    # end.  Boundaries soon grow far past the clamp index, so chains
    # started right on it (in layer 2, arcs of equal length) mix both
    # kinds of event in their chunks
    probe = build_params(alpha=alpha)
    probe.ensure_ctilde(10**4)
    peeling._block_laws(probe)
    assert probe.ctilde_clamp_index() == clamp
    par = build_params(alpha=alpha)
    log = _chunk_log(monkeypatch)
    for t in range(6):
        LayerChain(par, RngStream(139, (t,)), volume=False).run_fast(depth)
        chain = LayerChain(par, RngStream(139, (t, 1)), volume=False)
        chain.p = clamp
        chain._A = chain.p // 2
        chain._N = chain.p - chain._A
        chain.cur_r = 2
        chain.run_fast(3)
    ends, coined, free = Counter(), 0, 0
    for (steps, blocks, _, _, drawn), after, us, coins, rep, dv in _replayed_chunks(par, log):
        assert us.size % 3 == 0 and coins.size == rep["coins"]
        assert after == (
            steps + rep["steps"], blocks + rep["steps"], rep["p"], rep["a"],
            drawn + us.size + coins.size,
        )
        assert rep["unsure"] == 0
        # with volume off, v counts the fresh steps
        assert dv == rep["fresh"]
        ends[rep["end"]] += 1
        coined += rep["events"] - rep["free"]
        free += rep["free"]
    assert set(ends) == {"rejected", "layer", "whole"}
    assert coined > 0 and free > 0


def test_rejection_cut_takes_the_gap_and_skips_the_swallow(monkeypatch):
    # a chunk cut by a rejected swallow proposal: its events before the
    # cut are taken whole, the cut event's fresh steps are taken, its
    # swallow is not, and the chunk drew its three uniforms an event and
    # its coins and nothing else
    par = build_params(alpha=Fraction(7, 10))
    gaps, sizes, _ = peeling._block_laws(par)
    log = _chunk_log(monkeypatch)
    for t in range(20):
        LayerChain(par, RngStream(149, (t,)), volume=False).run_fast(3)
    seen = 0
    for (steps, blocks, p, a, drawn), after, us, coins, rep, _ in _replayed_chunks(par, log):
        if rep["end"] != "rejected":
            continue
        seen += 1
        m, e = us.size // 3, rep["events"]
        gs, ks = gaps(us[:m])[:e], sizes(us[m : 2 * m])[:e] + 1
        # the cut event proposed its swallow at p', and its coin, the last
        # one read, rejected it; the old arc is the one the events before
        # it left
        p_cut = p + gs.sum() - ks[:-1].sum()
        coin = coins[e - rep["free"] - 1]
        assert not coin < par.ctilde(p_cut - ks[-1]) / par.ctilde(p_cut + 1)
        taken = gs.sum() + e - 1
        assert after == (
            steps + taken, blocks + taken, p_cut, rep["a"], drawn + 3 * m + coins.size
        )
    assert seen >= 20


def test_fast_chain_draws_only_what_it_uses(monkeypatch):
    # a block event (a run of fresh steps, then a swallow proposal) uses
    # three uniforms, and a coin where its p' - k is below the clamp
    # index; chunks sized from the chain state leave almost nothing
    # unused.  Each chunk holds A / rate events, clipped, the rate the old
    # arc's mean loss an event, with no special size at the start of a
    # layer (new arc empty), and draws 3 m uniforms plus its coins
    par = build_params(alpha=Fraction(3, 4))
    _, law, _ = peeling._block_laws(par)
    rate = (1.0 + law.mean) / 2
    log = _chunk_log(monkeypatch)
    drawn = 0
    for t in range(4):
        chain = LayerChain(par, RngStream(103, (t,)), volume=False)
        chain.run_fast(9)
        drawn += chain.rng.n_drawn
    used = sum(
        after[-1] - before[-1]
        for (kind, *before, _, _), (_, *after, _, _) in zip(log, log[1:])
        if kind == "step"
    )
    sizes = []
    for (_, _, p, a, before), after, us, coins, rep, _ in _replayed_chunks(par, log):
        used += 4 * rep["events"] - rep["free"]
        m = us.size // 3
        assert m == min(max(int(a / rate), peeling._CHUNK_MIN), peeling._CHUNK)
        assert after[-1] - before == 3 * m + coins.size == 3 * m + rep["coins"]
        sizes.append((p - a, m))
    assert used <= drawn <= 1.05 * used
    assert any(n_new == 0 for n_new, _ in sizes)
    assert max(m for _, m in sizes) > peeling._CHUNK_MIN


@pytest.mark.parametrize("volume", [False, True], ids=["volume-off", "volume-on"])
def test_fast_chain_budget_is_spent_exactly(monkeypatch, volume):
    # an event takes at most its clipped gap and its swallow, so a chunk
    # holds no more events than the budget has room for at that count:
    # no chunk ends past the budget, and each ends where its event-by-event
    # replay does.  The scalar steps that follow spend the budget exactly,
    # the budget check raises, and the arcs still add up to the perimeter.
    # Short budgets at alpha 7/10 end below the clamp index, in chunks
    # with coins; long ones at alpha 3/4 far above it, in chunks without
    log = _chunk_log(monkeypatch)
    last = Counter()
    for alpha, budgets, seed in (
        ("7/10", range(300, 2300, 100), 151), ("3/4", range(30_000, 30_200, 20), 127)
    ):
        par = build_params(alpha=alpha)
        for budget in budgets:
            chain = LayerChain(par, RngStream(seed, (budget,)), volume=volume, max_steps=budget)
            del log[:]
            with pytest.raises(BudgetExceededError) as err:
                chain.run_fast(40)
            assert err.value.partial is chain
            assert chain.steps == budget
            assert chain._A >= 1 and chain._A + chain._N == chain.p
            assert chain.block_steps <= chain.steps
            chunks = list(_replayed_chunks(par, log))
            for start, after, _, coins, rep, _ in chunks:
                assert after[:4] == (
                    start[0] + rep["steps"], start[1] + rep["steps"], rep["p"], rep["a"]
                )
                assert coins.size == rep["coins"]
                assert after[0] <= budget
            last[alpha, chunks[-1][3].size > 0] += 1
    assert last["7/10", True] >= 5 and last["3/4", False] >= 3


def test_fast_chain_invariants():
    chain = LayerChain(PAR, RngStream(79, (20,)), volume=False)
    hull = chain.run_fast(10)
    assert [h.r for h in hull] == list(range(1, 11))
    assert all(b.tau > a.tau for a, b in zip(hull, hull[1:]))
    assert all(h.perimeter >= 2 for h in hull)
    # the table never clamps at criticality, and alpha 0.666667 would
    # need a swallow cap of about 7.7 M sizes, so its search stops at
    # _CAP_MAX: at both run_fast takes every step through step(), draw
    # for draw, with or without volume
    near = build_params(alpha="0.666667")
    assert peeling._block_laws(near) is None
    assert near.i_max <= peeling._CAP_MAX
    for par in (CRIT, near):
        for volume in (False, True):
            a = LayerChain(par, RngStream(79, (21,)), volume=volume)
            b = LayerChain(par, RngStream(79, (21,)), volume=volume)
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


@pytest.mark.parametrize("alpha", ["7/10", "0.68"])
def test_fast_chain_coin_ratios_stay_finite(alpha):
    # events past a cut may propose their swallows at p' < 2; the clips on
    # the coin ratios' indices keep those unused ratios finite, so block
    # chunks with coins raise no floating-point error, with volume
    # tracked or not
    par = build_params(alpha=alpha)
    with np.errstate(all="raise"):
        for t in range(4):
            for volume in (False, True):
                LayerChain(par, RngStream(157, (t,)), volume=volume).run_fast(8)


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


@pytest.mark.parametrize(
    "alpha, volume, depths, trials",
    [
        ("7/10", True, (2, 4, 6), 250),
        ("0.67", False, (4, 8, 12), 200),
        ("7/10", False, (3, 5, 7), 200),
    ],
    ids=["seven-tenths-volume", "near-critical", "seven-tenths-across-clamp"],
)
def test_coin_chunks_match_scalar_in_law(alpha, volume, depths, trials):
    # two-sample KS tests of (tau_r, P_{tau_r}) and, with volume, V_{tau_r}
    # between run() and run_fast() where events with acceptance coins
    # carry the block steps.  The last case's boundaries cross the clamp
    # index, 226 at alpha 7/10, so its chunks mix events with and without
    # coins
    par = build_params(alpha=alpha)
    fields = ("tau", "perimeter", "volume") if volume else ("tau", "perimeter")

    def series(run):
        out = {(r, f): [] for r in depths for f in fields}
        for t in range(trials):
            hull = run(t)
            for r, f in out:
                out[r, f].append(getattr(hull[r - 1], f))
        return out

    r_max = depths[-1]
    scalar = series(lambda t: LayerChain(par, RngStream(157, (t,)), volume=volume).run(r_max))
    counts = {"steps": 0, "block": 0}

    def fast(t):
        chain = LayerChain(par, RngStream(163, (t,)), volume=volume)
        hull = chain.run_fast(r_max)
        counts["steps"] += chain.steps
        counts["block"] += chain.block_steps
        return hull

    block = series(fast)
    assert counts["block"] > 0.9 * counts["steps"]
    for key in scalar:
        assert sps.ks_2samp(scalar[key], block[key]).pvalue > 1e-3, key


def test_fast_chain_with_volume_matches_scalar_in_law():
    # two-sample KS tests of (P, V, tau) at tau_5 and tau_7 between run()
    # and run_fast() with volume at alpha 7/10.  The clamp index is 226
    # there: events whose swallow leaves the perimeter below it draw
    # acceptance coins and events past it none, and by tau_7 both run
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
    # p = 1,430 and the swallow cap K is 1,027.  Events with acceptance
    # coins carry the block steps below the clamp index, by tau_18 events
    # without coins past it
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
    # the completion spends the engine's own step budget
    eng = PeelEngine(PAR, RngStream(89, (22,)), max_steps=5)
    with pytest.raises(BudgetExceededError) as exc:
        complete_ball(eng, eng.map.org[eng.map.root], 10)
    assert exc.value.partial is eng
    assert eng.steps == 5


@pytest.mark.parametrize("radius", [2, 3, 4, 5])
def test_complete_ball_matches_hole_cycle_reference(radius):
    # one walk, run twice from one stream; each copy's ball is completed
    # under one of the two near-set rules, and every peel step must agree
    walks = [run_walk_peeling(PAR, 400, RngStream(67, (radius,))) for _ in range(2)]
    walked = walks[0].engine.steps
    ours = complete_ball(walks[0].engine, walks[0].x0, radius)
    ref = complete_ball_by_hole_cycle(walks[1].engine, walks[1].x0, radius)
    assert ours == ref
    a, b = walks[0].engine, walks[1].engine
    assert a.steps == b.steps > walked
    assert a.rng.n_drawn == b.rng.n_drawn
    for name in TriMap.__slots__:
        assert getattr(a.map, name) == getattr(b.map, name), name
