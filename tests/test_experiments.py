"""Experiment runners: report shape, determinism, round-trips."""

import ast
import inspect
import json
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripeel import experiments
from tripeel.errors import BudgetExceededError, DomainError
from tripeel.experiments import (
    EXPERIMENTS,
    REPORT_SCHEMA,
    constants_report,
    growth_targets,
    report_from_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
    run_enumeration,
    run_experiment,
    run_intersection,
    run_inv_degree,
    run_law_equivalence,
    run_layer_stats,
    run_stationarity,
    run_volume_growth,
    run_walk_speed,
)
from tripeel.params import build_params
from tripeel.peeling import LayerChain, LayerEngine
from tripeel.rng import RngStream
from tripeel.stats import mean_ci

from oracles import degree


@pytest.fixture(scope="module")
def p75():
    return build_params(alpha="3/4")


@pytest.fixture(scope="module")
def crit():
    return build_params(kappa="2/27")


@pytest.fixture(scope="module")
def k9():
    return build_params(kappa="9/128")


def test_report_header_fields(p75):
    rep = run_volume_growth(p75, RngStream(9), trials=2, r_max=4, window=(2, 4))
    assert rep["schema"] == REPORT_SCHEMA
    assert rep["experiment"] == "volume-growth"
    assert rep["params"]["digest"] == p75.digest()
    assert rep["seed"] == 9 and rep["spawn_key"] == []
    assert len(rep["results"]["per_trial"]) == 2
    assert rep["results"]["targets"]["volume_per_boundary"] == pytest.approx(2.0)


def test_reports_are_seed_deterministic(p75):
    def make(seed):
        return run_layer_stats(p75, RngStream(seed), trials=3, window=(2, 4))

    assert report_to_json(make(3)) == report_to_json(make(3))
    assert report_to_json(make(3)) != report_to_json(make(4))


def test_layer_stats_ignores_table_growth():
    # alpha 0.68 clamps the harmonic table only at p = 570; the report
    # must not depend on how far the shared tables have grown, before
    # the clamp or past it
    def fresh():
        return build_params(alpha="0.68")

    grown = [fresh(), fresh(), fresh(), fresh()]
    grown[1].ensure_ctilde(571)
    grown[2].ensure_ctilde(1000)
    grown[3].ensure_q(1024)
    grown[3].ensure_ctilde(571)
    texts = {
        report_to_json(run_layer_stats(p, RngStream(5), trials=3, window=(8, 11)))
        for p in grown
    }
    assert len(texts) == 1
    assert json.loads(texts.pop())["settings"]["fast_path"] is True


def test_layer_stats_fast_path_reports_what_ran():
    # the critical point has no finite swallow cap, and alpha 0.666667 no
    # affordable one, so every step is scalar, and the report must say
    # so.  At alpha 0.6667 block chunks carry the boundaries from
    # perimeter 4 on, and every event in them draws an acceptance coin: a
    # chain's perimeter is at most 2 plus its steps, and the run's steps
    # stay far below the clamp index
    for scalar in (build_params(kappa="2/27"), build_params(alpha="0.666667")):
        rep = run_layer_stats(scalar, RngStream(5), trials=3, window=(6, 10))
        assert rep["settings"]["fast_path"] is False
        assert rep["results"]["work"]["block_steps"] == 0
    p = build_params(alpha="0.6667")
    rep = run_layer_stats(p, RngStream(5), trials=3, window=(6, 10))
    assert rep["settings"]["fast_path"] is True
    work = rep["results"]["work"]
    assert work["block_steps"] > 0
    assert p.ctilde_clamp_index() == 229_300 > work["steps"] + 2


def test_volume_growth_fast_path_reports_what_ran(p75):
    # at alpha 3/4 block steps carry the layers after the first; at alpha
    # 0.666667, which has no affordable swallow cap, every step is
    # scalar, and the report must say so
    deep = run_volume_growth(p75, RngStream(9), trials=2, r_max=5, window=(2, 5))
    assert deep["settings"]["fast_path"] is True
    near = build_params(alpha="0.666667")
    held = run_volume_growth(near, RngStream(9), trials=2, r_max=3, window=(2, 3))
    assert held["settings"]["fast_path"] is False
    assert held["results"]["work"]["block_steps"] == 0


def test_reports_count_their_work(p75):
    # results.work sums the steps, block steps and uniforms of the trial
    # chains, each run on its own fork of the report's stream
    def work(volume, depth):
        chains = [LayerChain(p75, RngStream(9).fork(t), volume=volume) for t in range(2)]
        for chain in chains:
            chain.run_fast(depth)
        return {
            "steps": sum(c.steps for c in chains),
            "block_steps": sum(c.block_steps for c in chains),
            "uniforms": sum(c.rng.n_drawn for c in chains),
        }

    layers = run_layer_stats(p75, RngStream(9), trials=2, window=(4, 6))
    volume = run_volume_growth(p75, RngStream(9), trials=2, r_max=5, window=(2, 5))
    assert layers["results"]["work"] == work(False, 7)
    assert volume["results"]["work"] == work(True, 6)
    for rep in (layers, volume):
        assert 0 < rep["results"]["work"]["block_steps"] < rep["results"]["work"]["steps"]


def test_layer_stats_takes_the_block_path_at_alpha_four_fifths():
    # the harmonic table clamps at p = 52 here, so the block path carries
    # the wide boundaries and the table stays short
    p = build_params(alpha="4/5")
    rep = run_layer_stats(p, RngStream(1), trials=2, window=(2, 4))
    assert rep["settings"]["fast_path"] is True
    assert p.ctilde_clamp_index() == 52
    assert p.p_max <= 100


def test_report_round_trips(p75):
    rep = run_layer_stats(p75, RngStream(1), trials=2, window=(2, 3))
    assert report_from_json(report_to_json(rep)) == rep
    assert report_from_csv(report_to_csv(rep)) == rep


def test_report_parsers_reject_junk():
    with pytest.raises(DomainError):
        report_from_json(json.dumps({"schema": "something-else"}))
    with pytest.raises(DomainError):
        report_from_csv("not,a,report\n")


def test_growth_targets_need_subcritical(crit, p75):
    with pytest.raises(DomainError):
        growth_targets(crit)
    t = growth_targets(p75)
    assert t["boundary_ratio"] > 1
    assert t["layer_time_ratio"] == pytest.approx(6.3094, abs=1e-4)


def test_volume_growth_validates_window(p75, crit):
    with pytest.raises(DomainError):
        run_volume_growth(p75, RngStream(0), trials=2, r_max=4, window=(3, 5))
    with pytest.raises(DomainError):
        run_volume_growth(crit, RngStream(0), trials=2, r_max=4, window=(2, 4))
    # r_max is checked first: the default window would name bounds the
    # caller never gave
    for r_max in (0, -3):
        with pytest.raises(DomainError, match=rf"^r_max must be at least 1, got {r_max}$"):
            run_volume_growth(p75, RngStream(0), trials=2, r_max=r_max)


def test_law_equivalence_small(p75):
    rep = run_law_equivalence(p75, RngStream(5), runs=2000)
    res = rep["results"]
    for key in ("selector_invariance", "conditioned_walk"):
        assert 0.0 <= res[key]["p_value"] <= 1.0
    cw = res["conditioned_walk"]
    assert cw["accepted"] == 2000
    assert 0.0 < cw["acceptance_rate"] <= 1.0
    # readout values are perimeters of a chain that never drops under 2
    assert sum(cw["table"][1]) == 2000
    with pytest.raises(DomainError):
        run_law_equivalence(p75, RngStream(5), runs=10)
    with pytest.raises(DomainError):
        run_law_equivalence(p75, RngStream(5), runs=1000, horizon=0)


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before its settings were checked")


def test_law_equivalence_checks_horizons_first(p75, monkeypatch):
    monkeypatch.setattr(experiments, "LayerChain", _must_not_run)
    with pytest.raises(DomainError, match="survival horizon"):
        run_law_equivalence(p75, RngStream(5), runs=1000, horizon=200)


@pytest.mark.parametrize(
    "audit",
    [{"audit_trials": -3}, {"audit_trials": 0, "audit_radius": -1}, {"audit_radius": -1}],
    ids=["negative-trials", "negative-radius-unaudited", "negative-radius"],
)
def test_walk_speed_checks_audit_settings_first(k9, monkeypatch, audit):
    monkeypatch.setattr(experiments, "run_walk_peeling", _must_not_run)
    with pytest.raises(DomainError, match="must be nonnegative"):
        run_walk_speed(k9, RngStream(0), walks=2, n_steps=50, **audit)


def test_walk_speed_checks_walk_length_first(k9, monkeypatch):
    monkeypatch.setattr(experiments, "run_walk_peeling", _must_not_run)
    with pytest.raises(DomainError, match="at least 1000 walk steps"):
        run_walk_speed(k9, RngStream(0), walks=2, n_steps=999)


def test_enumeration_table():
    rep = run_enumeration(max_total=7)
    assert rep["results"]["mismatches"] == 0
    assert rep["params"] is None and rep["seed"] is None
    rows = rep["results"]["rows"]
    assert {(r["n"], r["p"]) for r in rows} == {
        (n, p) for p in range(2, 8) for n in range(0, 8 - p)
    }
    with pytest.raises(DomainError):
        run_enumeration(max_total=2)


def test_run_experiment_dispatch(p75):
    with pytest.raises(DomainError):
        run_experiment("no-such", p75, RngStream(0))
    with pytest.raises(DomainError):
        run_experiment("intersection", None, None)
    rep = run_experiment("enumerate", None, None, max_total=5)
    assert rep["experiment"] == "enumerate"


def test_run_experiment_rejects_keywords_the_runner_lacks(crit):
    with pytest.raises(DomainError, match="not take radius; it takes trials, max_steps_per_trial"):
        run_experiment("inv-degree", crit, RngStream(0), radius=3)
    with pytest.raises(DomainError, match="not take trials; it takes max_total"):
        run_experiment("enumerate", None, None, trials=3)


def _settings_keys(fn: ast.FunctionDef) -> set:
    """Keys of the settings dict literal a runner passes to _report,
    inline or through the name it was assigned to."""
    call = next(
        n for n in ast.walk(fn)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_report"
    )
    settings = call.args[3]
    if isinstance(settings, ast.Name):
        settings = next(
            n.value for n in ast.walk(fn)
            if isinstance(n, ast.Assign)
            and [getattr(t, "id", None) for t in n.targets] == [settings.id]
        )
    return {k.value for k in settings.keys}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_runner_keywords_are_reported_settings(name):
    """A keyword a caller can set is echoed in the report's settings;
    read from the source, so no experiment runs."""
    fn = ast.parse(textwrap.dedent(inspect.getsource(EXPERIMENTS[name]))).body[0]
    takes = {a.arg for a in fn.args.kwonlyargs}
    assert takes <= _settings_keys(fn)


def test_intersection_experiment(k9):
    def run():
        return run_intersection(k9, RngStream(137, (7,)), trials=80, n_steps=120)["results"]

    res = run()
    assert 0 <= res["low_99"] <= res["frequency"] <= 1
    freqs = [f for _, f in res["survival"]]
    assert all(b <= a for a, b in zip(freqs, freqs[1:]))
    assert res["used"] == 80
    again = run()
    assert again["frequency"] == res["frequency"]
    assert again["survival"] == res["survival"]


def test_inv_degree_bounds_and_budget(k9):
    res = run_inv_degree(k9, RngStream(139, (8,)), trials=300)["results"]["inv_degree"]
    assert 0 < res["mean"] <= 0.5  # degrees are at least 2 in a loopless map
    assert res["used"] == 300 and res["discarded"] == 0
    tight = run_inv_degree(k9, RngStream(139, (9,)), trials=40, max_steps_per_trial=2)
    tight = tight["results"]["inv_degree"]
    assert tight["discarded"] > 0
    assert tight["used"] + tight["discarded"] == 40


def test_stationarity_modes(k9):
    rep = run_stationarity(k9, RngStream(149, (10,)), trials=240, n_steps=8, k=5)
    modes = rep["results"]["modes"]
    assert list(modes) == ["walk", "reversed", "null"]
    for mode, res in modes.items():
        assert res["p_value"] > 0.001, mode
        assert res["n_a"] + res["n_b"] == 240 - res["discarded"], mode
    with pytest.raises(DomainError):
        run_stationarity(k9, RngStream(0), trials=10, n_steps=4, k=5)
    # the re-rootings are fixed; an unknown one is an unknown keyword
    with pytest.raises(DomainError):
        run_experiment("stationarity", k9, RngStream(0), trials=10, modes=("sideways",))


def test_stationarity_discards_a_ball_that_exhausts_the_walk_budget(k9, monkeypatch):
    # the walk engine's budget counts the walk and the ball together; at 300
    # steps no walk is cut, so every discard is a ball completion that ran out
    monkeypatch.setattr(experiments, "_REROOT_STEPS", 300)
    walk = experiments.run_walk_peeling
    traces = []

    def spy(*args, **kwargs):
        traces.append(walk(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(experiments, "run_walk_peeling", spy)
    rep = run_stationarity(k9, RngStream(0), trials=40, n_steps=16, k=3, radius=2)
    modes = rep["results"]["modes"]
    assert [modes[m]["discarded"] for m in modes] == [9, 16, 10]
    assert len(traces) == 120 and not any(t.truncated for t in traces)
    assert rep["settings"]["max_peel_steps"] == 300
    for res in modes.values():
        assert res["n_a"] + res["n_b"] == 40 - res["discarded"]


@pytest.mark.parametrize("radius", [0, -1])
def test_stationarity_rejects_radius_before_any_walk(k9, monkeypatch, radius):
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk ran before the radius was checked")

    monkeypatch.setattr(experiments, "run_walk_peeling", no_walk)
    with pytest.raises(DomainError, match="radius"):
        run_stationarity(k9, RngStream(0), trials=4, n_steps=8, k=3, radius=radius)


@pytest.mark.parametrize("trials", [0, 1])
def test_stationarity_rejects_too_few_trials_before_any_walk(k9, monkeypatch, trials):
    monkeypatch.setattr(experiments, "run_walk_peeling", _must_not_run)
    with pytest.raises(DomainError, match="need at least two trials"):
        run_stationarity(k9, RngStream(0), trials=trials, n_steps=8, k=3)


def test_constants_report_critical_vs_not(p75, crit):
    sub = constants_report(p75, head=4)["results"]
    assert sub["ctilde_limit"] == pytest.approx(3.079201, abs=1e-4)
    assert sub["residuals"]["normalization"] < 1e-9
    assert len(sub["q_head"]) == 5
    top = constants_report(crit, head=4)["results"]
    assert top["drift"] == 0.0
    assert top["residuals"]["normalization"] is None
    assert top["residuals"]["harmonicity_max_p"] < 1e-10


_key = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-.", min_size=1, max_size=8
)
_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_value = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_key, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_key, _value, min_size=1, max_size=6))
def test_csv_flattening_round_trips_any_report(body):
    doc = {"schema": REPORT_SCHEMA, **body}
    assert report_from_csv(report_to_csv(doc)) == doc


def _inv_degree_on_maps(params, trials, rng, max_steps_per_trial):
    """Reference estimate: peel the map with the layer rule until the root
    origin leaves the boundary, then read its degree off the map."""
    vals = []
    discarded = 0
    for t in range(trials):
        eng = LayerEngine(params, rng.fork(t), max_steps=max_steps_per_trial)
        m = eng.map
        origin = m.org[m.root]
        try:
            while m.v_hole[origin] != -1:
                eng.step()
        except BudgetExceededError:
            discarded += 1
            continue
        vals.append(1.0 / degree(m, origin))
    ci = mean_ci(vals)
    ci.update({"trials": trials, "used": len(vals), "discarded": discarded})
    return ci


@pytest.mark.parametrize("coupling", [{"kappa": "2/27"}, {"alpha": "3/4"}, {"alpha": "9/10"}])
@pytest.mark.parametrize("max_steps", [50_000, 2])
def test_inv_degree_matches_the_map(coupling, max_steps):
    params = build_params(**coupling)
    rep = run_inv_degree(params, RngStream(163, (18,)), trials=2000, max_steps_per_trial=max_steps)
    got = rep["results"]["inv_degree"]
    want = _inv_degree_on_maps(params, 2000, RngStream(163, (18,)), max_steps)
    assert got == want
    assert (got["discarded"] > 0) == (max_steps == 2)
