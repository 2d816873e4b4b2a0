"""End-to-end acceptance checks for the whole pipeline at desk scale.

Fourteen checks, one test each, in a fixed order: exact identities of
the step law and harmonic sequence, enumeration against the closed
formula, partition-function identities, sampler laws, drift rates, hull
growth and layer times, distribution equality across construction
routes, the degree functional, walk speed and non-intersection
evidence, and structural validation with trace replay.  Statistical
checks run at fixed seeds with the tolerances stated next to them;
each check also enforces its wall-clock budget.
"""

import time
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from tripeel.boltzmann import BoltzmannFiller
from tripeel.counting import catalan, count_decomposition, count_triangulations
from tripeel.experiments import (
    run_intersection,
    run_inv_degree,
    run_law_equivalence,
    run_layer_stats,
    run_volume_growth,
    run_walk_speed,
)
from tripeel.params import (
    build_params,
    drift_sum_residual,
    harmonicity_residual,
    mean_hole_volume,
    normalization_residual,
    parse_rational,
    z_partition,
)
from tripeel.peeling import (
    LayerChain,
    run_algorithm,
    run_layers,
    replay_trace,
    trace_to_csv,
    trace_to_json,
)
from tripeel.rng import RngStream
from tripeel.walk import run_walk_peeling

from oracles import polygon

SEED = 7


def _done(check: str, detail: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    print(f"{check}: {detail} [{elapsed:.1f}s] PASS")
    assert elapsed < budget, f"{check} took {elapsed:.1f}s, budget {budget}s"


# 1 ---------------------------------------------------------------------------


def test_step_law_identities():
    t0 = time.monotonic()
    for a in ("7/10", "3/4", "9/10"):
        params = build_params(alpha=a)
        assert normalization_residual(params) < 1e-9
        assert drift_sum_residual(params) < 1e-8
        params.ensure_ctilde(201)
        worst = max(harmonicity_residual(params, p) for p in range(2, 201))
        assert worst < 1e-10
        seq = [params.ctilde(p) for p in range(2, 202)]
        assert all(y >= x for x, y in zip(seq, seq[1:]))
    _done("step-law identities", "residuals certified for three couplings", t0, 1.0)


# 2 ---------------------------------------------------------------------------


def test_harmonic_sequence_limit():
    t0 = time.monotonic()
    params = build_params(alpha="3/4")
    params.ensure_ctilde(200)
    value = params.ctilde(200)
    assert abs(value - 3.079201) < 1e-4
    _done("harmonic limit", f"C~_200 = {value:.6f}", t0, 1.0)


# 3 ---------------------------------------------------------------------------


def test_enumeration_matches_closed_formula():
    t0 = time.monotonic()
    pairs = 0
    for p in range(2, 11):
        for n in range(0, 11 - p):
            closed = count_triangulations(n, p)
            assert closed == count_decomposition(n, p)
            if n == 0:
                # boundary-only row reduces to the polygon counts
                assert closed == catalan(p - 2)
            pairs += 1
    _done("enumeration", f"{pairs} (n, p) cells agree", t0, 60.0)


# 4 ---------------------------------------------------------------------------


def test_partition_function_split_identity():
    t0 = time.monotonic()
    for kap in ("9/128", "0.0735"):
        kf = float(parse_rational(kap))
        z = {p: z_partition(kap, p) for p in range(2, 12)}
        for p in range(3, 11):
            lhs = kf * z[p + 1] + sum(z[k + 1] * z[p - k] for k in range(1, p - 1))
            assert abs(lhs - z[p]) / z[p] < 1e-8
    _done("partition split", "one-step identity holds at both couplings", t0, 1.0)


# 5 ---------------------------------------------------------------------------


def test_hole_filler_two_gon_law():
    t0 = time.monotonic()
    params = build_params(kappa="9/128")
    assert float(mean_hole_volume(1, Fraction(3, 4))) == pytest.approx(0.2, abs=1e-12)
    filler = BoltzmannFiller(params)
    rng = RngStream(SEED)
    n = 100_000
    vols = np.array([filler.fill_volume(2, rng) for _ in range(n)], dtype=float)
    trivial = float((vols == 0).mean())
    assert abs(trivial - 0.9) < 3 * sqrt(0.9 * 0.1 / n)
    mean = float(vols.mean())
    assert abs(mean - 0.2) < 3 * float(vols.std(ddof=1)) / sqrt(n)
    _done("two-gon filler law", f"P(trivial) = {trivial:.4f}, mean volume = {mean:.4f}", t0, 60.0)


# 6 ---------------------------------------------------------------------------


def test_chain_drift_rates():
    t0 = time.monotonic()
    params = build_params(kappa="9/128")
    n, trials = 10_000, 100
    p_rates, v_rates = [], []
    for t in range(trials):
        chain = LayerChain(params, RngStream(SEED, (t,)))
        for _ in range(n):
            chain.step()
        p_rates.append(chain.p / n)
        v_rates.append(chain.v / n)
    for rates, target in ((p_rates, 0.433013), (v_rates, 0.866025)):
        arr = np.asarray(rates)
        se = float(arr.std(ddof=1)) / sqrt(trials)
        assert abs(float(arr.mean()) - target) < 3 * se
    _done(
        "chain drift",
        f"P_n/n = {np.mean(p_rates):.6f}, V_n/n = {np.mean(v_rates):.6f}",
        t0,
        300.0,
    )


# 7 ---------------------------------------------------------------------------


def test_hull_growth_constants():
    t0 = time.monotonic()
    params = build_params(alpha="7/10")
    rep = run_volume_growth(params, RngStream(SEED))
    res = rep["results"]
    targets = res["targets"]
    assert targets["boundary_ratio"] == pytest.approx(2.2153, abs=1e-4)
    assert targets["volume_per_boundary"] == pytest.approx(4.0, abs=1e-12)
    ratio = res["boundary_ratio"]["mean"]
    bulk = res["volume_per_boundary"]["mean"]
    assert abs(ratio - 2.2153) <= 0.10 * 2.2153
    assert abs(bulk - 4.0) <= 0.10 * 4.0
    _done("hull growth", f"boundary ratio {ratio:.4f}, bulk/boundary {bulk:.3f}", t0, 600.0)


# 8 ---------------------------------------------------------------------------


def test_layer_completion_time():
    t0 = time.monotonic()
    params = build_params(alpha="3/4")
    rep = run_layer_stats(params, RngStream(SEED))
    assert rep["results"]["target"] == pytest.approx(6.3094, abs=1e-4)
    mean = rep["results"]["layer_time_ratio"]["mean"]
    assert abs(mean - 6.3094) <= 0.10 * 6.3094
    _done("layer time", f"steps per layer per boundary {mean:.4f}", t0, 600.0)


# 9, 10 ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def law_report():
    t0 = time.monotonic()
    params = build_params(kappa="9/128")
    rep = run_law_equivalence(params, RngStream(SEED))
    return rep, time.monotonic() - t0


def test_selector_invariance_of_chain_law(law_report):
    rep, elapsed = law_report
    sel = rep["results"]["selector_invariance"]
    assert sel["p_value"] > 0.01
    print(
        f"selector invariance: chi2 p = {sel['p_value']:.3f} over "
        f"{sel['categories']} categories [{elapsed:.1f}s shared] PASS"
    )
    assert elapsed < 300.0


def test_chain_matches_conditioned_walk(law_report):
    rep, elapsed = law_report
    cw = rep["results"]["conditioned_walk"]
    assert cw["accepted"] == 100_000
    assert cw["p_value"] > 0.01
    print(
        f"conditioned walk: chi2 p = {cw['p_value']:.3f}, acceptance "
        f"{cw['acceptance_rate']:.3f} [{elapsed:.1f}s shared] PASS"
    )
    assert elapsed < 300.0


# 11 ---------------------------------------------------------------------------


def test_root_inverse_degree_at_top_coupling():
    t0 = time.monotonic()
    params = build_params(kappa="2/27")
    rep = run_inv_degree(params, RngStream(SEED))
    est = rep["results"]["inv_degree"]
    assert est["used"] == 100_000
    assert abs(est["mean"] - 1.0 / 6.0) < 3 * est["se"]
    _done("inverse degree", f"estimate {est['mean']:.5f} (se {est['se']:.5f})", t0, 600.0)


# 12 ---------------------------------------------------------------------------


def test_walk_speed_positive():
    t0 = time.monotonic()
    params = build_params(kappa="9/128")
    rep = run_walk_speed(params, RngStream(SEED))
    res = rep["results"]
    assert res["speed"]["low"] > 0
    assert res["pooled_fit"]["r2"] > 0.99
    audit = res["audit"]
    assert audit["r0"] == 6
    assert audit["audited"] > 100
    assert audit["rate"] < 0.01
    _done(
        "walk speed",
        f"speed {res['speed']['mean']:.4f} (low {res['speed']['low']:.4f}), "
        f"fit r2 {res['pooled_fit']['r2']:.4f}, audit rate {audit['rate']:.4f}",
        t0,
        900.0,
    )


# 13 ---------------------------------------------------------------------------


def test_start_vertex_stays_on_boundary():
    t0 = time.monotonic()
    params = build_params(kappa="9/128")
    rep = run_intersection(params, RngStream(SEED))
    res = rep["results"]
    assert res["used"] == 1000
    assert res["low_99"] > 0
    assert res["non_increasing"] is True
    _done(
        "start vertex on boundary",
        f"frequency {res['frequency']:.3f} (lower bound {res['low_99']:.3f})",
        t0,
        600.0,
    )


# 14 ---------------------------------------------------------------------------


def test_structural_validation_and_replay():
    t0 = time.monotonic()
    maps = 0
    replays = 0
    for i, kap in enumerate(("9/128", "2/27")):
        params = build_params(kappa=kap)
        for j, algo in enumerate(("stay", "uniform", "advance")):
            tr = run_algorithm(params, algo, 300, RngStream(SEED, (i, j)))
            tr.map.validate()
            maps += 1
            code = tr.map.canonical_code()
            assert replay_trace(trace_to_csv(tr))["canonical_code"] == code
            assert replay_trace(trace_to_json(tr))["canonical_code"] == code
            replays += 2
        layers = run_layers(params, 4, RngStream(SEED, (i, 7)), record=True)
        layers.map.validate()
        maps += 1
        assert (
            replay_trace(trace_to_json(layers))["canonical_code"]
            == layers.map.canonical_code()
        )
        replays += 1
        walk = run_walk_peeling(params, 300, RngStream(SEED, (i, 8)))
        walk.map.validate()
        maps += 1
        filled, inner = polygon(6)
        BoltzmannFiller(params).fill_hole(filled, inner, 6, RngStream(SEED, (i, 9)))
        filled.validate()
        maps += 1
    _done(
        "structure and replay",
        f"{maps} maps validated, {replays} replays reproduced their encodings",
        t0,
        120.0,
    )
