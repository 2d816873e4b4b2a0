"""Golden values and invariants for the parameter layer.

Exact expected values are recomputed here from first principles with
Fraction arithmetic, independent of the float pipelines under test.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripeel as tp
from tripeel.counting import catalan, count_ratio, count_triangulations
from tripeel.errors import DomainError, NumericalInstabilityError, TableOverflowError
from tripeel.params import (
    drift_sum_residual,
    harmonicity_residual,
    normalization_residual,
    parse_rational,
    q_tail_bound,
)


def exact_q_neg(k: int, alpha: Fraction) -> Fraction:
    """Independent exact step weight: 2 a_k ((1-a)/2a)^k ((3a-2)k + 1)."""
    a_k = Fraction(catalan(k - 1), k + 1)
    return 2 * a_k * ((1 - alpha) / (2 * alpha)) ** k * ((3 * alpha - 2) * k + 1)


# -- kappa <-> alpha ----------------------------------------------------


def test_alpha_kappa_golden_pairs():
    assert tp.kappa_from_alpha(Fraction(3, 4)) == Fraction(9, 128)
    assert tp.kappa_from_alpha(Fraction(2, 3)) == Fraction(2, 27)
    assert tp.alpha_from_kappa(Fraction(2, 27)) == pytest.approx(2 / 3, abs=1e-15)
    assert tp.alpha_from_kappa(Fraction(9, 128)) == pytest.approx(0.75, abs=1e-14)
    assert tp.alpha_from_kappa(0.0735) == pytest.approx(0.70, abs=1e-12)


def test_alpha_kappa_domain():
    for bad in (0.0, -0.1, 0.075, 1.0):
        with pytest.raises(DomainError):
            tp.alpha_from_kappa(bad)
    for bad in (0.5, 1.0, 1.5, Fraction(1, 3)):
        with pytest.raises(DomainError):
            tp.kappa_from_alpha(bad)


@given(st.floats(min_value=0.667, max_value=0.999))
@settings(max_examples=80, deadline=None)
def test_alpha_kappa_roundtrip(alpha):
    kappa = tp.kappa_from_alpha(alpha)
    back = tp.alpha_from_kappa(kappa)
    assert math.isclose(back, alpha, rel_tol=1e-11)


def test_exact_root_recovery():
    p = tp.build_params(kappa="9/128")
    assert p.alpha_exact == Fraction(3, 4)
    p = tp.build_params(kappa="2/27")
    assert p.alpha_exact == Fraction(2, 3)
    assert p.critical and p.drift == 0.0


def test_parse_rational():
    assert parse_rational("9/128") == Fraction(9, 128)
    assert parse_rational("0.0735") == Fraction(147, 2000)
    with pytest.raises(DomainError):
        parse_rational("nine/128")


# -- step law -----------------------------------------------------------


def test_step_law_golden_values():
    a = Fraction(3, 4)
    assert tp.q_step(1, a) == a
    assert tp.q_step(-1, a) == Fraction(5, 24)
    assert tp.q_step(-2, a) == Fraction(1, 36)
    assert tp.q_step(-3, a) == Fraction(7, 864)
    with pytest.raises(DomainError):
        tp.q_step(0, a)
    with pytest.raises(DomainError):
        tp.q_step(2, a)


@given(
    st.integers(min_value=1, max_value=40),
    st.fractions(min_value=Fraction(27, 40), max_value=Fraction(99, 100), max_denominator=997),
)
@settings(max_examples=60, deadline=None)
def test_step_law_float_matches_exact(k, alpha):
    exact = exact_q_neg(k, alpha)
    approx = tp.q_step(-k, float(alpha))
    assert math.isclose(approx, float(exact), rel_tol=1e-11)


@pytest.mark.parametrize("alpha", [0.70, 0.75, 0.90])
def test_step_law_normalizes(alpha):
    p = tp.build_params(alpha=alpha)
    assert normalization_residual(p) < 1e-9


@pytest.mark.parametrize("alpha", [0.70, 0.75, 0.90])
def test_step_law_drift_matches_closed_form(alpha):
    p = tp.build_params(alpha=alpha)
    assert drift_sum_residual(p) < 1e-8
    assert p.drift == pytest.approx(math.sqrt(alpha * (3 * alpha - 2)), rel=1e-14)


def test_tail_bound_is_a_bound():
    p = tp.build_params(alpha=0.75, i_max=4096)
    for cut in (8, 32, 128):
        actual = math.fsum(p.q_neg(j) for j in range(cut + 1, 4097))
        bound = q_tail_bound(p.alpha, cut, p.q_neg(cut))
        assert actual <= bound <= actual * 6 + 1e-300
        wactual = math.fsum(j * p.q_neg(j) for j in range(cut + 1, 4097))
        wbound = q_tail_bound(p.alpha, cut, p.q_neg(cut), weighted=True)
        assert wactual <= wbound


def test_tail_bound_absent_at_criticality():
    p = tp.build_params(kappa="2/27")
    assert q_tail_bound(p.alpha, 50, p.q_neg(50)) == math.inf


# -- harmonic sequence --------------------------------------------------


def test_harmonic_golden_values():
    p = tp.build_params(kappa="9/128")
    assert p.ctilde(0) == 0.0
    assert p.ctilde(1) == 0.0
    assert p.ctilde(2) == pytest.approx(16 / 9, rel=1e-15)
    assert p.ctilde(3) == pytest.approx(64 / 27, rel=1e-15)
    assert p.ctilde(4) == pytest.approx(8 / 3, rel=1e-14)


def test_harmonic_exact_table_matches_float():
    a = Fraction(3, 4)
    exact = tp.params.c_tilde_table_exact(a, 40)
    p = tp.build_params(alpha=a)
    for q in range(2, 41):
        assert math.isclose(p.ctilde(q), float(exact[q]), rel_tol=1e-12), q


def test_harmonic_limit_and_clamp():
    p = tp.build_params(alpha=Fraction(3, 4))
    limit = 16 / (3 * math.sqrt(3))
    assert p.ctilde_limit == pytest.approx(limit, rel=1e-15)
    assert p.ctilde(500) == pytest.approx(limit, rel=1e-12)
    assert p.ctilde(100_000) == pytest.approx(limit, rel=1e-12)
    # monotone nondecreasing all the way out
    values = [p.ctilde(q) for q in range(2, 300)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_harmonic_critical_grows_without_clamp():
    p = tp.build_params(kappa="2/27")
    assert p.ctilde(2) == pytest.approx(2.25, rel=1e-15)
    assert p.ctilde(3) == pytest.approx(3.375, rel=1e-15)
    v100, v400 = p.ctilde(100), p.ctilde(400)
    assert v400 > 1.9 * v100  # sqrt-like growth: doubles per 4x perimeter
    assert not p._ct_clamped


@pytest.mark.parametrize("alpha", [0.70, 0.75, 0.90])
def test_harmonicity_residual_small(alpha):
    p = tp.build_params(alpha=alpha)
    for q in (2, 3, 7, 30, 120, 200):
        assert harmonicity_residual(p, q) < 1e-10, q


# -- transitions --------------------------------------------------------


def test_transition_golden_value():
    p = tp.build_params(alpha=Fraction(3, 4))
    assert tp.peel_transition(3, p, kind="fresh") == pytest.approx(27 / 32, rel=1e-13)


def test_transition_rows_sum_to_one():
    for handle in ({"alpha": 0.72}, {"kappa": "9/128"}, {"kappa": "2/27"}):
        p = tp.build_params(**handle)
        for peri in (2, 3, 4, 9, 40):
            assert p.transition_total(peri) == pytest.approx(1.0, abs=1e-12)


def test_transition_sides_split_evenly():
    p = tp.build_params(alpha=0.75)
    both = tp.peel_transition(9, p, kind="swallow", k=3)
    left = tp.peel_transition(9, p, kind="swallow", k=3, side="left")
    right = tp.peel_transition(9, p, kind="swallow", k=3, side="right")
    assert left == right == pytest.approx(both / 2, rel=1e-15)


def test_transition_out_of_range_swallow_is_zero():
    p = tp.build_params(alpha=0.75)
    assert tp.peel_transition(4, p, kind="swallow", k=3) == 0.0
    assert tp.peel_transition(2, p, kind="swallow", k=1) == 0.0
    with pytest.raises(DomainError):
        tp.peel_transition(1, p, kind="fresh")
    with pytest.raises(DomainError):
        tp.peel_transition(3, p, kind="teleport")


# -- partition functions -------------------------------------------------


def test_partition_golden_values():
    assert tp.z_partition("9/128", 2) == pytest.approx(10 / 9, rel=1e-12)
    assert tp.z_partition("9/128", 3) == pytest.approx(128 / 81, rel=1e-12)
    assert tp.z_partition("9/128", 4) == pytest.approx(3584 / 729, rel=1e-12)


def test_partition_series_agrees_with_closed():
    for p in range(2, 7):
        closed = tp.z_partition("9/128", p)
        series = tp.z_partition("9/128", p, method="series", rel_tol=1e-11)
        assert math.isclose(closed, series, rel_tol=1e-9), p


def test_partition_split_identity():
    # Z_p = kappa Z_{p+1} + sum_{k=1}^{p-2} Z_{k+1} Z_{p-k}, with the
    # boundary case Z_2 = 1 + kappa Z_3 (trivial closure of the 2-gon)
    for kappa in (Fraction(9, 128), Fraction(147, 2000)):
        kf = float(kappa)
        z = {p: tp.z_partition(kappa, p) for p in range(2, 12)}
        assert z[2] == pytest.approx(1 + kf * z[3], rel=1e-11)
        for p in range(3, 11):
            rhs = kf * z[p + 1] + sum(z[k + 1] * z[p - k] for k in range(1, p - 1))
            assert z[p] == pytest.approx(rhs, rel=1e-11), p


def test_partition_series_needs_margin():
    with pytest.raises(DomainError):
        tp.z_partition(Fraction(2, 27), 3, method="series")


def test_partition_critical_closed_form_finite():
    assert tp.z_partition(Fraction(2, 27), 2) == pytest.approx(9 / 8, rel=1e-12)


def test_partition_domain():
    with pytest.raises(DomainError):
        tp.z_partition(0.08, 3)
    with pytest.raises(DomainError):
        tp.z_partition("9/128", 1)


def test_partition_relates_to_step_law():
    # q_{-k} = 2 beta^k Z_{k+1} ties the step law to the filler weights
    p = tp.build_params(alpha=Fraction(3, 4))
    for k in range(1, 12):
        lhs = p.q_neg(k)
        rhs = 2 * p.beta**k * tp.z_partition(p.kappa_exact, k + 1)
        assert math.isclose(lhs, rhs, rel_tol=1e-11), k


# -- mean filled volume ---------------------------------------------------


def test_mean_hole_volume_golden():
    assert tp.mean_hole_volume(1, 0.75) == pytest.approx(0.2, rel=1e-13)
    assert tp.mean_hole_volume(2, Fraction(3, 4)) == Fraction(1)
    with pytest.raises(DomainError):
        tp.mean_hole_volume(0, 0.75)


def test_mean_hole_volume_against_series():
    # E[volume] = sum_n n c(n, k+1) kappa^n / Z_{k+1}, summed with the
    # same certified geometric tail as the partition series
    kappa = Fraction(9, 128)
    kf = float(kappa)
    growth = 13.5 * kf
    for k in (1, 2, 3):
        p = k + 1
        term = count_triangulations(1, p) * kf  # c(n,p) kappa^n at n = 1
        numer = term
        n = 1
        while True:
            tail = term * (n * growth / (1 - growth) + growth / (1 - growth) ** 2)
            if tail < 1e-9 * numer:
                break
            term *= float(count_ratio(n, p)) * kf
            n += 1
            numer += n * term
        mean = numer / tp.z_partition(kappa, p)
        assert tp.mean_hole_volume(k, 0.75) == pytest.approx(mean, rel=1e-6), k


# -- PeelParams housekeeping ----------------------------------------------


def test_params_digest_stable_under_growth():
    a = tp.build_params(kappa="9/128", i_max=16, p_max=16)
    b = tp.build_params(kappa="9/128", i_max=512, p_max=512)
    d0 = a.digest()
    a.ensure_q(2048)
    a.ensure_ctilde(2048)
    assert a.digest() == d0 == b.digest()
    c = tp.build_params(kappa="2/27")
    assert c.digest() != d0


def test_params_json_roundtrip():
    p = tp.build_params(kappa="9/128", i_max=32, p_max=48)
    doc = json.loads(p.to_json())
    assert doc["schema"] == "tripeel-params-v1"
    assert doc["critical"] is False
    q = tp.PeelParams.from_json(p.to_json(), verify=True)
    assert q.digest() == p.digest()
    assert q.q_neg(7) == p.q_neg(7)
    assert q.ctilde(17) == p.ctilde(17)


def test_params_table_hard_cap():
    p = tp.build_params(alpha=0.75)
    with pytest.raises(TableOverflowError):
        p.ensure_q(10_000_001)


def test_build_params_needs_exactly_one_handle():
    with pytest.raises(DomainError):
        tp.build_params()
    with pytest.raises(DomainError):
        tp.build_params(kappa="9/128", alpha=0.75)


# near-critical, generic and extreme couplings; the float recursion must
# grow each table without losing monotonicity
_PROBE_COUPLINGS = [
    {"alpha": a} for a in (2 / 3 + 1e-9, 0.6667, 0.672, 0.7, 0.75, 0.9, 0.999)
] + [{"kappa": "2/27"}, {"kappa": "9/128"}, {"kappa": 1e-5}]


@pytest.mark.parametrize(
    "coupling", _PROBE_COUPLINGS,
    ids=lambda c: "{}={}".format(*next(iter(c.items()))).replace("/", "_"),
)
def test_harmonic_growth_is_append_only(coupling):
    p = tp.build_params(**coupling)
    before = [p.ctilde(q) for q in range(2, p.p_max + 1)]
    p.ensure_ctilde(1500)  # raises NumericalInstabilityError on a decrease
    after = [p.ctilde(q) for q in range(2, 1501)]
    assert after[: len(before)] == before
    assert all(b >= a for a, b in zip(after, after[1:]))


def test_harmonic_decrease_raises_and_keeps_table():
    p = tp.build_params(kappa="2/27")
    table = list(p._ct)
    p._qneg[1] *= 10  # a corrupted step law makes the next entry drop
    with pytest.raises(NumericalInstabilityError):
        p.ensure_ctilde(p.p_max + 1)
    assert p._ct == table
