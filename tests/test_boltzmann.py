"""Polygon filler: decision weights, surgery enumeration, coupling."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from tripeel import boltzmann
from tripeel.boltzmann import BoltzmannFiller, volume_row
from tripeel.counting import count_ratio, count_triangulations
from tripeel.errors import DomainError
from tripeel.params import build_params, q_step, z_partition
from tripeel.rng import RngStream
from tripeel.stats import chi2_two_sample

from oracles import clone, degree, enumerate_fillings, polygon, volume_table_full_width


@pytest.fixture(scope="module")
def quarter():
    return build_params(kappa="9/128")


@pytest.fixture(scope="module")
def critical():
    return build_params(kappa="2/27")


def test_rows_sum_to_one(quarter, critical):
    for params in (quarter, critical):
        filler = BoltzmannFiller(params)
        for p in (2, 3, 4, 7, 19, 64, 301):
            cuts = filler.row(p)
            assert cuts[-1] == 1.0
            assert len(cuts) == p
            # entry 0 is the close, possible only at p = 2
            assert (cuts[0] > 0.0) is (p == 2)


def test_row_golden_values(quarter):
    filler = BoltzmannFiller(quarter)
    cuts = filler.row(2)
    assert cuts[0] == pytest.approx(9 / 10, rel=1e-13)  # close: 1 / Z_2
    assert filler.ear == cuts[0]
    cuts3 = filler.row(3)
    # no close; fresh = kappa Z_4 / Z_3, split(1) = Z_2^2 / Z_3
    assert cuts3[0] == 0.0
    assert cuts3[1] == pytest.approx((9 / 128) * (3584 / 729) / (128 / 81), rel=1e-12)
    assert cuts3[2] == 1.0


def _exact_cuts(alpha: Fraction, p: int) -> list:
    """The decision row at hole perimeter p in exact rationals, from the
    exact step weights q_{-k} (by their term ratio), close entry first."""
    g, lin = (1 - alpha) / (2 * alpha), 3 * alpha - 2
    q = [Fraction(0), g * (lin + 1)]
    for k in range(1, p):
        q.append(q[-1] * Fraction(2 * k * (2 * k - 1), k * (k + 2)) * g * (lin * (k + 1) + 1) / (lin * k + 1))
    probs = [2 * alpha * (1 - alpha) / 2 / q[1] if p == 2 else Fraction(0)]
    probs.append(alpha * q[p] / q[p - 1])
    probs += [q[k] * q[p - 1 - k] / (2 * q[p - 1]) for k in range(1, p - 1)]
    assert sum(probs) == 1
    cuts, acc = [], Fraction(0)
    for w in probs:
        acc += w
        cuts.append(acc)
    return cuts


# the perimeter at which q_{-k} products went subnormal and the rows
# built from the plain q_{-k} failed their sum check
_OLD_ROW_FAILURE = {"3/4": 1745, "4/5": 1025, "9/10": 474, "19/20": 318, "99/100": 185}


@pytest.mark.parametrize("alpha", [*_OLD_ROW_FAILURE, "2/3"])
def test_rows_hold_at_large_perimeters(alpha):
    # q_{-k} shrinks like (4g)^k and turns subnormal, but the rows divide
    # the powers out: every row up to p = 3,000 builds, and its cuts stay
    # within 1e-14 of the exact ones, at and past where the plain
    # q_{-k} rows broke
    par = build_params(alpha=alpha)
    filler = BoltzmannFiller(par)
    old = _OLD_ROW_FAILURE.get(alpha, 3000)
    for p in sorted({2, 3, 40, old - 1, old, 3000}):
        cuts = filler.row(p)
        assert cuts[-1] == 1.0 and len(cuts) == p
    for p in (2, 3, 40, old - 1, old) if alpha == "9/10" else (3, old - 1):
        exact = _exact_cuts(Fraction(alpha), p)
        cuts = filler.row(p)
        assert max(abs(Fraction(c) - e) for c, e in zip(cuts, exact)) < 1e-14, p
    # well below the old failure the rows are those of the plain q_{-k},
    # bit for bit
    qn = par._qneg
    for p in (3, 40, old // 2):
        plain = [0.0, par.alpha * qn[p] / qn[p - 1]]
        plain += [qn[k] * qn[p - 1 - k] / (2.0 * qn[p - 1]) for k in range(1, p - 1)]
        assert filler.row(p)[:-1] == list(itertools.accumulate(plain))[:-1]


def test_decide_two_gon_frequencies(quarter):
    filler = BoltzmannFiller(quarter)
    rng = RngStream(1234)
    n = 20000
    # a 2-gon fill adds no vertex exactly when its first decision closes it
    closes = sum(filler.fill_volume(2, rng) == 0 for _ in range(n))
    assert abs(closes / n - 0.9) < 0.008  # 4 sigma is 0.0085


def test_enumeration_matches_counts(quarter):
    filler = BoltzmannFiller(quarter)
    kf = float(quarter.kappa)
    for p, n_max in ((2, 3), (3, 2), (4, 2), (5, 1)):
        z = z_partition(quarter.kappa_exact, p)
        fillings = enumerate_fillings(filler, p, n_max)
        by_n = {}
        for code, (n, prob) in fillings.items():
            by_n.setdefault(n, []).append(prob)
            assert prob == pytest.approx(kf**n / z, rel=1e-9), (p, n)
        for n in range(n_max + 1):
            assert len(by_n.get(n, [])) == count_triangulations(n, p), (p, n)


def test_enumeration_probability_mass(quarter):
    # kept leaves carry exactly the mass of the truncated series
    filler = BoltzmannFiller(quarter)
    kf = float(quarter.kappa)
    p, n_max = 3, 3
    z = z_partition(quarter.kappa_exact, p)
    mass = sum(prob for _, prob in enumerate_fillings(filler, p, n_max).values())
    expect = sum(count_triangulations(n, p) * kf**n for n in range(n_max + 1)) / z
    assert mass == pytest.approx(expect, rel=1e-9)


def test_sampled_maps_are_valid_triangulations(quarter):
    filler = BoltzmannFiller(quarter)
    rng = RngStream(99)
    for trial in range(60):
        p = 2 + trial % 5
        tmap, inner = polygon(p)
        n = filler.fill_hole(tmap, inner, p, rng)
        tmap.validate()
        assert tmap.perimeter == p
        assert tmap.nv == p + n
        assert tmap.n_tri == 2 * n + p - 2
        assert tmap.ne == 3 * n + 2 * p - 3


def test_two_drivers_consume_identical_streams(quarter, critical):
    for params in (quarter, critical):
        filler = BoltzmannFiller(params)
        for p in (2, 3, 5, 8):
            for trial in range(40):
                r1 = RngStream(7000 + trial, (p,))
                r2 = RngStream(7000 + trial, (p,))
                tmap, inner = polygon(p)
                added_map = filler.fill_hole(tmap, inner, p, r1)
                added_twin = filler.fill_volume(p, r2)
                assert added_map == added_twin
                assert r1.n_drawn == r2.n_drawn


def test_degree_driver_follows_the_map(quarter, critical):
    # the vertex at index i of the polygon's hole is org(nxt^i(root))
    for params in (quarter, critical):
        filler = BoltzmannFiller(params)
        for p in range(2, 13):
            for mark in range(p):
                for trial in range(12):
                    r1 = RngStream(8000 + trial, (p, mark))
                    r2 = RngStream(8000 + trial, (p, mark))
                    tmap, inner = polygon(p)
                    h = inner
                    for _ in range(mark):
                        h = tmap.nxt[h]
                    v = tmap.org[h]
                    before = degree(tmap, v)
                    added = filler.fill_hole(tmap, inner, p, r1)
                    got = filler.fill_degree(p, mark, r2)
                    assert got == (added, degree(tmap, v) - before), (p, mark, trial)
                    assert r1.n_drawn == r2.n_drawn


@pytest.mark.parametrize("hole", ["main", "work"])
@pytest.mark.parametrize("side", ["next", "prev"])
def test_swallow_is_open_swallow_then_fill_hole(quarter, critical, side, hole):
    # swallow draws a size-1 swallow's ear on the spot; draw for draw it
    # builds what open_swallow and a fill of the fenced-off hole build,
    # and returns that route's cont
    for params in (quarter, critical):
        filler = BoltzmannFiller(params)
        for k in range(1, 6):
            for seed in range(12):
                got, inner = polygon(8)
                want = clone(got)
                a = got.root if hole == "main" else inner
                r1 = RngStream(9000 + seed, (k,))
                r2 = RngStream(9000 + seed, (k,))
                cont = filler.swallow(got, a, k, side, r1)
                want_cont, enclosed, _ = want.open_swallow(a, k, side)
                filler.fill_hole(want, enclosed, k + 1, r2)
                got.validate(allow_work_holes=True)
                assert r1.n_drawn == r2.n_drawn
                assert got.canonical_code() == want.canonical_code()
                got.root, want.root = cont, want_cont
                assert got.canonical_code() == want.canonical_code(), (k, seed)


def test_volume_mean_matches_formula(quarter):
    # E[volume of a filled (k+1)-gon] has a closed form; check the
    # sampler against it, with the tolerance set by the sample variance
    # of a long fixed-seed run
    from tripeel.params import mean_hole_volume

    filler = BoltzmannFiller(quarter)
    rng = RngStream(424242)
    n = 30000
    for k in (1, 2):
        target = float(mean_hole_volume(k, Fraction(3, 4)))
        xs = [filler.fill_volume(k + 1, rng) for _ in range(n)]
        mean = sum(xs) / n
        var = sum((x - mean) ** 2 for x in xs) / (n - 1)
        assert abs(mean - target) < 5 * math.sqrt(var / n), k


def test_row_rejects_degenerate_perimeter(quarter):
    with pytest.raises(DomainError):
        BoltzmannFiller(quarter).row(1)


# -- volume tables -------------------------------------------------------------


def _exact_z(alpha: Fraction, kappa: Fraction, p: int) -> Fraction:
    # Z_{k+1} = q_{-k} / (2 beta^k), beta = kappa / alpha
    return q_step(-(p - 1), alpha) / (2 * (kappa / alpha) ** (p - 1))


@pytest.mark.parametrize("alpha", ["7/10", "3/4"])
def test_volume_rows_are_the_exact_law(alpha):
    params = build_params(alpha=alpha)
    a, k = params.alpha_exact, params.kappa_exact
    for p in range(2, 13):
        row = volume_row(params, p)
        z = _exact_z(a, k, p)
        for n in range(21):
            exact = count_triangulations(n, p) * k**n / z
            assert row[n] == pytest.approx(float(exact), rel=1e-12), (p, n)


@pytest.mark.parametrize("alpha", ["7/10", "3/4"])
def test_volume_table_is_certified_and_sorted(alpha):
    params = build_params(alpha=alpha)
    keys, starts = boltzmann._volume_table(params)
    assert len(starts) == boltzmann._VOL_P + 1
    assert np.all(keys[1:] >= keys[:-1])
    kappa = params.kappa
    r = 13.5 * kappa
    ends = list(starts[3:]) + [len(keys)]
    for p in range(2, boltzmann._VOL_P + 1):
        row = volume_row(params, p)
        n_cut = len(row) - 1
        assert ends[p - 2] - starts[p] == len(row)
        assert int(keys[ends[p - 2] - 1]) == (p + 1) << 53
        # the omitted mass, summed on from the row's last entry with the
        # exact count ratios until what is left is negligible
        term, tail, n = float(row[-1]), 0.0, n_cut
        while True:
            ratio = count_ratio(n, p)
            term *= kappa * float(ratio)
            tail += term
            n += 1
            if ratio < 13.5 and term * r / (1 - r) < 1e-30:
                break
        assert tail <= 2.0**-53, (p, tail)


@pytest.mark.parametrize("alpha", ["7/10", "3/4", "4/5", "0.69"])
def test_windowed_volume_rows_match_full_width(alpha):
    # each row is computed in a window from the last row's length and
    # widened while uncertified; its cut reads only entries up to it, so
    # the table is bit for bit the one built from full-width rows
    keys, starts = boltzmann._volume_table(build_params(alpha=alpha))
    want_keys, want_starts = volume_table_full_width(build_params(alpha=alpha))
    assert len(starts) == boltzmann._VOL_P + 1
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(starts, want_starts)


def test_volume_table_draws_match_fill_volume():
    # 20,000 table draws against 20,000 decision-by-decision fills, over
    # hole perimeters 2..12 at alpha 7/10, binned by (perimeter, volume)
    params = build_params(alpha="7/10")
    filler = BoltzmannFiller(params)
    rng_table, rng_fill = RngStream(31), RngStream(32)
    table, fills = Counter(), Counter()
    for i in range(20_000):
        p = 2 + i % 11
        table[p, filler.fill_volumes(np.array([p]), rng_table)] += 1
        fills[p, filler.fill_volume(p, rng_fill)] += 1
    assert rng_table.n_drawn == 20_000
    assert chi2_two_sample(table, fills)["p_value"] > 1e-3


def test_volume_table_is_empty_near_criticality():
    # at alpha 0.68 every row needs more than _VOL_N entries: nothing is
    # tabled and every hole is filled decision by decision, draw for draw
    params = build_params(alpha="0.68")
    assert volume_row(params, 2) is None
    filler = BoltzmannFiller(params)
    holes = np.array([2, 5, 3, 40, 2])
    r1, r2 = RngStream(33), RngStream(33)
    got = filler.fill_volumes(holes, r1)
    keys, starts = params._vol_table
    assert len(keys) == 0 and len(starts) == 2
    assert got == sum(filler.fill_volume(int(p), r2) for p in holes)
    assert r1.n_drawn == r2.n_drawn


def test_volume_table_then_larger_holes_in_order():
    # tabled holes take one block of uniforms, then the larger ones are
    # filled in order from the scalar stream
    params = build_params(alpha="7/10")
    filler = BoltzmannFiller(params)
    holes = np.array([40, 3, 33, 2])
    r1, r2 = RngStream(34), RngStream(34)
    got = filler.fill_volumes(holes, r1)
    u = r2.block(2)
    want = 0
    for p, x in zip((3, 2), u):
        cdf = np.minimum(np.cumsum(volume_row(params, p)), 1.0)
        cdf[-1] = 1.0
        want += int(np.searchsorted(cdf, x, side="right"))
    want += filler.fill_volume(40, r2) + filler.fill_volume(33, r2)
    assert got == want
    assert r1.n_drawn == r2.n_drawn
