"""Polygon filler: decision weights, surgery enumeration, coupling."""

import math
from fractions import Fraction

import pytest

from tripeel.boltzmann import BoltzmannFiller
from tripeel.counting import count_triangulations
from tripeel.errors import DomainError
from tripeel.params import build_params, z_partition
from tripeel.planarmap import TriMap
from tripeel.rng import RngStream


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
            cuts, decisions = filler.row(p)
            assert cuts[-1] == 1.0
            assert len(decisions) == (2 if p == 2 else p - 1)


def test_row_golden_values(quarter):
    filler = BoltzmannFiller(quarter)
    cuts, decisions = filler.row(2)
    assert decisions[0] == ("close",)
    assert cuts[0] == pytest.approx(9 / 10, rel=1e-13)  # 1 / Z_2
    cuts3, decisions3 = filler.row(3)
    # fresh = kappa Z_4 / Z_3, split(1) = Z_2^2 / Z_3
    assert decisions3[0] == ("fresh",)
    assert cuts3[0] == pytest.approx((9 / 128) * (3584 / 729) / (128 / 81), rel=1e-12)
    assert cuts3[1] == 1.0


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
        fillings = filler.enumerate_fillings(p, n_max)
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
    mass = sum(prob for _, prob in filler.enumerate_fillings(p, n_max).values())
    expect = sum(count_triangulations(n, p) * kf**n for n in range(n_max + 1)) / z
    assert mass == pytest.approx(expect, rel=1e-9)


def test_sampled_maps_are_valid_triangulations(quarter):
    filler = BoltzmannFiller(quarter)
    rng = RngStream(99)
    for trial in range(60):
        p = 2 + trial % 5
        tmap, inner = TriMap.polygon(p)
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
                tmap, inner = TriMap.polygon(p)
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
                    tmap, inner = TriMap.polygon(p)
                    h = inner
                    for _ in range(mark):
                        h = tmap.nxt[h]
                    v = tmap.org[h]
                    before = tmap.degree(v)
                    added = filler.fill_hole(tmap, inner, p, r1)
                    got = filler.fill_degree(p, mark, r2)
                    assert got == (added, tmap.degree(v) - before), (p, mark, trial)
                    assert r1.n_drawn == r2.n_drawn


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
