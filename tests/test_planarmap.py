"""Surgery, validation and encoding of the half-edge arena."""

import random

import pytest

from tripeel.errors import DomainError, InvariantViolationError, MisuseError
from tripeel.params import build_params
from tripeel.peeling import complete_ball
from tripeel.planarmap import (
    DEAD,
    FLAG_MAIN,
    FLAG_TRIANGLE,
    FLAG_WORK,
    TriMap,
)
from tripeel.rng import RngStream
from tripeel.walk import run_walk_peeling

from oracles import (
    alive_half_edges,
    clone,
    degree,
    ear_by_two_surgeries,
    extract_submap,
    polygon,
    target,
)


def fresh_ring(n):
    """Root edge grown by n fresh attachments along the moving hole edge."""
    m = TriMap.root_edge()
    a = m.root
    for _ in range(n):
        a, _, _ = m.attach_fresh(a)
    return m, a


# -- constructors -------------------------------------------------------


def test_root_edge_shape():
    m = TriMap.root_edge()
    m.validate()
    assert (m.nv, m.ne, m.n_tri, m.perimeter) == (2, 1, 0, 2)
    assert len(m.hole_cycle(m.root)) == 2


def test_polygon_shape():
    for p in (2, 3, 7):
        m, inner = polygon(p)
        m.validate(allow_work_holes=True)
        assert (m.nv, m.ne, m.n_tri, m.perimeter) == (p, p, 0, p)
        assert len(m.hole_cycle(inner)) == p
        assert m.hflag[inner] == FLAG_WORK
        assert m.hflag[m.root] == FLAG_MAIN
    with pytest.raises(DomainError):
        polygon(1)


def test_polygon_two_gon_is_a_double_edge():
    m, _ = polygon(2)
    assert degree(m, 0) == 2
    assert [target(m, h) for h in m.out_half_edges(0)] == [1, 1]


# -- fresh attachment ----------------------------------------------------


def test_attach_fresh_counters():
    m = TriMap.root_edge()
    c2, c1, v = m.attach_fresh(m.root)
    m.validate()
    assert (m.nv, m.ne, m.n_tri, m.perimeter) == (3, 3, 1, 3)
    assert m.org[c2] == 0 and m.org[c1] == v
    assert m.hflag[m.root] == FLAG_TRIANGLE
    # hole cycle now walks u -> v -> w -> u
    assert len(m.hole_cycle(c2)) == 3


def test_attach_fresh_chain():
    m, _ = fresh_ring(25)
    m.validate()
    assert (m.nv, m.ne, m.n_tri, m.perimeter) == (27, 51, 25, 27)


def test_attach_fresh_refuses_a_loop_hole_untouched():
    m = TriMap.root_edge()
    a = m.root
    m.nxt[a] = m.prv[a] = a  # corrupt: a hole bounded by a alone
    before = [list(arr) for arr in (m.twin, m.nxt, m.prv, m.org, m.hflag, m.v_out)]
    counters = (m.nv, m.ne, m.n_tri, m.perimeter)
    with pytest.raises(InvariantViolationError):
        m.attach_fresh(a)
    assert [list(arr) for arr in (m.twin, m.nxt, m.prv, m.org, m.hflag, m.v_out)] == before
    assert (m.nv, m.ne, m.n_tri, m.perimeter) == counters


def test_attach_fresh_rejects_triangle_edge():
    m = TriMap.root_edge()
    m.attach_fresh(m.root)
    with pytest.raises(MisuseError):
        m.attach_fresh(m.root)


# -- swallows --------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 4])  # 4 = p - 3
@pytest.mark.parametrize("side", ["next", "prev"])
def test_open_swallow_counters(side, k):
    m, a = fresh_ring(5)  # perimeter 7
    peri, nv, ne, ntri = m.perimeter, m.nv, m.ne, m.n_tri
    cont, enclosed, apex = m.open_swallow(a, k, side)
    m.validate(allow_work_holes=True)
    assert m.perimeter == peri - k
    assert (m.nv, m.ne, m.n_tri) == (nv, ne + 2, ntri + 1)
    assert m.hflag[cont] == FLAG_MAIN
    assert m.hflag[enclosed] == FLAG_WORK
    assert len(m.hole_cycle(enclosed)) == k + 1
    assert m.v_hole[apex] != -1
    # enclosed hole vertices other than the apex left the main boundary
    for h in m.hole_cycle(enclosed):
        if m.org[h] != apex:
            assert m.v_hole[m.org[h]] == -1


def test_open_swallow_apex_identity():
    m, a = fresh_ring(5)
    # walking forward k hole edges from a ends at the apex
    e = a
    for _ in range(3):
        e = m.nxt[e]
    expected_next = target(m, e)
    _, _, apex = m.open_swallow(a, 3, "next")
    assert apex == expected_next

    m2, a2 = fresh_ring(5)
    e = a2
    for _ in range(3):
        e = m2.prv[e]
    expected_prev = m2.org[e]
    _, _, apex2 = m2.open_swallow(a2, 3, "prev")
    assert apex2 == expected_prev


def test_open_swallow_guards():
    m, a = fresh_ring(4)  # perimeter 6
    with pytest.raises(DomainError):
        m.open_swallow(a, 0, "next")
    with pytest.raises(DomainError):
        m.open_swallow(a, 1, "sideways")
    with pytest.raises(MisuseError):
        m.open_swallow(a, 5, "next")  # would leave a 1-cycle
    with pytest.raises(MisuseError):
        m.open_swallow(a, 6, "prev")  # would wrap the whole hole


# -- two-gon closure --------------------------------------------------------


def test_close_two_gon_identifies_edges():
    m, inner = polygon(2)
    survivor = m.close_two_gon(inner)
    m.validate()
    assert (m.nv, m.ne, m.n_tri, m.perimeter) == (2, 1, 0, 2)
    assert m.alive(survivor)
    # the result is the bare root edge, as a rooted map
    assert m.canonical_code() == TriMap.root_edge().canonical_code()


def test_close_two_gon_guards():
    m, inner = polygon(3)
    with pytest.raises(MisuseError):
        m.close_two_gon(inner)  # not a 2-gon
    m2 = TriMap.root_edge()
    with pytest.raises(MisuseError):
        m2.close_two_gon(m2.root)  # main hole, not a work hole


# -- ears ------------------------------------------------------------------------


def _geometry(m, h):
    return m.org[h], target(m, h), m.hflag[h]


def _check_ear(m, a, side):
    """close_ear and the two-surgery route, each on its own copy of m, give
    the same map read from the same half-edges."""
    ear, old = clone(m), clone(m)
    cont = ear.close_ear(a, side)
    cont_old = ear_by_two_surgeries(old, a, side)
    for x in (ear, old):
        x.validate(allow_work_holes=True)
    assert (ear.nv, ear.ne, ear.n_tri, ear.perimeter) == (old.nv, old.ne, old.n_tri, old.perimeter)
    assert ear.canonical_code() == old.canonical_code()
    assert _geometry(ear, ear.root) == _geometry(old, old.root)
    assert _geometry(ear, cont) == _geometry(old, cont_old)
    for v in range(ear.nv):
        # each fan, read from v_out, lists the same neighbours in order
        assert [target(ear, h) for h in ear.out_half_edges(v)] == [
            target(old, h) for h in old.out_half_edges(v)
        ]
        assert (ear.v_hole[v] == -1) == (old.v_hole[v] == -1)
    # two half-edges from the arena's tail, none dead, the root kept
    assert len(ear.org) == len(m.org) + 2
    assert ear.hflag.count(DEAD) == m.hflag.count(DEAD)
    assert ear.root == m.root
    return ear


def random_holed_map(rng, steps):
    """A map grown by fresh steps and size-2..4 swallows whose work holes
    are left open, with the hole edge last worked on."""
    m = TriMap.root_edge()
    a = m.root
    for _ in range(steps):
        p = m.perimeter
        if p > 4 and rng.random() < 0.3:
            k = rng.randint(2, min(4, p - 3))
            a, _, _ = m.open_swallow(a, k, rng.choice(["next", "prev"]))
        else:
            a, _, _ = m.attach_fresh(a)
        for _ in range(rng.randrange(3)):
            a = m.nxt[a]
    return m, a


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("side", ["next", "prev"])
def test_close_ear_matches_two_surgeries(seed, side):
    rng = random.Random(seed)
    m, a = random_holed_map(rng, 40)
    work = [h for h, f in enumerate(m.hflag) if f == FLAG_WORK]
    assert work, "the map needs a work hole"
    for h in rng.sample(m.hole_cycle(a), 3) + rng.sample(work, 3):
        ear = _check_ear(m, h, side)
        assert ear.perimeter == m.perimeter - (m.hflag[h] == FLAG_MAIN)


@pytest.mark.parametrize("side", ["next", "prev"])
@pytest.mark.parametrize("eaten", [0, 1])
def test_close_ear_eating_a_root_half_edge_keeps_the_root(side, eaten):
    # a fresh step on the other root half-edge leaves half-edge `eaten`
    # on the main hole, where the two-surgery route would close it away
    m = TriMap.root_edge()
    c2, _, _ = m.attach_fresh(1 - eaten)
    for _ in range(2):
        c2, _, _ = m.attach_fresh(c2)
    a = m.prv[eaten] if side == "next" else m.nxt[eaten]
    ear = _check_ear(m, a, side)
    assert ear.hflag[eaten] == FLAG_TRIANGLE
    # and as the swallowing edge
    _check_ear(m, eaten, side)


def test_close_ear_guards():
    m, a = fresh_ring(4)
    untouched = [list(arr) for arr in (m.twin, m.nxt, m.prv, m.org, m.hflag, m.v_out)]
    with pytest.raises(DomainError):
        m.close_ear(a, "sideways")
    with pytest.raises(MisuseError):
        m.close_ear(m.twin[a], "next")  # a triangle edge
    assert [list(arr) for arr in (m.twin, m.nxt, m.prv, m.org, m.hflag, m.v_out)] == untouched
    for side in ("next", "prev"):
        with pytest.raises(MisuseError):
            TriMap.root_edge().close_ear(0, side)  # would leave a 1-cycle
    loop = TriMap.root_edge()
    loop.nxt[0] = loop.prv[0] = 0  # corrupt: a hole bounded by 0 alone
    with pytest.raises(MisuseError):
        loop.close_ear(0, "next")  # would wrap the whole hole


def test_fill_two_gon_by_hand():
    # fresh apex in a 2-gon, then zip both sides of the resulting 3-gon
    # split: one internal vertex, three edges... the smallest nontrivial
    # filled polygon
    m, inner = polygon(2)
    c2, c1, v = m.attach_fresh(inner)
    m.validate(allow_work_holes=True)
    assert len(m.hole_cycle(c2)) == 3
    cont, enclosed, apex = m.open_swallow(c2, 1, "next")
    m.validate(allow_work_holes=True)
    assert len(m.hole_cycle(cont)) == 2
    assert len(m.hole_cycle(enclosed)) == 2
    m.close_two_gon(cont)
    m.close_two_gon(enclosed)
    m.validate()
    assert (m.nv, m.ne, m.n_tri, m.perimeter) == (3, 4, 2, 2)


# -- id allocation -------------------------------------------------------------


def _after_closes(n_closed, perimeter):
    """A ring that fences off and zips shut n_closed 2-gons, ending with a
    main hole of the given perimeter; returns the map, a hole edge on it
    and the ids of the closed half-edges."""
    m, a = fresh_ring(perimeter - 2 + n_closed)
    dead = []
    for _ in range(n_closed):
        a, fence, _ = m.open_swallow(a, 1, "next")
        dead += [fence, m.nxt[fence]]
        m.close_two_gon(fence)
    return m, a, dead


def _check_arena(m, dead):
    # closed ids keep their slots, dead for good, and count as no half-edge
    assert all(m.hflag[h] == DEAD and not m.alive(h) for h in dead)
    assert m.n_half_edges() == 2 * m.ne == len(list(alive_half_edges(m)))


@pytest.mark.parametrize("n_closed", [0, 1, 2, 3, 4, 6])
def test_attach_fresh_takes_tail_ids(n_closed):
    m, a, dead = _after_closes(n_closed, 4)
    tail = len(m.org)
    c2, c1, _ = m.attach_fresh(a)
    # triangle a -> t1 -> t2, and the hole edges c1, c2
    assert [m.nxt[a], m.prv[a], c1, c2] == list(range(tail, tail + 4))
    _check_arena(m, dead)
    m.validate()


@pytest.mark.parametrize("side", ["next", "prev"])
@pytest.mark.parametrize("n_closed", [0, 1, 2, 3, 4, 6])
def test_open_swallow_takes_tail_ids(n_closed, side):
    m, a, dead = _after_closes(n_closed, 5)
    tail = len(m.org)
    cont, fence, _ = m.open_swallow(a, 2, side)
    # triangle a -> s1 -> s2, the fence on the work hole, cont on the main
    assert [m.nxt[a], m.prv[a], fence, cont] == list(range(tail, tail + 4))
    _check_arena(m, dead)
    m.validate(allow_work_holes=True)


# -- randomized surgery fuzz -------------------------------------------------


def test_random_surgery_stays_valid():
    rng = random.Random(20260819)
    m = TriMap.root_edge()
    a = m.root
    for step in range(300):
        p = m.perimeter
        if p > 3 and rng.random() < 0.35:
            k = rng.randint(1, min(3, p - 2))
            side = rng.choice(["next", "prev"])
            if k == 1 and rng.random() < 0.5:
                a = m.close_ear(a, side)
            else:
                a, fence, _ = m.open_swallow(a, k, side)
                if k == 1:
                    m.close_two_gon(fence)
        else:
            a, _, _ = m.attach_fresh(a)
        if step % 25 == 24:
            m.validate(allow_work_holes=True)
    m.validate(allow_work_holes=True)
    assert m.n_half_edges() == len(list(alive_half_edges(m)))


# -- distances ---------------------------------------------------------------


def test_bfs_distances_on_wheel():
    # fresh attachments around a 2-gon interior make a fan whose hub is
    # the first apex
    m, inner = polygon(5)
    dist = m.bfs_distances(0)
    assert dist[0] == 0
    assert sorted(dist) == [0, 1, 1, 2, 2]
    capped = m.bfs_distances(0, max_dist=1)
    assert capped.count(-1) == 2


# -- canonical codes -----------------------------------------------------------


def test_canonical_code_ignores_arena_ids():
    # renumbering every half-edge by a random permutation must not change
    # the code
    m = grown_map(35, seed=3)
    perm = list(range(len(m.org)))
    random.Random(5).shuffle(perm)
    m2 = clone(m)
    for h, g in enumerate(perm):
        m2.twin[g], m2.nxt[g], m2.prv[g] = perm[m.twin[h]], perm[m.nxt[h]], perm[m.prv[h]]
        m2.org[g], m2.hflag[g] = m.org[h], m.hflag[h]
    m2.v_out = [perm[h] for h in m.v_out]
    m2.v_hole = [-1 if h == -1 else perm[h] for h in m.v_hole]
    m2.root = perm[m.root]
    m2.validate(allow_work_holes=True)
    assert m2.twin != m.twin
    assert m.canonical_code() == m2.canonical_code()


def test_canonical_code_sees_hole_flags():
    m1, inner1 = polygon(3)
    m2, inner2 = polygon(3)
    for h in m2.hole_cycle(inner2):
        m2.hflag[h] = FLAG_MAIN
    m1.root, m2.root = inner1, inner2
    assert m1.canonical_code() != m2.canonical_code()


def test_canonical_code_separates_roots():
    m, inner = polygon(4)
    m.attach_fresh(inner)
    m2, inner2 = polygon(4)
    m2.attach_fresh(m2.nxt[inner2])
    # same underlying map, but rooted relative to different hole edges
    assert m.canonical_code() != m2.canonical_code()


def test_canonical_code_polygon_rotation_symmetry():
    m, _ = polygon(6)
    codes = set()
    for h in m.hole_cycle(m.root):
        m.root = h
        codes.add(m.canonical_code())
    assert len(codes) == 1


# -- submap extraction -------------------------------------------------------------


def grown_map(n_ops, seed=7):
    rng = random.Random(seed)
    m = TriMap.root_edge()
    a = m.root
    for _ in range(n_ops):
        p = m.perimeter
        if p > 4 and rng.random() < 0.3:
            a = m.open_swallow(a, rng.randint(1, min(2, p - 2)), rng.choice(["next", "prev"]))[0]
        else:
            a, _, _ = m.attach_fresh(a)
    return m


def test_extract_everything_is_identity():
    # a map whose only hole is the main one: extraction reproduces it
    m, _ = fresh_ring(30)
    keep = {h for h in alive_half_edges(m) if m.hflag[h] == FLAG_TRIANGLE}
    sub, hmap = extract_submap(m, keep, m.root)
    sub.validate()
    assert sub.n_tri == m.n_tri
    assert sub.canonical_code() == m.canonical_code()


def test_extract_with_pockets_stays_valid():
    m = grown_map(40)
    keep = {h for h in alive_half_edges(m) if m.hflag[h] == FLAG_TRIANGLE}
    sub, hmap = extract_submap(m, keep, m.root)
    sub.validate(expect_main_holes=None, require_simple_main=False)
    assert sub.n_tri == m.n_tri


def test_extract_star_of_a_vertex():
    m = grown_map(60)
    v = m.org[m.root]
    keep = set()
    for h in m.out_half_edges(v):
        if m.hflag[h] == FLAG_TRIANGLE:
            cyc = [h, m.nxt[h], m.nxt[m.nxt[h]]]
            keep.update(cyc)
    sub, hmap = extract_submap(m, keep, next(iter(sorted(keep))))
    sub.validate(expect_main_holes=None, require_simple_main=False)
    assert sub.n_tri == len(keep) // 3


def test_extract_guards():
    m = grown_map(10)
    keep = {h for h in alive_half_edges(m) if m.hflag[h] == FLAG_TRIANGLE}
    with pytest.raises(MisuseError):
        extract_submap(m, keep, next(h for h in alive_half_edges(m) if h not in keep))
    bad = set(list(keep)[:1])
    with pytest.raises(MisuseError):
        extract_submap(m, bad, next(iter(bad)))


def test_ball_code_matches_submap_copy():
    """ball_code encodes a radius ball where it sits exactly as the
    canonical code of its copy does: radius 1-3 around the root, the
    reversed root and the 4th walk edge of 15 walks, 135 balls."""
    par = build_params(kappa="9/128")
    balls = 0
    for t in range(15):
        trace = run_walk_peeling(par, 16, RngStream(211, (t,)))
        m = trace.map
        for root in (m.root, m.twin[m.root], trace.move_edges[4]):
            for radius in (1, 2, 3):
                dist = complete_ball(trace.engine, m.org[root], radius)
                keep = {
                    h
                    for h in alive_half_edges(m)
                    if m.hflag[h] == FLAG_TRIANGLE
                    and all(0 <= dist[m.org[e]] <= radius for e in (h, m.nxt[h], m.nxt[m.nxt[h]]))
                }
                sub, hmap = extract_submap(m, keep, root)
                assert m.ball_code(root, dist, radius) == sub.canonical_code()
                assert sub.root == hmap[root]
                balls += 1
    assert balls == 135
    # roots off the ball's triangles: a main-hole half-edge, an id past
    # the arena, and any root of a radius-0 ball, which has no triangle
    hole = next(h for h in alive_half_edges(m) if m.hflag[h] == FLAG_MAIN)
    for bad, r in ((hole, 3), (len(m.org), 3), (root, 0)):
        with pytest.raises(MisuseError):
            m.ball_code(bad, dist, r)


# -- validator sensitivity ------------------------------------------------------------


def test_validator_catches_broken_twin():
    m, _ = fresh_ring(6)
    m.twin[m.root] = m.root
    with pytest.raises(InvariantViolationError):
        m.validate()


def test_validator_catches_wrong_counter():
    m, _ = fresh_ring(6)
    m.perimeter += 1
    with pytest.raises(InvariantViolationError):
        m.validate()
