"""Independent reference computations that only the tests read.

Each oracle recomputes something the package computes another way:

* :func:`c_tilde_table_exact`, the harmonic sequence from its exact
  recursion, against the closed-form running sum of ``PeelParams``;
* :func:`z_partition_series`, the polygon partition function as a
  certified count series, against the closed form of ``z_partition``;
* :func:`enumerate_fillings`, every small filling of a polygon from the
  filler's decision tree, against the closed counting formula;
* :func:`pioneer_audit`, the walk's pioneer flags against the
  hull-boundary characterization;
* :func:`sample_event`, the step sampler's rejection loop as written
  before its fresh shortcut, against :meth:`StepSampler.sample`;
* :func:`block_chunk`, one chunk of the block chain replayed event by
  event with scalar arithmetic, against :meth:`LayerChain.run_fast`;
* :func:`volume_table_full_width`, the fill volume tables with every
  row computed over all ``_VOL_N`` entries, against the windowed rows
  of ``boltzmann._volume_table``;
* :func:`complete_ball_by_hole_cycle`, ball completion that reads its
  near vertices off the whole main hole cycle, against
  :func:`complete_ball`;
* :func:`extract_submap`, a copy of a map's kept triangles as a map of
  its own, whose canonical code is checked against
  :meth:`TriMap.ball_code`.

A few map queries and constructors only the tests need live here too:
:func:`clone`, :func:`target`, :func:`degree`, :func:`alive_half_edges`
and :func:`polygon`, with the arena appends it and
:func:`extract_submap` build on.
"""

from bisect import bisect_right
from fractions import Fraction

import numpy as np

from tripeel.boltzmann import _VOL_N, _VOL_P
from tripeel.counting import catalan, count_ratio, count_triangulations
from tripeel.errors import DomainError, InvariantViolationError, MisuseError
from tripeel.params import _coupling, _lin, _swallow_weight, q_step
from tripeel.peeling import _block_laws
from tripeel.planarmap import DEAD, FLAG_MAIN, FLAG_TRIANGLE, FLAG_WORK, TriMap
from tripeel.rng import _U_BITS


class SeriesTruncationError(ArithmeticError):
    """The count series oracle found no certified truncation point."""


# -- map queries that only the tests read ----------------------------------


def alive_half_edges(tmap: TriMap):
    """The ids of the map's alive half-edges, in increasing order."""
    return (h for h, f in enumerate(tmap.hflag) if f != DEAD)


def target(tmap: TriMap, h: int) -> int:
    """The vertex half-edge h points to."""
    return tmap.org[tmap.twin[h]]


def degree(tmap: TriMap, v: int) -> int:
    """The number of half-edges leaving v, multi-edges counted."""
    return len(tmap.out_half_edges(v))


def ear_by_two_surgeries(tmap: TriMap, a: int, side: str) -> int:
    """The route ``TriMap.close_ear`` stands for: a size-1 swallow, then
    its 2-gon zipped shut.  Returns the new hole edge, as close_ear does."""
    cont, fence, _ = tmap.open_swallow(a, 1, side)
    tmap.close_two_gon(fence)
    return cont


def clone(tmap: TriMap) -> TriMap:
    """Independent copy preserving half-edge and vertex ids."""
    m = TriMap()
    for name in TriMap.__slots__:
        value = getattr(tmap, name)
        setattr(m, name, value[:] if isinstance(value, list) else value)
    return m


def _new_vertex(m: TriMap) -> int:
    m.v_out.append(-1)
    m.v_hole.append(-1)
    m.nv += 1
    return m.nv - 1


def _new_he(m: TriMap, org: int, flag: int) -> int:
    m.twin.append(-1)
    m.nxt.append(-1)
    m.prv.append(-1)
    m.org.append(org)
    m.hflag.append(flag)
    return len(m.org) - 1


def _link(m: TriMap, a: int, b: int) -> None:
    m.nxt[a] = b
    m.prv[b] = a


def polygon(p: int) -> tuple[TriMap, int]:
    """Simple p-gon: a work hole inside, the main hole outside.

    Returns the map and the inner half-edge at the root edge; the map
    root is the outer (main hole) half-edge of the same edge, so the
    finished object is rooted on its boundary with the filled interior
    on the root's left.
    """
    if p < 2:
        raise DomainError(f"polygon needs p >= 2, got {p}")
    m = TriMap()
    verts = [_new_vertex(m) for _ in range(p)]
    inner = [_new_he(m, verts[i], FLAG_WORK) for i in range(p)]
    outer = [_new_he(m, verts[(i + 1) % p], FLAG_MAIN) for i in range(p)]
    for i in range(p):
        j = (i + 1) % p
        m.twin[inner[i]] = outer[i]
        m.twin[outer[i]] = inner[i]
        _link(m, inner[i], inner[j])
        _link(m, outer[j], outer[i])
        m.v_out[verts[i]] = inner[i]
        m.v_hole[verts[j]] = outer[i]
    m.ne = p
    m.perimeter = p
    m.root = outer[0]
    return m, inner[0]


def c_tilde_table_exact(alpha: Fraction, p_max: int) -> list:
    """Harmonic sequence C~_2 .. C~_{p_max} in exact rational arithmetic.

    Entries are indexed by perimeter: result[p] = C~_p, with result[0] =
    result[1] = 0.  Solves the harmonicity recursion on the exact step
    law, so it is an independent reference for the closed form that
    :class:`PeelParams` sums.  Intended for modest p; cost grows
    quadratically.
    """
    if not isinstance(alpha, Fraction):
        raise DomainError("exact harmonic table needs a Fraction alpha")
    _lin(alpha)
    qn = [Fraction(0)]
    for k in range(1, p_max):
        qn.append(q_step(-k, alpha))
    ct = [Fraction(0), Fraction(0), 1 / (alpha * alpha)]
    for p in range(2, p_max):
        s = Fraction(0)
        for k in range(1, p - 1):
            s += qn[k] * ct[p - k]
        ct.append((ct[p] - s) / alpha)
    return ct


def z_partition_series(kappa, p: int, *, rel_tol: float = 1e-10) -> float:
    """Partition function Z_p summed as the weighted count series.

    Sums the count series directly with a certified geometric truncation
    (past the last count ratio at or above 27/2, term ratios are bounded
    by 27 kappa / 2).
    """
    if p < 2:
        raise DomainError(f"boundary length p={p} must be at least 2")
    _, kappa = _coupling(kappa, None)
    kf = float(kappa)
    growth = 13.5 * kf
    if growth >= 1.0 - 1e-12:
        raise DomainError(
            "series oracle needs a subcritical margin; term ratios "
            f"approach 27 kappa / 2 = {growth}"
        )
    term = float(catalan(p - 2))
    total = term
    term = count_triangulations(1, p) * kf
    total += term
    n = 1
    while True:
        ratio = count_ratio(n, p)
        # once a ratio is below 27/2 every later one is (count_ratio)
        if ratio < 13.5:
            tail_bound = term * growth / (1.0 - growth)
            if tail_bound < rel_tol * total:
                return total + 0.5 * tail_bound
        term *= ratio * kf
        total += term
        n += 1
        if n > 2_000_000:
            raise SeriesTruncationError("series truncation never certified")


def enumerate_fillings(filler, p: int, n_max: int) -> dict:
    """All fillings of the p-gon with at most n_max internal vertices.

    Walks the filler's full decision tree, pruning branches once they
    commit to more than n_max internal vertices.  Returns {canonical
    code: (n_internal, probability)} where the probability is the
    product of decision weights along the unique path that builds the
    map.  Each decision sequence yields a distinct rooted map, so the
    number of codes at a given n doubles as a surgery-correctness check
    against the closed counting formula.
    """
    base, inner = polygon(p)
    agenda = [(base, [(inner, p)], 0, 1.0)]
    out: dict = {}
    while agenda:
        tmap, stack, n, prob = agenda.pop()
        if not stack:
            code = tmap.canonical_code()
            if code in out:
                raise InvariantViolationError(
                    "two decision paths built the same rooted map"
                )
            out[code] = (n, prob)
            continue
        h, q = stack[-1]
        prev = 0.0
        # decision k = -1 closes, 0 is fresh, k >= 1 splits at k
        for k, cut in enumerate(filler.row(q), -1):
            w = cut - prev
            prev = cut
            if (k < 0 and q > 2) or (k == 0 and n + 1 > n_max):
                continue
            m2 = clone(tmap)
            st2 = stack[:-1]
            n2 = n
            if k < 0:
                m2.close_two_gon(h)
            elif k == 0:
                c2, _, _ = m2.attach_fresh(h)
                n2 = n + 1
                st2 = st2 + [(c2, q + 1)]
            else:
                cont, enclosed, _ = m2.open_swallow(h, k, "next")
                st2 = st2 + [(cont, q - k), (enclosed, k + 1)]
            agenda.append((m2, st2, n2, prob * w))
    return out


def pioneer_audit(trace) -> dict:
    """Check pioneer flags against the hull-boundary characterization.

    For every position index m, the operational flag (X_m landed on the
    explored boundary) must equal the geometric statement that X_m lies
    on the boundary of the hull of X_1..X_{m-1}: the faces incident to
    earlier positions plus the finite components they enclose.  The
    audit closes every visited fan first so the hull is computable in
    the final map, then rebuilds each hull's outer component directly.
    """
    engine = trace.engine
    m = trace.map
    for v in set(trace.positions):
        while m.v_hole[v] != -1:
            engine.peel_step(m.v_hole[v])

    def face_of(h: int) -> int:
        return min(h, m.nxt[h], m.nxt[m.nxt[h]])

    def faces_at(v: int) -> list:
        return [face_of(h) for h in m.out_half_edges(v)]

    mismatches = []
    for idx in range(1, len(trace.positions)):
        x = trace.positions[idx]
        past = trace.positions[1:idx]
        if not past:
            # the hull of nothing is the root edge; its boundary is both ends
            geometric = x in (trace.x0, trace.positions[1])
        else:
            hull_faces = {f for v in set(past) for f in faces_at(v)}
            # flood the complement from the unexplored side: a face is
            # outside the hull iff it reaches the main hole off-hull
            outside: set = set()
            stack = []
            for h in alive_half_edges(m):
                if m.hflag[h] == FLAG_TRIANGLE:
                    continue
                t = m.twin[h]
                if m.hflag[t] == FLAG_TRIANGLE:
                    f = face_of(t)
                    if f not in hull_faces and f not in outside:
                        outside.add(f)
                        stack.append(f)
            while stack:
                f = stack.pop()
                for h in (f, m.nxt[f], m.nxt[m.nxt[f]]):
                    t = m.twin[h]
                    if m.hflag[t] != FLAG_TRIANGLE:
                        continue
                    g2 = face_of(t)
                    if g2 not in hull_faces and g2 not in outside:
                        outside.add(g2)
                        stack.append(g2)
            geometric = m.v_hole[x] != -1 or any(
                f in outside for f in faces_at(x)
            )
        if bool(trace.pioneer[idx]) != bool(geometric):
            mismatches.append(idx)
    return {"checked": len(trace.positions) - 1, "mismatches": mismatches}


def sample_event(par, p: int, rng) -> tuple:
    """One peel event at perimeter p by the plain rejection loop.

    Grows C~ to p + 1 before the first draw, then proposes by inverse
    cdf and accepts a size-k proposal with probability C~_{p-k} /
    C~_{p+1}, drawing every uniform in the order the package's sampler
    must.
    """
    if p < 2:
        raise MisuseError(f"cannot peel at perimeter {p}")
    ct = par._ct
    if p + 1 >= len(ct) and par._ct_clamp is None:
        par.ensure_ctilde(p + 1)
    last = len(ct) - 1
    denom = ct[p + 1 if p < last else last]
    qcum = par._qcum
    nq = len(qcum)
    u = rng.u
    while True:
        x = u()
        idx = bisect_right(qcum, x)
        if idx >= nq:
            while idx >= len(qcum) and par.i_max < p - 2:
                par.ensure_q(min(p - 2, max(2 * par.i_max, 64)))
                idx = bisect_right(qcum, x)
            nq = len(qcum)
            if idx >= nq:
                continue
        if idx == 0:
            return "fresh", 0, None
        k = idx
        j = p - k
        if j < 2:
            continue
        acc = ct[j if j < last else last] / denom
        if acc < 1.0 and u() >= acc:
            continue
        side = "next" if u() < 0.5 else "prev"
        return "swallow", k, side


def block_chunk(par, p: int, a: int, us, coins) -> dict:
    """Replay one chunk of :meth:`LayerChain.run_fast` event by event.

    ``us`` is the chunk's block of uniforms, m gaps, m sizes and m sides,
    and ``coins`` its block of acceptance coins.  Starting from perimeter
    p and old arc a, each event takes its gap of fresh steps and then its
    swallow proposal of size k at perimeter p'.  Where p' - k is below
    the clamp index the event takes the next coin, and its swallow is
    rejected (and the chunk cut) when the coin is at or above
    C~_{p'-k} / C~_{p'+1}, read through :meth:`PeelParams.ctilde`.  An
    accepted swallow is applied by the arc rule, a swallow past the new
    arc's end eating into the old arc, and cuts the chunk after it when
    it fires tau_r (a swallow toward the old arc that takes all of it).

    Returns the events read, how the chunk ended ('rejected', 'layer' or
    'whole'), the steps taken, ``fresh``, the fresh steps among them, the
    final perimeter and old arc, ``coins``, the coins the chunk draws
    (its events, all taken as accepted, whose p' - k is below the clamp
    index), ``free``, the events read without a coin, and ``unsure``,
    those of them at which C~_{p'-k} != C~_{p'+1}.
    """
    gaps, sizes, _ = _block_laws(par)
    last = par.ctilde_clamp_index()
    m = len(us) // 3
    events = [
        (
            bisect_right(gaps._cdf, us[i]),
            bisect_right(sizes._cdf, us[m + i]) + 1,
            us[2 * m + i] < 0.5,
        )
        for i in range(m)
    ]
    drawn, q = 0, p
    for g, k, _ in events:
        q += g - k
        drawn += q < last
    coins = iter(coins)
    steps, fresh, read, end, free, unsure = 0, 0, m, "whole", 0, 0
    for i, (g, k, toward_old) in enumerate(events):
        steps += g
        fresh += g
        p += g
        if p - k < last:
            if not next(coins) < par.ctilde(p - k) / par.ctilde(p + 1):
                read, end = i + 1, "rejected"
                break
        else:
            free += 1
            unsure += par.ctilde(p - k) != par.ctilde(p + 1)
        n = p - a
        steps += 1
        p -= k
        if toward_old and k >= a:
            # tau_r: what is left of the new arc becomes the old arc
            read, end, a = i + 1, "layer", n - (k - a)
            break
        if toward_old:
            a -= k
        elif k > n:
            a -= k - n
    return {
        "events": read, "end": end, "steps": steps, "fresh": fresh, "p": p, "a": a,
        "coins": drawn, "free": free, "unsure": unsure,
    }


def volume_table_full_width(params) -> tuple:
    """(keys, starts) of the fill volume tables, each row P(n | p)
    computed at all ``_VOL_N`` entries and cut at its first certified
    length: row p's keys are (p << 53) + ceil(cdf * 2^53), its cdf
    clipped to 1 and ending at 1, rows p = 2, 3, ... until one is not
    certified within ``_VOL_N`` entries or p passes ``_VOL_P``."""
    kappa = params.kappa
    r = 13.5 * kappa
    n = np.arange(_VOL_N, dtype=float)
    rows, starts, size = [np.empty(0, np.uint64)], [0, 0], 0
    for p in range(2, _VOL_P + 1 if r < 1.0 else 2):
        b = 2 * p + 3 * n
        ratio = 2 * (b - 1) * (b - 2) * (b - 3) / ((n + 1) * (2 * p + 2 * n) * (2 * p + 2 * n - 1))
        z = _swallow_weight(p - 1, params.lin, (1.0 - params.alpha) / (2.0 * kappa))
        probs = np.cumprod(np.concatenate(([catalan(p - 2) / z], kappa * ratio)))
        certified = (ratio < 13.5) & (probs[:-1] * (r / (1.0 - r)) <= 2.0**-53)
        if not certified.any():
            break
        cdf = np.minimum(np.cumsum(probs[: certified.argmax() + 1]), 1.0)
        cdf[-1] = 1.0
        rows.append(np.ceil(cdf * 2.0**_U_BITS).astype(np.uint64) + (np.uint64(p) << np.uint64(_U_BITS)))
        starts.append(size)
        size += len(cdf)
    return np.concatenate(rows), np.array(starts, dtype=np.intp)


def complete_ball_by_hole_cycle(engine, center: int, radius: int) -> list:
    """Peel until the radius ball around center is final, taking each
    snapshot's near vertices from the whole main hole cycle (through
    the engine's cursor), in order of distance, then id."""
    m = engine.map
    while True:
        dist = m.bfs_distances(center, max_dist=radius + 1)
        near = sorted(
            (dist[m.org[he]], m.org[he])
            for he in m.hole_cycle(engine.cursor)
            if 0 <= dist[m.org[he]] <= radius
        )
        if not near:
            return dist
        for _, v in near:
            while m.v_hole[v] != -1:
                engine.peel_step(m.v_hole[v])


def extract_submap(tmap: TriMap, keep: set, root: int) -> tuple[TriMap, dict]:
    """Copy the triangles whose half-edges are listed in ``keep``.

    ``keep`` must be closed under face cycles (whole triangles only).
    Edges whose other side is not kept get fresh hole half-edges; the
    complement may leave several holes and those holes may revisit a
    vertex, so the result should be validated with relaxed expectations.
    Returns the new map plus the old-to-new half-edge mapping.
    """
    if root not in keep:
        raise MisuseError("submap root must be among the kept half-edges")
    for h in keep:
        if tmap.hflag[h] != FLAG_TRIANGLE:
            raise MisuseError("submap extraction keeps triangles only")
        if tmap.nxt[h] not in keep:
            raise MisuseError("kept set not closed under face cycles")
    m = TriMap()
    vmap: dict[int, int] = {}
    hmap: dict[int, int] = {}
    for h in sorted(keep):
        v = tmap.org[h]
        if v not in vmap:
            vmap[v] = _new_vertex(m)
        hmap[h] = _new_he(m, vmap[v], FLAG_TRIANGLE)
    for h in keep:
        _link(m, hmap[h], hmap[tmap.nxt[h]])
        t = tmap.twin[h]
        if t in keep:
            m.twin[hmap[h]] = hmap[t]
    # fence the exposed edges with hole half-edges
    boundary = [h for h in sorted(keep) if tmap.twin[h] not in keep]
    bmap: dict[int, int] = {}
    for h in boundary:
        b = _new_he(m, vmap[tmap.org[tmap.twin[h]]], FLAG_MAIN)
        bmap[h] = b
        m.twin[hmap[h]] = b
        m.twin[b] = hmap[h]
    for h in boundary:
        # successor of bar(h) leaves org(h): rotate around org(h) through
        # the un-kept gap until the next kept outgoing half-edge
        x = tmap.nxt[tmap.twin[h]]
        while x not in keep:
            x = tmap.nxt[tmap.twin[x]]
        h2 = tmap.prv[x]
        _link(m, bmap[h], bmap[h2])
    m.ne = (len(keep) + len(boundary)) // 2
    m.n_tri = len(keep) // 3
    m.root = hmap[root]
    for v_old, v_new in vmap.items():
        m.v_out[v_new] = hmap[next(h for h in tmap.out_half_edges(v_old) if h in keep)]
    # best-effort hole index; only authoritative when the complement is a
    # single hole visiting each vertex once, which strict validation checks
    for h in boundary:
        m.v_hole[m.org[bmap[h]]] = bmap[h]
    m.perimeter = len(boundary)
    return m, hmap
