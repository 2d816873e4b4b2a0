"""Half-edge arena for rooted planar triangulations with holes.

A map is stored as four parallel integer arrays indexed by half-edge id:
``twin`` (the opposite half-edge of the same edge), ``nxt``/``prv`` (the
face cycle), and ``org`` (origin vertex).  Every alive half-edge lies on
exactly one face cycle, and each cycle is either a triangle or a hole:

* ``hflag == 0``: the half-edge bounds a triangle (cycles of length 3);
* ``hflag == 1``: it bounds the main hole, the unexplored part of the
  plane that the growth process eats into;
* ``hflag == 2``: it bounds a work hole, a finite region scheduled to be
  filled by the polygon sampler.

Vertices are immortal integers.  ``v_out[v]`` is some alive half-edge
leaving ``v``; ``v_hole[v]`` is the unique main-hole half-edge leaving
``v`` when ``v`` is on the main boundary (else -1), which makes "is this
vertex still exposed" an O(1) query.  New half-edges come from the
arena's tail; dead ones keep their ids, flagged ``DEAD``.

Rotation around a vertex, ``h -> nxt(twin(h))``, steps to the next
outgoing half-edge; one orbit enumerates the full fan, holes included,
so vertex degrees count multi-edges correctly.

The four surgeries (`attach_fresh`, `open_swallow`, `close_two_gon`,
and `close_ear`, a size-1 swallow whose 2-gon closes at once) are the
only mutations.  Each keeps the counters (vertices, edges, triangles,
main perimeter) and the per-vertex indexes exact; a full O(size)
:func:`validate` recomputes everything from the raw arrays and is used
liberally in tests, never in hot loops.
"""

from __future__ import annotations

from typing import Optional

from .errors import DomainError, InvariantViolationError, MisuseError

FLAG_TRIANGLE = 0
FLAG_MAIN = 1
FLAG_WORK = 2
DEAD = -1


class TriMap:
    """Mutable rooted triangulation-with-holes on the half-edge arena."""

    __slots__ = (
        "twin",
        "nxt",
        "prv",
        "org",
        "hflag",
        "v_out",
        "v_hole",
        "nv",
        "ne",
        "n_tri",
        "perimeter",
        "root",
    )

    def __init__(self) -> None:
        self.twin: list[int] = []
        self.nxt: list[int] = []
        self.prv: list[int] = []
        self.org: list[int] = []
        self.hflag: list[int] = []
        self.v_out: list[int] = []
        self.v_hole: list[int] = []
        self.nv = 0
        self.ne = 0
        self.n_tri = 0
        self.perimeter = 0
        self.root = -1

    # -- construction ---------------------------------------------------

    @classmethod
    def root_edge(cls) -> "TriMap":
        """A single oriented edge; the main hole is everything else.

        The hole is the 2-cycle of the edge's two half-edges, the one
        configuration in which an edge sees the same hole on both sides.
        """
        m = cls()
        # half-edge 0 runs from vertex 0 to vertex 1, half-edge 1 back
        m.twin = [1, 0]
        m.nxt = [1, 0]
        m.prv = [1, 0]
        m.org = [0, 1]
        m.hflag = [FLAG_MAIN, FLAG_MAIN]
        m.v_out = [0, 1]
        m.v_hole = [0, 1]
        m.nv = 2
        m.ne = 1
        m.perimeter = 2
        m.root = 0
        return m

    # -- low-level ------------------------------------------------------

    def alive(self, h: int) -> bool:
        return 0 <= h < len(self.org) and self.hflag[h] != DEAD

    def n_half_edges(self) -> int:
        return 2 * self.ne

    # -- iteration ------------------------------------------------------

    def hole_cycle(self, h: int) -> list[int]:
        """The full face cycle through h, in nxt order."""
        if not self.alive(h):
            raise MisuseError(f"half-edge {h} is not alive")
        cyc = [h]
        g = self.nxt[h]
        while g != h:
            cyc.append(g)
            g = self.nxt[g]
        return cyc

    def out_half_edges(self, v: int) -> list[int]:
        """The fan of outgoing half-edges of v, one full rotation orbit."""
        h0 = self.v_out[v]
        if h0 == -1 or not self.alive(h0):
            raise MisuseError(f"vertex {v} has no alive outgoing half-edge")
        twin, nxt = self.twin, self.nxt
        fan = [h0]
        h = nxt[twin[h0]]
        while h != h0:
            fan.append(h)
            h = nxt[twin[h]]
        return fan

    # -- surgeries ------------------------------------------------------

    def attach_fresh(self, a: int) -> tuple[int, int, int]:
        """Glue a triangle with a brand-new apex onto hole edge a.

        The hole side of a is replaced by the two new edges, lengthening
        the hole by one.  Returns (c2, c1, apex): c2 runs from org(a) to
        the apex, c1 from the apex to target(a), both on the hole.
        """
        hflag = self.hflag
        flag = hflag[a]
        if flag not in (FLAG_MAIN, FLAG_WORK):
            raise MisuseError(f"half-edge {a} does not bound a hole")
        twin, nxt, prv, org = self.twin, self.nxt, self.prv, self.org
        u = org[a]
        w = org[twin[a]]
        x_prev, x_next = prv[a], nxt[a]
        if x_prev == a:
            # a hole bounded by a alone (a loop) leaves no edge to carry
            # c2 and c1; no valid map has one, the smallest hole being the
            # 2-cycle of the two-sided root edge
            raise InvariantViolationError("hole cycle of length 1")
        v = self.nv
        # triangle a -> t1 -> t2 runs u -> w -> v -> u; c1 and c2 are the
        # twins of t1 and t2 on the hole, all four from the arena's tail
        t1 = len(org)
        t2, c1, c2 = t1 + 1, t1 + 2, t1 + 3
        twin += (c1, c2, t1, t2)
        nxt += (t2, a, x_next, c1)
        prv += (a, t1, c2, x_prev)
        org += (w, v, v, u)
        hflag += (FLAG_TRIANGLE, FLAG_TRIANGLE, flag, flag)
        hflag[a] = FLAG_TRIANGLE
        nxt[a] = t1
        prv[a] = t2
        nxt[x_prev] = c2
        prv[x_next] = c1
        self.nv = v + 1
        self.v_out.append(t2)
        self.ne += 2
        self.n_tri += 1
        if flag == FLAG_MAIN:
            self.perimeter += 1
            self.v_hole[u] = c2
            self.v_hole.append(c1)
        else:
            self.v_hole.append(-1)
        return c2, c1, v

    def open_swallow(self, a: int, k: int, side: str) -> tuple[int, int, int]:
        """Glue a triangle onto hole edge a whose apex is a hole vertex
        k edges away, fencing off the k skipped edges into a new hole.

        side 'next' walks forward along the cycle (apex = endpoint of
        nxt^k(a)); side 'prev' walks backward.  The fenced-off region
        becomes a work hole of perimeter k + 1; the ambient hole loses k
        edges.  Returns (cont, enclosed, apex): cont is the replacement
        half-edge on the ambient hole, enclosed the root of the new work
        hole.
        """
        hflag = self.hflag
        flag = hflag[a]
        if flag not in (FLAG_MAIN, FLAG_WORK):
            raise MisuseError(f"half-edge {a} does not bound a hole")
        if k < 1:
            raise DomainError(f"swallow size k={k} must be at least 1")
        if side not in ("next", "prev"):
            raise DomainError(f"side must be 'next' or 'prev', got {side!r}")
        twin, nxt, prv, org = self.twin, self.nxt, self.prv, self.org
        fwd = side == "next"
        step = nxt if fwd else prv
        u = org[a]
        w = org[twin[a]]
        eaten = []
        e = a
        for _ in range(k):
            e = step[e]
            if e == a:
                raise MisuseError(f"swallow k={k} wraps the whole hole")
            eaten.append(e)
        # the replaced stretch head..tail in cycle order: a then the eaten
        # run first..last ('next'), or the run then a ('prev')
        first, last = (eaten[0], eaten[-1]) if fwd else (eaten[-1], eaten[0])
        head, tail = (a, last) if fwd else (first, a)
        before, after = prv[head], nxt[tail]
        if after == head:
            raise MisuseError(f"swallow k={k} leaves no hole edge")
        # triangle a -> s1 -> s2 runs u -> w -> x -> u; fence, the twin of
        # s1 ('next') or s2 ('prev'), closes the eaten run into the work
        # hole, and cont, the twin of the other, bridges the cut in the
        # ambient hole
        if fwd:
            x = org[twin[last]]
            fence_org, cont_org = x, u
        else:
            x = org[first]
            fence_org, cont_org = u, x
        # the four new half-edges come from the arena's tail
        s1 = len(org)
        s2, fence, cont = s1 + 1, s1 + 2, s1 + 3
        twin += (fence, cont, s1, s2) if fwd else (cont, fence, s2, s1)
        nxt += (s2, a, first, after)
        prv += (a, s1, last, before)
        org += (w, x, fence_org, cont_org)
        hflag += (FLAG_TRIANGLE, FLAG_TRIANGLE, FLAG_WORK, flag)
        hflag[a] = FLAG_TRIANGLE
        nxt[a] = s1
        prv[a] = s2
        prv[first] = fence
        nxt[last] = fence
        for e in eaten:
            hflag[e] = FLAG_WORK
        nxt[before] = cont
        prv[after] = cont
        if flag == FLAG_MAIN:
            # the main boundary is simple: the origins of the stretch other
            # than cont's leave it, and the apex of 'next' keeps after
            self.perimeter -= k
            v_hole = self.v_hole
            for e in eaten if fwd else eaten[:-1] + [a]:
                v_hole[org[e]] = -1
            v_hole[cont_org] = cont
        self.ne += 2
        self.n_tri += 1
        return cont, fence, x

    def close_ear(self, a: int, side: str) -> int:
        """Glue a triangle onto hole edge a and its neighbour on the given
        side: ``open_swallow(a, 1, side)`` then ``close_two_gon`` of the
        enclosed 2-gon, in one step.

        The swallowed edge itself becomes the triangle's side, so no
        half-edge dies and ``v_out`` and the root stay where they are.
        Returns the new hole edge, the ``cont`` of ``open_swallow``.
        """
        hflag = self.hflag
        flag = hflag[a]
        if flag not in (FLAG_MAIN, FLAG_WORK):
            raise MisuseError(f"half-edge {a} does not bound a hole")
        if side not in ("next", "prev"):
            raise DomainError(f"side must be 'next' or 'prev', got {side!r}")
        twin, nxt, prv, org = self.twin, self.nxt, self.prv, self.org
        # the replaced stretch head -> tail is a and the eaten edge e
        e = nxt[a] if side == "next" else prv[a]
        if e == a:
            raise MisuseError("swallow k=1 wraps the whole hole")
        head, tail = (a, e) if side == "next" else (e, a)
        before, after = prv[head], nxt[tail]
        if after == head:
            raise MisuseError("swallow k=1 leaves no hole edge")
        # triangle head -> tail -> s, s running from target(tail) back to
        # org(head); cont, its twin, bridges the cut in the hole
        s, cont = len(org), len(org) + 1
        twin += (cont, s)
        nxt += (head, after)
        prv += (tail, before)
        org += (org[after], org[head])
        hflag += (FLAG_TRIANGLE, flag)
        hflag[head] = hflag[tail] = FLAG_TRIANGLE
        nxt[tail] = s
        prv[head] = s
        nxt[before] = cont
        prv[after] = cont
        if flag == FLAG_MAIN:
            self.perimeter -= 1
            self.v_hole[org[tail]] = -1
            self.v_hole[org[head]] = cont
        self.ne += 1
        self.n_tri += 1
        return cont

    def close_two_gon(self, g: int) -> int:
        """Zip shut a work hole of perimeter 2 by identifying its edges.

        Returns the surviving half-edge that replaced twin(g).
        """
        hflag, twin, nxt = self.hflag, self.twin, self.nxt
        if hflag[g] != FLAG_WORK:
            raise MisuseError("only work holes can be zipped shut")
        g2 = nxt[g]
        if g2 == g or nxt[g2] != g:
            raise MisuseError("hole is not a 2-gon")
        t1, t2 = twin[g], twin[g2]
        if t1 == g2:
            raise InvariantViolationError("cannot identify an edge with itself")
        org, v_out = self.org, self.v_out
        u, v = org[g], org[g2]
        twin[t1], twin[t2] = t2, t1
        if v_out[u] == g:
            v_out[u] = t2
        if v_out[v] == g2:
            v_out[v] = t1
        # the merged edge keeps representing the root edge, same orientation
        if self.root == g:
            self.root = t2
        elif self.root == g2:
            self.root = t1
        # g and g2 die; their ids stay in the arena, flagged DEAD
        prv = self.prv
        hflag[g] = hflag[g2] = DEAD
        twin[g] = nxt[g] = prv[g] = org[g] = -1
        twin[g2] = nxt[g2] = prv[g2] = org[g2] = -1
        self.ne -= 1
        return t1

    # -- distances -------------------------------------------------------

    def bfs_distances(
        self,
        start: int,
        max_dist: Optional[int] = None,
        reached: Optional[list[int]] = None,
    ) -> list[int]:
        """Graph distances from a vertex over all alive edges.

        Unreached vertices (or those beyond max_dist) stay -1.  Distances
        are with respect to the explored map only; whether they equal the
        distances in the completed infinite map is the caller's problem.
        A ``reached`` list is extended with every vertex given a distance,
        in order of discovery.
        """
        dist = [-1] * self.nv
        dist[start] = 0
        frontier = [start]
        if reached is not None:
            reached.append(start)
        d = 0
        twin, nxt, org = self.twin, self.nxt, self.org
        while frontier and (max_dist is None or d < max_dist):
            d += 1
            nxt_frontier = []
            for v in frontier:
                h0 = self.v_out[v]
                h = h0
                while True:
                    t = twin[h]
                    w = org[t]
                    if dist[w] == -1:
                        dist[w] = d
                        nxt_frontier.append(w)
                    h = nxt[t]
                    if h == h0:
                        break
            frontier = nxt_frontier
            if reached is not None:
                reached += frontier
        return dist

    # -- validation -------------------------------------------------------

    def validate(
        self,
        expect_main_holes: Optional[int] = 1,
        allow_work_holes: bool = False,
        require_simple_main: bool = True,
    ) -> None:
        """Full structural audit; raises InvariantViolationError on defect.

        expect_main_holes None skips the hole-count and perimeter-counter
        checks (extracted submaps can have any number of holes).  O(size);
        for tests and checkpoints, not for inner loops.
        """
        alive = [h for h, f in enumerate(self.hflag) if f != DEAD]
        alive_set = set(alive)
        if len(alive) % 2:
            raise InvariantViolationError("odd number of half-edges")
        for h in alive:
            t = self.twin[h]
            if t not in alive_set or t == h or self.twin[t] != h:
                raise InvariantViolationError(f"twin structure broken at {h}")
            n = self.nxt[h]
            if n not in alive_set or self.prv[n] != h:
                raise InvariantViolationError(f"nxt/prv broken at {h}")
            if self.org[self.nxt[h]] != self.org[self.twin[h]]:
                raise InvariantViolationError(f"face cycle skips a vertex at {h}")
            if self.org[h] < 0 or self.org[h] >= self.nv:
                raise InvariantViolationError(f"origin out of range at {h}")
        # face cycles
        seen = set()
        n_tri = 0
        main_cycles = []
        work_cycles = 0
        for h in alive:
            if h in seen:
                continue
            cyc = [h]
            seen.add(h)
            g = self.nxt[h]
            while g != h:
                cyc.append(g)
                seen.add(g)
                g = self.nxt[g]
            flags = {self.hflag[c] for c in cyc}
            if len(flags) != 1:
                raise InvariantViolationError(f"mixed flags on face of {h}")
            flag = flags.pop()
            if flag == FLAG_TRIANGLE:
                if len(cyc) != 3:
                    raise InvariantViolationError(
                        f"triangle face of length {len(cyc)} at {h}"
                    )
                n_tri += 1
            elif flag == FLAG_MAIN:
                main_cycles.append(cyc)
            elif flag == FLAG_WORK:
                work_cycles += 1
                if not allow_work_holes:
                    raise InvariantViolationError("unexpected work hole")
            if flag != FLAG_TRIANGLE and len(cyc) < 2:
                raise InvariantViolationError(f"hole of length {len(cyc)} at {h}")
        if n_tri != self.n_tri:
            raise InvariantViolationError(
                f"triangle counter {self.n_tri} != actual {n_tri}"
            )
        if expect_main_holes is not None and len(main_cycles) != expect_main_holes:
            raise InvariantViolationError(
                f"expected {expect_main_holes} main holes, found {len(main_cycles)}"
            )
        if expect_main_holes == 1:
            if self.perimeter != len(main_cycles[0]):
                raise InvariantViolationError(
                    f"perimeter counter {self.perimeter} != actual {len(main_cycles[0])}"
                )
            if require_simple_main:
                origins = [self.org[c] for c in main_cycles[0]]
                if len(set(origins)) != len(origins):
                    raise InvariantViolationError("main hole boundary not simple")
        if 2 * self.ne != len(alive):
            raise InvariantViolationError(
                f"edge counter {self.ne} != half-edge count {len(alive)} / 2"
            )
        # vertices: every alive origin in range, rotation orbits close
        out_count = [0] * self.nv
        for h in alive:
            out_count[self.org[h]] += 1
        used = [v for v in range(self.nv) if out_count[v]]
        if len(used) != self.nv:
            raise InvariantViolationError("isolated vertex in arena")
        orbit_total = 0
        for v in range(self.nv):
            fan = self.out_half_edges(v)
            if len(fan) != out_count[v]:
                raise InvariantViolationError(
                    f"rotation orbit of vertex {v} does not close over its fan"
                )
            orbit_total += len(fan)
            if self.v_hole[v] != -1:
                h = self.v_hole[v]
                if self.hflag[h] != FLAG_MAIN or self.org[h] != v:
                    raise InvariantViolationError(f"v_hole wrong at vertex {v}")
        if orbit_total != len(alive):
            raise InvariantViolationError("rotation orbits do not partition half-edges")
        if expect_main_holes == 1 and require_simple_main:
            on_hole = {self.org[c] for c in main_cycles[0]}
            for v in range(self.nv):
                if (self.v_hole[v] != -1) != (v in on_hole):
                    raise InvariantViolationError(f"v_hole index stale at vertex {v}")
        # connectivity and genus: reach everything from the root, then Euler
        if self.root == -1 or not self.alive(self.root):
            raise InvariantViolationError("root half-edge dead or unset")
        stack = [self.root]
        reached = {self.root}
        while stack:
            h = stack.pop()
            for g in (self.nxt[h], self.twin[h]):
                if g not in reached:
                    reached.add(g)
                    stack.append(g)
        if len(reached) != len(alive):
            raise InvariantViolationError("map not connected from the root")
        faces = n_tri + len(main_cycles) + work_cycles
        if self.nv - self.ne + faces != 2:
            raise InvariantViolationError(
                f"Euler characteristic {self.nv - self.ne + faces} != 2"
            )

    # -- canonical encoding ----------------------------------------------

    def canonical_code(self) -> tuple:
        """Root-anchored isomorphism invariant.

        Half-edges are numbered in BFS discovery order from the root,
        exploring nxt before twin; the code lists (nxt, twin, flag) per
        half-edge in that numbering.  Two maps get equal codes exactly
        when a root-preserving isomorphism matches them.
        """
        start = self.root
        if not self.alive(start):
            raise MisuseError("canonical code needs an alive root")
        index = {start: 0}
        order = [start]
        head = 0
        while head < len(order):
            h = order[head]
            head += 1
            for g in (self.nxt[h], self.twin[h]):
                if g not in index:
                    index[g] = len(order)
                    order.append(g)
        if len(order) != self.n_half_edges():
            raise InvariantViolationError("canonical traversal missed half-edges")
        return tuple(
            (index[self.nxt[h]], index[self.twin[h]], self.hflag[h]) for h in order
        )

    def ball_code(self, root: int, dist: list, radius: int) -> tuple:
        """:meth:`canonical_code` of the radius ball as a map of its own,
        read off the arena without copying it.

        The ball is the triangles whose three corners have ``dist`` in
        [0, radius], rooted at ``root``.  A main-hole half-edge ``~h``
        closes each ball half-edge h with no ball triangle across: its
        twin is h, its successor ``~prv[x]`` for x the first ball
        half-edge met turning ``x = nxt[twin[x]]`` from ``nxt[twin[h]]``.
        """
        twin, nxt, prv, org, hflag = self.twin, self.nxt, self.prv, self.org, self.hflag

        def in_ball(h: int) -> bool:
            n = nxt[h]
            near = (0 <= dist[org[e]] <= radius for e in (h, n, nxt[n]))
            return hflag[h] == FLAG_TRIANGLE and all(near)

        if not (self.alive(root) and in_ball(root)):
            raise MisuseError("ball root must be on a ball triangle")
        order, index, code = [root], {root: 0}, []
        for h in order:  # the loop also visits what it appends
            if h >= 0:
                a, b, flag = nxt[h], twin[h], FLAG_TRIANGLE
                if not in_ball(b):
                    b = ~h
            else:
                x = nxt[twin[~h]]
                while not in_ball(x):
                    x = nxt[twin[x]]
                a, b, flag = ~prv[x], ~h, FLAG_MAIN
            for g in (a, b):
                if g not in index:
                    index[g] = len(order)
                    order.append(g)
            code.append((index[a], index[b], flag))
        return tuple(code)
