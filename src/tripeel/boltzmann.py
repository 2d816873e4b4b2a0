"""Boltzmann sampler for triangulations of a polygon.

A filled p-gon is drawn with probability kappa^(internal vertices) / Z_p.
The sampler works hole-first: a work hole of perimeter p is resolved by
one of

* close (p = 2 only): the hole zips shut, probability 1/Z_2;
* fresh: the triangle on the hole's root edge has a new internal apex,
  probability kappa Z_{p+1} / Z_p, leaving a (p+1)-hole;
* split at k in 1..p-2: the apex is the k-th boundary vertex ahead,
  probability Z_{k+1} Z_{p-k} / Z_p, leaving a (k+1)-hole and a
  (p-k)-hole.

The three weights sum to one exactly (the splitting identity of the
partition functions); the implementation checks the float sum at table
build time.  All ratios are computed through the one-sided step weights
q_{-k} = 2 beta^k Z_{k+1}, which keeps every intermediate quantity well
scaled however large p gets.

Three drivers consume the same decision stream:
:meth:`BoltzmannFiller.fill_hole` performs the surgeries on a map,
:meth:`BoltzmannFiller.fill_volume` only keeps score, and
:meth:`BoltzmannFiller.fill_degree` keeps score and follows the degree
of one marked boundary vertex.  Given equal streams they make identical
decisions draw for draw, which the growth engines exploit to couple a
map-backed process with its lightweight twins.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import DomainError, InvariantViolationError
from .params import PeelParams
from .planarmap import TriMap
from .rng import RngStream

_CLOSE = ("close",)
_FRESH = ("fresh",)

_ROW_TOL = 1e-9


class BoltzmannFiller:
    """Decision tables plus the three fill drivers for fixed parameters."""

    def __init__(self, params: PeelParams):
        self.params = params
        # the row table lives on the parameters, so a new filler starts warm
        self._rows: dict[int, tuple[list, list]] = params._fill_rows

    def row(self, p: int) -> tuple[list, list]:
        """Cumulative decision thresholds at hole perimeter p.

        Returns (cuts, decisions): cuts[i] is the cumulative probability
        through decisions[i]; the last cut is forced to 1 after the sum
        passes the consistency check.
        """
        cached = self._rows.get(p)
        if cached is not None:
            return cached
        if p < 2:
            raise DomainError(f"hole perimeter p={p} must be at least 2")
        params = self.params
        params.ensure_q(p)
        qn = params._qneg
        decisions = []
        probs = []
        if p == 2:
            decisions.append(_CLOSE)
            probs.append(2.0 * params.beta / qn[1])
        decisions.append(_FRESH)
        probs.append(params.alpha * qn[p] / qn[p - 1])
        for k in range(1, p - 1):
            decisions.append(("split", k))
            probs.append(qn[k] * qn[p - 1 - k] / (2.0 * qn[p - 1]))
        total = sum(probs)
        if abs(total - 1.0) > _ROW_TOL:
            raise InvariantViolationError(
                f"hole decision weights at p={p} sum to {total!r}, not 1"
            )
        cuts = []
        acc = 0.0
        for w in probs:
            acc += w
            cuts.append(acc)
        cuts[-1] = 1.0
        self._rows[p] = (cuts, decisions)
        return cuts, decisions

    # -- drivers ----------------------------------------------------------

    def fill_hole(self, tmap: TriMap, hole_he: int, perimeter: int, rng: RngStream) -> int:
        """Resolve a work hole by surgery until nothing is left of it.

        Returns the number of internal vertices added.  Split pushes the
        far piece and keeps working on the near piece, depth-first, so
        the decision order is a deterministic function of the stream.
        """
        rows, row, u = self._rows, self.row, rng.u
        stack = [(hole_he, perimeter)]
        push, pop = stack.append, stack.pop
        added = 0
        while stack:
            h, p = pop()
            cuts, decisions = rows.get(p) or row(p)
            d = decisions[bisect_right(cuts, u())]
            if d is _CLOSE:
                tmap.close_two_gon(h)
            elif d is _FRESH:
                c2, _, _ = tmap.attach_fresh(h)
                added += 1
                push((c2, p + 1))
            else:
                k = d[1]
                cont, enclosed, _ = tmap.open_swallow(h, k, "next")
                push((cont, p - k))
                push((enclosed, k + 1))
        return added

    def fill_volume(self, perimeter: int, rng: RngStream) -> int:
        """Scorekeeping twin of :meth:`fill_hole`: same decisions, no map."""
        rows, row, u = self._rows, self.row, rng.u
        stack = [perimeter]
        push, pop = stack.append, stack.pop
        added = 0
        while stack:
            p = pop()
            cuts, decisions = rows.get(p) or row(p)
            d = decisions[bisect_right(cuts, u())]
            if d is _CLOSE:
                pass
            elif d is _FRESH:
                added += 1
                push(p + 1)
            else:
                k = d[1]
                push(p - k)
                push(k + 1)
        return added

    def fill_degree(self, perimeter: int, mark: int, rng: RngStream) -> tuple[int, int]:
        """Twin of :meth:`fill_volume` that also follows one boundary vertex.

        The hole's vertices are indexed along its cycle: index i is the
        origin of nxt^i of the hole's root.  Returns (internal vertices
        added, change in the degree of the vertex at index ``mark``).
        Each stack entry carries the mark's index in that hole, or -1
        when the vertex is not on it; a split apex lies on both pieces.
        The per-decision rules follow the surgeries :meth:`fill_hole`
        makes: a fresh triangle adds an edge at indices 0 and 1, a split
        at k adds one at 0 and 1 and two at the apex k + 1, and closing a
        2-gon merges its two edges.
        """
        rows, row, u = self._rows, self.row, rng.u
        stack = [(perimeter, mark)]
        push, pop = stack.append, stack.pop
        added = 0
        gained = 0
        while stack:
            p, i = pop()
            cuts, decisions = rows.get(p) or row(p)
            d = decisions[bisect_right(cuts, u())]
            if d is _CLOSE:
                if i >= 0:
                    gained -= 1
            elif d is _FRESH:
                added += 1
                # the apex becomes index 1 and pushes the rest along
                if i == 0 or i == 1:
                    gained += 1
                if i > 0:
                    i += 1
                push((p + 1, i))
            else:
                k = d[1]
                # the continuing (p - k)-hole runs root origin, apex,
                # k + 2, ...; the enclosed (k + 1)-hole runs apex, 1..k
                if i < 0:
                    push((p - k, -1))
                    push((k + 1, -1))
                elif i == 0:
                    gained += 1
                    push((p - k, 0))
                    push((k + 1, -1))
                elif i <= k:
                    if i == 1:
                        gained += 1
                    push((p - k, -1))
                    push((k + 1, i))
                elif i == k + 1:
                    gained += 2
                    push((p - k, 1))
                    push((k + 1, 0))
                else:
                    push((p - k, i - k))
                    push((k + 1, -1))
        return added, gained

    # -- exhaustive small-map enumeration ----------------------------------

    def enumerate_fillings(self, p: int, n_max: int) -> dict:
        """All fillings of the p-gon with at most n_max internal vertices.

        Walks the full decision tree, pruning branches once they commit
        to more than n_max internal vertices.  Returns {canonical code:
        (n_internal, probability)} where the probability is the product
        of decision weights along the unique path that builds the map.
        Each decision sequence yields a distinct rooted map, so the
        number of codes at a given n doubles as a surgery-correctness
        check against the closed counting formula.
        """
        base, inner = TriMap.polygon(p)
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
            cuts, decisions = self.row(q)
            prev = 0.0
            for cut, d in zip(cuts, decisions):
                w = cut - prev
                prev = cut
                if d is _FRESH and n + 1 > n_max:
                    continue
                m2 = tmap.clone()
                st2 = stack[:-1]
                n2 = n
                if d is _CLOSE:
                    m2.close_two_gon(h)
                elif d is _FRESH:
                    c2, _, _ = m2.attach_fresh(h)
                    n2 = n + 1
                    st2 = st2 + [(c2, q + 1)]
                else:
                    k = d[1]
                    cont, enclosed, _ = m2.open_swallow(h, k, "next")
                    st2 = st2 + [(cont, q - k), (enclosed, k + 1)]
                agenda.append((m2, st2, n2, prob * w))
        return out
