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
q_{-k} = 2 beta^k Z_{k+1}, held as a mantissa in [1/2, 1) and a binary
exponent: q_{-k} shrinks like (4g)^k, g = (1 - alpha) / (2 alpha), and
turns subnormal at k of a few hundred to a few thousand off the critical
point, but in each ratio the powers cancel, so the mantissas keep every
intermediate quantity well scaled however large p gets.

A decision is an int k: -1 closes, 0 is fresh and k >= 1 splits at k.
Three drivers consume the same decision stream:
:meth:`BoltzmannFiller.fill_hole` performs the surgeries on a map,
:meth:`BoltzmannFiller.fill_volume` only keeps score, and
:meth:`BoltzmannFiller.fill_degree` keeps score and follows the degree
of one marked boundary vertex.  Given equal streams they decide
identically draw for draw, which the growth engines exploit to couple a
map-backed process with its lightweight twins.  The map engine hands
its swallow steps to :meth:`BoltzmannFiller.swallow`, so the fill rules,
the ear rule included, live only here.

A fourth consumer, :meth:`BoltzmannFiller.fill_volumes`, draws the
volumes of many holes at once for the block chain.  It decides
nothing: the volume of a filled p-gon has the explicit law

    P(n | p) = count(n, p) kappa^n / Z_p,

and for p up to ``_VOL_P`` it is read off a per-perimeter inverse-cdf
table (:func:`volume_row`), one uniform per hole, truncated where the
omitted mass is certified below 2^-53.  Same law as ``fill_volume``,
different draws.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Optional

import numpy as np

from .counting import catalan
from .errors import DomainError, InvariantViolationError
from .params import PeelParams, _swallow_weight
from .planarmap import TriMap
from .rng import _U_BITS, _U_SPACING, RngStream

_ROW_TOL = 1e-9

# fill volumes of holes up to this perimeter come from tables; at alpha
# 7/10 that covers 99.67% of the block chain's fills
_VOL_P = 32
# a volume row is tabled only if its certified length is at most this;
# near the critical point (alpha 0.68: 14,735 entries at p = 2) none is
_VOL_N = 1 << 13


class BoltzmannFiller:
    """Decision rows, the fill drivers, the map engine's swallow step and
    :meth:`fill_volumes` (volumes from tables), for fixed parameters.

    A filler holds no per-run state, only tables kept on the parameters,
    so the engines and chains of a coupling share one: built on first
    use, and kept on the :class:`PeelParams` while an engine or chain
    holds it.  A filler built directly works the same."""

    def __init__(self, params: PeelParams):
        self.params = params
        # the row table lives on the parameters, so a new filler starts warm
        self._rows: dict[int, list] = params._fill_rows
        # P(a 2-gon closes at once): a size-1 swallow is an ear this often
        self.ear = self.row(2)[0]

    def row(self, p: int) -> list:
        """Cumulative decision thresholds at hole perimeter p: p entries,
        entry i being P(decision <= i - 1), so a uniform u decides
        k = bisect_right(row, u) - 1.  The close entry is 0.0 for p > 2;
        the last is forced to 1 after the sum passes the consistency check.
        """
        cached = self._rows.get(p)
        if cached is not None:
            return cached
        if p < 2:
            raise DomainError(f"hole perimeter p={p} must be at least 2")
        params = self.params
        params.ensure_q(p)
        # q_{-k} = qm[k] 2^qe[k]: the ratios below take the mantissas and
        # shift by the exponents, which stays exact where q_{-k} is
        # subnormal, and is the plain ratio of the q_{-k} bit for bit
        # while every q_{-k} and every product is a normal double
        qm, qe = params._qman, params._qexp
        ldexp = math.ldexp
        probs = [2.0 * params.beta / params._qneg[1] if p == 2 else 0.0]
        probs.append(ldexp(params.alpha * qm[p] / qm[p - 1], qe[p] - qe[p - 1]))
        m_top, e_top = 2.0 * qm[p - 1], qe[p - 1]
        for k in range(1, p - 1):
            probs.append(ldexp(qm[k] * qm[p - 1 - k] / m_top, qe[k] + qe[p - 1 - k] - e_top))
        total = sum(probs)
        if abs(total - 1.0) > _ROW_TOL:
            raise InvariantViolationError(
                f"hole decision weights at p={p} sum to {total!r}, not 1"
            )
        cuts = list(accumulate(probs))
        cuts[-1] = 1.0
        self._rows[p] = cuts
        return cuts

    # -- drivers ----------------------------------------------------------

    def swallow(self, tmap: TriMap, a: int, k: int, side: str, rng: RngStream) -> int:
        """Glue a size-k swallow's triangle onto hole edge a and fill the
        (k + 1)-hole it fences off: the map, draws and returned ``cont`` of
        :meth:`TriMap.open_swallow` then :meth:`fill_hole`.  A size-1
        swallow draws its 2-gon's first decision at once: a close makes it
        one :meth:`TriMap.close_ear`, else the 2-gon grows its fresh apex
        and is filled from p = 3."""
        if k > 1:
            cont, enclosed, _ = tmap.open_swallow(a, k, side)
            self.fill_hole(tmap, enclosed, k + 1, rng)
        elif rng.u() < self.ear:
            cont = tmap.close_ear(a, side)
        else:
            cont, enclosed, _ = tmap.open_swallow(a, 1, side)
            enclosed, _, _ = tmap.attach_fresh(enclosed)
            self.fill_hole(tmap, enclosed, 3, rng)
        return cont

    def fill_hole(self, tmap: TriMap, hole_he: int, perimeter: int, rng: RngStream) -> int:
        """Resolve a work hole by surgery until nothing is left of it.

        Returns the number of internal vertices added.  Split pushes the
        far piece and keeps working on the near piece, depth-first, so
        the decision order is a deterministic function of the stream.
        Every piece ends in a close, after which the next pushed piece is
        taken up; a 2-gon that closes at once never touches the stack.
        A split at k = 1 is a size-1 swallow, inline here as in
        :meth:`swallow`: on an ear the work goes on at p - 1.
        """
        rows, row, u, ear = self._rows, self.row, rng.u, self.ear
        stack: list = []
        h, p = hole_he, perimeter
        nv0 = tmap.nv
        while True:
            k = bisect_right(rows.get(p) or row(p), u()) - 1
            if k < 0:
                tmap.close_two_gon(h)
                if not stack:
                    return tmap.nv - nv0
                h, p = stack.pop()
            elif k == 0:
                h, _, _ = tmap.attach_fresh(h)
                p += 1
            elif k > 1:
                cont, h, _ = tmap.open_swallow(h, k, "next")
                stack.append((cont, p - k))
                p = k + 1
            elif u() < ear:
                h = tmap.close_ear(h, "next")
                p -= 1
            else:
                cont, h, _ = tmap.open_swallow(h, 1, "next")
                stack.append((cont, p - 1))
                h, _, _ = tmap.attach_fresh(h)
                p = 3

    def fill_volume(self, perimeter: int, rng: RngStream) -> int:
        """Scorekeeping twin of :meth:`fill_hole`: the same draws, no map."""
        rows, row, u = self._rows, self.row, rng.u
        stack = [perimeter]
        push, pop = stack.append, stack.pop
        added = 0
        while stack:
            p = pop()
            k = bisect_right(rows.get(p) or row(p), u()) - 1
            if k == 0:
                added += 1
                push(p + 1)
            elif k > 0:
                push(p - k)
                push(k + 1)
        return added

    def fill_volumes(self, holes: np.ndarray, rng: RngStream) -> int:
        """Total internal vertices of independent fills of holes with the
        given perimeters, in law the sum of :meth:`fill_volume` over them.

        One block of uniforms draws the volumes of the tabled holes
        (perimeter up to the table's top), each by inverse cdf in its
        perimeter's row; then :meth:`fill_volume` fills the others in
        order.  A row's keys are (p << 53) + ceil(cdf * 2^53) and a
        uniform u of a p-hole is looked up as (p << 53) + u * 2^53, so one
        searchsorted over all rows is bisect_right within each row.
        """
        table = self.params._vol_table
        if table is None:
            table = self.params._vol_table = _volume_table(self.params)
        keys, starts = table
        tabled = holes < len(starts)
        held = holes[tabled]
        added = 0
        if held.size:
            u = rng.block(held.size)
            u *= 2.0**_U_BITS
            q = held.astype(np.uint64)
            q <<= np.uint64(_U_BITS)
            q += u.astype(np.uint64)
            at = np.searchsorted(keys, q, side="right")
            added = int(at.sum() - starts[held].sum())
        for p in holes[~tabled].tolist():
            added += self.fill_volume(p, rng)
        return added

    def fill_degree(self, perimeter: int, mark: int, rng: RngStream) -> tuple[int, int]:
        """Twin of :meth:`fill_volume` that also follows one boundary vertex.

        The hole's vertices are indexed along its cycle: index i is the
        origin of nxt^i of the hole's root.  Returns (internal vertices
        added, change in the degree of the vertex at index ``mark``).
        Each stack entry carries the mark's index in that hole, or -1
        when the vertex is not on it; a split apex lies on both pieces.
        A piece without it goes to :meth:`fill_volume`, which fills it
        whole before anything below it on the stack, as this loop would,
        with the same draws.  The rules follow the surgeries
        :meth:`fill_hole` makes: a fresh triangle adds an edge at indices
        0 and 1, a split at k adds one at 0 and 1 and two at the apex
        k + 1, and closing a 2-gon merges its two edges.
        """
        rows, row, u = self._rows, self.row, rng.u
        stack = [(perimeter, mark)]
        push, pop = stack.append, stack.pop
        added = 0
        gained = 0
        while stack:
            p, i = pop()
            if i < 0:
                added += self.fill_volume(p, rng)
                continue
            k = bisect_right(rows.get(p) or row(p), u()) - 1
            if k < 0:
                gained -= 1
            elif k == 0:
                added += 1
                # the apex becomes index 1 and pushes the rest along
                if i <= 1:
                    gained += 1
                if i > 0:
                    i += 1
                push((p + 1, i))
            else:
                # the continuing (p - k)-hole runs root origin, apex,
                # k + 2, ...; the enclosed (k + 1)-hole runs apex, 1..k
                if i == 0:
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


# -- volume tables -------------------------------------------------------------


def volume_row(params: PeelParams, p: int, width: int = _VOL_N) -> Optional[np.ndarray]:
    """P(n | p) = count(n, p) kappa^n / Z_p for n = 0..N, the fill volume
    law of a p-hole cut at its certified length N; None when N would
    exceed ``_VOL_N`` (or at the critical point, where no cut is
    certified).

    P(0 | p) = Catalan(p - 2) / Z_p, and each next entry is the running
    product times kappa count_ratio(n, p).  N is the first n with
    count_ratio(n, p) < 27/2 and P(n | p) r / (1 - r) <= 2^-53, where
    r = 27 kappa / 2 < 1: from there on every ratio is below r (see
    :func:`~tripeel.counting.count_ratio`), so the mass past N is at most
    P(N | p) (r + r^2 + ...), below the spacing of the stream's uniforms.

    Entries are computed in a window of ``width`` >= 1, doubled while no
    cut is certified in it; the cut reads only entries up to it, so the
    row does not depend on the width.
    """
    kappa = params.kappa
    r = 13.5 * kappa
    if not r < 1.0:
        return None
    z = _swallow_weight(p - 1, params.lin, (1.0 - params.alpha) / (2.0 * kappa))
    head = catalan(p - 2) / z
    while True:
        n = np.arange(min(width, _VOL_N), dtype=float)
        b = 2 * p + 3 * n
        # count_ratio(n, p): numerator and denominator are exact below 2^53
        ratio = 2 * (b - 1) * (b - 2) * (b - 3) / ((n + 1) * (2 * p + 2 * n) * (2 * p + 2 * n - 1))
        probs = np.cumprod(np.concatenate(([head], kappa * ratio)))
        certified = (ratio < 13.5) & (probs[:-1] * (r / (1.0 - r)) <= _U_SPACING)
        cut = int(certified.argmax())
        if certified[cut]:
            return probs[: cut + 1]
        if width >= _VOL_N:
            return None
        width *= 2


def _volume_table(params: PeelParams) -> tuple:
    """(keys, starts): the sorted uint64 keys of the volume rows p = 2,
    3, ... up to ``_VOL_P`` or the first row not tabled (rows lengthen
    with p), and starts[p], the index of row p's first key.

    Row p's keys are (p << 53) + ceil(cdf * 2^53), with the cdf clipped
    to 1 and its last entry forced to 1, so each row is sorted and ends
    at ((p + 1) << 53), at or below every key of row p + 1.  The keys are
    written into one buffer sized for the longest rows allowed, whose
    unwritten pages are never touched, then cut to length in place.
    """
    keys = np.empty((_VOL_P - 1) * _VOL_N, dtype=np.uint64)
    starts, size = [0, 0], 0
    width = _VOL_N // 8
    for p in range(2, _VOL_P + 1):
        row = volume_row(params, p, width)
        if row is None:
            break
        cdf = np.cumsum(row, out=row)
        np.minimum(cdf, 1.0, out=cdf)
        cdf[-1] = 1.0
        np.ceil(cdf * 2.0**_U_BITS, out=cdf)
        seg = keys[size : size + len(cdf)]
        seg[:] = cdf
        seg += np.uint64(p) << np.uint64(_U_BITS)
        starts.append(size)
        size += len(cdf)
        width = len(cdf) + len(cdf) // 8  # rows lengthen slowly with p
    keys.resize(size, refcheck=False)
    return keys, np.array(starts, dtype=np.intp)
