"""Parameters and probability tables for the one-parameter family of
Markovian random triangulations of the plane.

The family is indexed by a weight ``kappa`` in ``(0, 2/27]``.  Everything
else derives from the unique root ``alpha`` in ``[2/3, 1)`` of

    alpha^2 (1 - alpha) / 2 = kappa,

with ``kappa = 2/27`` (``alpha = 2/3``) the critical point and smaller
``kappa`` the hyperbolic regime.  Exactly one of ``kappa`` and ``alpha``
names a coupling; strings are parsed as exact rationals, and an exact
``kappa`` whose root has a small denominator resolves to that exact
``alpha`` (:func:`build_params`).  The critical rule: a Fraction ``alpha``
is critical when it equals 2/3, a float when its ``3 alpha - 2`` is
within 1e-12 of 0, which then reads as exactly 0.  This module
materializes:

* the one-step peeling law ``q_1 = alpha``, ``q_{-k}`` for ``k >= 1``;
* the drift ``delta = sqrt(alpha (3 alpha - 2))`` of that law;
* the harmonic sequence ``C~_p = alpha^-2 sum_{q=0}^{p-2} binom(2q, q)
  g^q`` with ``g = (1 - alpha) / (2 alpha)`` (zero for ``p <= 1``),
  which tilts the step law into the positive-perimeter peeling chain.
  Off the critical point term ratios stay below ``4 g < 1``, and the
  table clamps at the first entry whose remainder is certified below
  ``2^-53`` of it;
* polygon partition functions ``Z_p`` in closed form;
* expected internal volume of a Boltzmann-filled polygon.

Both tables start from their first entries (``q_{-1}`` and ``C~_2``)
and grow only when a reader asks for an entry past their end.  Growth
is deterministic and never changes an already readable entry, so a
:class:`PeelParams` instance is logically immutable and safe to share
between sequential trials.  No sampled quantity depends on how far the
tables have grown, only on the coupling.  Growth is not synchronized:
threads that share an instance must serialize their calls themselves.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from hashlib import sha256
from typing import Optional, Union

from .errors import DomainError, TableOverflowError

KAPPA_MAX = Fraction(2, 27)
ALPHA_MIN = Fraction(2, 3)

Number = Union[int, float, Fraction]

# Residual targets certified by the lazily sized tables.
NORMALIZATION_TOL = 1e-9
DRIFT_RESIDUAL_TOL = 1e-8
HARMONICITY_TOL = 1e-10

_TABLE_HARD_CAP = 8_000_000


def parse_rational(text: str) -> Fraction:
    """Parse '9/128', '0.0735' or '2/27' into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse {text!r} as a rational number") from exc


def _lin(alpha: Number) -> Number:
    """3 alpha - 2 for an alpha in [2/3, 1), exact for Fraction input.

    The one home of the critical rule: a float alpha whose 3 alpha - 2 is
    within 1e-12 of 0 is the critical point, and 0.0 is returned.
    """
    lin = 3 * alpha - 2
    if isinstance(lin, float) and abs(lin) < 1e-12:
        lin = 0.0
    if not (lin >= 0 and alpha < 1):
        raise DomainError(
            f"alpha={alpha} outside [2/3, 1); no Markovian triangulation "
            "family member has this root"
        )
    return lin


def kappa_from_alpha(alpha: Number) -> Number:
    """Weight kappa = alpha^2 (1 - alpha) / 2; exact for Fraction input."""
    _lin(alpha)
    return alpha * alpha * (1 - alpha) / 2


def _check_kappa(kappa: Number) -> None:
    top = KAPPA_MAX if isinstance(kappa, Fraction) else float(KAPPA_MAX) * (1 + 1e-13)
    if not (0 < kappa <= top):
        raise DomainError(
            f"kappa={kappa} outside (0, 2/27]; no Markovian triangulation "
            "exists for this weight"
        )


def alpha_from_kappa(kappa: Number) -> float:
    """Root alpha in [2/3, 1) of alpha^2 (1 - alpha) / 2 = kappa.

    The map is strictly decreasing on the branch, so the root is unique.
    Bisection bracketed on [2/3, 1) followed by a short Newton polish.

    Near the critical point the root is ill-conditioned, because the
    map's derivative vanishes at 2/3: a relative error e in kappa moves
    the root by about e (1 - alpha) / (3 alpha - 2) relative, so one ulp
    of rounding in kappa already costs that many ulp here.  Measured on
    ``alpha_from_kappa(kappa_from_alpha(a))``: for 3 a - 2 above 3e-7 the
    relative error stays below 2 * 2^-52 (1 - a) / (3 a - 2), a few ulp
    from alpha 0.7 up but about 1,000 ulp at 0.6667; closer to 2/3 it
    reaches about 1e-7 relative, and a kappa within float spacing of 2/27
    returns 2/3.
    """
    _check_kappa(kappa)
    kf = float(kappa)
    if abs(kf - float(KAPPA_MAX)) < 1e-15:
        return 2.0 / 3.0

    def g(a: float) -> float:
        return a * a * (1.0 - a) / 2.0

    lo, hi = 2.0 / 3.0, 1.0 - 1e-12
    if g(lo) < kf:
        # kappa sits in the float gap right at the critical value
        return 2.0 / 3.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(mid) >= kf:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    for _ in range(3):
        deriv = a * (1.0 - 1.5 * a)
        if deriv == 0.0:
            break
        a -= (g(a) - kf) / deriv
        a = min(max(a, 2.0 / 3.0), 1.0 - 1e-15)
    return a


def _swallow_weight(k: int, lin: float, geo: float) -> float:
    """a_k geo^k (lin k + 1) with a_k = (2k-2)! / ((k-1)! (k+1)!), in log
    space (stable for k up to 1e6).

    q_{-k} is twice this at geo = (1 - alpha) / (2 alpha), and Z_{k+1} =
    q_{-k} / (2 beta^k) is this at geo = (1 - alpha) / (2 kappa).
    """
    log_a = math.lgamma(2 * k - 1) - math.lgamma(k) - math.lgamma(k + 2)
    return math.exp(log_a + k * math.log(geo)) * (lin * k + 1.0)


def q_step(i: int, alpha: Number) -> Number:
    """One-step peeling probability q_i.

    ``q_1 = alpha`` is the fresh-vertex step; ``q_{-k}`` for ``k >= 1``
    is the probability that the revealed triangle swallows ``k`` boundary
    edges on one fixed side.  Exact for Fraction alpha, floating point
    with log-factorials otherwise (stable for k up to 1e6).
    """
    lin = _lin(alpha)
    if i == 1:
        return alpha
    if i >= 0:
        raise DomainError(f"step index i={i} must be 1 or a negative integer")
    k = -i
    if isinstance(alpha, Fraction):
        a_k = Fraction(math.factorial(2 * k - 2), math.factorial(k - 1) * math.factorial(k + 1))
        return 2 * a_k * ((1 - alpha) / (2 * alpha)) ** k * (lin * k + 1)
    return 2.0 * _swallow_weight(k, lin, (1.0 - alpha) / (2.0 * alpha))


def mean_hole_volume(k: int, alpha: Number) -> Number:
    """Expected internal vertex count of a Boltzmann-filled (k+1)-gon.

    For the fresh step (the degenerate k = -1 hole) the increment is one
    vertex by convention; that case is handled by the engines, not here.
    """
    if k < 1:
        raise DomainError(f"swallow size k={k} must be at least 1")
    return k * (2 * k - 1) * (1 - alpha) / (_lin(alpha) * k + 1)


def q_tail_ratio(alpha: float, k: int) -> float:
    """Upper bound on q_{-(k+1)} / q_{-k} valid for all sizes >= k.

    The combinatorial factor ratio increases to 4 and the linear factor
    ratio decreases to 1, so (2/alpha - 2) times the linear ratio at k
    dominates every later step ratio.
    """
    rho = 2.0 / alpha - 2.0
    lin = 3.0 * alpha - 2.0
    return rho * ((lin * (k + 1) + 1.0) / (lin * k + 1.0))


def q_tail_bound(alpha: float, k: int, q_k: float, weighted: bool = False) -> float:
    """Certified bound on the step-law tail mass beyond size k.

    Plain: sum_{j>k} q_{-j}.  Weighted: sum_{j>k} j q_{-j}, used for the
    drift residual.  Returns inf when no geometric bound holds (critical
    point).
    """
    r = q_tail_ratio(alpha, k)
    if r >= 1.0:
        return math.inf
    if not weighted:
        return q_k * r / (1.0 - r)
    return q_k * (k * r / (1.0 - r) + r / (1.0 - r) ** 2)


class PeelParams:
    """Frozen identity (kappa, alpha, beta, drift) plus lazily grown tables.

    Construct through :func:`build_params`.  The step-law table and the
    harmonic sequence extend on demand; extension is deterministic and
    never alters an entry already handed out.
    """

    def __init__(self, alpha: Number, kappa: Number):
        # each of alpha and kappa is a Fraction where the coupling is exact
        self.alpha_exact, self.kappa_exact = (
            x if isinstance(x, Fraction) else None for x in (alpha, kappa)
        )
        self.lin = float(_lin(alpha))
        self.geo = float((1 - alpha) / (2 * alpha))
        self.alpha = alpha = float(alpha)
        self.kappa = float(kappa)
        self.beta = self.kappa / alpha
        self.critical = self.lin == 0.0
        self.drift = math.sqrt(alpha * self.lin)
        self.ctilde_limit = math.inf if self.critical else 1.0 / (alpha * self.drift)
        self.q1 = alpha

        qm1 = self.geo * (self.lin + 1.0)   # q_{-1}
        self._qneg = [0.0, qm1]             # _qneg[k] = q_{-k}
        self._qcum = [alpha, alpha + qm1]   # _qcum[k] = q_1 + sum_{j<=k} q_{-j}
        # q_{-k} = _qman[k] * 2^_qexp[k], with _qman[k] in [0.5, 1): stays
        # accurate where q_{-k} itself turns subnormal
        man, exp = math.frexp(qm1)
        self._qman = [0.0, man]
        self._qexp = [0, exp]
        self._ct = [0.0, 0.0, 1.0 / (alpha * alpha)]   # _ct[p] = C~_p
        self._ct_term = self._ct[2]  # the series term that made the last entry
        self._ct_clamp: Optional[int] = None
        # hole perimeter p -> BoltzmannFiller decision row; a row reads only
        # q_{-1..p}, which never change, so every filler shares this table
        self._fill_rows: dict = {}
        # the fill volume tables (boltzmann._volume_table), built on the
        # first block of fills and read only through BoltzmannFiller
        self._vol_table: Optional[tuple] = None
        # the block path's frozen law (peeling._block_laws): swallow cap,
        # event laws, block floor and C~ through its clamp index, built
        # once, before the first block chunk, from the step law alone
        self._block_laws: Optional[tuple] = None

    # -- step law -----------------------------------------------------

    @property
    def i_max(self) -> int:
        return len(self._qneg) - 1

    @property
    def p_max(self) -> int:
        return len(self._ct) - 1

    def ensure_q(self, k: int) -> None:
        if k > self.i_max:
            self._grow_q(k)

    def _grow_q(self, k_target: int) -> None:
        if k_target > _TABLE_HARD_CAP:
            raise TableOverflowError(
                f"step-law table request {k_target} beyond hard cap {_TABLE_HARD_CAP}"
            )
        qn, qc, qm, qe = self._qneg, self._qcum, self._qman, self._qexp
        k = len(qn) - 1
        man, exp = qm[-1], qe[-1]
        lin = self.lin
        geo = self.geo
        frexp, ldexp = math.frexp, math.ldexp
        while k < k_target:
            ratio = ((2.0 * k) * (2.0 * k - 1.0)) / (k * (k + 2.0)) * geo
            if lin:
                ratio *= (lin * (k + 1) + 1.0) / (lin * k + 1.0)
            # scaling by a power of two is exact, so while q_{-k} is a
            # normal double this is q_{-k} * ratio bit for bit
            man, shift = frexp(man * ratio)
            exp += shift
            q = ldexp(man, exp)
            qm.append(man)
            qe.append(exp)
            qn.append(q)
            qc.append(qc[-1] + q)
            k += 1

    def q_neg(self, k: int) -> float:
        """q_{-k}, the one-sided swallow weight of size k."""
        if k < 1:
            raise DomainError(f"swallow size k={k} must be at least 1")
        if k > self.i_max:
            self.ensure_q(k)
        return self._qneg[k]

    def q_cumulative(self) -> list:
        """Cumulative law [q_1, q_1 + q_{-1}, ...] for inverse-cdf draws."""
        return self._qcum

    # -- harmonic sequence --------------------------------------------

    def ensure_ctilde(self, p: int) -> None:
        if p > self.p_max and self._ct_clamp is None:
            self._grow_ct(p)

    def _grow_ct(self, p_target: int) -> None:
        """Extend C~ to p_target, or to the clamp index if it comes first.

        Each entry adds one term of the series, the last one times
        2 geo (2q - 1) / q.  Later ratios stay below r = 4 geo, so once
        term / (1 - r) <= 2^-53 entry the remainder is below the spacing
        of the stream's uniforms, and the table clamps there.
        """
        if p_target > _TABLE_HARD_CAP:
            raise TableOverflowError(
                f"harmonic table request {p_target} beyond hard cap {_TABLE_HARD_CAP}"
            )
        ct = self._ct
        geo2 = 2.0 * self.geo
        r = 2.0 * geo2
        term = self._ct_term
        while len(ct) <= p_target:
            q = len(ct) - 2
            term *= geo2 * (2 * q - 1) / q
            ct.append(ct[-1] + term)
            if r < 1.0 and term / (1.0 - r) <= 2.0 ** -53 * ct[-1]:
                self._ct_clamp = len(ct) - 1
                break
        self._ct_term = term

    @property
    def ctilde_clamped(self) -> bool:
        """True once the harmonic table has reached its clamp index."""
        return self._ct_clamp is not None

    def ctilde_clamp_index(self) -> Optional[int]:
        """The p at which the harmonic table clamps, None before that
        (always, at the critical point).

        From this index on C~ reads as one value, so the tilt ratios
        C~_{p-k} / C~_{p+1} are exactly 1.0, which is what lets the block
        chain sample the raw step law without an acceptance coin from
        the block floor on.
        """
        return self._ct_clamp

    def ctilde(self, p: int) -> float:
        """C~_p; zero for p <= 1, the clamp entry beyond the clamp index."""
        if p <= 1:
            return 0.0
        if p > self.p_max:
            self.ensure_ctilde(p)
            p = min(p, self.p_max)
        return self._ct[p]

    # -- derived transition weights -----------------------------------

    def fresh_prob(self, p: int) -> float:
        """Probability that peeling at perimeter p attaches a fresh vertex."""
        if p < 2:
            raise DomainError(f"perimeter p={p} below the minimal boundary 2")
        return self.q1 * self.ctilde(p + 1) / self.ctilde(p)

    def swallow_prob(self, p: int, k: int, both_sides: bool = False) -> float:
        """Probability of a size-k swallow at perimeter p, per side by default."""
        if p < 2:
            raise DomainError(f"perimeter p={p} below the minimal boundary 2")
        if k < 1 or k > p - 2:
            return 0.0
        w = self.q_neg(k) * self.ctilde(p - k) / self.ctilde(p)
        return w if both_sides else 0.5 * w

    # -- identity ------------------------------------------------------

    def identity(self) -> dict:
        return {
            "schema": "tripeel-params-v1",
            "kappa": repr(self.kappa),
            "kappa_exact": str(self.kappa_exact) if self.kappa_exact is not None else None,
            "alpha": repr(self.alpha),
            "alpha_exact": str(self.alpha_exact) if self.alpha_exact is not None else None,
            "tolerances": {
                "normalization": NORMALIZATION_TOL,
                "drift_residual": DRIFT_RESIDUAL_TOL,
                "harmonicity": HARMONICITY_TOL,
            },
        }

    def digest(self) -> str:
        """Content digest of the parameter identity.

        Stable under lazy table growth: two instances for the same kappa
        agree regardless of how much of their tables is materialized.
        """
        doc = json.dumps(self.identity(), sort_keys=True)
        return sha256(doc.encode()).hexdigest()[:16]


def _coupling(kappa: Union[Number, str, None], alpha: Union[Number, str, None]) -> tuple:
    """(alpha, kappa) from exactly one of the two handles.

    Strings and ints become Fractions.  An exact alpha gives an exact
    kappa; an exact kappa gives its small-denominator exact root when one
    exists.  Whatever cannot be exact comes back as a float.
    """
    if (kappa is None) == (alpha is None):
        raise DomainError("give exactly one of kappa or alpha")
    if alpha is not None:
        alpha = _exact(alpha)
        return alpha, kappa_from_alpha(alpha)
    kappa = _exact(kappa)
    _check_kappa(kappa)
    if isinstance(kappa, Fraction):
        guess = Fraction(alpha_from_kappa(kappa)).limit_denominator(10_000)
        if ALPHA_MIN <= guess < 1 and kappa_from_alpha(guess) == kappa:
            return guess, kappa
    return alpha_from_kappa(kappa), kappa


def _exact(x: Union[Number, str]) -> Number:
    if isinstance(x, str):
        return parse_rational(x)
    return Fraction(x) if isinstance(x, int) else x


def build_params(
    kappa: Union[Number, str, None] = None,
    alpha: Union[Number, str, None] = None,
) -> PeelParams:
    """Resolve (kappa, alpha) from either handle.

    Exactly one of the two must be given (see :func:`_coupling`); an exact
    alpha keeps the whole table pipeline anchored to exact derived
    constants (3 alpha - 2 is exactly zero at criticality).  The tables
    hold only their first entries and grow as they are read; they have
    no start size, and no result depends on how far they have grown.
    """
    return PeelParams(*_coupling(kappa, alpha))


def _tail_cut(params: PeelParams, tol: float, weighted: bool) -> int:
    """First k = 64 * 2^j whose certified step-law tail beyond k (plain or
    size-weighted) is below tol / 10."""
    k = 64
    while q_tail_bound(params.alpha, k, params.q_neg(k), weighted) >= tol / 10.0:
        if k >= _TABLE_HARD_CAP:
            raise TableOverflowError("no certified tail at this kappa within the table cap")
        k *= 2
    return k


def normalization_residual(params: PeelParams) -> float:
    """|1 - q_1 - sum q_{-k}| over a table sized by the certified tail bound."""
    k = _tail_cut(params, NORMALIZATION_TOL, weighted=False)
    total = params.q1 + math.fsum(params._qneg[1 : k + 1])
    return abs(1.0 - total)


def drift_sum_residual(params: PeelParams) -> float:
    """|drift - (q_1 - sum k q_{-k})| with a certified weighted tail."""
    k = _tail_cut(params, DRIFT_RESIDUAL_TOL, weighted=True)
    s = params.q1 - math.fsum(j * params._qneg[j] for j in range(1, k + 1))
    return abs(s - params.drift)


def harmonicity_residual(params: PeelParams, p: int) -> float:
    """Relative defect of C~_p = sum_i q_i C~_{p+i} at perimeter p."""
    if p < 2:
        raise DomainError(f"perimeter p={p} below the minimal boundary 2")
    params.ensure_ctilde(p + 1)
    rhs = params.q1 * params.ctilde(p + 1)
    rhs += math.fsum(params.q_neg(k) * params.ctilde(p - k) for k in range(1, p - 1))
    return abs(rhs - params.ctilde(p)) / params.ctilde(p)


def z_partition(
    kappa: Union[Number, str, None] = None,
    p: int = 2,
    *,
    alpha: Union[Number, str, None] = None,
) -> float:
    """Partition function Z_p of Boltzmann-weighted fillings of a p-gon.

    Z_p sums kappa^(internal vertices) over all triangulations of the
    p-gon; it is finite exactly on (0, 2/27].  Evaluated in the product
    form inherited from the step law.
    """
    if p < 2:
        raise DomainError(f"boundary length p={p} must be at least 2")
    alpha, kappa = _coupling(kappa, alpha)
    kf = float(kappa)
    return _swallow_weight(p - 1, float(_lin(alpha)), (1.0 - float(alpha)) / (2.0 * kf))
