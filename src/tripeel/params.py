"""Parameters and probability tables for the one-parameter family of
Markovian random triangulations of the plane.

The family is indexed by a weight ``kappa`` in ``(0, 2/27]``.  Everything
else derives from the unique root ``alpha`` in ``[2/3, 1)`` of

    alpha^2 (1 - alpha) / 2 = kappa,

with ``kappa = 2/27`` (``alpha = 2/3``) the critical point and smaller
``kappa`` the hyperbolic regime.  This module materializes:

* the one-step peeling law ``q_1 = alpha``, ``q_{-k}`` for ``k >= 1``;
* the drift ``delta = sqrt(alpha (3 alpha - 2))`` of that law;
* the harmonic sequence ``C~_p`` (zero for ``p <= 1``, ``C~_2 =
  alpha^-2``), which tilts the step law into the positive-perimeter
  peeling chain;
* polygon partition functions ``Z_p`` both in closed form and as a
  weighted count series;
* expected internal volume of a Boltzmann-filled polygon.

Tables are materialized lazily and grow deterministically: extending a
table never changes an already readable entry, so a :class:`PeelParams`
instance is logically immutable and safe to share between sequential
trials.  Growth is not synchronized: threads that share an instance
must serialize their calls themselves.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from hashlib import sha256
from typing import Optional, Union

from .counting import catalan, count_ratio, count_triangulations
from .errors import (
    DomainError,
    NumericalInstabilityError,
    TableOverflowError,
)

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


def kappa_from_alpha(alpha: Number) -> Number:
    """Weight kappa = alpha^2 (1 - alpha) / 2; exact for Fraction input."""
    _check_alpha(alpha)
    if isinstance(alpha, Fraction):
        return alpha * alpha * (1 - alpha) / 2
    return alpha * alpha * (1.0 - alpha) / 2.0


def _check_alpha(alpha: Number) -> None:
    if not (ALPHA_MIN <= alpha < 1):
        raise DomainError(
            f"alpha={alpha} outside [2/3, 1); no Markovian triangulation "
            "family member has this root"
        )


def _check_kappa(kappa: Number) -> None:
    if isinstance(kappa, Fraction):
        if not (0 < kappa <= KAPPA_MAX):
            raise DomainError(
                f"kappa={kappa} outside (0, 2/27]; no Markovian "
                "triangulation exists for this weight"
            )
        return
    if not (0.0 < kappa <= float(KAPPA_MAX) * (1 + 1e-13)):
        raise DomainError(
            f"kappa={kappa} outside (0, 2/27]; no Markovian triangulation "
            "exists for this weight"
        )


def alpha_from_kappa(kappa: Number) -> float:
    """Root alpha in [2/3, 1) of alpha^2 (1 - alpha) / 2 = kappa.

    The map is strictly decreasing on the branch, so the root is unique.
    Bisection bracketed on [2/3, 1) followed by a short Newton polish;
    accurate to a few ulp.
    """
    _check_kappa(kappa)
    kf = float(kappa)
    if isinstance(kappa, Fraction) and kappa == KAPPA_MAX:
        return 2.0 / 3.0
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


def drift(alpha: Number) -> float:
    """Mean of the one-step peeling law, sqrt(alpha (3 alpha - 2)).

    Zero exactly at the critical point alpha = 2/3.
    """
    _check_alpha(alpha)
    if isinstance(alpha, Fraction):
        return math.sqrt(float(alpha * (3 * alpha - 2)))
    lin = 3.0 * alpha - 2.0
    if abs(lin) < 1e-12:
        lin = 0.0
    if lin < 0:
        raise DomainError(f"alpha={alpha} below the critical root 2/3")
    return math.sqrt(alpha * lin)


def q_step(i: int, alpha: Number) -> Number:
    """One-step peeling probability q_i.

    ``q_1 = alpha`` is the fresh-vertex step; ``q_{-k}`` for ``k >= 1``
    is the probability that the revealed triangle swallows ``k`` boundary
    edges on one fixed side.  Exact for Fraction alpha, floating point
    with log-factorials otherwise (stable for k up to 1e6).
    """
    _check_alpha(alpha)
    if i == 1:
        return alpha
    if i >= 0:
        raise DomainError(f"step index i={i} must be 1 or a negative integer")
    k = -i
    if isinstance(alpha, Fraction):
        a_k = Fraction(math.factorial(2 * k - 2), math.factorial(k - 1) * math.factorial(k + 1))
        geo = ((1 - alpha) / (2 * alpha)) ** k
        return 2 * a_k * geo * ((3 * alpha - 2) * k + 1)
    log_a = math.lgamma(2 * k - 1) - math.lgamma(k) - math.lgamma(k + 2)
    log_geo = k * math.log((1.0 - alpha) / (2.0 * alpha))
    lin = (3.0 * alpha - 2.0) * k + 1.0
    return 2.0 * math.exp(log_a + log_geo) * lin


def mean_hole_volume(k: int, alpha: Number) -> Number:
    """Expected internal vertex count of a Boltzmann-filled (k+1)-gon.

    For the fresh step (the degenerate k = -1 hole) the increment is one
    vertex by convention; that case is handled by the engines, not here.
    """
    if k < 1:
        raise DomainError(f"swallow size k={k} must be at least 1")
    _check_alpha(alpha)
    if isinstance(alpha, Fraction):
        return Fraction(k * (2 * k - 1)) * (1 - alpha) / ((3 * alpha - 2) * k + 1)
    return k * (2 * k - 1) * (1.0 - alpha) / ((3.0 * alpha - 2.0) * k + 1.0)


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


def c_tilde_table_exact(alpha: Fraction, p_max: int) -> list:
    """Harmonic sequence C~_2 .. C~_{p_max} in exact rational arithmetic.

    Entries are indexed by perimeter: result[p] = C~_p, with result[0] =
    result[1] = 0.  Intended for golden tests at modest p; cost grows
    quadratically.
    """
    if not isinstance(alpha, Fraction):
        raise DomainError("exact harmonic table needs a Fraction alpha")
    _check_alpha(alpha)
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


class PeelParams:
    """Frozen identity (kappa, alpha, beta, drift) plus lazily grown tables.

    Construct through :func:`build_params`.  The step-law table and the
    harmonic sequence extend on demand; extension is deterministic and
    never alters an entry already handed out.
    """

    def __init__(
        self,
        alpha: float,
        kappa: float,
        alpha_exact: Optional[Fraction],
        kappa_exact: Optional[Fraction],
        i_max: int = 256,
        p_max: int = 320,
    ):
        self.alpha = alpha
        self.kappa = kappa
        self.alpha_exact = alpha_exact
        self.kappa_exact = kappa_exact
        self.beta = kappa / alpha
        if alpha_exact is not None:
            self.lin = float(3 * alpha_exact - 2)
            self.geo = float((1 - alpha_exact) / (2 * alpha_exact))
        else:
            self.lin = 3.0 * alpha - 2.0
            if abs(self.lin) < 1e-12:
                self.lin = 0.0
            self.geo = (1.0 - alpha) / (2.0 * alpha)
        self.critical = self.lin == 0.0
        self.drift = math.sqrt(alpha * self.lin)
        self.ctilde_limit = math.inf if self.critical else 1.0 / (alpha * self.drift)
        self.q1 = alpha

        self._qneg = [0.0]          # _qneg[k] = q_{-k}
        self._qcum = [alpha]        # _qcum[k] = q_1 + sum_{j<=k} q_{-j}
        self._ct = [0.0, 0.0, 1.0 / (alpha * alpha)]   # _ct[p] = C~_p
        self._ct_clamped = False
        self.ensure_q(max(i_max, 8))
        self.ensure_ctilde(max(p_max, 8))

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
        qn, qc = self._qneg, self._qcum
        k = len(qn) - 1
        if k == 0:
            q = 2.0 * 0.5 * self.geo * (self.lin + 1.0)
            qn.append(q)
            qc.append(qc[-1] + q)
            k = 1
        q = qn[-1]
        lin = self.lin
        geo = self.geo
        while k < k_target:
            ratio = ((2.0 * k) * (2.0 * k - 1.0)) / (k * (k + 2.0)) * geo
            if lin:
                ratio *= (lin * (k + 1) + 1.0) / (lin * k + 1.0)
            q *= ratio
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

    def q_tail(self) -> float:
        """Certified bound on the step-law mass beyond the materialized table."""
        return q_tail_bound(self.alpha, self.i_max, self._qneg[-1])

    # -- harmonic sequence --------------------------------------------

    def ensure_ctilde(self, p: int) -> None:
        if p > self.p_max and not self._ct_clamped:
            self._grow_ct(p)

    def _grow_ct(self, p_target: int) -> None:
        if p_target > _TABLE_HARD_CAP:
            raise TableOverflowError(
                f"harmonic table request {p_target} beyond hard cap {_TABLE_HARD_CAP}"
            )
        ct = self._ct
        if len(ct) - 1 + 2 < p_target + 2:
            self._grow_q(max(p_target, len(self._qneg) - 1))
        qn = self._qneg
        limit = self.ctilde_limit
        while len(ct) <= p_target and not self._ct_clamped:
            p = len(ct) - 1
            s = 0.0
            for k in range(1, p - 1):
                s += qn[k] * ct[p - k]
            nxt = (ct[p] - s) / self.q1
            if nxt < ct[p]:
                slack = (limit if limit < math.inf else ct[p]) * 1e-12
                if nxt < ct[p] - slack:
                    # entries already handed out stay as they are
                    raise NumericalInstabilityError(
                        f"harmonic forward recursion lost monotonicity at p={p + 1}"
                    )
                nxt = ct[p]
            if nxt > limit:
                nxt = limit
            ct.append(nxt)
            if limit < math.inf and limit - nxt <= limit * 1e-15:
                self._ct_clamped = True

    @property
    def ctilde_clamped(self) -> bool:
        """True once the harmonic table has hit its limit plateau."""
        return self._ct_clamped

    def ctilde_clamp_index(self) -> Optional[int]:
        """Smallest materialized p whose C~ entry equals the plateau value.

        None while the table has not clamped (always, at the critical
        point).  Beyond this index the tilt ratios C~_{p-k} / C~_{p+1}
        are exactly 1.0 in floating point, which is what lets the block
        chains sample the raw step law without an acceptance draw.
        """
        if not self._ct_clamped:
            return None
        ct = self._ct
        top = ct[-1]
        i = len(ct) - 1
        while i > 2 and ct[i - 1] == top:
            i -= 1
        return i

    def ctilde(self, p: int) -> float:
        """C~_p; zero for p <= 1, the limit value beyond the clamp point."""
        if p <= 1:
            return 0.0
        if p > self.p_max:
            if self._ct_clamped:
                return self._ct[-1]
            self.ensure_ctilde(p)
            if p > self.p_max:
                return self._ct[-1]
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

    def transition_total(self, p: int) -> float:
        total = self.fresh_prob(p)
        for k in range(1, p - 1):
            total += self.swallow_prob(p, k, both_sides=True)
        return total

    # -- serialization -------------------------------------------------

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

    def to_json(self) -> str:
        doc = self.identity()
        doc.update(
            {
                "beta": repr(self.beta),
                "drift": repr(self.drift),
                "critical": self.critical,
                "i_max": self.i_max,
                "p_max": self.p_max,
                "q_tail_bound": repr(self.q_tail()),
                "ctilde_clamped": self._ct_clamped,
                "ctilde_limit": repr(self.ctilde_limit) if not self.critical else None,
                "q_table": [repr(q) for q in self._qneg[1:]],
                "c_tilde": [repr(c) for c in self._ct[2:]],
            }
        )
        return json.dumps(doc, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str, verify: bool = False) -> "PeelParams":
        doc = json.loads(text)
        if doc.get("schema") != "tripeel-params-v1":
            raise DomainError(f"unrecognized params schema {doc.get('schema')!r}")
        kappa_exact = Fraction(doc["kappa_exact"]) if doc.get("kappa_exact") else None
        alpha_exact = Fraction(doc["alpha_exact"]) if doc.get("alpha_exact") else None
        params = cls(
            alpha=float(doc["alpha"]),
            kappa=float(doc["kappa"]),
            alpha_exact=alpha_exact,
            kappa_exact=kappa_exact,
            i_max=doc["i_max"],
            p_max=doc["p_max"],
        )
        if verify:
            for k, text_q in enumerate(doc["q_table"], start=1):
                if not math.isclose(params.q_neg(k), float(text_q), rel_tol=1e-12):
                    raise NumericalInstabilityError(
                        f"reloaded q_{{-{k}}} disagrees with recomputation"
                    )
            for p, text_c in enumerate(doc["c_tilde"], start=2):
                if p <= params.p_max and not math.isclose(
                    params.ctilde(p), float(text_c), rel_tol=1e-12
                ):
                    raise NumericalInstabilityError(
                        f"reloaded C~_{p} disagrees with recomputation"
                    )
        return params


def build_params(
    kappa: Union[Number, str, None] = None,
    alpha: Union[Number, str, None] = None,
    i_max: int = 256,
    p_max: int = 320,
) -> PeelParams:
    """Resolve (kappa, alpha) from either handle and materialize tables.

    Exactly one of the two must be given.  Strings are parsed as exact
    rationals; an exact alpha keeps the whole table pipeline anchored to
    exact derived constants (3 alpha - 2 is exactly zero at criticality).
    """
    if (kappa is None) == (alpha is None):
        raise DomainError("give exactly one of kappa or alpha")
    alpha_exact: Optional[Fraction] = None
    kappa_exact: Optional[Fraction] = None
    if alpha is not None:
        if isinstance(alpha, str):
            alpha = parse_rational(alpha)
        if isinstance(alpha, (Fraction, int)):
            alpha_exact = Fraction(alpha)
            _check_alpha(alpha_exact)
            kappa_exact = kappa_from_alpha(alpha_exact)
            alpha_f = float(alpha_exact)
        else:
            _check_alpha(alpha)
            alpha_f = float(alpha)
        kappa_f = float(kappa_exact) if kappa_exact is not None else kappa_from_alpha(alpha_f)
    else:
        if isinstance(kappa, str):
            kappa = parse_rational(kappa)
        if isinstance(kappa, (Fraction, int)):
            kappa_exact = Fraction(kappa)
            _check_kappa(kappa_exact)
            if kappa_exact == KAPPA_MAX:
                alpha_exact = Fraction(2, 3)
            else:
                # recover a small-denominator exact root when one exists
                guess = Fraction(alpha_from_kappa(kappa_exact)).limit_denominator(10_000)
                if ALPHA_MIN <= guess < 1 and kappa_from_alpha(guess) == kappa_exact:
                    alpha_exact = guess
            kappa_f = float(kappa_exact)
        else:
            _check_kappa(kappa)
            kappa_f = float(kappa)
        alpha_f = float(alpha_exact) if alpha_exact is not None else alpha_from_kappa(
            kappa_exact if kappa_exact is not None else kappa_f
        )
    return PeelParams(
        alpha=alpha_f,
        kappa=kappa_f,
        alpha_exact=alpha_exact,
        kappa_exact=kappa_exact,
        i_max=i_max,
        p_max=p_max,
    )


def peel_transition(p: int, params: PeelParams, *, kind: str, k: int = 0, side: Optional[str] = None) -> float:
    """Transition probability of the perimeter chain at perimeter p.

    kind 'fresh' ignores k and side.  kind 'swallow' takes the swallow
    size k and an optional side ('left' or 'right'); without a side the
    two mirror events are aggregated.  Out-of-range swallows have
    probability zero rather than raising, so the full transition vector
    can be scanned uniformly.
    """
    if kind == "fresh":
        return params.fresh_prob(p)
    if kind == "swallow":
        if side is not None and side not in ("left", "right"):
            raise DomainError(f"side must be 'left' or 'right', got {side!r}")
        return params.swallow_prob(p, k, both_sides=side is None)
    raise DomainError(f"unknown transition kind {kind!r}")


def normalization_residual(params: PeelParams, tol: float = NORMALIZATION_TOL) -> float:
    """|1 - q_1 - sum q_{-k}| over a table sized by the certified tail bound."""
    k = 64
    while True:
        params.ensure_q(k)
        if q_tail_bound(params.alpha, k, params.q_neg(k)) < tol / 10.0:
            break
        if k >= _TABLE_HARD_CAP:
            raise TableOverflowError("no certified tail at this kappa within the table cap")
        k *= 2
    total = params.q1 + math.fsum(params._qneg[1 : k + 1])
    return abs(1.0 - total)


def drift_sum_residual(params: PeelParams, tol: float = DRIFT_RESIDUAL_TOL) -> float:
    """|drift - (q_1 - sum k q_{-k})| with a certified weighted tail."""
    k = 64
    while True:
        params.ensure_q(k)
        if q_tail_bound(params.alpha, k, params.q_neg(k), weighted=True) < tol / 10.0:
            break
        if k >= _TABLE_HARD_CAP:
            raise TableOverflowError("no certified weighted tail at this kappa")
        k *= 2
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
    method: str = "closed",
    *,
    alpha: Union[Number, str, None] = None,
    rel_tol: float = 1e-10,
) -> float:
    """Partition function Z_p of Boltzmann-weighted fillings of a p-gon.

    Z_p sums kappa^(internal vertices) over all triangulations of the
    p-gon; it is finite exactly on (0, 2/27].  'closed' evaluates the
    product form inherited from the step law.  'series' sums the count
    series directly with a certified geometric truncation (term ratios
    are bounded by 27 kappa / 2) and exists as an independent oracle.
    """
    if p < 2:
        raise DomainError(f"boundary length p={p} must be at least 2")
    if alpha is not None:
        if isinstance(alpha, str):
            alpha = parse_rational(alpha)
        _check_alpha(alpha)
        kappa = kappa_from_alpha(alpha)
    if kappa is None:
        raise DomainError("z_partition needs kappa or alpha")
    if isinstance(kappa, str):
        kappa = parse_rational(kappa)
    _check_kappa(kappa)
    kf = float(kappa)
    if method == "closed":
        if alpha is None:
            alpha = alpha_from_kappa(kappa)
        af = float(alpha)
        lin = float(3 * alpha - 2) if isinstance(alpha, Fraction) else 3.0 * af - 2.0
        if abs(lin) < 1e-12:
            lin = 0.0
        j = p - 1
        log_a = math.lgamma(2 * j - 1) - math.lgamma(j) - math.lgamma(j + 2)
        log_geo = j * math.log((1.0 - af) / (2.0 * kf))
        return math.exp(log_a + log_geo) * (lin * j + 1.0)
    if method == "series":
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
            tail_bound = term * growth / (1.0 - growth)
            if tail_bound < rel_tol * total:
                return total + 0.5 * tail_bound
            ratio = count_ratio(n, p)
            if ratio > 13.5:
                raise NumericalInstabilityError(
                    f"count ratio {ratio} exceeded 27/2 at n={n}, p={p}"
                )
            term *= ratio * kf
            total += term
            n += 1
            if n > 2_000_000:
                raise NumericalInstabilityError("series truncation never certified")
    raise DomainError(f"unknown z_partition method {method!r}")
