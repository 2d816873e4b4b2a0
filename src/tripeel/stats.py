"""Small statistics helpers shared by the experiment runners.

Nothing here knows about maps or peeling: plain estimators (means,
slopes, batch means) and the pooled two-sample chi-square used by the
distribution-equality experiments.

scipy is imported inside the functions that need it, so that
``import tripeel`` does not pay its import time (most of a second for
``scipy.stats``, a third of one for ``scipy.special``).
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "mean_ci",
    "proportion_lower_bound",
    "linfit",
    "batch_slopes",
    "chi2_two_sample",
]

_BATCHES = 8
# the confidence level of every interval and bound the reports give
LEVEL = 0.99
# chi2_two_sample pools cells until every expected count reaches this
MIN_EXPECTED = 5.0


def mean_ci(xs: Sequence[float]) -> dict:
    """Sample mean with a two-sided t confidence interval at ``LEVEL``."""
    arr = np.asarray(xs, dtype=float)
    n = arr.size
    if n < 2:
        raise DomainError("need at least two observations for a t interval")
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(n))
    # the Student t quantile; scipy.stats.t.ppf computes this same call
    from scipy.special import stdtrit

    half = float(stdtrit(n - 1, 0.5 + LEVEL / 2)) * se
    return {"mean": mean, "se": se, "low": mean - half, "high": mean + half,
            "level": LEVEL, "n": n}


def proportion_lower_bound(successes: int, n: int) -> float:
    """One-sided Clopper-Pearson lower bound at ``LEVEL`` for a proportion."""
    if not 0 <= successes <= n or n <= 0:
        raise DomainError(f"bad binomial data {successes}/{n}")
    if successes == 0:
        return 0.0
    from scipy.stats import beta

    return float(beta.ppf(1 - LEVEL, successes, n - successes + 1))


def linfit(xs: Sequence[float], ys: Sequence[float]) -> dict:
    """Least-squares line with the coefficient of determination."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 3:
        raise DomainError("need at least three points to fit a line")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if total == 0 else 1.0 - float((resid**2).sum()) / total
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def batch_slopes(ns: Sequence[int], ys: Sequence[float]) -> list:
    """Endpoint slopes of _BATCHES contiguous batches of a cumulative series.

    Used for batch-means intervals on growth rates: each batch
    contributes (y_end - y_start) / (n_end - n_start).
    """
    if len(ns) != len(ys) or len(ns) < _BATCHES + 1:
        raise DomainError("series too short for the batches")
    cuts = np.linspace(0, len(ns) - 1, _BATCHES + 1).astype(int)
    out = []
    for a, b in zip(cuts, cuts[1:]):
        if ns[b] == ns[a]:
            raise DomainError("degenerate batch with zero span")
        out.append((ys[b] - ys[a]) / (ns[b] - ns[a]))
    return out


def chi2_two_sample(
    counts_a: Mapping,
    counts_b: Mapping,
    max_categories: Optional[int] = None,
) -> dict:
    """Two-sample chi-square test of homogeneity with automatic pooling.

    Categories are pooled (rarest first, by combined count) until every
    expected cell count reaches ``MIN_EXPECTED``; max_categories, when
    given, additionally pools everything outside the most frequent
    types.  Returns the statistic, degrees of freedom, p-value, and the
    pooled table actually tested.
    """
    keys = sorted(set(counts_a) | set(counts_b), key=lambda k: (-(counts_a.get(k, 0) + counts_b.get(k, 0)), str(k)))
    if not keys:
        raise DomainError("no observations in either sample")
    if max_categories is not None and len(keys) > max_categories:
        head, tail = keys[: max_categories - 1], keys[max_categories - 1:]
    else:
        head, tail = keys, []
    a = [counts_a.get(k, 0) for k in head]
    b = [counts_b.get(k, 0) for k in head]
    labels = [k for k in head]
    if tail:
        a.append(sum(counts_a.get(k, 0) for k in tail))
        b.append(sum(counts_b.get(k, 0) for k in tail))
        labels.append("pooled-tail")
    na, nb = sum(a), sum(b)
    if na == 0 or nb == 0:
        raise DomainError("one sample is empty")

    def too_small() -> bool:
        tot = na + nb
        return any(
            (a[i] + b[i]) * na / tot < MIN_EXPECTED
            or (a[i] + b[i]) * nb / tot < MIN_EXPECTED
            for i in range(len(a))
        )

    pooled = bool(tail)
    while len(a) > 2 and too_small():
        # merge the two rarest cells
        order = sorted(range(len(a)), key=lambda i: a[i] + b[i])
        i, j = sorted(order[:2])
        a[i] += a.pop(j)
        b[i] += b.pop(j)
        li = labels[i]
        lj = labels.pop(j)
        labels[i] = f"{li}+{lj}" if isinstance(li, str) and isinstance(lj, str) else "pooled"
        pooled = True
    if len(a) < 2:
        raise DomainError("fewer than two categories after pooling")
    from scipy.stats import chi2_contingency

    table = np.array([a, b], dtype=float)
    stat, p, dof, _ = chi2_contingency(table, correction=False)
    return {
        "stat": float(stat),
        "dof": int(dof),
        "p_value": float(p),
        "categories": len(a),
        "pooled": pooled,
        "table": table.astype(int).tolist(),
        "labels": [str(x) for x in labels],
    }
