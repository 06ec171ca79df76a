"""Paired Student-t testing via the regularized incomplete beta function.

The two-tailed p-value for a t statistic with df degrees of freedom is
I_x(df/2, 1/2) evaluated at x = df / (df + t^2), which is exact for every
df (no normal approximation). The continued fraction follows the modified
Lentz scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import UsageError

_MAX_ITER = 300
_EPS = 3e-15
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise UsageError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if a <= 0 or b <= 0:
        raise UsageError(f"beta parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed(t: float, df: int) -> float:
    """P(|T| >= |t|) for T Student-t with df degrees of freedom."""
    if df < 1:
        raise UsageError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


@dataclass
class TTestResult:
    t: float
    p: float
    degenerate: bool = False


def ttest_fields(result: TTestResult | None) -> dict:
    """The JSON fields of a t-test, both null without one. JSON has no
    infinity, so a degenerate test's t is null beside its p of 0; the two
    systems' means give its sign."""
    if result is None:
        return {"t": None, "p": None}
    return {"t": None if math.isinf(result.t) else result.t, "p": result.p}


def paired_t_test(scores_a: Sequence[float], scores_b: Sequence[float]) -> TTestResult | None:
    """Paired t-test on aligned score lists, None below two pairs: t =
    mean(d) / (sd(d)/sqrt(N)) with the sample standard deviation (N-1).

    If the differences have zero variance: t=0, p=1 when the mean is also
    zero, otherwise p=0 with the degenerate flag set.
    """
    n = len(scores_a)
    if len(scores_b) != n:
        raise UsageError(f"paired t-test needs aligned lists, got {n} and {len(scores_b)}")
    if n < 2:
        return None
    diffs = [float(a) - float(b) for a, b in zip(scores_a, scores_b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    sd = math.sqrt(var)
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p=1.0)
        return TTestResult(t=math.copysign(math.inf, mean), p=0.0, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, p=student_t_two_tailed(t, n - 1))
