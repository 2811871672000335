"""Metric names, units and the percentile rule.  Imports nothing from the
library, so the parent process can report without loading it."""

from __future__ import annotations

import math

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "weights_resolved": "ratio",
}

LAYERS = (
    "exhaustive.weight",
    "exhaustive.annihilator",
    "code.codewords",
    "code.dual",
    "code.certify",
    "ringpoly.roots",
    "ringpoly.lift",
    "fieldpoly.factor",
    "fieldpoly.splittings",
    "constructions.build",
    "constructions.verify",
    "serialize",
)

COUNTERS = (
    "exhaustive.weight.calls",
    "exhaustive.weight.words",
    "exhaustive.weight.budget_exceeded",
    "exhaustive.annihilator.vectors",
    "code.codewords.words",
    "code.dual.calls",
    "code.certify.searches",
    "code.certify.maps_tried",
    "ringpoly.roots.calls",
    "ringpoly.lift.factors",
    "fieldpoly.factor.calls",
    "fieldpoly.splittings.found",
    "fieldpoly.splittings.errors",
    "constructions.build.codes",
    "constructions.verify.claims",
)

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "count" for name in COUNTERS},
    "exhaustive.weight.words_per_s": "1/s",
    "code.certify.hit_ratio": "ratio",
    "other.self_s": "s",
    "trace.overhead_s": "s",
}


def percentile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-th percentile: a weighted mean of
    every order statistic, with weights from the Beta((n+1)q, (n+1)(1-q))
    distribution, so it moves smoothly where nearest-rank would jump between
    neighbouring values.  Refuses a sample too small to leave at least ten
    values above the percentile's nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < 10:
        raise ValueError(f"p{q:g} of {n} values leaves fewer than 10 above it")
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def _beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):  # the continued fraction converges fast below this
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    return math.exp(log_front) * _beta_fraction(x, a, b) / a


def _beta_fraction(x: float, a: float, b: float) -> float:
    """Lentz's evaluation of the continued fraction for I_x(a, b)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return result
