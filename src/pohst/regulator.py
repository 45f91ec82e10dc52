"""Discriminant bound calculator from degree, sign data and the regulator.

This is a pure formula evaluator: it never derives ``min(p, m)`` from field
data, and the totally-real / primitive hypotheses are echoed as
caller-asserted preconditions rather than checked.  Hermite's constant is
exact in dimensions 1..8 and 24; elsewhere the classical upper bound
``(4/3)**((d-1)/2)`` keeps the discriminant bound valid and is flagged as
inexact.  That bound leaves the double range from d = 4936, so dimensions
stop at ``MAX_HERMITE_DIMENSION`` = 4935 and degrees at 4936.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LOG4 = math.log(4.0)

# the largest d whose classical bound (4/3)**((d-1)/2) is a finite double
MAX_HERMITE_DIMENSION = 4935

# gamma_d**d for the dimensions where the constant is known exactly
_EXACT_GAMMA_POWERS = {
    1: (1, 1),
    2: (4, 3),
    3: (2, 1),
    4: (4, 1),
    5: (8, 1),
    6: (64, 3),
    7: (64, 1),
    8: (256, 1),
}

ASSUMES = "totally real primitive field; min(p, m) supplied by the caller"


@dataclass(frozen=True)
class HermiteValue:
    dimension: int
    value: float
    exact: bool


def hermite_gamma(d: int) -> HermiteValue:
    """Hermite's constant, exact on {1..8, 24}, classical upper bound elsewhere."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if d > MAX_HERMITE_DIMENSION:
        raise ValueError(f"dimension must be at most {MAX_HERMITE_DIMENSION}, got {d}")
    if d == 24:
        return HermiteValue(24, 4.0, True)
    power = _EXACT_GAMMA_POWERS.get(d)
    if power is not None:
        num, den = power
        return HermiteValue(d, (num / den) ** (1.0 / d), True)
    return HermiteValue(d, (4.0 / 3.0) ** ((d - 1) / 2.0), False)


@dataclass(frozen=True)
class RegulatorQuery:
    """Degree, signature datum min(p, m) and regulator value."""

    n: int
    min_pm: int
    R: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"degree must be at least 2, got {self.n}")
        if self.n > MAX_HERMITE_DIMENSION + 1:
            raise ValueError(
                f"degree must be at most {MAX_HERMITE_DIMENSION + 1}, got {self.n}"
            )
        if not 0 <= self.min_pm <= self.n // 2:
            raise ValueError(
                f"min(p, m) must lie in 0..floor(n/2) = {self.n // 2}, got {self.min_pm}"
            )
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ValueError(f"regulator must be positive and finite, got {self.R}")


@dataclass(frozen=True)
class DiscriminantBound:
    log_bound: float
    bound: float
    exact: bool


def discriminant_log_bound(q: RegulatorQuery) -> DiscriminantBound:
    """Upper bound on log|D| from the signature-aware regulator inequality.

    Both fields may read ``inf``: ``bound`` once ``log_bound`` exceeds about
    709.78, and ``log_bound`` itself once the product overflows, which at
    R = 1 happens from n = 4760 on.  JSON prints either as ``Infinity``.
    """
    gamma = hermite_gamma(q.n - 1)
    term = math.sqrt(gamma.value * (q.n ** 3 - q.n) / 3.0)
    term *= (math.sqrt(q.n) * q.R) ** (1.0 / (q.n - 1))
    log_bound = q.min_pm * LOG4 + term
    try:
        bound = math.exp(log_bound)
    except OverflowError:
        bound = math.inf
    return DiscriminantBound(log_bound, bound, gamma.exact)


@dataclass(frozen=True)
class SignatureComparison:
    log_bound: float
    signature_free_log_bound: float
    improvement: float


def compare_with_signature_free(q: RegulatorQuery) -> SignatureComparison:
    """Gain over the bound that ignores signs, i.e. uses min(p, m) = floor(n/2).

    The improvement is computed as ``(floor(n/2) - min_pm) * log 4`` directly
    so the advertised equality is exact in floating point.
    """
    base = discriminant_log_bound(q)
    improvement = (q.n // 2 - q.min_pm) * LOG4
    return SignatureComparison(base.log_bound, base.log_bound + improvement, improvement)


def regulator_report(q: RegulatorQuery) -> dict:
    gamma = hermite_gamma(q.n - 1)
    bound = discriminant_log_bound(q)
    comparison = compare_with_signature_free(q)
    return {
        "n": q.n,
        "min_pm": q.min_pm,
        "R": q.R,
        "gamma": gamma.value,
        "gamma_exact": gamma.exact,
        "log_bound": bound.log_bound,
        "bound": bound.bound,
        "signature_free_log_bound": comparison.signature_free_log_bound,
        "improvement": comparison.improvement,
        "assumes": ASSUMES,
    }
