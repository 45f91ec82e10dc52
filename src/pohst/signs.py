"""Sign-pattern bookkeeping for the Pohst-product certification engine.

A :class:`SignVector` holds the signs of the box variables ``x_1..x_n``.
Under the normalisation ``y_1 > 0`` it induces ``n + 1`` cumulative signs
``t_0..t_n`` (``t_0 = +1``, ``t_r = t_{r-1} * sigma_r``), where ``t_r`` is
the sign of ``y_{r+1}``.  A length-``n`` pattern therefore describes
``n + 1`` y-values; report surfaces carry both counts to keep the two
conventions apart.

Index pairs ``(i, j)`` with ``1 <= i <= j <= n`` are 1-based throughout and
name the factor ``1 - x_i * ... * x_j``.  The product sign of ``(i, j)`` is
``t_{i-1} * t_j``, an O(1) lookup in the prefix array.  A pair is
*canonical* when its product sign equals ``(-1)**(i + j + 1)`` and
*non-canonical* when it equals ``(-1)**(i + j)``; the canonical set K and
the non-canonical set J partition the index triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

Pair = tuple[int, int]

_CHAR_TO_SIGN = {"+": 1, "-": -1}
_SIGN_TO_CHAR = {1: "+", -1: "-"}


@dataclass(frozen=True)
class SignVector:
    """Pattern of +1/-1 entries; zero is not a sign and is rejected."""

    entries: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        for s in self.entries:
            if s not in (1, -1):
                raise ValueError(f"sign entries must be +1 or -1, got {s!r}")

    @classmethod
    def from_string(cls, text: str) -> "SignVector":
        """Parse a compact ``'+'``/``'-'`` pattern such as ``"-+-"``."""
        try:
            return cls(tuple(_CHAR_TO_SIGN[c] for c in text))
        except KeyError:
            raise ValueError(
                f"malformed sign pattern {text!r}: expected only '+' and '-'"
            ) from None

    @classmethod
    def from_reals(cls, values: Sequence[float]) -> "SignVector":
        if any(v == 0 for v in values):
            raise ValueError("cannot take the sign pattern of a zero entry")
        return cls(tuple(1 if v > 0 else -1 for v in values))

    def to_string(self) -> str:
        return "".join(_SIGN_TO_CHAR[s] for s in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


@dataclass(frozen=True)
class PairInfo:
    """An index pair together with its product sign and canonical flag."""

    pair: Pair
    product_sign: int
    canonical: bool

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "sign": self.product_sign,
            "canonical": self.canonical,
        }


def pair_sort_key(pair: Pair) -> tuple[int, int]:
    """Sort key realising the construction order: rows ascend, starts descend."""
    return (pair[1], -pair[0])


def prefix_signs(sigma: SignVector) -> tuple[int, ...]:
    """Cumulative signs ``t_0..t_n`` with ``t_0 = +1``."""
    out = [1]
    t = 1
    for s in sigma.entries:
        t *= s
        out.append(t)
    return tuple(out)


def pair_sign_maps(sigma: SignVector) -> tuple[dict[Pair, int], dict[Pair, int]]:
    """Pair-to-sign dictionaries for J and K, each in construction order.

    The one place that applies the canonical rule; every other split of the
    triangle derives from these maps.
    """
    t = prefix_signs(sigma)
    jmap: dict[Pair, int] = {}
    kmap: dict[Pair, int] = {}
    for j in range(1, len(sigma) + 1):
        tj = t[j]
        odd = j % 2
        for i in range(j, 0, -1):
            s = t[i - 1] * tj
            # canonical exactly when s == (-1)**(i+j+1)
            if s == (1 if (i + odd) % 2 == 1 else -1):
                kmap[(i, j)] = s
            else:
                jmap[(i, j)] = s
    return jmap, kmap


def classify_pairs(sigma: SignVector) -> tuple[list[PairInfo], list[PairInfo]]:
    """Split the index triangle into the non-canonical set J and canonical set K.

    Both lists come back in construction order.  Every pair lands in exactly
    one list, so ``len(J) + len(K) == n*(n+1)/2``.
    """
    jmap, kmap = pair_sign_maps(sigma)
    return (
        [PairInfo(p, s, False) for p, s in jmap.items()],
        [PairInfo(p, s, True) for p, s in kmap.items()],
    )


def alpha_beta(sigma: SignVector) -> tuple[int, int]:
    """Counts of positive and negative prefix products of the pattern."""
    p, m = y_sign_counts(sigma)
    return p - 1, m  # t_0 = +1 is a y-sign but not a prefix product


def y_sign_counts(sigma: SignVector) -> tuple[int, int]:
    """Counts ``(p, m)`` of positive/negative induced y-values (n + 1 of them)."""
    t = prefix_signs(sigma)
    p = sum(1 for s in t if s > 0)
    return p, len(t) - p


def min_heavy_target(sigma: SignVector) -> int:
    """The exponent ``min(alpha + 1, beta) == min(p, m)`` for this pattern."""
    p, m = y_sign_counts(sigma)
    return min(p, m)


def stable_levels(sigma: SignVector) -> tuple[bool, ...]:
    """Stability flags indexed by level ``0..n``.

    Level ``j`` counts the signs of ``y_1..y_{j+1}``; it is stable when
    ``min(p, m)`` did not grow from level ``j - 1`` (level 0 is stable by
    convention: there is no earlier level to jump from).
    """
    t = prefix_signs(sigma)
    flags = [True]
    p = 1
    prev_min = 0
    for j in range(1, len(sigma) + 1):
        if t[j] > 0:
            p += 1
        cur_min = min(p, j + 1 - p)
        flags.append(cur_min == prev_min)
        prev_min = cur_min
    return tuple(flags)


def boundary_counts(sigma: SignVector) -> tuple[int, int]:
    """Counts of boundary canonical pairs (``i = 1`` or ``j = n``) by sign."""
    n = len(sigma)
    if n < 1:
        raise IndexError("boundary counts need a nonempty pattern")
    kmap = pair_sign_maps(sigma)[1]
    signs = [s for (i, j), s in kmap.items() if i == 1 or j == n]
    b_plus = sum(1 for s in signs if s > 0)
    return b_plus, len(signs) - b_plus
