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
the non-canonical set J partition the index triangle.  A
:class:`PatternContext` holds that split once per pattern as bit rows, the
form the constructions and the validator read.
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


class PatternContext:
    """Everything the constructions and the validator read off one pattern.

    Built once per pattern: the pattern ``sigma``, the heavy target
    ``min(p, m)``, the level stability flags ``stable`` and four bit rows
    per row ``j`` (index 0 is an empty row): ``k_rows[j]``,
    ``k_pos[j]``, ``j_rows[j]`` and ``j_pos[j]``, where bit ``i`` stands for
    pair ``(i, j)`` and the rows hold the pairs of K, the positive pairs of
    K, the pairs of J and the positive pairs of J.  ``stable[j]`` belongs to
    level ``j = 0..n``, which counts the signs of ``y_1..y_{j+1}``: it is
    true when ``min(p, m)`` did not grow from level ``j - 1``, and level 0
    is stable by convention, having no earlier level to jump from.

    This constructor is the one place that applies the canonical rule;
    every other split of the triangle derives from it.  Pair ``(i, j)`` is
    canonical exactly when ``a_i == b_j`` with ``a_i = t_{i-1} (-1)**i`` and
    ``b_j = t_j (-1)**(j+1)``, and positive exactly when
    ``t_{i-1} == t_j``, where ``t = prefix_signs(sigma)``, so each row costs
    a few big-int operations.
    """

    __slots__ = ("sigma", "n", "target", "stable", "k_rows", "k_pos", "j_rows", "j_pos")

    def __init__(self, sigma: SignVector) -> None:
        n = len(sigma)
        t = prefix_signs(sigma)
        a_plus = 0  # bit i set when a_i = +1
        t_plus = 0  # bit i set when t_{i-1} = +1
        k_rows, k_pos, j_rows, j_pos = [0], [0], [0], [0]
        stable = [True]
        p = 1
        prev_min = 0
        for j in range(1, n + 1):
            bit = 1 << j
            if t[j - 1] > 0:
                t_plus |= bit
            if (t[j - 1] > 0) == (j % 2 == 0):
                a_plus |= bit
            tri = (bit << 1) - 2
            k = (a_plus if (t[j] > 0) == (j % 2 == 1) else ~a_plus) & tri
            pos = (t_plus if t[j] > 0 else ~t_plus) & tri
            k_rows.append(k)
            k_pos.append(k & pos)
            j_rows.append(tri ^ k)
            j_pos.append(pos & ~k)
            if t[j] > 0:
                p += 1
            cur_min = min(p, j + 1 - p)
            stable.append(cur_min == prev_min)
            prev_min = cur_min
        self.sigma = sigma
        self.n = n
        self.target = min(p, n + 1 - p)
        self.stable = tuple(stable)
        self.k_rows = tuple(k_rows)
        self.k_pos = tuple(k_pos)
        self.j_rows = tuple(j_rows)
        self.j_pos = tuple(j_pos)

    def rows(self, target: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(rows, positive rows)`` of ``"K"`` or ``"J"``."""
        if target == "K":
            return self.k_rows, self.k_pos
        return self.j_rows, self.j_pos

    def size(self, target: str) -> int:
        """Number of pairs in ``"K"`` or ``"J"``."""
        return sum(row.bit_count() for row in self.rows(target)[0])


def pair_sign_maps(sigma: SignVector) -> tuple[dict[Pair, int], dict[Pair, int]]:
    """Pair-to-sign dictionaries for J and K, each in construction order."""
    ctx = PatternContext(sigma)
    maps: tuple[dict[Pair, int], dict[Pair, int]] = ({}, {})
    for out, (rows, pos) in zip(maps, (ctx.rows("J"), ctx.rows("K"))):
        for j in range(1, ctx.n + 1):
            row = rows[j]
            for i in range(j, 0, -1):
                if row >> i & 1:
                    out[(i, j)] = 1 if pos[j] >> i & 1 else -1
    return maps


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


def boundary_counts(sigma: SignVector) -> tuple[int, int]:
    """Counts of boundary canonical pairs (``i = 1`` or ``j = n``) by sign."""
    n = len(sigma)
    if n < 1:
        raise IndexError("boundary counts need a nonempty pattern")
    kmap = pair_sign_maps(sigma)[1]
    signs = [s for (i, j), s in kmap.items() if i == 1 or j == n]
    b_plus = sum(1 for s in signs if s > 0)
    return b_plus, len(signs) - b_plus
