"""Numeric evaluation and end-to-end certificates for the product bound.

``eval_f`` evaluates the full product over the index triangle for a box
vector x, ``eval_P`` the pair product for a modulus-ordered vector y; the
two agree under the change of variables ``x_i = y_i / y_{i+1}``.  The
product identities read the same y-side ``pair_factor_table`` as ``eval_P``.

The factors ``1 - x_i * ... * x_j`` come from one row-running-product
kernel in two forms: ``factor_table`` for one vector and
``factor_matrix`` for a batch of vectors, one per row.  Both run the
products of start row i left to right and list the pairs in lexicographic
``(i, j)`` order, so a batch row equals the scalar table bit for bit.  A
certificate groups the factors by the good partitions of the sign pattern,
bounds each group by 1 or 2 through the four elementary product
inequalities, and checks the total against ``2**min(p, m)``.

All comparisons are relative with a default tolerance of 1e-12; products
run in plain double precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from pohst.signs import Pair, PatternContext, SignVector, min_heavy_target
from pohst.partition import (
    GoodPartition,
    PartitionGroup,
    build_pi,
    eta_partition,
)

DEFAULT_TOLERANCE = 1e-12

# a certificate costs O(n^2) time and memory: longer x vectors, and y
# vectors longer by one, are rejected before any partition is built
MAX_CERTIFY_N = 1024


class DomainError(ValueError):
    """An input violates the hypotheses of the statement being evaluated."""


def _nonzero_floats(entries: Iterable) -> tuple[float, ...]:
    """``entries`` as a float tuple; :class:`DomainError` unless each is finite and nonzero."""
    values = tuple(map(float, entries))
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"entries must be finite, got {v!r}")
        if v == 0:
            raise DomainError("entries must be nonzero")
    return values


@dataclass(frozen=True)
class RealVectorX:
    """Nonzero reals with ``|x_i| <= 1``, stored as floats; the boundary is allowed."""

    entries: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _nonzero_floats(self.entries))
        for v in self.entries:
            if abs(v) > 1:
                raise DomainError(f"entries must satisfy |x| <= 1, got {v!r}")

    def sign_vector(self) -> SignVector:
        return SignVector.from_reals(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RealVectorY:
    """Nonzero reals with strictly increasing absolute values, stored as floats."""

    entries: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _nonzero_floats(self.entries))
        prev = None
        for v in self.entries:
            if prev is not None and abs(v) <= prev:
                raise DomainError(
                    f"absolute values must grow strictly, got |{v!r}| after {prev!r}"
                )
            prev = abs(v)

    def __len__(self) -> int:
        return len(self.entries)


def x_from_y(y: RealVectorY) -> RealVectorX:
    """Consecutive ratios ``y_i / y_{i+1}``; strict modulus growth keeps them in (-1, 1)."""
    ys = y.entries
    return RealVectorX(tuple(ys[i] / ys[i + 1] for i in range(len(ys) - 1)))


def factor_table(x: RealVectorX) -> dict[Pair, float]:
    """All factors of the index triangle, O(n^2) by running products."""
    n = len(x)
    table: dict[Pair, float] = {}
    for i in range(1, n + 1):
        running = 1.0
        for j in range(i, n + 1):
            running *= x.entries[j - 1]
            table[(i, j)] = 1.0 - running
    return table


@lru_cache(maxsize=64)
def _end_column_slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Slots in ``factor_matrix``'s buffer: of the pairs in lexicographic
    order, and of the diagonal pairs (j, j).

    The buffer lists the running products by end column: the j products
    ending at column j take the slots from ``(j - 1) j / 2`` on, starts
    1..j in order, so pair (i, j) sits at ``(j - 1) j / 2 + i - 1``.
    """
    lex = np.array([(j - 1) * j // 2 + i - 1
                    for i in range(1, n + 1) for j in range(i, n + 1)], dtype=np.intp)
    diagonal = np.arange(1, n + 1, dtype=np.intp).cumsum() - 1
    lex.flags.writeable = diagonal.flags.writeable = False
    return lex, diagonal


def factor_matrix(X: np.ndarray) -> np.ndarray:
    """Batch ``factor_table``: a ``(rows, n)`` array to ``(rows, n(n+1)/2)`` factors.

    Columns follow the table's lexicographic ``(i, j)`` order.  The running
    products are built by end column: one assignment writes every diagonal
    entry x_j, then for each j > 1 one ``np.multiply`` extends the j - 1
    products ending at column j - 1 by x_j, vectorized over rows * (j - 1)
    values.  Each product still multiplies left to right as the scalar loop
    does, so every row equals ``factor_table`` of that row bit for bit.  One
    gather puts the pairs in lexicographic order and one subtraction forms
    the factors: n + 2 numpy calls per batch, none of which loops per row.

    The end-column buffer and the result share one allocation: as two
    allocations, glibc returned their pages to the system on every free,
    and a 17-row batch at n = 64 took 106 page faults and about twice as
    long.  The result is Fortran-ordered: the factors of one pair are
    contiguous, which keeps the column gathers and row products vectorized
    over the rows.
    """
    rows, n = X.shape
    lex, diagonal = _end_column_slots(n)
    ends, FT = np.empty((2, len(lex), rows))
    ends[diagonal] = X.T
    d = 0  # the slot of x_{j+1}, the diagonal pair (j + 1, j + 1)
    for j in range(1, n):
        d += j + 1
        # the j products ending at column j lie j slots below those ending at j + 1
        np.multiply(ends[d - 2 * j:d - j], ends[d], ends[d - j:d])
    np.take(ends, lex, axis=0, out=FT, mode="clip")  # "raise" would buffer the output
    return np.subtract(1.0, FT, out=FT).T


def eval_f(x: RealVectorX) -> float:
    """Product of all factors, multiplied in the table's lexicographic order."""
    return math.prod(factor_table(x).values(), start=1.0)


def pair_factor_table(y: RealVectorY) -> dict[Pair, float]:
    """All factors ``1 - y_i / y_j`` with ``1 <= i < j <= n``, in lexicographic order."""
    ys = y.entries
    pairs = itertools.combinations(range(1, len(ys) + 1), 2)
    return {(i, j): 1.0 - ys[i - 1] / ys[j - 1] for i, j in pairs}


def eval_P(y: RealVectorY) -> float:
    """Product of ``1 - y_i / y_j`` over ``i < j`` in table order; each factor lies in (0, 2)."""
    return math.prod(pair_factor_table(y).values(), start=1.0)


@dataclass(frozen=True)
class PohstCheck:
    value: float
    bound: float
    holds: bool


def check_pohst_case(
    case: int, a: float, b: Optional[float] = None, c: Optional[float] = None
) -> PohstCheck:
    """Evaluate one of the four elementary product inequalities.

    Case 1: a in [-1,1],           (1-a) <= 2
    Case 2: a in [0,1], b in [-1,0], (1-a)(1-ab) <= 1
    Case 3: a, b in [-1,1],        (1-a)(1-b)(1-ab) <= 2
    Case 4: a in [0,1], b, c in [-1,0], (1-a)(1-ab)(1-ac)(1-abc) <= 1
    """
    if case == 1:
        if not -1 <= a <= 1:
            raise DomainError(f"case 1 needs a in [-1, 1], got {a!r}")
        value, bound = 1.0 - a, 2.0
    elif case == 2:
        if b is None:
            raise DomainError("case 2 needs two arguments")
        if not 0 <= a <= 1 or not -1 <= b <= 0:
            raise DomainError(f"case 2 needs a in [0, 1], b in [-1, 0], got {a!r}, {b!r}")
        value, bound = (1.0 - a) * (1.0 - a * b), 1.0
    elif case == 3:
        if b is None:
            raise DomainError("case 3 needs two arguments")
        if not -1 <= a <= 1 or not -1 <= b <= 1:
            raise DomainError(f"case 3 needs a, b in [-1, 1], got {a!r}, {b!r}")
        value, bound = (1.0 - a) * (1.0 - b) * (1.0 - a * b), 2.0
    elif case == 4:
        if b is None or c is None:
            raise DomainError("case 4 needs three arguments")
        if not 0 <= a <= 1 or not -1 <= b <= 0 or not -1 <= c <= 0:
            raise DomainError(
                f"case 4 needs a in [0, 1], b, c in [-1, 0], got {a!r}, {b!r}, {c!r}"
            )
        value = (1.0 - a) * (1.0 - a * b) * (1.0 - a * c) * (1.0 - a * b * c)
        bound = 1.0
    else:
        raise DomainError(f"case must be 1..4, got {case!r}")
    return PohstCheck(value, bound, value <= bound)


def group_bound(group: PartitionGroup) -> int:
    """Per-group bound: 2 for the heavy shapes, 1 for everything else."""
    return 2 if group.shape.heavy else 1


@dataclass(frozen=True)
class GroupCheck:
    target: str
    group: PartitionGroup
    product: float
    bound: int
    ok: bool

    def to_json_dict(self) -> dict:
        d = self.group.to_json_dict()
        d.update({"target": self.target, "product": self.product, "bound": self.bound,
                  "ok": self.ok})
        return d


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of one bound verification."""

    input_kind: str
    input_values: tuple[float, ...]
    sign_pattern: str
    n_x: int
    n_y: int
    exponent: int
    total: float
    bound: float
    ok: bool
    tolerance: float
    groups: tuple[GroupCheck, ...]
    eta_method: str
    pi_method: str
    heavy_count: int
    bounds_product_is_pow2_heavy: bool

    def to_json_dict(self) -> dict:
        return {
            "input": {"kind": self.input_kind, "values": list(self.input_values)},
            "sign_pattern": self.sign_pattern,
            "n_x": self.n_x,
            "n_y": self.n_y,
            "exponent": self.exponent,
            "total": self.total,
            "bound": self.bound,
            "ok": self.ok,
            "tolerance": self.tolerance,
            "groups": [g.to_json_dict() for g in self.groups],
            "eta_method": self.eta_method,
            "pi_method": self.pi_method,
            "heavy_count": self.heavy_count,
            "bounds_product_is_pow2_heavy": self.bounds_product_is_pow2_heavy,
        }


@lru_cache(maxsize=4096)
def partitions_for(sigma: SignVector) -> tuple[GoodPartition, GoodPartition]:
    """Cached validated ladder partitions of K and J per pattern; raises ``LadderStuck``.

    Holds what ``certify_x`` and ``bound_soundness_sample`` read (groups,
    method, heavy count), not the context or the K trace, which is never
    built.  Measured traffic: hits come only from repeated calls over one
    pattern set, such as the ``certify`` benchmark's 64-pattern pool or the
    ``soundness`` benchmark's 1,024 patterns at n = 10 (hit ratio 1.0 each); one
    soundness call looks each of its patterns up once, so a call over more
    patterns than fit gains nothing.  Tier-1, less the capacity test, makes
    about 600 hits and 3,400 misses and peaks at 2,044 entries; a sweep
    makes none.  2**12 entries keep every pattern of n <= 12 warm; an entry
    takes about 7 KiB at n = 10 and 210 KiB at n = 63 (0.82 GiB when full).
    """
    ctx = PatternContext(sigma)
    return eta_partition(ctx), build_pi(ctx)


def check_tolerance(tolerance: float) -> None:
    """Raise :class:`DomainError` unless ``tolerance`` is finite and non-negative."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError(f"tolerance must be finite and non-negative, got {tolerance!r}")


def certify_x(x: RealVectorX, tolerance: float = DEFAULT_TOLERANCE) -> Certificate:
    """Certificate for the full product of a box vector.

    Builds the partitions for the sign pattern of x, bounds every group by
    its shape bound and the total by ``2**min(p, m)``, all relatively to
    ``tolerance``.  Vectors longer than ``MAX_CERTIFY_N``, and a tolerance
    that is negative or not finite, raise :class:`DomainError` before any
    partition is built.
    """
    check_tolerance(tolerance)
    if len(x) > MAX_CERTIFY_N:
        raise DomainError(
            f"certificates take at most {MAX_CERTIFY_N} x entries "
            f"({MAX_CERTIFY_N + 1} y entries), got {len(x)} x entries"
        )
    sigma = x.sign_vector()
    k_part, j_part = partitions_for(sigma)
    table = factor_table(x)
    checks: list[GroupCheck] = []
    for part in (k_part, j_part):
        for group in part.groups:
            product = 1.0
            for p in group.members:
                product *= table[p]
            bnd = group_bound(group)
            checks.append(
                GroupCheck(part.target, group, product, bnd, product <= bnd * (1.0 + tolerance))
            )
    total = math.prod(table.values(), start=1.0)
    exponent = min_heavy_target(sigma)
    bound = 2.0 ** exponent
    ok = total <= bound * (1.0 + tolerance) and all(c.ok for c in checks)
    bounds_product = 1
    for c in checks:
        bounds_product *= c.bound
    return Certificate(
        input_kind="x",
        input_values=x.entries,
        sign_pattern=sigma.to_string(),
        n_x=len(x),
        n_y=len(x) + 1,
        exponent=exponent,
        total=total,
        bound=bound,
        ok=ok,
        tolerance=tolerance,
        groups=tuple(checks),
        eta_method=k_part.method,
        pi_method=j_part.method,
        heavy_count=k_part.heavy_count,
        bounds_product_is_pow2_heavy=bounds_product == 2 ** k_part.heavy_count,
    )


def certify_y(y: RealVectorY, tolerance: float = DEFAULT_TOLERANCE) -> Certificate:
    """Certificate for the pair product of a modulus-ordered vector.

    The exponent is computed from the y signs directly and cross-checked
    against the prefix-count form coming out of the change of variables;
    the two cannot differ because ``min(p, m)`` is invariant under a global
    sign flip.  Raises :class:`DomainError` as ``certify_x`` does, and for
    an empty y, which has no x vector, before any partition is built.
    """
    if not len(y):
        raise DomainError("a y vector needs at least one entry")
    x = x_from_y(y)
    cert = certify_x(x, tolerance)
    p = sum(1 for v in y.entries if v > 0)
    m = len(y) - p
    if min(p, m) != cert.exponent:
        raise AssertionError(
            f"exponent mismatch: y signs give {min(p, m)}, pattern gives {cert.exponent}"
        )
    return replace(cert, input_kind="y", input_values=y.entries)
