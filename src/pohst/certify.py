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

Everything a certificate takes from its pattern alone is a
:class:`CertificatePlan`, built by the pattern's first certificate and
kept on its ``partitions_for`` entry: each group's factor positions and
bound, the pattern-only fields, and one compact JSON template of the
group list.  A certificate then costs one factor table, one product per
group and, for printing, one template fill; its :class:`GroupCheck`
tuple is built only when ``groups`` is read.

All comparisons are relative with a default tolerance of 1e-12; products
run in plain double precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
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
    """Consecutive ratios ``y_i / y_{i+1}``; strict modulus growth keeps them in (-1, 1).

    A ratio too small for a double, such as ``1e-320 / 1e300``, underflows to
    zero and raises :class:`DomainError` naming the ratio and its positions.
    """
    ys = y.entries
    ratios = tuple(ys[i] / ys[i + 1] for i in range(len(ys) - 1))
    for i, ratio in enumerate(ratios, start=1):
        if ratio == 0:
            raise DomainError(
                f"ratio y_{i} / y_{i + 1} = {ys[i - 1]!r} / {ys[i]!r} underflows to zero"
            )
    return RealVectorX(ratios)


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


@dataclass(frozen=True, eq=False)
class CertificatePlan:
    """What every certificate of one sign pattern shares, built once from its partitions.

    ``fields`` holds the certificate fields that depend on the pattern
    alone.  The groups are those of K, then of J: ``bounds`` gives their
    bounds, one byte each, and ``positions`` their members, in member
    order, as indices into ``factor_table``'s values, where pair (i, j)
    sits at ``(i - 1)(2n - i + 2)/2 + j - i``.  ``template`` is the compact
    JSON of the group list, keys sorted, with a ``%s`` slot for each
    group's ``ok`` and a ``%r`` slot for its ``product``.
    """

    fields: dict
    partitions: tuple[GoodPartition, GoodPartition]
    bounds: bytes
    positions: tuple[tuple[int, ...], ...]
    template: str


def _certificate_plan(
    sigma: SignVector, k_part: GoodPartition, j_part: GoodPartition
) -> CertificatePlan:
    n = len(sigma)
    groups = [(part.target, group) for part in (k_part, j_part) for group in part.groups]
    bounds = bytes(group_bound(group) for _, group in groups)
    # pair (i, j) sits at row i's offset plus j
    offset = [(i - 1) * (2 * n - i + 2) // 2 - i for i in range(n + 1)]
    positions = tuple(tuple(offset[i] + j for i, j in group.members) for _, group in groups)
    # GroupCheck.to_json_dict's members in sorted key order, as json.dumps
    # prints them (a list of int lists prints as JSON)
    template = "[" + ", ".join(
        f'{{"bound": {bound}, "members": {[list(p) for p in group.members]}, "ok": %s, '
        f'"product": %r, "shape": "{group.shape.value}", "target": "{target}"}}'
        for (target, group), bound in zip(groups, bounds)
    ) + "]"
    exponent = min_heavy_target(sigma)
    fields = {
        "sign_pattern": sigma.to_string(),
        "n_x": n,
        "n_y": n + 1,
        "exponent": exponent,
        "bound": 2.0 ** exponent,
        "eta_method": k_part.method,
        "pi_method": j_part.method,
        "heavy_count": k_part.heavy_count,
        "bounds_product_is_pow2_heavy": math.prod(bounds) == 2 ** k_part.heavy_count,
    }
    return CertificatePlan(fields, (k_part, j_part), bounds, positions, template)


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of one bound verification.

    ``products`` holds the group products in plan order, the groups of K
    and then of J.  ``groups`` builds the per-group checks from them on
    first read; ``groups_json`` encodes the same checks from the plan's
    template and builds none.
    """

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
    products: tuple[float, ...]
    eta_method: str
    pi_method: str
    heavy_count: int
    bounds_product_is_pow2_heavy: bool
    plan: CertificatePlan = field(compare=False, repr=False)

    @cached_property
    def groups(self) -> tuple[GroupCheck, ...]:
        scale = 1.0 + self.tolerance
        plan = self.plan
        groups = ((part.target, group) for part in plan.partitions for group in part.groups)
        return tuple(
            GroupCheck(target, group, product, bound, product <= bound * scale)
            for (target, group), bound, product in zip(groups, plan.bounds, self.products)
        )

    def groups_json(self) -> str:
        """``to_json_dict()["groups"]`` as ``json.dumps(..., sort_keys=True)`` would print it."""
        scale = 1.0 + self.tolerance
        slots = []
        for product, bound in zip(self.products, self.plan.bounds):
            slots += ("true" if product <= bound * scale else "false", product)
        return self.plan.template % tuple(slots)

    def head_json_dict(self) -> dict:
        """Every member of ``to_json_dict`` but ``groups``."""
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
            "eta_method": self.eta_method,
            "pi_method": self.pi_method,
            "heavy_count": self.heavy_count,
            "bounds_product_is_pow2_heavy": self.bounds_product_is_pow2_heavy,
        }

    def to_json_dict(self) -> dict:
        return {**self.head_json_dict(), "groups": [g.to_json_dict() for g in self.groups]}


class _Partitions(tuple):
    """``(k_part, j_part)`` of one pattern; its first certificate sets ``plan``."""

    plan: Optional[CertificatePlan] = None


@lru_cache(maxsize=4096)
def partitions_for(sigma: SignVector) -> tuple[GoodPartition, GoodPartition]:
    """Cached validated ladder partitions of K and J per pattern; raises ``LadderStuck``.

    Holds the two partitions, not the context or the K trace, which is
    never built; a pattern's first certificate adds its
    :class:`CertificatePlan` to the entry, so one LRU bounds both and an
    evicted or cleared entry drops its plan.  Sweeps and soundness
    sampling, which keeps its own slot tables, make no traffic here.  Hits
    come only from repeated calls over one pattern set: the ``certify``
    benchmark's 64-pattern pool makes 64 misses and 64 plans in set-up,
    then one hit per call (hit ratio 1.0).  Tier-1, less the two capacity
    tests, makes 3,368 hits and 4,102 misses, builds 518 plans and peaks at
    3,203 entries; the tests' per-pattern soundness references make 2,573
    of the hits and 3,714 of the misses and no plan.  2**12 entries keep
    every pattern of n <= 12 warm.  One entry, shared objects counted once,
    takes 24 KiB of partitions and a 15 KiB plan (8.3 KiB of it the
    template) at n = 16, 229 and 160 KiB at n = 63 (1.6 GiB when full),
    and 65 and 43 MiB at n = 1024.
    """
    ctx = PatternContext(sigma)
    return _Partitions((eta_partition(ctx), build_pi(ctx)))


def check_tolerance(tolerance: float) -> None:
    """Raise :class:`DomainError` unless ``tolerance`` is finite and non-negative."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError(f"tolerance must be finite and non-negative, got {tolerance!r}")


def certify_x(x: RealVectorX, tolerance: float = DEFAULT_TOLERANCE) -> Certificate:
    """Certificate for the full product of a box vector.

    Looks up the partitions for the sign pattern of x (one
    ``partitions_for`` call) and their plan, built here on the pattern's
    first certificate.  It reads ``factor_table(x)``'s values as a flat
    list, multiplies each group's factors in member order, bounds every
    group by its shape bound and the total by ``2**min(p, m)``, all
    relatively to ``tolerance``; it builds no :class:`GroupCheck`.  At
    n = 16 on 2 vCPUs a warm call takes about 45 µs, 22 µs of it in
    ``factor_table`` (110 µs before the plan).  Vectors longer than
    ``MAX_CERTIFY_N``, and a tolerance that is negative or not finite,
    raise :class:`DomainError` before any partition is built.
    """
    check_tolerance(tolerance)
    if len(x) > MAX_CERTIFY_N:
        raise DomainError(
            f"certificates take at most {MAX_CERTIFY_N} x entries "
            f"({MAX_CERTIFY_N + 1} y entries), got {len(x)} x entries"
        )
    sigma = x.sign_vector()
    partitions = partitions_for(sigma)
    plan = partitions.plan
    if plan is None:
        plan = partitions.plan = _certificate_plan(sigma, *partitions)
    values = list(factor_table(x).values())
    products = []
    for positions in plan.positions:
        product = 1.0
        for k in positions:
            product *= values[k]
        products.append(product)
    total = math.prod(values, start=1.0)
    scale = 1.0 + tolerance
    ok = total <= plan.fields["bound"] * scale and all(
        product <= bound * scale for product, bound in zip(products, plan.bounds))
    return Certificate(
        input_kind="x",
        input_values=x.entries,
        total=total,
        ok=ok,
        tolerance=tolerance,
        products=tuple(products),
        plan=plan,
        **plan.fields,
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
