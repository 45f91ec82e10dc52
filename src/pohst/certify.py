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

``partitions_for`` keeps one :class:`PatternEntry` per sign pattern in one
cache bounded by the pairs it holds: a slot table, filled from a leaf of
the prefix walk, that encodes both partitions, and the certificate plan
built from it on first read.  A
certificate then costs one factor table, one product per group and, for
printing, one template fill; its :class:`GroupCheck` tuple is decoded only
when ``groups`` is read.

All comparisons are relative with a default tolerance of 1e-12; products
run in plain double precision.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Iterator, Optional

import numpy as np

from pohst.signs import Pair, min_heavy_target, pattern_from_index
from pohst.partition import PartitionGroup, Shape, _prefix_walk

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


def factor_table(x: RealVectorX) -> list[float]:
    """All factors of the index triangle in lexicographic ``(i, j)`` order,
    O(n^2) by running products, each multiplied left to right."""
    xs = x.entries
    return [1.0 - running
            for i in range(len(xs)) for running in itertools.accumulate(xs[i:], mul)]


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
    return math.prod(factor_table(x), start=1.0)


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


_SHAPES = {(len(shape.signs), shape.heavy): shape for shape in Shape}


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of one bound verification.

    ``plan`` is the pattern's :class:`PatternEntry`, and ``products``
    holds the group products in its order, the groups of K and then of J.
    ``groups`` decodes the groups from the entry's slot table and builds
    the per-group checks on first read; ``groups_json`` encodes the same
    checks from the entry's template and builds none.
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
    plan: PatternEntry = field(compare=False, repr=False)

    @cached_property
    def groups(self) -> tuple[GroupCheck, ...]:
        scale = 1.0 + self.tolerance
        return tuple(
            GroupCheck(target, group, product, bound, product <= bound * scale)
            for (target, group), bound, product
            in zip(self.plan.groups(), self.plan.bounds, self.products)
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


@dataclass(eq=False)
class PatternEntry:
    """One sign pattern's groups, read by soundness sampling and certificates.

    Column g of the read-only ``(4, groups)`` ``table`` lists the
    ``factor_matrix`` columns of group g of K's and then J's checked
    ladder partition in member order, pair (i, j) in column
    ``(i - 1)(2n - i + 2)/2 + j - i``.  Free slots read ``n(n+1)/2``, a row
    of 1.0, but a heavy group (at most 3 members) reads ``n(n+1)/2 + 1``, a
    row of 0.5, in its last slot.  The member count and the 0.5 slot name
    each shape, and the first ``k_groups`` columns are K's.  ``bound`` is
    ``2**min(p, m)``.  The certificate plan, ``bounds``, ``fields`` and
    ``template``, is built from the table on first read.
    """

    n: int
    code: int
    table: np.ndarray
    bound: float
    k_groups: int

    def groups(self) -> Iterator[tuple[str, PartitionGroup]]:
        """The target and group of each column, decoded from the table."""
        lexicographic = [(i, j) for i in range(1, self.n + 1) for j in range(i, self.n + 1)]
        free = len(lexicographic)
        for g, slots in enumerate(self.table.T.tolist()):
            members = tuple(lexicographic[s] for s in slots if s < free)
            shape = _SHAPES[len(members), slots[-1] > free]
            yield "K" if g < self.k_groups else "J", PartitionGroup(shape, members)

    @cached_property
    def bounds(self) -> bytes:
        """Each group's bound, one byte: 2 where its last slot reads the 0.5 row."""
        return (1 + (self.table[3] > self.n * (self.n + 1) // 2)).astype(np.uint8).tobytes()

    @cached_property
    def fields(self) -> dict:
        """The certificate fields that depend on the pattern alone."""
        sigma = pattern_from_index(self.n, self.code)
        exponent = min_heavy_target(sigma)
        heavy_count = self.bounds[:self.k_groups].count(2)
        return dict(
            sign_pattern=sigma.to_string(), n_x=self.n, n_y=self.n + 1, exponent=exponent,
            bound=self.bound, heavy_count=heavy_count,
            bounds_product_is_pow2_heavy=math.prod(self.bounds) == 2 ** heavy_count,
            # the methods of eta_partition's and build_pi's partitions
            eta_method="ladder", pi_method="greedy")

    @cached_property
    def template(self) -> str:
        """The compact JSON of the group list, keys sorted, with slots ``%s``
        for each ``ok`` and ``%r`` for each ``product``."""
        # GroupCheck.to_json_dict's members in sorted key order, as json.dumps
        # prints them (a list of int lists prints as JSON)
        return "[" + ", ".join(
            f'{{"bound": {bound}, "members": {[list(p) for p in group.members]}, "ok": %s, '
            f'"product": %r, "shape": "{group.shape.value}", "target": "{target}"}}'
            for (target, group), bound in zip(self.groups(), self.bounds)
        ) + "]"


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _PairLRU:
    """Least-recently-used cache of :class:`PatternEntry` objects keyed by
    ``(n, code)``, bounded by the pairs they cover, ``n(n+1)/2`` each, in
    ``maxsize`` and ``currsize``; the newest entry is never evicted.  Every
    entry comes from :meth:`entries`, the one walk driver, codes alone.  An
    entry takes 1.4 / 2.1 / 21 / 276 KiB / 4.2 MiB at n = 10 / 16 / 63 /
    256 / 1024, and a plan 3.2 / 6.2 / 78 KiB / 1.1 / 18 MiB more.  The
    ``certify`` benchmark makes 64 misses and plans in set-up, then a hit
    per call; ``soundness`` 1,024 misses (56,320 pairs) and no plan in
    set-up, then 1,024 hits per call.  Tier-1 less the capacity tests
    makes 3,880 hits, 24,214 misses and 519 plans, and fills the budget.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple[int, int], PatternEntry] = OrderedDict()
        self.cache_clear()

    def __call__(self, n: int, code: int) -> PatternEntry:
        """The entry of the length-``n`` pattern whose bit k of ``code`` marks
        entry k + 1 as negative; raises ``LadderStuck``.  A miss walks that one
        pattern through :meth:`entries`."""
        return self._get(n, code) or next(self.entries(n, [code]))

    def entries(self, n: int, codes: list[int]) -> Iterator[PatternEntry]:
        """The entries of the patterns ``codes``, in order: the held ones
        looked up at once, the others stored as one lazy walk over their walk
        keys, the codes' bits reversed, yields them.  Unless those codes lie
        in ``0 <= code < 2**n`` and their keys ascend strictly, raises
        ``ValueError`` before anything is counted or stored."""
        missing = [code for code in codes if (n, code) not in self._entries]
        for code in missing:
            if not 0 <= code < 1 << n:
                raise ValueError(f"code {code} is no pattern of length {n}")
        keys = [int(f"{code:0{n}b}"[::-1], 2) for code in missing]
        for before, key in zip(keys, keys[1:]):
            if key <= before:
                raise ValueError(f"missing patterns need ascending walk keys: {key} after {before}")
        held = [self._get(n, code) for code in codes]
        walk = _prefix_walk(n, keys)
        return (entry or self._store(_walked_entry(n, code, next(walk)))
                for code, entry in zip(codes, held))

    def _get(self, n: int, code: int) -> Optional[PatternEntry]:
        """The held entry, counted as a hit, or ``None``, counted as nothing."""
        entry = self._entries.get((n, code))
        if entry is not None:
            self._hits += 1
            self._entries.move_to_end((n, code))
        return entry

    def _store(self, entry: PatternEntry) -> PatternEntry:
        """Hold ``entry``, in place of any held entry of its pattern, as one miss."""
        self._misses += 1
        entries, n = self._entries, entry.n
        if entries.pop((n, entry.code), None) is None:
            self._pairs += n * (n + 1) // 2
        entries[n, entry.code] = entry
        while self._pairs > self.maxsize and len(entries) > 1:
            (old, _), _ = entries.popitem(last=False)
            self._pairs -= old * (old + 1) // 2
        return entry

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, self.maxsize, self._pairs)

    def cache_clear(self) -> None:
        self._entries.clear()
        self._hits = self._misses = self._pairs = 0


partitions_for = _PairLRU(4096 * 78)  # every pattern of n = 12
pattern_entries = partitions_for.entries  # bound: keeps the cache if the name is rebound


def _walked_entry(n: int, code: int, leaf) -> PatternEntry:
    """The :class:`PatternEntry` of pattern ``(n, code)`` from its walk leaf:
    its heavy target and its K and J groups' reports in construction order.
    No flagged leaf gets here: the walk raises its :class:`LadderStuck`,
    naming the pattern."""
    target, k_groups, j_groups, _ = leaf
    pairs = n * (n + 1) // 2
    # pair (i, j) takes slot start[i] + j, and a pad (0, s) slot s: per
    # heaviness and member count, the pads that fill a group's four slots
    start = [0] + [(i - 1) * (2 * n - i + 2) // 2 - i for i in range(1, n + 1)]
    pads = [[((0, pairs),) * (4 - size) for size in range(5)],
            [((0, pairs),) * (3 - size) + ((0, pairs + 1),) for size in range(4)]]
    table = np.fromiter((start[i] + j for shape, members, _ in k_groups + j_groups
                         for i, j in members + pads[shape.heavy][len(members)]),
                        np.intp).reshape(-1, 4).T
    table.flags.writeable = False
    return PatternEntry(n, code, table, 2.0 ** target, len(k_groups))


def check_tolerance(tolerance: float) -> None:
    """Raise :class:`DomainError` unless ``tolerance`` is finite and non-negative."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError(f"tolerance must be finite and non-negative, got {tolerance!r}")


def certify_x(x: RealVectorX, tolerance: float = DEFAULT_TOLERANCE) -> Certificate:
    """Certificate for the full product of a box vector.

    Reads the plan of x's sign pattern off its ``partitions_for`` entry
    (one lookup), multiplies ``factor_table(x)``'s values at each group's
    four slots (1.0 at a free slot, which is exact), and bounds each group
    by its shape bound and the total by ``2**min(p, m)``, relatively to
    ``tolerance``.  At n = 16 on 2 vCPUs a warm call takes about 30 µs,
    10 µs of it in ``factor_table``.  Vectors longer than ``MAX_CERTIFY_N``,
    and a tolerance that is negative or not finite, raise
    :class:`DomainError` before any partition is built.
    """
    check_tolerance(tolerance)
    if len(x) > MAX_CERTIFY_N:
        raise DomainError(
            f"certificates take at most {MAX_CERTIFY_N} x entries "
            f"({MAX_CERTIFY_N + 1} y entries), got {len(x)} x entries"
        )
    plan = partitions_for(len(x), sum(1 << k for k, v in enumerate(x.entries) if v < 0))
    values = factor_table(x)
    total = math.prod(values, start=1.0)
    values += (1.0, 1.0)  # what the free slots read, the 0.5 slots included
    products = [values[a] * values[b] * values[c] * values[d]
                for a, b, c, d in plan.table.T.tolist()]
    scale = 1.0 + tolerance
    ok = total <= plan.bound * scale and all(
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
