"""Good-partition construction and validation.

The canonical set K and the non-canonical set J of a sign pattern are
decomposed into groups of five admissible shapes:

* ``PositiveSingleton`` -- one pair of positive product sign;
* ``MixedPair`` -- a positive pair inside a negative pair that shares its
  start column or its end row;
* ``RectangleQuad`` -- four pairs on two columns x two rows with signs
  ``+ - / - +`` (positive on the main diagonal);
* ``NegativeSingleton`` -- one pair of negative product sign;
* ``LTriple`` -- a positive pair with a negative row-mate to its right and
  a negative column-mate below it that ends just before the row-mate starts.

The last two shapes are *heavy*: their factor product is only bounded by 2
rather than 1, and a good partition of K must contain exactly
``min(alpha + 1, beta)`` of them.  J admits the first three shapes only.

One deterministic case ladder builds both partitions: negatives are
absorbed in construction order, each one either mated to a free positive
singleton in its row tail (operation 1), mated down its column (operation
1) or completed into a rectangle through a blocking horizontal pair
(operation 2).  Only K has the heavy moves, tried at the first row failure
on a level before the column mate: the negative is parked as a heavy
singleton on an unstable level (operation 3), or folded into an L-triple
with the surviving heavy singleton one row below its start on a stable
level (operation 4).  One row step, ``_ladder_row``, holds every move: it
absorbs the negatives of one row into an explicit state (free rows and
columns, live row-mate pairs, heavy starts) and reports each group it
forms or grows.  The per-pattern ladder runs it over rows 1..n, and the
exhaustive sweep walk in :mod:`pohst.analysis` runs it once per node of
a walk over sign prefixes.  ``construct_eta`` (with the trace),
``eta_partition`` (without one) and ``build_pi`` validate the ladder's
partition of K or J once and raise :class:`LadderStuck` when it is stuck
or invalid: the ladder is the only construction path.  Trace steps are
built only for callers that read them.  ``search_partition``, the
independent backtracking oracle over the same move set, serves the tests
and the CLI's search modes only.  ``validate_partition`` checks any
claimed partition against the shape and count rules.

The ladder and the validator work on the bit rows of a
:class:`~pohst.signs.PatternContext` (bit i of row j is pair (i, j)): mates
are found by lowest/highest-set-bit scans, every group's members come out
already in construction order, so the partition needs one sort on an int
key and no per-group sort, and the validator checks membership, signs,
disjointness and coverage by bit tests.  ``construct_eta``,
``eta_partition``, ``build_pi``, ``validate_partition`` and
``check_construction_invariants`` take a context or a
:class:`~pohst.signs.SignVector`, so a caller builds one context per
pattern and hands it to all of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from pohst.signs import (
    Pair,
    PatternContext,
    SignVector,
    pair_sign_maps,
    pair_sort_key,
)


class Shape(enum.Enum):
    POSITIVE_SINGLETON = "PositiveSingleton"
    MIXED_PAIR = "MixedPair"
    RECTANGLE_QUAD = "RectangleQuad"
    NEGATIVE_SINGLETON = "NegativeSingleton"
    L_TRIPLE = "LTriple"


HEAVY_SHAPES = (Shape.NEGATIVE_SINGLETON, Shape.L_TRIPLE)

# search_partition recurses once per negative pair: at most 600 at this
# length (the all-minus pattern, ceil(49/2) * floor(49/2), all in K), well
# inside the interpreter's default recursion limit of 1000
MAX_SEARCH_N = 48

_MEMBER_COUNT = {
    Shape.POSITIVE_SINGLETON: 1,
    Shape.MIXED_PAIR: 2,
    Shape.RECTANGLE_QUAD: 4,
    Shape.NEGATIVE_SINGLETON: 1,
    Shape.L_TRIPLE: 3,
}


class LadderStuck(RuntimeError):
    """The case ladder left a negative pair of ``target`` unabsorbed, or built
    a partition that fails validation (``negative`` is then ``None``).

    ``sigma`` is ``None`` when the ladder ran on a sign prefix in a sweep
    walk, which flags every pattern below the prefix instead of raising.
    """

    def __init__(
        self, sigma: Optional[SignVector], target: str, negative: Optional[Pair], reason: str
    ):
        self.sigma = sigma
        self.target = target
        self.negative = negative
        self.reason = reason
        where = "a sign prefix" if sigma is None else repr(sigma.to_string())
        super().__init__(f"ladder stuck on {target} of {where} at {negative}: {reason}")


class SearchExhausted(RuntimeError):
    """No partition exists within the move set; carries the witness pattern."""

    def __init__(self, sigma: SignVector, target: str):
        self.sigma = sigma
        self.target = target
        super().__init__(
            f"no good partition of {target} found for witness {sigma.to_string()!r}"
        )


@dataclass(frozen=True)
class PartitionGroup:
    shape: Shape
    members: tuple[Pair, ...]

    def to_json_dict(self) -> dict:
        return {"shape": self.shape.value, "members": [list(p) for p in self.members]}


@dataclass(frozen=True)
class GoodPartition:
    """A claimed decomposition of J or K into admissible groups."""

    target: str  # "J" or "K"
    groups: tuple[PartitionGroup, ...]
    method: str = ""

    @property
    def heavy_count(self) -> int:
        return sum(1 for g in self.groups if g.shape in HEAVY_SHAPES)

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "method": self.method,
            "heavy_count": self.heavy_count,
            "groups": [g.to_json_dict() for g in self.groups],
        }


@dataclass(frozen=True)
class TraceStep:
    negative: Pair
    case: int
    operation: int
    consumed: tuple[tuple[Pair, ...], ...]
    produced: tuple[Pair, ...]
    shape: Shape

    def to_json_dict(self) -> dict:
        return {
            "negative": list(self.negative),
            "case": self.case,
            "operation": self.operation,
        }


@dataclass(frozen=True)
class ConstructionTrace:
    steps: tuple[TraceStep, ...]
    op3_uses: int

    def to_json_dict(self) -> dict:
        return {
            "op3_uses": self.op3_uses,
            "steps": [s.to_json_dict() for s in self.steps],
        }


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def _sorted_group(shape: Shape, members: Iterable[Pair]) -> PartitionGroup:
    return PartitionGroup(shape, tuple(sorted(members, key=pair_sort_key)))


def _canonical_partition(
    target: str, groups: Iterable[PartitionGroup], method: str
) -> GoodPartition:
    ordered = tuple(
        sorted(groups, key=lambda g: pair_sort_key(g.members[0]))
    )
    return GoodPartition(target=target, groups=ordered, method=method)


def _context(sigma: SignVector | PatternContext) -> PatternContext:
    return sigma if isinstance(sigma, PatternContext) else PatternContext(sigma)


def _shape_findings(shape: Shape, members: tuple[Pair, ...], signs: list[int]) -> list[str]:
    """Shape and sign rules for one group, as human-readable findings.

    ``signs[k]`` is the product sign of ``members[k]``, or 0 when that pair
    lies outside the target set.
    """
    count = len(members)
    if count > 1 and len(set(members)) != count:
        return ["repeated member"]
    if count != _MEMBER_COUNT[shape]:
        return [f"{shape.value} needs {_MEMBER_COUNT[shape]} members, has {count}"]
    if 0 in signs:
        return ["member outside the target set"]
    if count == 1:
        if shape is Shape.POSITIVE_SINGLETON:
            return [] if signs[0] > 0 else [f"singleton {members[0]} has negative product sign"]
        return [] if signs[0] < 0 else [f"singleton {members[0]} has positive product sign"]
    if shape is Shape.MIXED_PAIR:
        if signs[0] == signs[1]:
            return ["mixed pair needs one positive and one negative member"]
        (pi, pj), (ni, nj) = members if signs[0] > 0 else members[::-1]
        if (ni <= pi and nj == pj) or (ni == pi and pj <= nj):
            return []
        return [f"negative {(ni, nj)} does not enclose positive {(pi, pj)} along a row or column"]
    if shape is Shape.RECTANGLE_QUAD:
        # four distinct members on two columns and two rows fill the rectangle
        cols = sorted({p[0] for p in members})
        rows = sorted({p[1] for p in members})
        if len(cols) != 2 or len(rows) != 2:
            return ["rectangle needs two columns and two rows"]
        (a, b), (u, v) = cols, rows
        sign = dict(zip(members, signs))
        return [
            f"rectangle corner {p} has sign {sign[p]}, wants {w}"
            for p, w in (((b, u), 1), ((a, u), -1), ((b, v), -1), ((a, v), 1))
            if sign[p] != w
        ]
    # Shape.L_TRIPLE
    pos = [p for p, s in zip(members, signs) if s > 0]
    neg = [p for p, s in zip(members, signs) if s < 0]
    if len(pos) != 1:
        return ["L-triple needs one positive and two negative members"]
    i, j = pos[0]
    row_mates = [p for p in neg if p[1] == j and p[0] > i]
    col_mates = [p for p in neg if p[0] == i and p[1] < j]
    if len(row_mates) != 1 or len(col_mates) != 1:
        return [
            f"L-triple around {pos[0]} needs one row mate after it and one column mate below it"
        ]
    if col_mates[0][1] != row_mates[0][0] - 1:
        # elementary case 3 needs the column mate and the row mate to split
        # the positive pair's product exactly
        return [
            f"L-triple column mate {col_mates[0]} does not end just before "
            f"row mate {row_mates[0]} starts"
        ]
    return []


def validate_partition(
    sigma: SignVector | PatternContext, part: GoodPartition
) -> ValidationReport:
    """Check coverage, disjointness, shapes, signs and the heavy-group count.

    Every member of every group is checked against the bit rows of the
    pattern's context.  Violations are returned as data; nothing raises
    except out-of-range member pairs, which break the precondition.
    """
    target = part.target
    if target not in ("J", "K"):
        raise ValueError(f"unknown partition target {target!r}")
    ctx = _context(sigma)
    n = ctx.n
    rows, pos = ctx.rows(target)
    seen = [0] * (n + 1)
    violations: list[str] = []
    heavy = 0
    for idx, group in enumerate(part.groups):
        members = group.members
        signs = []
        for p in members:
            i, j = p
            if not (1 <= i <= j <= n):
                raise IndexError(f"group {idx} member {p} out of range for n={n}")
            bit = 1 << i
            if seen[j] & bit:
                first = next(k for k, g in enumerate(part.groups) if p in g.members)
                violations.append(f"pair {p} appears in groups {first} and {idx}")
            else:
                seen[j] |= bit
            if rows[j] & bit:
                signs.append(1 if pos[j] & bit else -1)
            else:
                signs.append(0)
                violations.append(f"group {idx}: pair {p} is not in the {target} set")
        for finding in _shape_findings(group.shape, members, signs):
            violations.append(f"group {idx} ({group.shape.value}): {finding}")
        if group.shape in HEAVY_SHAPES:
            heavy += 1
            if target == "J":
                violations.append(
                    f"group {idx}: {group.shape.value} is not admissible in a J partition"
                )
    if tuple(seen) != rows:
        missing = [
            (i, j)
            for j in range(1, n + 1)
            for i in range(j, 0, -1)
            if (rows[j] & ~seen[j]) >> i & 1
        ]
        if missing:
            violations.append(f"uncovered pairs: {missing}")
    if target == "K" and heavy != ctx.target:
        violations.append(f"heavy group count {heavy} differs from required {ctx.target}")
    return ValidationReport(not violations, tuple(violations))


class _LadderState:
    """What the case ladder carries from one row to the next.

    The free positive pairs live in bit rows (bit i of ``free_row[j]``) and
    bit columns (bit j of ``free_col[i]``).  Bit ell of ``row_pairs[i]``
    marks (i, ell) as the positive member of a live row-mate pair, which a
    rectangle may still complete; ``pair_low[ell * (n + 1) + i]`` is the
    start column of that pair's negative member.  ``heavy_start[j]`` is the
    start of row j's live heavy singleton (at most one), 0 if none.
    ``sigma`` names the pattern in a :class:`LadderStuck`; it is ``None``
    when the state belongs to a walk over sign prefixes.
    """

    __slots__ = ("free_row", "free_col", "row_pairs", "pair_low", "heavy_start", "sigma")

    def __init__(self, n: int, sigma: Optional[SignVector] = None) -> None:
        self.free_row = [0] * (n + 1)
        self.free_col = [0] * (n + 1)
        self.row_pairs = [0] * (n + 1)
        self.pair_low = [0] * (n + 1) ** 2
        self.heavy_start = [0] * (n + 1)
        self.sigma = sigma

    def copy(self) -> "_LadderState":
        """A state that rows past the current one may change independently.

        ``pair_low`` is shared: row j writes only its own entries, which
        later rows read through ``row_pairs`` bits set on the same path, so
        a depth-first walk may let sibling branches overwrite them.
        """
        other = _LadderState.__new__(_LadderState)
        other.free_row = self.free_row[:]
        other.free_col = self.free_col[:]
        other.row_pairs = self.row_pairs[:]
        other.pair_low = self.pair_low
        other.heavy_start = self.heavy_start[:]
        other.sigma = self.sigma
        return other


def _ladder_row(
    state: _LadderState,
    j: int,
    row: int,
    pos: int,
    stable: bool,
    heavy: bool,
    steps: Optional[list[TraceStep]] = None,
) -> list[tuple[Shape, tuple[Pair, ...], tuple[Pair, ...]]]:
    """Absorb the negatives of row ``j`` into ``state``: the one copy of the moves.

    ``row`` and ``pos`` are the row's pairs and positive pairs of the target
    set, ``stable`` the level flag of row ``j``, and ``heavy`` is true for K
    alone.  Negatives go in construction order, each to a row mate, a column
    mate (operation 1) or a rectangle completed through a blocking
    horizontal pair (operation 2).  Only K has the heavy moves, and there
    the heavy budget takes care of itself: operation 3 fires exactly at the
    first row failure on an unstable level, operation 4 recycles one
    earlier heavy singleton at the first row failure on a stable level, and
    nothing else touches the count.

    The row mate is the lowest free bit above i, the column mate the
    highest free bit below j.  Every group formed or grown is reported as
    ``(shape, members, new members)``, members in construction order; a
    grown group keeps its first member.  ``TraceStep``s, with K's case
    numbers, are appended to ``steps`` only when the caller passes a list.
    Raises :class:`LadderStuck` when a negative has no move.
    """
    free_row, free_col, row_pairs = state.free_row, state.free_col, state.row_pairs
    pair_low, heavy_start = state.pair_low, state.heavy_start
    stride = len(free_row)
    bit = 1 << j
    below_j = bit - 1
    free_row[j] = pos
    while pos:
        low = pos & -pos
        free_col[low.bit_length() - 1] |= bit
        pos ^= low
    reports = []
    negatives = row & ~free_row[j]
    failures = 0
    while negatives:
        i = negatives.bit_length() - 1
        negatives ^= 1 << i
        neg = (i, j)

        above = free_row[j] >> (i + 1) << (i + 1)
        if above:
            i2 = (above & -above).bit_length() - 1
            free_row[j] ^= 1 << i2
            free_col[i2] ^= bit
            row_pairs[i2] |= bit
            pair_low[j * stride + i2] = i
            members = ((i2, j), neg)
            reports.append((Shape.MIXED_PAIR, members, members))
            if steps is not None:
                steps.append(TraceStep(neg, 1, 1, (members[:1],), members, Shape.MIXED_PAIR))
            continue

        case = 0
        if heavy:
            failures += 1
            if failures == 1 and not stable:
                heavy_start[j] = i
                members = (neg,)
                reports.append((Shape.NEGATIVE_SINGLETON, members, members))
                if steps is not None:
                    steps.append(TraceStep(neg, 2, 3, (), members, Shape.NEGATIVE_SINGLETON))
                continue
            if failures == 1:
                ell = heavy_start[i - 1]
                if ell and free_row[j] >> ell & 1:
                    free_row[j] ^= 1 << ell
                    free_col[ell] ^= bit
                    heavy_start[i - 1] = 0
                    low, top = (ell, i - 1), (ell, j)
                    # grows the heavy singleton (ell, i - 1)
                    reports.append((Shape.L_TRIPLE, (low, neg, top), (neg, top)))
                    if steps is not None:
                        steps.append(TraceStep(
                            neg, 5, 4, ((low,), (top,)), (low, neg, top), Shape.L_TRIPLE))
                    continue
                raise LadderStuck(
                    state.sigma, "K", neg,
                    "no heavy singleton survives one row below the start",
                )
            case = 6 if stable else (3 if failures == 2 else 4)

        below = free_col[i] & below_j
        if below:
            j2 = below.bit_length() - 1
            free_col[i] ^= 1 << j2
            free_row[j2] ^= 1 << i
            members = ((i, j2), neg)
            reports.append((Shape.MIXED_PAIR, members, members))
            if steps is not None:
                steps.append(TraceStep(neg, case, 1, (members[:1],), members, Shape.MIXED_PAIR))
            continue

        candidates = row_pairs[i] & below_j
        while candidates:
            ell = candidates.bit_length() - 1
            candidates ^= 1 << ell
            c = pair_low[ell * stride + i]
            if free_row[j] >> c & 1:
                free_row[j] ^= 1 << c
                free_col[c] ^= bit
                row_pairs[i] ^= 1 << ell
                pair, corner = ((i, ell), (c, ell)), (c, j)
                # grows the row-mate pair, which starts with its positive member
                reports.append((Shape.RECTANGLE_QUAD, pair + (neg, corner), (neg, corner)))
                if steps is not None:
                    steps.append(TraceStep(
                        neg, case, 2, (pair, (corner,)), pair + (neg, corner),
                        Shape.RECTANGLE_QUAD,
                    ))
                break
        else:
            raise LadderStuck(
                state.sigma, "K" if heavy else "J", neg,
                "no row mate, column mate, or rectangle completion applies",
            )
    return reports


def _ladder(
    ctx: PatternContext, target: str, trace: bool = True
) -> tuple[GoodPartition, Optional[ConstructionTrace]]:
    """Run the case ladder over K or J, row by row through :func:`_ladder_row`.

    Raises :class:`LadderStuck` on any gap.  The live groups are keyed by
    the position of their first member, so one sort on an int key orders
    the partition.  K alone has a trace, recorded when ``trace`` is true;
    otherwise the trace is ``None``.

    The result is not validated here; :func:`construct_eta`,
    :func:`eta_partition` and :func:`build_pi` validate it once.
    """
    heavy = target == "K"
    n = ctx.n
    rows, pos = ctx.rows(target)
    stable = ctx.stable
    state = _LadderState(n, ctx.sigma)
    steps: Optional[list[TraceStep]] = [] if heavy and trace else None
    # live groups keyed by their first member (i, j) as j * stride - i,
    # which ascends in construction order
    stride = n + 1
    groups: dict[int, tuple[Shape, tuple[Pair, ...]]] = {}
    for j in range(1, n + 1):
        for shape, members, _ in _ladder_row(state, j, rows[j], pos[j], stable[j], heavy, steps):
            i, first_row = members[0]
            groups[first_row * stride - i] = (shape, members)

    for j in range(1, n + 1):
        row = state.free_row[j]
        while row:
            low = row & -row
            i = low.bit_length() - 1
            groups[j * stride - i] = (Shape.POSITIVE_SINGLETON, ((i, j),))
            row ^= low

    ordered = tuple(PartitionGroup(*groups[key]) for key in sorted(groups))
    if not heavy:
        return GoodPartition(target, ordered, "greedy"), None
    part = GoodPartition(target, ordered, "ladder")
    if steps is None:
        return part, None
    return part, ConstructionTrace(tuple(steps), sum(s.operation == 3 for s in steps))


def _checked(ctx: PatternContext, part: GoodPartition) -> GoodPartition:
    """``part`` once it validates; :class:`LadderStuck` otherwise.

    A ladder partition that fails validation contradicts the construction's
    guarantee, so it counts as a stuck ladder.
    """
    report = validate_partition(ctx, part)
    if not report.ok:
        raise LadderStuck(ctx.sigma, part.target, None, "; ".join(report.violations))
    return part


def construct_eta(
    sigma: SignVector | PatternContext,
) -> tuple[GoodPartition, ConstructionTrace]:
    """Validated good partition of K and its trace.  Raises :class:`LadderStuck`."""
    ctx = _context(sigma)
    part, trace = _ladder(ctx, "K")
    return _checked(ctx, part), trace


def eta_partition(sigma: SignVector | PatternContext) -> GoodPartition:
    """Validated good partition of K, built without a trace.  Raises :class:`LadderStuck`."""
    ctx = _context(sigma)
    return _checked(ctx, _ladder(ctx, "K", trace=False)[0])


def build_pi(sigma: SignVector | PatternContext) -> GoodPartition:
    """Validated good partition of J from the ladder.  Raises :class:`LadderStuck`."""
    ctx = _context(sigma)
    return _checked(ctx, _ladder(ctx, "J")[0])


def search_partition(
    sigma: SignVector, target: str, heavy_budget: int
) -> Optional[GoodPartition]:
    """Backtracking oracle over all legal move instantiations.

    Negatives are absorbed in construction order; at each one every
    operation-1 mate (row then column), every rectangle completion, every
    triple completion and finally a heavy singleton (while budget remains)
    is branched on.  The first complete cover whose heavy-group count equals
    ``heavy_budget`` exactly is returned.  Patterns longer than
    ``MAX_SEARCH_N`` raise ``ValueError``.

    The move set reaches every admissible partition: within any group the
    negatives occupy strictly earlier positions than the pairs completing
    them (a rectangle's low negative precedes its high one, a triple's
    column negative precedes its row one), so each group can be assembled
    exactly as its members come up.  ``None`` is therefore a nonexistence
    result, not a search-horizon artifact.
    """
    if target not in ("J", "K"):
        raise ValueError(f"unknown partition target {target!r}")
    if len(sigma) > MAX_SEARCH_N:
        raise ValueError(
            f"the search handles patterns of length at most {MAX_SEARCH_N}, got {len(sigma)}"
        )
    signmap = pair_sign_maps(sigma)[0 if target == "J" else 1]
    allow_heavy = target == "K"
    if not allow_heavy and heavy_budget:
        raise ValueError("J partitions admit no heavy groups")

    negatives = sorted((p for p, s in signmap.items() if s < 0), key=pair_sort_key)
    pos_free: set[Pair] = {p for p, s in signmap.items() if s > 0}
    hpartner: dict[Pair, tuple[int, Pair]] = {}
    heavies_by_row: dict[int, list[tuple[int, Pair]]] = {}
    groups: dict[int, PartitionGroup] = {}
    total = len(negatives)
    state = {"next_gid": 0}
    solution: list[GoodPartition] = []

    def add_group(shape: Shape, members: tuple[Pair, ...]) -> int:
        gid = state["next_gid"]
        state["next_gid"] += 1
        groups[gid] = _sorted_group(shape, members)
        return gid

    def dfs(k: int, heavies: int) -> bool:
        if heavy_budget - heavies > total - k:
            return False  # not enough negatives left to reach the budget
        if k == total:
            if heavies != heavy_budget:
                return False
            final = list(groups.values())
            final.extend(
                PartitionGroup(Shape.POSITIVE_SINGLETON, (p,)) for p in pos_free
            )
            solution.append(_canonical_partition(target, final, "search"))
            return True
        i, j = negatives[k]
        neg = (i, j)

        for i2 in range(i + 1, j + 1):
            mate = (i2, j)
            if mate not in pos_free:
                continue
            pos_free.discard(mate)
            gid = add_group(Shape.MIXED_PAIR, (mate, neg))
            hpartner[mate] = (gid, neg)
            if dfs(k + 1, heavies):
                return True
            del hpartner[mate]
            del groups[gid]
            pos_free.add(mate)

        for j2 in range(j - 1, i - 1, -1):
            mate = (i, j2)
            if mate not in pos_free:
                continue
            pos_free.discard(mate)
            gid = add_group(Shape.MIXED_PAIR, (mate, neg))
            if dfs(k + 1, heavies):
                return True
            del groups[gid]
            pos_free.add(mate)

        for ell in range(j - 1, i - 1, -1):
            entry = hpartner.get((i, ell))
            if entry is None:
                continue
            gid_pair, low_neg = entry
            corner = (low_neg[0], j)
            if corner not in pos_free:
                continue
            pos_free.discard(corner)
            pair_group = groups.pop(gid_pair)
            del hpartner[(i, ell)]
            gid = add_group(Shape.RECTANGLE_QUAD, ((i, ell), low_neg, neg, corner))
            if dfs(k + 1, heavies):
                return True
            del groups[gid]
            hpartner[(i, ell)] = (gid_pair, low_neg)
            groups[gid_pair] = pair_group
            pos_free.add(corner)

        if allow_heavy and i > 1:
            row_list = heavies_by_row.get(i - 1, [])
            for pos_idx in range(len(row_list)):
                gid_low, low = row_list[pos_idx]
                if low[0] >= i:
                    continue
                top = (low[0], j)
                if top not in pos_free:
                    continue
                pos_free.discard(top)
                del groups[gid_low]
                row_list.pop(pos_idx)
                gid = add_group(Shape.L_TRIPLE, (low, top, neg))
                if dfs(k + 1, heavies):
                    return True
                del groups[gid]
                row_list.insert(pos_idx, (gid_low, low))
                groups[gid_low] = PartitionGroup(Shape.NEGATIVE_SINGLETON, (low,))
                pos_free.add(top)

        if allow_heavy and heavies < heavy_budget:
            gid = add_group(Shape.NEGATIVE_SINGLETON, (neg,))
            heavies_by_row.setdefault(j, []).append((gid, neg))
            if dfs(k + 1, heavies + 1):
                return True
            heavies_by_row[j].pop()
            del groups[gid]

        return False

    if dfs(0, 0):
        return solution[0]
    return None


def check_construction_invariants(
    sigma: SignVector | PatternContext, trace: ConstructionTrace
) -> list[str]:
    """Replay a ladder trace of a pattern or its context and test the claims behind it.

    Checked per step: the row tail beyond a first-failure negative balances
    positives against negatives exactly (cases 2 and 5); at a second
    failure on an unstable level the tail carries exactly two extra
    negatives (case 3); first-failure negatives never repeat a column; and
    the produced groups never connect a row to more than one lower and one
    higher row.  Violations come back as strings, empty means clean.

    Tail counts run over all pairs in the tail, canonical or not; the
    canonical-only tally is logged alongside whenever a count check fails.
    The surplus-2 claim is false under canonical-only counting (exhaustive
    for n <= 12), so all-pair counting is the primary convention.  Counts
    are popcounts of the context's bit rows masked to the tail.
    """
    issues: list[str] = []
    ctx = _context(sigma)
    minimal_cols: dict[int, Pair] = {}
    lower: dict[int, set[int]] = {}
    upper: dict[int, set[int]] = {}
    prev_key = None
    op3_seen = 0

    for idx, step in enumerate(trace.steps):
        i, j = step.negative
        key = pair_sort_key(step.negative)
        if prev_key is not None and key <= prev_key:
            issues.append(f"step {idx}: negatives out of construction order")
        prev_key = key
        if step.operation == 3:
            op3_seen += 1

        if step.case in (2, 3, 5):
            tail = (1 << (j + 1)) - (1 << (i + 1))  # pairs (i+1, j)..(j, j)
            k_p = (ctx.k_pos[j] & tail).bit_count()
            k_n = (ctx.k_rows[j] & tail).bit_count() - k_p
            pos_c = k_p + (ctx.j_pos[j] & tail).bit_count()
            neg_c = j - i - pos_c  # J and K split the tail's j - i pairs
            surplus = 2 if step.case == 3 else 0
            if neg_c != pos_c + surplus:
                issues.append(
                    f"step {idx}: tail of {step.negative} holds {neg_c} negative vs "
                    f"{pos_c} positive pairs, expected a surplus of {surplus} "
                    f"(canonical-only count {k_n}/{k_p})"
                )
        if step.case in (2, 5):
            if i in minimal_cols:
                issues.append(
                    f"step {idx}: first-failure negatives {minimal_cols[i]} and "
                    f"{step.negative} share column {i}"
                )
            minimal_cols[i] = step.negative

        rows = {p[1] for p in step.produced}
        if len(rows) > 2:
            issues.append(f"step {idx}: produced group spans rows {sorted(rows)}")
        elif len(rows) == 2:
            lo, hi = sorted(rows)
            lower.setdefault(hi, set()).add(lo)
            upper.setdefault(lo, set()).add(hi)
            if len(lower[hi]) > 1:
                issues.append(
                    f"step {idx}: row {hi} is connected to lower rows {sorted(lower[hi])}"
                )
            if len(upper[lo]) > 1:
                issues.append(
                    f"step {idx}: row {lo} is connected to higher rows {sorted(upper[lo])}"
                )

    if op3_seen != trace.op3_uses:
        issues.append(
            f"trace records {trace.op3_uses} heavy insertions but replays {op3_seen}"
        )
    return issues
