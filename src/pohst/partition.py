"""Good-partition construction and validation.

The canonical set K and the non-canonical set J of a sign pattern are
decomposed into groups of five admissible shapes.  Each shape is stated
once, on its :class:`Shape` member: by the product signs of its members in
construction order (rows ascend, and within a row the starts descend), by
whether it is heavy, and by K's move that reports it; the shape rule adds
the members that its first member ``(c2, r1)`` and its last member
``(c1, r2)`` fix.  The first member is the argument a of an elementary
case and the last the product of all its arguments, so the ranges
b = ``(r1 + 1, r2)`` or ``(c1, c2 - 1)`` and c = ``(r1 + 1, r2)`` are the
other arguments:

* ``PositiveSingleton`` ``(+)`` -- one pair; a >= 0 bounds its factor by 1;
* ``NegativeSingleton`` ``(-)`` -- one pair, elementary case 1;
* ``MixedPair`` ``(+, -)`` -- first and last share exactly one column or
  one row, case 2;
* ``LTriple`` ``(-, -, +)`` -- ``(c, r1), (r1 + 1, r2), (c, r2)``, case 3;
* ``RectangleQuad`` ``(+, -, -, +)`` -- ``(c2, r1), (c1, r1), (c2, r2),
  (c1, r2)``, case 4.

The two heavy shapes, cases 1 and 3, bound their factor product by 2
rather than 1, and a good partition of K must contain exactly
``min(alpha + 1, beta)`` of them.  J admits the other three shapes only.
One shape rule, ``_shape_findings``, holds a group's members, taken in
construction order, to its geometry and its sign tuple: each shape unpacks
its members and tests their bits in ``rows & pos`` and ``rows & ~pos``,
building nothing, and only a mismatch has findings worded; the validator,
which sorts each group once, and the sweep walk's row check share it.

One deterministic case ladder builds both partitions: negatives are
absorbed in construction order, each one either mated to a free positive
singleton in its row tail (operation 1), mated down its column (operation
1) or completed into a rectangle through a blocking horizontal pair
(operation 2).  Only K has the heavy moves, tried at the first row failure
on a level before the column mate: the negative is parked as a heavy
singleton on an unstable level (operation 3), or folded into an L-triple
with the surviving heavy singleton one row below its start on a stable
level (operation 4).  One row step, ``_ladder_row``, holds every move and
only moves: it absorbs the negatives of one row into an explicit state
(free bit rows, live row-mate pairs, heavy starts) and reports
each group it forms or grows.  ``_prefix_walk`` runs it for K and J once
per node of a walk over the sign prefixes of its patterns through
``_checked_row``, which with ``_checked_leaf`` checks what
``validate_partition`` checks: each new member must be among the pairs
that no group holds yet and leaves them, a growth must repeat the live
group it grows, and a leaf tiles when its free pairs are the pairs left.
The sweep and the pattern entries of :mod:`pohst.certify` read its
leaves; ``construct_eta``, ``eta_partition`` and ``build_pi`` read the one
leaf of a walk over their pattern alone, so a fault in either target
raises :class:`LadderStuck` naming the pattern and that target, and
``construct_eta`` alone has ``_trace`` read K's trace off the leaf's row
reports.  ``search_partition``, the independent oracle over the same move
set, serves the tests and the CLI's search modes; like the ladder, it
keeps its live groups in one dict keyed by first member.
``validate_partition`` checks any claimed partition against the shape and
count rules.

The ladder, the search and the validator work on the bit rows of a
:class:`~pohst.signs.PatternContext` (bit i of row j is pair (i, j)): mates
are found by bit scans along a row or down a column, every group's members
come out already in construction order, so the partition needs one sort on
an int key and no per-group sort, and the validator checks membership,
signs, disjointness and coverage by bit tests.  ``construct_eta``,
``eta_partition``, ``build_pi``, ``validate_partition`` and
``check_construction_invariants`` take a context or a
:class:`~pohst.signs.SignVector`, so a caller builds one context per
pattern and hands it to all of them.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from pohst.signs import (
    Pair,
    PatternContext,
    SignVector,
    pair_sort_key,
)


class Shape(enum.Enum):
    """An admissible group shape; ``value`` is its JSON name.

    ``signs`` are the product signs of its members in construction order
    and ``states`` the member states that ``_shape_findings`` words its
    findings by (2 for a positive pair, 1 for a negative one).  ``heavy``
    marks the two shapes whose factor product is bounded by 2.  ``move`` is
    K's operation that reports the shape and the negative's position among
    its members, ``None`` for the positive singleton, which no move reports.
    """

    POSITIVE_SINGLETON = "PositiveSingleton", (1,), False, None
    MIXED_PAIR = "MixedPair", (1, -1), False, (1, 1)
    RECTANGLE_QUAD = "RectangleQuad", (1, -1, -1, 1), False, (2, 2)
    NEGATIVE_SINGLETON = "NegativeSingleton", (-1,), True, (3, 0)
    L_TRIPLE = "LTriple", (-1, -1, 1), True, (4, 1)

    def __new__(
        cls, value: str, signs: tuple[int, ...], heavy: bool, move: Optional[tuple[int, int]]
    ) -> "Shape":
        member = object.__new__(cls)
        member._value_ = value
        member.signs = signs
        member.states = tuple(2 if sign > 0 else 1 for sign in signs)
        member.heavy = heavy
        member.move = move
        return member


# the members the hot paths compare against: on CPython 3.11 each read of
# an Enum class attribute costs about as much as a short function call
_POSITIVE_SINGLETON, _MIXED_PAIR, _RECTANGLE_QUAD = (
    Shape.POSITIVE_SINGLETON, Shape.MIXED_PAIR, Shape.RECTANGLE_QUAD)
_NEGATIVE_SINGLETON, _L_TRIPLE = Shape.NEGATIVE_SINGLETON, Shape.L_TRIPLE

# search_partition recurses once per negative pair: at most 600 at this
# length (the all-minus pattern, ceil(49/2) * floor(49/2), all in K), well
# inside the interpreter's default recursion limit of 1000
MAX_SEARCH_N = 48


class LadderStuck(RuntimeError):
    """The case ladder left a negative pair of ``target`` unabsorbed, or a
    walk's check of ``target`` failed (``negative`` is then ``None``).

    The row step and the checks raise it with ``sigma`` ``None``, on a sign
    prefix; whoever reads a flagged leaf raises it again naming the pattern.
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
        return sum(1 for g in self.groups if g.shape.heavy)

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


# a row step's report: shape, members in construction order, new members
_Report = tuple[Shape, tuple[Pair, ...], tuple[Pair, ...]]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def _context(sigma: SignVector | PatternContext) -> PatternContext:
    return sigma if isinstance(sigma, PatternContext) else PatternContext(sigma)


def _shape_findings(
    shape: Shape, members: tuple[Pair, ...], rows: Sequence[int], pos: Sequence[int]
) -> list[str]:
    """Shape and sign rules for one group, as human-readable findings.

    Taken in construction order, not sorted, the members must be the ones
    their first and last fix, which also rules out repeated members and a
    wrong count, and their states on the bit rows ``rows`` and positive bit
    rows ``pos`` of the target set must be ``shape.states``.  A member's
    state is 2 for a positive pair of the target set, 1 for a negative one
    and 0 for a pair outside it.  Each shape unpacks its members and tests
    its geometry, then their states as bits of ``rows & pos`` (2) and
    ``rows & ~pos`` (1); only a mismatch has findings worded.
    """
    fits = False
    if shape is _MIXED_PAIR and len(members) == 2:
        (c2, r1), (c1, r2) = members
        fits = (c1 == c2) != (r1 == r2)
        if fits and (rows[r1] & pos[r1]) >> c2 & (rows[r2] & ~pos[r2]) >> c1 & 1:
            return []
    elif shape is _RECTANGLE_QUAD and len(members) == 4:
        (c2, r1), (c1, r), (c, r2), (i, j) = members
        fits = r == r1 and c == c2 and i == c1 and j == r2 and c1 < c2 and r1 < r2
        if fits and (rows[r1] & pos[r1]) >> c2 & (rows[r1] & ~pos[r1]) >> c1 \
                & (rows[r2] & ~pos[r2]) >> c2 & (rows[r2] & pos[r2]) >> c1 & 1:
            return []
    elif shape is _L_TRIPLE and len(members) == 3:
        (c2, r1), (c, r), (c1, r2) = members
        fits = c1 == c2 and c == r1 + 1 and r == r2
        if fits and (rows[r1] & ~pos[r1]) >> c2 & (rows[r2] & ~pos[r2]) >> c \
                & (rows[r2] & pos[r2]) >> c1 & 1:
            return []
    elif len(members) == len(shape.states) == 1:
        fits = True
        (i, j), = members
        if ((pos[j] if shape is _POSITIVE_SINGLETON else ~pos[j]) & rows[j]) >> i & 1:
            return []
    if not fits:
        return [f"members {members} do not match the shape's geometry"]
    findings = []
    for (i, j), want in zip(members, shape.states):
        state = (rows[j] >> i & 1) + (pos[j] >> i & 1)
        if not state:
            findings.append(f"member {(i, j)} lies outside the target set")
        elif state != want:
            findings.append(
                f"member {(i, j)} has {'negative' if want == 2 else 'positive'} product sign"
            )
    return findings


def validate_partition(
    sigma: SignVector | PatternContext, part: GoodPartition
) -> ValidationReport:
    """Check coverage, disjointness, shapes, signs and the heavy-group count.

    Every group, its members sorted into construction order once, is held
    to the shape rule on the bit rows of the pattern's context, which alone
    reports a member outside the target set.
    Violations are returned as data; nothing raises except out-of-range
    member pairs, which break the precondition.
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
        ordered = tuple(sorted(members, key=pair_sort_key))
        for finding in _shape_findings(group.shape, ordered, rows, pos):
            violations.append(f"group {idx} ({group.shape.value}): {finding}")
        if group.shape.heavy:
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

    The free positive pairs live in the bit rows alone: bit i of
    ``free_row[j]``.  Bit ell of ``row_pairs[i]`` marks (i, ell) as the
    positive member of a live row-mate pair, which a rectangle may still
    complete; ``row_mates[ell * (ell - 1) // 2 + i - 1]``, one slot per
    pair of the triangle, holds that pair's members, the tuple the rectangle
    grows.  ``heavy_start[j]`` is the start of row j's live heavy singleton
    (at most one), 0 if none.  The checks keep the pairs of the target set
    that no group holds yet in ``unseen``, the grown groups with first member
    (i, j) in bit ``j * j + i`` of ``grown``, the heavy groups formed in
    ``heavy_formed``, and in ``untiled`` whether a row left a negative unseen.
    """

    __slots__ = ("free_row", "row_pairs", "row_mates", "heavy_start",
                 "unseen", "grown", "heavy_formed", "untiled")

    def __init__(self, n: int) -> None:
        self.free_row = [0] * (n + 1)
        self.row_pairs = [0] * (n + 1)
        self.row_mates = [None] * (n * (n + 1) // 2)
        self.heavy_start = [0] * (n + 1)
        self.unseen = [0] * (n + 1)
        self.grown = 0
        self.heavy_formed, self.untiled = 0, False

    def copy(self) -> "_LadderState":
        """A state that rows past the current one may change independently.

        ``row_mates`` is shared: row j writes only its own entries, read
        later through ``row_pairs`` bits set on the same path, so sibling
        branches of a walk and the states of K and J may share one table.
        """
        other = _LadderState.__new__(_LadderState)
        other.free_row = self.free_row[:]
        other.row_pairs = self.row_pairs[:]
        other.row_mates = self.row_mates
        other.heavy_start = self.heavy_start[:]
        other.unseen = self.unseen[:]
        other.grown = self.grown
        other.heavy_formed, other.untiled = self.heavy_formed, self.untiled
        return other


def _ladder_row(
    state: _LadderState,
    j: int,
    row: int,
    pos: int,
    stable: bool,
    heavy: bool,
) -> list[_Report]:
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
    first free bit i in rows j - 1 down to i.  Every group formed or grown
    is reported as ``(shape, members, new members)``, members in
    construction order; a grown group keeps its first member.  Each
    negative gets one report, so the reports are also all :func:`_trace`
    reads to number K's cases.
    Raises :class:`LadderStuck` when a negative has no move.
    """
    free_row, row_pairs = state.free_row, state.row_pairs
    row_mates, heavy_start = state.row_mates, state.heavy_start
    base = j * (j - 1) // 2 - 1  # pair (i, j) takes row_mates[base + i]
    bit = 1 << j
    below_j = bit - 1
    free = pos  # free_row[j], stored when the row is done
    reports = []
    negatives = row & ~pos
    failures = 0
    while negatives:
        i = negatives.bit_length() - 1
        negatives ^= 1 << i
        neg = (i, j)

        above = free >> (i + 1) << (i + 1)
        if above:
            i2 = (above & -above).bit_length() - 1
            free ^= 1 << i2
            row_pairs[i2] |= bit
            members = ((i2, j), neg)
            row_mates[base + i2] = members
            reports.append((_MIXED_PAIR, members, members))
            continue

        if heavy:
            failures += 1
            if failures == 1 and not stable:
                heavy_start[j] = i
                members = (neg,)
                reports.append((_NEGATIVE_SINGLETON, members, members))
                continue
            if failures == 1:
                ell = heavy_start[i - 1]
                if ell and free >> ell & 1:
                    free ^= 1 << ell
                    heavy_start[i - 1] = 0
                    low, top = (ell, i - 1), (ell, j)
                    # grows the heavy singleton (ell, i - 1)
                    reports.append((_L_TRIPLE, (low, neg, top), (neg, top)))
                    continue
                raise LadderStuck(
                    None, "K", neg,
                    "no heavy singleton survives one row below the start",
                )

        j2 = j - 1
        while j2 >= i and not free_row[j2] >> i & 1:
            j2 -= 1
        if j2 >= i:
            free_row[j2] ^= 1 << i
            members = ((i, j2), neg)
            reports.append((_MIXED_PAIR, members, members))
            continue

        candidates = row_pairs[i] & below_j
        while candidates:
            ell = candidates.bit_length() - 1
            candidates ^= 1 << ell
            pair = row_mates[ell * (ell - 1) // 2 + i - 1]
            c = pair[1][0]
            if free >> c & 1:
                free ^= 1 << c
                row_pairs[i] ^= 1 << ell
                corner = (c, j)
                # grows the row-mate pair, which starts with its positive member
                reports.append((_RECTANGLE_QUAD, pair + (neg, corner), (neg, corner)))
                break
        else:
            raise LadderStuck(
                None, "K" if heavy else "J", neg,
                "no row mate, column mate, or rectangle completion applies",
            )
    free_row[j] = free
    return reports


def _checked_row(state: _LadderState, j: int, stable: bool, target: str,
                 rows: list[int], pos: list[int], path: list[list[_Report]]) -> None:
    """Row ``j`` of a walk's ladder, its reports put in the per-depth list
    ``path`` and held to the shape rule on the bit rows ``rows`` and ``pos``;
    raises :class:`LadderStuck` on a gap or a finding.  A report whose new
    members are not its members, the one tuple, grows the live group with its
    first member, formed in ``path`` on that member's row, and must repeat
    its members; the group is then grown, and grows no more.  New members
    must be ``unseen`` and leave it; only formed groups count as heavy."""
    unseen, grown, heavy_formed = state.unseen, state.grown, state.heavy_formed
    unseen[j] = rows[j]
    path[j] = reports = _ladder_row(state, j, rows[j], pos[j], stable, target == "K")
    for shape, members, new in reports:
        findings = _shape_findings(shape, members, rows, pos)
        if findings:
            raise LadderStuck(None, target, None, findings[0])
        if new is not members:
            i, row = first = members[0]
            bit = 1 << row * row + i
            made = None
            if row < j and not grown & bit:
                # without a match, ``made`` is None or another group
                for _, made, _ in path[row]:
                    if made[0] == first:
                        break
            if made is None or made + new != members:
                raise LadderStuck(None, target, None, f"no live group starts at {first}")
            grown |= bit
        elif shape.heavy:
            heavy_formed += 1
        for i, row in new:
            left = unseen[row]
            if not left >> i & 1:
                raise LadderStuck(None, target, None, f"pair {(i, row)} taken twice")
            unseen[row] = left ^ 1 << i
    state.grown, state.heavy_formed = grown, heavy_formed
    if unseen[j] & ~pos[j]:
        state.untiled = True


def _checked_leaf(state: _LadderState, target: str, heavy: int) -> None:
    """Raise :class:`LadderStuck` unless a walk's leaf formed ``heavy`` heavy
    groups and its groups and positive free pairs tile the target set: the
    groups hold each pair of ``rows & ~unseen`` once and ``unseen`` shrinks
    only in ``pos`` once its row is done, unless ``untiled``."""
    if state.heavy_formed != heavy:
        raise LadderStuck(None, target, None, f"{state.heavy_formed} heavy groups")
    if state.untiled or state.free_row != state.unseen:
        raise LadderStuck(None, target, None, "groups and free pairs do not tile")


def _prefix_walk(n: int, keys: Sequence[int], walked: Optional[Sequence] = None) -> Iterator:
    """The walk over the sign prefixes of the ascending ``keys``.  Given
    ``walked``, a ``(3, len(keys))`` int16 array, leaf ``s`` writes its
    heavy count, |K| and target into column ``s`` and yields nothing; else
    the leaves yield, in key order, the heavy target, the ordered groups of
    K and of J (:func:`_ordered_groups`) and K's row reports (the walk's own
    per-depth list, index 0 empty, good until the walk goes on), or their
    :class:`LadderStuck`.

    A pattern's key is its index bit-reversed over ``n`` bits, so sign 1 is
    the top key bit and the patterns below any sign prefix hold one
    contiguous run of ``keys``.  The walk goes depth first over the sign
    prefixes whose run is not empty: row j of the context and of both
    ladders depends on ``sigma_1..sigma_j`` only, so each node builds its
    row once for every requested pattern below it.  A node splits its run
    with one bisection, or at the midpoint when the run holds all
    ``2**(n - j)`` patterns below it.  The rows and the row step's reports
    live in per-depth arrays along the path; a node copies only the ladder
    states, and its last child takes over the parent's copies.  Pending
    nodes wait on an explicit stack, not in nested calls: CPython 3.11 keeps
    frames in 16 KiB chunks and maps a fresh chunk each time a call crosses
    a chunk's end, and a walk recursing ``n`` frames deep kept crossing one
    (27 million page faults and 164 s of system time in the workers of one
    ``sweep 21 --jobs 2`` on a 2-vCPU x86 host).

    :func:`_checked_row` checks each node's rows and :func:`_checked_leaf`
    each leaf, as ``validate_partition`` checks a partition.  Either raises
    ``LadderStuck``, which flags every pattern below the node: it is their
    leaf, or their heavy = -1 in ``walked``.  |J| is not counted: J and K
    split the ``n(n+1)/2`` pairs of the triangle.  A leaf's groups are its
    path's reports, keyed by first member as in :func:`search_partition`,
    and its positive free pairs; each has passed the checks, which let a
    report replace only the live group it grows, so they need no
    ``validate_partition``.
    """
    if walked is not None:
        heavy_out, k_out, target_out = walked
    next_row = PatternContext.next_row
    k_rows, k_pos, j_rows, j_pos = ([0] * (n + 1) for _ in range(4))
    k_reports, j_reports = [[]] * (n + 1), [[]] * (n + 1)
    k_root = _LadderState(n)

    # one entry per node still to visit: row j, its sign s, the run
    # keys[lo:hi] below its prefix ``key`` and its parent's state, which the
    # last child takes over; a flagged path has k_state None, j_state its LadderStuck
    stack = [(0, 0, 0, len(keys), 0, PatternContext.ROOT, k_root, k_root.copy(), 0, True)]
    while stack:
        j, s, lo, hi, key, state, k_state, j_state, k_size, last = stack.pop()
        if j:  # the root has no row
            state, stable, k, kp, jr, jp = next_row(j, s, state)
            k_rows[j], k_pos[j], j_rows[j], j_pos[j] = k, kp, jr, jp
            k_size += k.bit_count()
            if k_state is not None:
                if not last:
                    k_state, j_state = k_state.copy(), j_state.copy()
                try:
                    _checked_row(k_state, j, stable, "K", k_rows, k_pos, k_reports)
                    _checked_row(j_state, j, stable, "J", j_rows, j_pos, j_reports)
                except LadderStuck as stuck:
                    k_state, j_state = None, stuck
        if j == n:
            p = state[3]
            target = min(p, n + 1 - p)
            if k_state is not None:
                try:
                    _checked_leaf(k_state, "K", target)
                    _checked_leaf(j_state, "J", 0)
                except LadderStuck as stuck:
                    k_state, j_state = None, stuck
            if walked is None:
                leaf = j_state if k_state is None else (
                    target, _ordered_groups(k_reports, k_state.free_row),
                    _ordered_groups(j_reports, j_state.free_row), k_reports)
                if not stack:  # the last leaf: free the ladder states and their row-mate table
                    k_root = k_state = j_state = None
                yield leaf
                continue
            heavy_out[lo] = -1 if k_state is None else target
            k_out[lo] = k_size
            target_out[lo] = target
            continue
        half = 1 << (n - 1 - j)  # the key bit of sign j + 1
        mid = lo + half if hi - lo == half << 1 else bisect.bisect_left(keys, key | half, lo, hi)
        # the + child goes on top, so it copies the state before the - child
        # takes it over, and leaves come in key order
        if mid < hi:
            stack.append((j + 1, -1, mid, hi, key | half, state, k_state, j_state, k_size, True))
        if lo < mid:
            stack.append((j + 1, 1, lo, mid, key, state, k_state, j_state, k_size, mid == hi))


def _ordered_groups(reports: Iterable[Iterable[tuple]], free_row: list[int]) -> list[tuple]:
    """The records of the groups that the row step's ``reports``, or records
    that start with ``(shape, members)``, and the positive singletons in the
    bit rows ``free_row`` leave, in construction order, each singleton as a
    new group's report.  Keyed by first member (i, j) as
    ``j * len(free_row) - i``, a grown group replaces its earlier record."""
    stride = len(free_row)
    groups = {}
    for row in reports:
        for report in row:
            i, j = report[1][0]
            groups[j * stride - i] = report
    for j, row in enumerate(free_row):
        while row:
            low = row & -row
            i = low.bit_length() - 1
            members = ((i, j),)
            groups[j * stride - i] = (_POSITIVE_SINGLETON, members, members)
            row ^= low
    return [groups[key] for key in sorted(groups)]


def _trace(ctx: PatternContext, reports: list[list[_Report]]) -> ConstructionTrace:
    """K's trace, read off the walk's row reports on ``ctx``, one list per depth.

    The shape fixes the operation and the negative's place (``shape.move``);
    the members before and after it are what the move consumed.  A mixed
    pair starting in the negative's row is its row mate, case 1; any other
    report is a row failure: case 2 for operation 3, case 5 for operation
    4, else case 6 on a stable level, case 3 at the second failure, 4 later.
    """
    steps = []
    for j, row in enumerate(reports):
        failures = 0
        for shape, members, _ in row:
            operation, at = shape.move
            if shape is _MIXED_PAIR and members[0][1] == j:
                case = 1
            else:
                failures += 1
                if operation > 2:
                    case = 2 if operation == 3 else 5
                else:
                    case = 6 if ctx.stable[j] else (3 if failures == 2 else 4)
            consumed = tuple(part for part in (members[:at], members[at + 1:]) if part)
            steps.append(TraceStep(members[at], case, operation, consumed, members, shape))
    return ConstructionTrace(tuple(steps), sum(s.operation == 3 for s in steps))


def _walk_one(ctx: PatternContext, target: str) -> tuple[GoodPartition, list[list[_Report]]]:
    """The good partition of ``target``, K or J, and K's row reports, from
    the one leaf of a walk over the pattern of ``ctx`` alone, keyed by its
    code with the bits reversed.  The walk builds and checks both targets,
    so a fault in either raises :class:`LadderStuck` naming the pattern."""
    n = ctx.n
    key = sum(1 << n - j for j, s in enumerate(ctx.sigma.entries, 1) if s < 0)
    leaf = next(_prefix_walk(n, [key]))
    if isinstance(leaf, LadderStuck):
        raise LadderStuck(ctx.sigma, leaf.target, leaf.negative, leaf.reason)
    _, k_groups, j_groups, k_reports = leaf
    heavy = target == "K"
    groups = tuple(PartitionGroup(shape, members)
                   for shape, members, _ in (k_groups if heavy else j_groups))
    return GoodPartition(target, groups, "ladder" if heavy else "greedy"), k_reports


def construct_eta(
    sigma: SignVector | PatternContext,
) -> tuple[GoodPartition, ConstructionTrace]:
    """Checked good partition of K, then its trace.  One walk builds K and J:
    a fault in either raises :class:`LadderStuck` naming pattern and target."""
    ctx = _context(sigma)
    part, reports = _walk_one(ctx, "K")
    return part, _trace(ctx, reports)


def eta_partition(sigma: SignVector | PatternContext) -> GoodPartition:
    """Checked good partition of K, without a trace.  One walk builds K and J:
    a fault in either raises :class:`LadderStuck` naming pattern and target."""
    return _walk_one(_context(sigma), "K")[0]


def build_pi(sigma: SignVector | PatternContext) -> GoodPartition:
    """Checked good partition of J.  One walk builds K and J: a fault in
    either raises :class:`LadderStuck` naming pattern and target."""
    return _walk_one(_context(sigma), "J")[0]


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

    The free pairs are the context's bit rows and the live groups one dict
    keyed by first member, a key that a grown rectangle or triple keeps.

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
    if target == "J" and heavy_budget:
        raise ValueError("J partitions admit no heavy groups")
    rows, pos = PatternContext(sigma).rows(target)
    stride = len(rows)  # (i, j) is keyed j * stride - i, as in _ordered_groups
    negatives = [(i, j) for j in range(stride) for i in range(j, 0, -1)
                 if (rows[j] & ~pos[j]) >> i & 1]
    free = list(pos)
    total = len(negatives)
    groups: dict[int, tuple[Shape, tuple[Pair, ...]]] = {}

    def moves(neg: Pair, heavies: int) -> Iterator[tuple[int, tuple, int, int]]:
        """Per move for ``neg``, in branch order: its key, group, row and bit taken."""
        i, j = neg
        for i2 in range(i + 1, j + 1):
            if free[j] >> i2 & 1:
                yield j * stride - i2, (_MIXED_PAIR, ((i2, j), neg)), j, 1 << i2
        for j2 in range(j - 1, i - 1, -1):
            if free[j2] >> i & 1:
                yield j2 * stride - i, (_MIXED_PAIR, ((i, j2), neg)), j2, 1 << i
        for ell in range(j - 1, i - 1, -1):
            shape, members = groups.get(ell * stride - i, (None, ()))
            if shape is _MIXED_PAIR and members[1][1] == ell:
                c = members[1][0]
                if free[j] >> c & 1:
                    grown = members + (neg, (c, j))
                    yield ell * stride - i, (_RECTANGLE_QUAD, grown), j, 1 << c
        for c in range(i - 1, 0, -1):
            shape, members = groups.get((i - 1) * stride - c, (None, ()))
            if shape is _NEGATIVE_SINGLETON and free[j] >> c & 1:
                grown = members + (neg, (c, j))
                yield (i - 1) * stride - c, (_L_TRIPLE, grown), j, 1 << c
        if heavies < heavy_budget:
            yield j * stride - i, (_NEGATIVE_SINGLETON, (neg,)), j, 0

    def dfs(k: int, heavies: int) -> bool:
        if heavy_budget - heavies > total - k:
            return False  # not enough negatives left to reach the budget
        if k == total:
            return heavies == heavy_budget
        for key, group, row, bit in moves(negatives[k], heavies):
            replaced = groups.get(key)  # the group a rectangle or triple grows
            groups[key] = group
            free[row] ^= bit
            # only a new heavy singleton adds a heavy group
            if dfs(k + 1, heavies + (group[0] is _NEGATIVE_SINGLETON)):
                return True
            free[row] ^= bit
            if replaced:
                groups[key] = replaced
            else:
                del groups[key]
        return False

    if not dfs(0, 0):
        return None
    ordered = _ordered_groups([groups.values()], free)
    return GoodPartition(target, tuple(PartitionGroup(*group[:2]) for group in ordered), "search")


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
