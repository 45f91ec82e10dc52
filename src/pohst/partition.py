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
level (operation 4).  ``build_eta`` runs the ladder over K;
``construct_eta`` and ``build_pi`` validate the ladder's partition of K and
J once and raise :class:`LadderStuck` when it is stuck or invalid: the
ladder is the only construction path.  ``search_partition``, the
independent backtracking oracle over the same move set, serves the tests
and the CLI's search modes only.  ``validate_partition`` checks any claimed
partition against the shape and count rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from pohst.signs import (
    Pair,
    SignVector,
    min_heavy_target,
    pair_sign_maps,
    pair_sort_key,
    stable_levels,
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
    a partition that fails validation (``negative`` is then ``None``)."""

    def __init__(self, sigma: SignVector, target: str, negative: Optional[Pair], reason: str):
        self.sigma = sigma
        self.target = target
        self.negative = negative
        self.reason = reason
        super().__init__(
            f"ladder stuck on {target} of {sigma.to_string()!r} at {negative}: {reason}"
        )


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


@dataclass(frozen=True)
class EtaBuild:
    """Outcome of the checked K construction; ``ladder_used`` is always true."""

    partition: GoodPartition
    trace: ConstructionTrace
    ladder_used: bool


def _sorted_group(shape: Shape, members: Iterable[Pair]) -> PartitionGroup:
    return PartitionGroup(shape, tuple(sorted(members, key=pair_sort_key)))


def _canonical_partition(
    target: str, groups: Iterable[PartitionGroup], method: str
) -> GoodPartition:
    ordered = tuple(
        sorted(groups, key=lambda g: pair_sort_key(g.members[0]))
    )
    return GoodPartition(target=target, groups=ordered, method=method)


def group_shape_violations(
    group: PartitionGroup, signmap: dict[Pair, int]
) -> list[str]:
    """Shape and sign rules for a single group, as human-readable findings."""
    out: list[str] = []
    members = group.members
    if len(set(members)) != len(members):
        out.append("repeated member")
        return out
    if len(members) != _MEMBER_COUNT[group.shape]:
        out.append(
            f"{group.shape.value} needs {_MEMBER_COUNT[group.shape]} members, has {len(members)}"
        )
        return out
    if any(p not in signmap for p in members):
        out.append("member outside the target set")
        return out
    signs = {p: signmap[p] for p in members}
    pos = [p for p in members if signs[p] > 0]
    neg = [p for p in members if signs[p] < 0]
    shape = group.shape
    if shape is Shape.POSITIVE_SINGLETON:
        if neg:
            out.append(f"singleton {members[0]} has negative product sign")
    elif shape is Shape.NEGATIVE_SINGLETON:
        if pos:
            out.append(f"singleton {members[0]} has positive product sign")
    elif shape is Shape.MIXED_PAIR:
        if len(pos) != 1:
            out.append("mixed pair needs one positive and one negative member")
        else:
            (pi, pj), (ni, nj) = pos[0], neg[0]
            if not ((ni <= pi and nj == pj) or (ni == pi and pj <= nj)):
                out.append(
                    f"negative {neg[0]} does not enclose positive {pos[0]} along a row or column"
                )
    elif shape is Shape.RECTANGLE_QUAD:
        cols = sorted({p[0] for p in members})
        rows = sorted({p[1] for p in members})
        if len(cols) != 2 or len(rows) != 2:
            out.append("rectangle needs two columns and two rows")
        elif set(members) != {(c, r) for c in cols for r in rows}:
            out.append("members do not fill the rectangle")
        else:
            a, b = cols
            u, v = rows
            want = {(b, u): 1, (a, u): -1, (b, v): -1, (a, v): 1}
            for p, w in want.items():
                if signs[p] != w:
                    out.append(f"rectangle corner {p} has sign {signs[p]}, wants {w}")
    elif shape is Shape.L_TRIPLE:
        if len(pos) != 1 or len(neg) != 2:
            out.append("L-triple needs one positive and two negative members")
        else:
            i, j = pos[0]
            row_mates = [p for p in neg if p[1] == j and p[0] > i]
            col_mates = [p for p in neg if p[0] == i and p[1] < j]
            if len(row_mates) != 1 or len(col_mates) != 1:
                out.append(
                    f"L-triple around {pos[0]} needs one row mate after it and one column mate below it"
                )
            elif col_mates[0][1] != row_mates[0][0] - 1:
                # elementary case 3 needs the column mate and the row mate to
                # split the positive pair's product exactly
                out.append(
                    f"L-triple column mate {col_mates[0]} does not end just before "
                    f"row mate {row_mates[0]} starts"
                )
    return out


def validate_partition(sigma: SignVector, part: GoodPartition) -> ValidationReport:
    """Check coverage, disjointness, shapes, signs and the heavy-group count.

    Violations are returned as data; nothing raises except out-of-range
    member pairs, which break the precondition.
    """
    if part.target not in ("J", "K"):
        raise ValueError(f"unknown partition target {part.target!r}")
    jmap, kmap = pair_sign_maps(sigma)
    signmap = jmap if part.target == "J" else kmap
    n = len(sigma)
    violations: list[str] = []
    seen: dict[Pair, int] = {}
    for idx, group in enumerate(part.groups):
        for p in group.members:
            i, j = p
            if not (1 <= i <= j <= n):
                raise IndexError(f"group {idx} member {p} out of range for n={n}")
            if p in seen:
                violations.append(
                    f"pair {p} appears in groups {seen[p]} and {idx}"
                )
            else:
                seen[p] = idx
            if p not in signmap:
                violations.append(
                    f"group {idx}: pair {p} is not in the {part.target} set"
                )
        for finding in group_shape_violations(group, signmap):
            violations.append(f"group {idx} ({group.shape.value}): {finding}")
        if part.target == "J" and group.shape in HEAVY_SHAPES:
            violations.append(
                f"group {idx}: {group.shape.value} is not admissible in a J partition"
            )
    missing = [p for p in signmap if p not in seen]
    if missing:
        missing.sort(key=pair_sort_key)
        violations.append(f"uncovered pairs: {missing}")
    if part.target == "K":
        want = min_heavy_target(sigma)
        if part.heavy_count != want:
            violations.append(
                f"heavy group count {part.heavy_count} differs from required {want}"
            )
    return ValidationReport(not violations, tuple(violations))


def _row_mate(pos_free: set[Pair], i: int, j: int) -> Optional[Pair]:
    # within a row the construction order descends in the start index, so
    # the maximal candidate is the one with the smallest start after i
    for i2 in range(i + 1, j + 1):
        if (i2, j) in pos_free:
            return (i2, j)
    return None


def _column_mate(pos_free: set[Pair], i: int, j: int) -> Optional[Pair]:
    for j2 in range(j - 1, i - 1, -1):
        if (i, j2) in pos_free:
            return (i, j2)
    return None


def _ladder(
    sigma: SignVector, target: str
) -> tuple[GoodPartition, Optional[ConstructionTrace]]:
    """Run the case ladder over K or J.  Raises :class:`LadderStuck` on any gap.

    Negatives are processed in construction order and both targets share the
    moves: a row mate, a column mate (operation 1) or a rectangle completed
    through a blocking horizontal pair (operation 2).  Only K has the heavy
    moves, and there the heavy budget takes care of itself: operation 3
    fires exactly at the first row failure on an unstable level, operation 4
    recycles one earlier heavy singleton at the first row failure on a
    stable level, and nothing else touches the count.  K alone gets case
    numbers and a trace; for J the trace is ``None``.

    The result is not validated here; :func:`construct_eta` and
    :func:`build_pi` validate it once.
    """
    heavy = target == "K"
    signmap = pair_sign_maps(sigma)[1 if heavy else 0]
    stable = stable_levels(sigma) if heavy else ()

    pos_free: set[Pair] = {p for p, s in signmap.items() if s > 0}
    # positive member of each live horizontal mixed pair -> (gid, negative member)
    hpartner: dict[Pair, tuple[int, Pair]] = {}
    # row -> (gid, pair) for the single live heavy singleton a row can hold
    heavy_in_row: dict[int, tuple[int, Pair]] = {}
    groups: dict[int, PartitionGroup] = {}
    next_gid = 0

    def add_group(shape: Shape, members: Iterable[Pair]) -> int:
        nonlocal next_gid
        gid = next_gid
        next_gid += 1
        groups[gid] = _sorted_group(shape, members)
        return gid

    # TraceStep fields, built into a trace for K only
    steps: list[tuple] = []
    failures: dict[int, int] = {}
    op3_uses = 0

    negatives = sorted((p for p, s in signmap.items() if s < 0), key=pair_sort_key)
    for neg in negatives:
        i, j = neg

        mate = _row_mate(pos_free, i, j)
        if mate is not None:
            pos_free.discard(mate)
            gid = add_group(Shape.MIXED_PAIR, (mate, neg))
            hpartner[mate] = (gid, neg)
            steps.append((neg, 1, 1, ((mate,),), groups[gid].members, Shape.MIXED_PAIR))
            continue

        case = 0
        if heavy:
            failures[j] = failures.get(j, 0) + 1
            if failures[j] == 1 and not stable[j]:
                gid = add_group(Shape.NEGATIVE_SINGLETON, (neg,))
                heavy_in_row[j] = (gid, neg)
                op3_uses += 1
                steps.append((neg, 2, 3, (), (neg,), Shape.NEGATIVE_SINGLETON))
                continue
            if failures[j] == 1:
                entry = heavy_in_row.get(i - 1)
                if entry is not None:
                    gid_low, low = entry
                    top = (low[0], j)
                    if low[0] < i and top in pos_free:
                        pos_free.discard(top)
                        del groups[gid_low]
                        del heavy_in_row[i - 1]
                        gid = add_group(Shape.L_TRIPLE, (low, top, neg))
                        members = groups[gid].members
                        steps.append((neg, 5, 4, ((low,), (top,)), members, Shape.L_TRIPLE))
                        continue
                raise LadderStuck(
                    sigma, target, neg, "no heavy singleton survives one row below the start"
                )
            case = 6 if stable[j] else (3 if failures[j] == 2 else 4)

        mate = _column_mate(pos_free, i, j)
        if mate is not None:
            pos_free.discard(mate)
            gid = add_group(Shape.MIXED_PAIR, (mate, neg))
            steps.append((neg, case, 1, ((mate,),), groups[gid].members, Shape.MIXED_PAIR))
            continue

        completed = False
        for ell in range(j - 1, i - 1, -1):
            entry = hpartner.get((i, ell))
            if entry is None:
                continue
            gid_pair, low_neg = entry
            corner = (low_neg[0], j)
            if corner in pos_free:
                pos_free.discard(corner)
                consumed = (groups[gid_pair].members, (corner,))
                del groups[gid_pair]
                del hpartner[(i, ell)]
                gid = add_group(Shape.RECTANGLE_QUAD, ((i, ell), low_neg, neg, corner))
                steps.append((neg, case, 2, consumed, groups[gid].members, Shape.RECTANGLE_QUAD))
                completed = True
                break
        if completed:
            continue
        raise LadderStuck(
            sigma, target, neg, "no row mate, column mate, or rectangle completion applies"
        )

    for p in pos_free:
        add_group(Shape.POSITIVE_SINGLETON, (p,))

    if not heavy:
        return _canonical_partition(target, groups.values(), "greedy"), None
    trace = ConstructionTrace(tuple(TraceStep(*step) for step in steps), op3_uses)
    return _canonical_partition(target, groups.values(), "ladder"), trace


def build_eta(sigma: SignVector) -> tuple[GoodPartition, ConstructionTrace]:
    """The case ladder over K, unvalidated.  Raises :class:`LadderStuck` on any gap."""
    return _ladder(sigma, "K")


def _validated(
    sigma: SignVector, target: str
) -> tuple[GoodPartition, Optional[ConstructionTrace]]:
    """The ladder's partition of ``target``, validated once.

    Raises :class:`LadderStuck` when the ladder leaves a gap or its partition
    fails validation: either contradicts the construction's guarantee.
    """
    # K goes through build_eta, the K ladder's public (and profiled) name
    part, trace = build_eta(sigma) if target == "K" else _ladder(sigma, target)
    report = validate_partition(sigma, part)
    if not report.ok:
        raise LadderStuck(sigma, target, None, "; ".join(report.violations))
    return part, trace


def construct_eta(sigma: SignVector) -> EtaBuild:
    """Validated good partition of K from the ladder.  Raises :class:`LadderStuck`."""
    part, trace = _validated(sigma, "K")
    return EtaBuild(part, trace, True)


def build_pi(sigma: SignVector) -> GoodPartition:
    """Validated good partition of J from the ladder.  Raises :class:`LadderStuck`."""
    return _validated(sigma, "J")[0]


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


def _tail_counts(signmap: dict[Pair, int], i: int, j: int) -> tuple[int, int]:
    """(negatives, positives) among the tail ``(i+1, j)..(j, j)`` of a row."""
    neg = pos = 0
    for i2 in range(i + 1, j + 1):
        s = signmap.get((i2, j))
        if s is None:
            continue
        if s < 0:
            neg += 1
        else:
            pos += 1
    return neg, pos


def check_construction_invariants(
    sigma: SignVector, trace: ConstructionTrace
) -> list[str]:
    """Replay a ladder trace and test the structural claims behind it.

    Checked per step: the row tail beyond a first-failure negative balances
    positives against negatives exactly (cases 2 and 5); at a second
    failure on an unstable level the tail carries exactly two extra
    negatives (case 3); first-failure negatives never repeat a column; and
    the produced groups never connect a row to more than one lower and one
    higher row.  Violations come back as strings, empty means clean.

    Tail counts run over all pairs in the tail, canonical or not; the
    canonical-only tally is logged alongside whenever a count check fails.
    The surplus-2 claim is false under canonical-only counting (exhaustive
    for n <= 12), so all-pair counting is the primary convention.
    """
    issues: list[str] = []
    jmap, kmap = pair_sign_maps(sigma)
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
            k_n, k_p = _tail_counts(kmap, i, j)
            j_n, j_p = _tail_counts(jmap, i, j)
            neg_c, pos_c = k_n + j_n, k_p + j_p
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
