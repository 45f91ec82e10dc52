"""Sweeps, sharpness probing and the product identities.

``sweep`` grinds through sign patterns (exhaustively up to a configurable
cap, by deterministic subsample beyond it) and emits one record per
pattern: set sizes, the constructed heavy count, the required count,
whether the ladder succeeded and whether everything validated.  Every
sweep is one depth-first walk over the sign prefixes of its patterns:
row j of the context and of both ladders reads only the first j signs, so
each node runs the shared ladder row step once for every requested
pattern below it, and the checks of its rows and leaves live beside
``validate_partition`` in :mod:`pohst.partition`.  The walk enters only
the prefixes that lead to a requested pattern, so a sampled sweep takes
the same path as an exhaustive one.  ``sweep_one``, one context and
both validated constructions per pattern, is the walk's reference.

``maximize_f`` is a multi-start projected coordinate ascent over the
sign-respecting box ``x_i in [delta, 1]`` or ``[-1, -delta]``.  Some optima
are suprema approached as a coordinate shrinks to the magnitude floor, so
results report the best value found and never claim attainment.  Every
probe is checked live against the certified bound for its pattern.

``identity_residual`` and ``iterated_identity_residual`` evaluate both
sides of the leave-one-out and leave-two-out product identities
independently and report the relative difference, falling back to
log-space accumulation when a side leaves the comfortable double range.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from pohst.signs import PatternContext, SignVector, min_heavy_target
from pohst.partition import (
    LadderStuck, _checked_leaf, _checked_row, _LadderState, build_pi, eta_partition)
from pohst.certify import (
    DEFAULT_TOLERANCE, RealVectorY, factor_matrix, group_bound, pair_factor_table,
    partitions_for)

MAX_SWEEP_N = 24
MAX_SOUNDNESS_N = 63  # pattern codes are int64 bit masks
DEFAULT_EXHAUSTIVE_CAP = 2 ** 20
# parallel sweeps split their sorted keys into this many equal runs: for an
# exhaustive sweep these are the 2**4 depth-4 subtrees, so two workers stay
# balanced while each task still shares its rows below depth 4
WALK_TASKS = 16
# the leave-two-out residual visits about n**4 / 4 factors: 1.5 s at this
# length on a 2-vCPU x86 host with CPython 3.11, 3.6 s at n = 80
MAX_IDENTITY_N = 64
SUBSAMPLE_RANDOM_COUNT = 10 ** 5
# maximize_f costs O(n**3) per iteration (about 44 n evaluations of O(n**2)
# each); see maximize_f for the measured time at this length
MAX_MAXIMIZE_N = 64
# worst-case objective evaluations of one maximize_f call; see maximize_f
MAX_MAXIMIZE_EVALUATIONS = 10 ** 6
# maximize_f line search: grid points over the whole range, then grid
# points within each refinement radius, a fraction of the range
COARSE_POINTS = 17
REFINE_POINTS = 9
STEP_SCHEDULE = (0.1, 0.01, 0.001)


class DegenerateInput(ValueError):
    """A zero factor makes the requested identity residual meaningless."""


@dataclass(frozen=True)
class SweepRecord:
    """One pattern of a sweep; ``heavy`` is -1 when a ladder got stuck or a
    partition failed validation, and the ``ladder`` and ``valid`` flags follow."""

    sigma: str
    J: int
    K: int
    heavy: int
    target: int

    @property
    def ladder(self) -> bool:
        """Whether both partitions were built: ``heavy >= 0``."""
        return self.heavy >= 0

    @property
    def valid(self) -> bool:
        """Whether K's partition has the required heavy count: ``heavy == target``."""
        return self.heavy == self.target

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "J": self.J,
            "K": self.K,
            "heavy": self.heavy,
            "target": self.target,
            "ladder": self.ladder,
            "valid": self.valid,
        }


def pattern_from_index(n: int, index: int) -> SignVector:
    """Deterministic pattern numbering: bit k of ``index`` flips entry k+1."""
    return SignVector(tuple(-1 if (index >> k) & 1 else 1 for k in range(n)))


def _sweep_indices(n: int, seed: int, exhaustive_cap: int) -> np.ndarray:
    total = 1 << n
    if not sweep_is_sampled(n, exhaustive_cap):
        return np.arange(total, dtype=np.int64)
    stride = total // exhaustive_cap
    drawn = np.random.default_rng(seed).integers(0, total, SUBSAMPLE_RANDOM_COUNT)
    # one int64 array: 8 bytes per index, against about 40 in a list of Python ints
    return np.unique(np.concatenate((np.arange(0, total, stride, dtype=np.int64), drawn)))


def sweep_one(n: int, index: int) -> SweepRecord:
    """Record for one pattern; a stuck ladder surfaces as heavy = -1, ladder = False.

    One context feeds both validated constructions directly, bypassing the
    ``partitions_for`` cache.  ``sweep`` never calls it: this is the
    per-pattern reference that the tests hold the prefix walk to."""
    ctx = PatternContext(pattern_from_index(n, index))
    sigma, target = ctx.sigma.to_string(), ctx.target
    sizes = ctx.size("J"), ctx.size("K")
    try:
        heavy = eta_partition(ctx).heavy_count
        build_pi(ctx)
    except LadderStuck:
        heavy = -1
    return SweepRecord(sigma, *sizes, heavy, target)


def _walk(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Heavy counts, |J|, |K| and targets of the patterns with the given keys.

    A pattern's key is its index bit-reversed over ``n`` bits, so sign 1 is
    the top key bit and the patterns below any sign prefix hold one
    contiguous run of the ascending ``keys``; slot ``s`` of each array
    belongs to ``keys[s]``.  The walk goes depth first over the sign
    prefixes whose run is not empty: row j of the context and of both
    ladders depends on ``sigma_1..sigma_j`` only, so each node builds its
    row once for every requested pattern below it.  A node splits its run
    with one bisection, or at the midpoint when the run holds all
    ``2**(n - j)`` patterns below it.  The rows live in per-depth arrays
    along the path; a node copies only the ladder states, and its last
    child takes over the parent's copies.  Pending nodes wait on an
    explicit stack, not in nested calls: CPython 3.11 keeps frames in
    16 KiB chunks and maps a fresh chunk each time a call crosses a
    chunk's end, and a walk recursing ``n`` frames deep kept crossing one
    (27 million page faults and 164 s of system time in the workers of
    one ``sweep 21 --jobs 2`` on a 2-vCPU x86 host).

    The checks live beside ``validate_partition`` in :mod:`pohst.partition`:
    ``_checked_row`` at each node, ``_checked_leaf`` at each leaf.  Either
    raises ``LadderStuck``, which flags every pattern below the node as
    ``sweep_one`` does, with heavy = -1.
    """
    size = len(keys)
    heavy_out = np.empty(size, np.int8)
    j_out = np.empty(size, np.int16)
    k_out = np.empty(size, np.int16)
    target_out = np.empty(size, np.int8)
    next_row = PatternContext.next_row
    k_rows, k_pos, j_rows, j_pos = ([0] * (n + 1) for _ in range(4))

    # one entry per node still to visit: row j, its sign s, the run
    # keys[lo:hi] below its prefix ``key`` and its parent's state, which the
    # last child takes over; k_state is None once the path is flagged
    stack = [(0, 0, 0, size, 0, PatternContext.ROOT, _LadderState(n), _LadderState(n),
              0, 0, True)]
    while stack:
        j, s, lo, hi, key, state, k_state, j_state, k_size, j_size, last = stack.pop()
        if j:  # the root has no row
            state, stable, k, kp, jr, jp = next_row(j, s, state)
            k_rows[j], k_pos[j], j_rows[j], j_pos[j] = k, kp, jr, jp
            k_size += k.bit_count()
            j_size += jr.bit_count()
            if k_state is not None:
                if not last:
                    k_state, j_state = k_state.copy(), j_state.copy()
                try:
                    _checked_row(k_state, j, stable, "K", k_rows, k_pos)
                    _checked_row(j_state, j, stable, "J", j_rows, j_pos)
                except LadderStuck:
                    k_state = None
        if j == n:
            p = state[3]
            target = min(p, n + 1 - p)
            if k_state is not None:
                try:
                    _checked_leaf(k_state, "K", target, k_rows, k_pos)
                    _checked_leaf(j_state, "J", 0, j_rows, j_pos)
                except LadderStuck:
                    k_state = None
            heavy_out[lo] = -1 if k_state is None else target
            j_out[lo] = j_size
            k_out[lo] = k_size
            target_out[lo] = target
            continue
        half = 1 << (n - 1 - j)  # the key bit of sign j + 1
        mid = lo + half if hi - lo == half << 1 else bisect.bisect_left(keys, key | half, lo, hi)
        node = state, k_state, j_state, k_size, j_size
        # the + child goes on top, so it copies the state before the - child
        # takes it over
        if mid < hi:
            stack.append((j + 1, -1, mid, hi, key | half, *node, True))
        if lo < mid:
            stack.append((j + 1, 1, lo, mid, key, *node, mid == hi))
    return heavy_out, j_out, k_out, target_out


def _walk_all(n: int, keys: np.ndarray, jobs: int) -> tuple[np.ndarray, ...]:
    """The walk's arrays for the ascending ``keys``, in key order.

    With ``jobs > 1`` worker processes take ``WALK_TASKS`` runs of keys of
    equal length through one ordered ``map``.
    """
    if jobs <= 1 or len(keys) < 64:
        return _walk(n, keys)
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
        results = pool.map(functools.partial(_walk, n), np.array_split(keys, WALK_TASKS))
    except OSError:
        # process pools need OS primitives some sandboxes refuse
        if pool is not None:
            pool.shutdown(wait=False)
        return _walk(n, keys)
    try:
        parts = list(results)
    finally:
        pool.shutdown(cancel_futures=True)
    return tuple(np.concatenate(column) for column in zip(*parts))


def _walk_records(n: int, indices: np.ndarray, jobs: int) -> Iterator[SweepRecord]:
    """Records of the walk over the ascending ``indices``, in their order.

    The first record comes once the whole walk is done.
    """
    keys = np.zeros(len(indices), np.int32)
    for k in range(n):
        # bit k of an index flips sign k + 1, as in pattern_from_index
        keys |= (indices >> k & 1) << (n - 1 - k)
    # slot s of the walk belongs to indices[order[s]]; int32 and no unsorted
    # keys, since parallel workers inherit what the parent holds at the fork
    order = np.argsort(keys).astype(np.int32)
    keys = keys[order]
    arrays = []
    for walked in _walk_all(n, keys, jobs):
        column = np.empty_like(walked)
        column[order] = walked
        arrays.append(column)
    flip = str.maketrans("01", "+-")
    block = 1 << 16  # Python ints for one block of records at a time
    for start in range(0, len(indices), block):
        rows = zip(*(a[start: start + block].tolist() for a in (indices, *arrays)))
        for index, h, j_size, k_size, t in rows:
            sigma = format(index, f"0{n}b")[::-1].translate(flip)
            yield SweepRecord(sigma, j_size, k_size, h, t)


def sweep(
    n: int,
    jobs: int = 1,
    seed: int = 0,
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> Iterator[SweepRecord]:
    """Stream records in ascending pattern-index order.

    Arguments are checked on the call.  Every sweep, exhaustive or sampled,
    is one walk over the sign prefixes of its patterns (:func:`_walk`),
    whose records stream out once it is done; parallel workers take
    ``WALK_TASKS`` equal runs of its keys.  Output is independent of
    ``jobs``, which is capped at the CPU count.
    """
    if not (0 <= n <= MAX_SWEEP_N):
        raise ValueError(f"sweep size must lie in 0..{MAX_SWEEP_N}, got {n}")
    if seed < 0:
        raise ValueError(f"sweep seed must be non-negative, got {seed}")
    if exhaustive_cap < 1:
        raise ValueError(f"exhaustive cap must be positive, got {exhaustive_cap}")
    jobs = min(jobs, os.cpu_count() or 1)
    if not n:
        return iter(())
    return _walk_records(n, _sweep_indices(n, seed, exhaustive_cap), jobs)


def sweep_summary(records: Iterable[SweepRecord], n: int, sampled: bool = False) -> dict:
    total = valid = ladder = 0
    for rec in records:
        total += 1
        valid += rec.valid
        ladder += rec.ladder
    return {
        "n": n,
        "patterns": total,
        "valid": valid,
        "invalid": total - valid,
        "ladder_used": ladder,
        "sampled": sampled,
    }


def sweep_is_sampled(n: int, exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP) -> bool:
    return (1 << n) > exhaustive_cap


@dataclass(frozen=True)
class MaximizeConfig:
    restarts: int = 8
    iterations: int = 40
    seed: int = 0
    delta: float = 1e-6

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError("restarts and iterations must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"magnitude floor must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class MaximizeResult:
    sigma: str
    best_value: float
    best_x: tuple[float, ...]
    bound: float
    gap: float
    exceeded_bound: bool
    restart_values: tuple[float, ...]
    evaluations: int

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "best_value": self.best_value,
            "best_x": list(self.best_x),
            "bound": self.bound,
            "gap": self.gap,
            "exceeded_bound": self.exceeded_bound,
            "restart_values": list(self.restart_values),
            "evaluations": self.evaluations,
        }


def _objective(x: list[float]) -> float:
    n = len(x)
    total = 1.0
    for i in range(n):
        running = 1.0
        for j in range(i, n):
            running *= x[j]
            total *= 1.0 - running
    return total


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
           67, 71, 73, 79, 83, 89, 97, 101)


def _van_der_corput(index: int, base: int) -> float:
    value, denom = 0.0, 1.0
    while index:
        index, digit = divmod(index, base)
        denom *= base
        value += digit / denom
    return value


def maximize_f(sigma: SignVector, cfg: MaximizeConfig = MaximizeConfig()) -> MaximizeResult:
    """Best product value found on the sign-respecting box.

    Restart 0 starts at full magnitudes, later restarts at low-discrepancy
    points shifted by the seed; each sweep line-searches every coordinate on
    a coarse grid and then refines around the winner per the step schedule.
    Patterns longer than ``MAX_MAXIMIZE_N`` raise ``ValueError``.  At 64
    signs with the default config, 24 patterns (all-minus, all-plus, both
    alternations and 20 seeded random ones) took 6.8-14.2 s of CPU each,
    the worst 90,120 evaluations, on a 2-vCPU x86 host with CPython 3.11.

    A config whose worst case ``restarts * (1 + iterations * n * 44)``
    exceeds ``MAX_MAXIMIZE_EVALUATIONS`` = 10**6 raises ``ValueError``
    before the first evaluation; the default config needs at most
    8 * (1 + 40 * 64 * 44) = 901,128.  Evaluations cost most at 64 signs,
    where they took 149-196 us of CPU each on the same host, so no accepted
    call runs longer than about 2.5-3.3 min.
    """
    n = len(sigma)
    if n > MAX_MAXIMIZE_N:
        raise ValueError(f"maximize takes at most {MAX_MAXIMIZE_N} signs, got {n}")
    worst = cfg.restarts * (
        1 + cfg.iterations * n * (COARSE_POINTS + REFINE_POINTS * len(STEP_SCHEDULE)))
    if worst > MAX_MAXIMIZE_EVALUATIONS:
        raise ValueError(
            f"maximize takes at most {MAX_MAXIMIZE_EVALUATIONS} evaluations, but {cfg.restarts} "
            f"restarts of {cfg.iterations} iterations over {n} signs may need {worst}")
    signs = list(sigma.entries)
    lo, hi = cfg.delta, 1.0
    bound = 2.0 ** min_heavy_target(sigma)
    evaluations = 0

    def line_points(a: float, b: float, count: int) -> list[float]:
        pts = [a + (b - a) * k / (count - 1) for k in range(count)]
        pts[0], pts[-1] = a, b
        return pts

    best_value = -math.inf
    best_mags: list[float] = []
    restart_values = []
    for restart in range(cfg.restarts):
        if restart == 0 or n == 0:
            mags = [1.0] * n
        else:
            mags = [
                lo + (hi - lo) * _van_der_corput(cfg.seed + restart, _PRIMES[k % len(_PRIMES)])
                for k in range(n)
            ]
        x = [s * m for s, m in zip(signs, mags)]
        value = _objective(x)
        evaluations += 1
        for _ in range(cfg.iterations):
            improved = 0.0
            for k in range(n):
                cand_best = mags[k]
                local_best = value
                for m in line_points(lo, hi, COARSE_POINTS):
                    x[k] = signs[k] * m
                    v = _objective(x)
                    evaluations += 1
                    if v > local_best:
                        local_best, cand_best = v, m
                for frac in STEP_SCHEDULE:
                    radius = (hi - lo) * frac
                    a = max(lo, cand_best - radius)
                    b = min(hi, cand_best + radius)
                    for m in line_points(a, b, REFINE_POINTS):
                        x[k] = signs[k] * m
                        v = _objective(x)
                        evaluations += 1
                        if v > local_best:
                            local_best, cand_best = v, m
                x[k] = signs[k] * cand_best
                improved += local_best - value
                value = local_best
                mags[k] = cand_best
            if improved <= 1e-15:
                break
        restart_values.append(value)
        if value > best_value:
            best_value = value
            best_mags = list(mags)
    best_x = tuple(s * m for s, m in zip(signs, best_mags))
    return MaximizeResult(
        sigma=sigma.to_string(),
        best_value=best_value,
        best_x=best_x,
        bound=bound,
        gap=bound - best_value,
        exceeded_bound=best_value > bound * (1.0 + 1e-9),
        restart_values=tuple(restart_values),
        evaluations=evaluations,
    )


_SAFE_LOW, _SAFE_HIGH = 1e-250, 1e250


def _relative_residual(
    lhs: float, rhs: float, lhs_log: float, rhs_log: float
) -> float:
    safe = all(_SAFE_LOW < v < _SAFE_HIGH for v in (lhs, rhs))
    if safe:
        return abs(lhs - rhs) / max(lhs, rhs)
    return abs(math.expm1(lhs_log - rhs_log))


def _leave_out_residual(y: RealVectorY, d: int) -> float:
    """Relative residual of ``P**comb(n-2, d)`` against the product, over
    every choice of ``d`` left-out positions, of the remaining pair factors."""
    n = len(y)
    factors = pair_factor_table(y)
    exponent = math.comb(n - 2, d)
    lhs = 1.0
    lhs_log = 0.0
    for (i, j), f in factors.items():
        if f == 0.0:
            raise DegenerateInput(f"zero factor at positions ({i}, {j})")
        lhs *= f
        lhs_log += math.log(f)
    try:
        lhs **= exponent
    except OverflowError:  # float ** raises where float * gives inf
        lhs = math.inf
    lhs_log *= exponent
    rhs = 1.0
    rhs_log = 0.0
    for left_out in itertools.combinations(range(1, n + 1), d):
        sub = 1.0
        sub_log = 0.0
        for (i, j), f in factors.items():
            if i in left_out or j in left_out:
                continue
            sub *= f
            sub_log += math.log(f)
        rhs *= sub
        rhs_log += sub_log
    return _relative_residual(lhs, rhs, lhs_log, rhs_log)


def _checked_residual(y: RealVectorY, d: int, name: str) -> float:
    """``_leave_out_residual`` once ``y`` holds ``d + 2`` to ``MAX_IDENTITY_N`` entries."""
    n = len(y)
    if n < d + 2:
        raise ValueError(f"{name} needs at least {d + 2} entries, got {n}")
    if n > MAX_IDENTITY_N:
        raise ValueError(f"the identities take at most {MAX_IDENTITY_N} entries, got {n}")
    return _leave_out_residual(y, d)


def identity_residual(y: RealVectorY) -> float:
    """Relative residual of ``P**(n-2)`` against the leave-one-out product."""
    return _checked_residual(y, 1, "the identity")


def iterated_identity_residual(y: RealVectorY) -> float:
    """Relative residual of ``P**((n-2)(n-3)/2)`` against the leave-two-out product."""
    return _checked_residual(y, 2, "the iterated identity")


@dataclass(frozen=True)
class SoundnessReport:
    n: int
    samples: int
    patterns: int
    total_violations: int
    group_violations: int
    max_total_ratio: float
    max_group_ratio: float


def bound_soundness_sample(
    n: int, samples: int, seed: int = 0, tolerance: float = DEFAULT_TOLERANCE
) -> SoundnessReport:
    """Randomized check that totals and group products respect their bounds.

    Draws ``samples`` box vectors with uniform magnitudes in (0, 1] and
    uniform signs, shares the cached partitions across each sign pattern
    and verifies every group product against its shape bound and the total
    against ``2**min(p, m)``, relatively to ``tolerance``.

    One stable sort of the pattern codes makes each pattern a contiguous
    block of samples; per block, ``factor_matrix`` builds the factors and
    one ``reduceat`` forms every group product of both partitions.  ``n``
    must lie in 0..63, where a pattern code fits a non-negative int64.
    """
    if not (0 <= n <= MAX_SOUNDNESS_N):
        raise ValueError(f"soundness size must lie in 0..{MAX_SOUNDNESS_N}, got {n}")
    rng = np.random.default_rng(seed)
    X = 1.0 - rng.random((samples, n))
    negative = rng.random((samples, n)) < 0.5
    np.negative(X, out=X, where=negative)
    codes = negative.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    order = np.argsort(codes, kind="stable")
    codes, heads, sizes = np.unique(codes[order], return_index=True, return_counts=True)

    col = {pair: k for k, pair in enumerate(
        (i, j) for i in range(1, n + 1) for j in range(i, n + 1))}
    total_violations = 0
    group_violations = 0
    max_total_ratio = 0.0
    max_group_ratio = 0.0
    for code, head, size in zip(codes.tolist(), heads.tolist(), sizes.tolist()):
        sigma = pattern_from_index(n, code)
        k_part, j_part = partitions_for(sigma)
        F = factor_matrix(X[order[head: head + size]])
        total = F.prod(axis=1)
        bound = 2.0 ** min_heavy_target(sigma)
        max_total_ratio = max(max_total_ratio, float((total / bound).max()))
        total_violations += int((total > bound * (1.0 + tolerance)).sum())
        groups = k_part.groups + j_part.groups
        if not groups:  # n = 0: the triangle is empty
            continue
        cols = [col[p] for group in groups for p in group.members]
        offsets = np.cumsum([0] + [len(group.members) for group in groups[:-1]])
        gb = np.array([group_bound(group) for group in groups], dtype=float)
        prods = np.multiply.reduceat(F[:, cols], offsets, axis=1)
        max_group_ratio = max(max_group_ratio, float((prods / gb).max()))
        group_violations += int((prods > gb * (1.0 + tolerance)).sum())
    return SoundnessReport(
        n=n,
        samples=samples,
        patterns=len(codes),
        total_violations=total_violations,
        group_violations=group_violations,
        max_total_ratio=max_total_ratio,
        max_group_ratio=max_group_ratio,
    )
