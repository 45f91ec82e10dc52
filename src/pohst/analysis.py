"""Sweeps, sharpness probing and the product identities.

``sweep`` grinds through sign patterns (exhaustively up to a configurable
cap, by deterministic subsample beyond it) and emits one record per
pattern: set sizes, the constructed heavy count, the required count,
whether the ladder succeeded and whether everything validated.  An
exhaustive sweep is one depth-first walk over sign prefixes: row j of the
context and of both ladders reads only the first j signs, so each node
runs the shared ladder row step once for every pattern below it and
validates the groups it reports, and each leaf checks the rest of what
``validate_partition`` checks.  A sampled sweep, and the reference for
the walk, is ``sweep_one``: one context and both validated constructions
per pattern.

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

import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from pohst import partition
from pohst.signs import PatternContext, SignVector, min_heavy_target
from pohst.partition import (
    HEAVY_SHAPES, LadderStuck, _LadderState, _shape_findings, build_pi, eta_partition)
from pohst.certify import (
    DEFAULT_TOLERANCE, RealVectorY, factor_matrix, group_bound, pair_factor_table,
    partitions_for)

MAX_SWEEP_N = 24
MAX_SOUNDNESS_N = 63  # pattern codes are int64 bit masks
DEFAULT_EXHAUSTIVE_CAP = 2 ** 20
# indices per parallel task of a sampled sweep: about 1 s of work at n = 21
# (about 1 ms per pattern), so records stream out early and the parent holds
# only a few chunks
SWEEP_CHUNK = 1024
# parallel exhaustive walks split at this depth: 2**4 subtrees, so two
# workers stay balanced while each task still shares its rows below depth 4
WALK_SPLIT_DEPTH = 4
# the leave-two-out residual visits about n**4 / 4 factors: 1.5 s at this
# length on a 2-vCPU x86 host with CPython 3.11, 3.6 s at n = 80
MAX_IDENTITY_N = 64
SUBSAMPLE_RANDOM_COUNT = 10 ** 5
# maximize_f costs O(n**3) per iteration (about 44 n evaluations of O(n**2)
# each); see maximize_f for the measured time at this length
MAX_MAXIMIZE_N = 64
# maximize_f line search: grid points over the whole range, then the
# refinement radii as fractions of the range
COARSE_POINTS = 17
STEP_SCHEDULE = (0.1, 0.01, 0.001)


class DegenerateInput(ValueError):
    """A zero factor makes the requested identity residual meaningless."""


@dataclass(frozen=True)
class SweepRecord:
    sigma: str
    J: int
    K: int
    heavy: int
    target: int
    ladder: bool
    valid: bool

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


def _sweep_indices(n: int, seed: int, exhaustive_cap: int) -> Sequence[int]:
    total = 1 << n
    if not sweep_is_sampled(n, exhaustive_cap):
        return range(total)
    stride = total // exhaustive_cap
    drawn = np.random.default_rng(seed).integers(0, total, SUBSAMPLE_RANDOM_COUNT)
    # one int64 array: 8 bytes per index, against about 40 in a list of Python ints
    return np.unique(np.concatenate((np.arange(0, total, stride, dtype=np.int64), drawn)))


def sweep_one(n: int, index: int) -> SweepRecord:
    """Record for one pattern; a stuck ladder surfaces as heavy = -1, ladder = False.

    Each pattern is new to a sweep, so one context feeds both constructions
    directly, bypassing the ``partitions_for`` cache.  This is the
    reference for the exhaustive walk, and it serves sampled sweeps."""
    ctx = PatternContext(pattern_from_index(n, index))
    sigma, target = ctx.sigma.to_string(), ctx.target
    sizes = ctx.size("J"), ctx.size("K")
    try:
        heavy = eta_partition(ctx).heavy_count
        build_pi(ctx)
    except LadderStuck:
        return SweepRecord(sigma, *sizes, -1, target, False, False)
    # both constructions hand out validated partitions only
    return SweepRecord(sigma, *sizes, heavy, target, True, heavy == target)


def _sweep_chunk(n: int, indices: Sequence[int]) -> list[SweepRecord]:
    return [sweep_one(n, i) for i in indices]


def _row_findings(reports, rows: list[int], pos: list[int], seen: list[int]) -> int:
    """Heavy groups formed by one row's reports, or -1 on any finding.

    Each reported group goes through the validator's shape and sign rules
    against the bit rows of the path, and its new members must not be in
    ``seen`` yet, which then takes them: the per-node share of
    :func:`~pohst.partition.validate_partition`.
    """
    formed = 0
    for shape, members, new in reports:
        for i, j in new:
            bit = 1 << i
            if seen[j] & bit:
                return -1
            seen[j] |= bit
        signs = [(1 if pos[j] >> i & 1 else -1) if rows[j] >> i & 1 else 0 for i, j in members]
        if _shape_findings(shape, members, signs):
            return -1
        if shape in HEAVY_SHAPES and len(new) == len(members):
            formed += 1
    return formed


def _covered(free_row: list[int], seen: list[int], rows: list[int], pos: list[int]) -> bool:
    """Whether the groups and the free positive singletons tile every row once."""
    for free, taken, row, positive in zip(free_row, seen, rows, pos):
        if free & taken or free | taken != row or free & ~positive:
            return False
    return True


def _walk(n: int, depth: int, prefix: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Heavy counts, |J|, |K| and targets of every pattern below one sign prefix.

    Covers the ``2**(n - depth)`` patterns whose index agrees with
    ``prefix`` in its low ``depth`` bits; slot ``s`` of each array belongs
    to index ``prefix + (s << depth)``.  The walk goes depth first over
    sign prefixes: row j of the context and of both ladders depends on
    ``sigma_1..sigma_j`` only, so each node builds its row once for the
    ``2**(n - j)`` patterns below it.  The rows live in per-depth arrays
    along the path; a node copies only the ladder state and the ``seen``
    masks, and its last child takes over the parent's copies.

    Validation matches ``validate_partition`` per pattern: each reported
    group passes the shape and sign rules and adds disjoint members at its
    node, and each leaf checks coverage, that the free pairs are positive,
    heavy = target on K and no heavy group on J.  A stuck ladder or a
    finding at a node flags every pattern below it as ``sweep_one`` does,
    with heavy = -1.
    """
    size = 1 << (n - depth)
    heavy_out = np.empty(size, np.int8)
    j_out = np.empty(size, np.int16)
    k_out = np.empty(size, np.int16)
    target_out = np.empty(size, np.int8)
    row_step = partition._ladder_row
    next_row = PatternContext.next_row
    k_rows, k_pos, j_rows, j_pos = ([0] * (n + 1) for _ in range(4))

    def visit(j, index, state, k_state, j_state, k_seen, j_seen, heavy, j_heavy, k_size, j_size):
        # rows 1..j are done; k_state is None once the path is flagged
        if j == n:
            slot = index >> depth
            p = state[3]
            target = min(p, n + 1 - p)
            ok = (
                k_state is not None and heavy == target and not j_heavy
                and _covered(k_state.free_row, k_seen, k_rows, k_pos)
                and _covered(j_state.free_row, j_seen, j_rows, j_pos)
            )
            heavy_out[slot] = target if ok else -1
            j_out[slot] = j_size
            k_out[slot] = k_size
            target_out[slot] = target
            return
        j += 1
        signs = (1, -1) if j > depth else ((-1,) if prefix >> (j - 1) & 1 else (1,))
        for s in signs:
            child, stable, k, kp, jr, jp = next_row(j, s, state)
            k_rows[j], k_pos[j], j_rows[j], j_pos[j] = k, kp, jr, jp
            ks = js = kseen = jseen = None
            h, jh = heavy, j_heavy
            if k_state is not None:
                if s == signs[-1]:
                    ks, js, kseen, jseen = k_state, j_state, k_seen, j_seen
                else:
                    ks, js, kseen, jseen = k_state.copy(), j_state.copy(), k_seen[:], j_seen[:]
                try:
                    formed = _row_findings(
                        row_step(ks, j, k, kp, stable, True), k_rows, k_pos, kseen)
                    j_formed = _row_findings(
                        row_step(js, j, jr, jp, stable, False), j_rows, j_pos, jseen)
                except LadderStuck:
                    formed = j_formed = -1
                if formed < 0 or j_formed < 0:
                    ks = None
                h += formed
                jh += j_formed
            visit(j, index | (s < 0) << (j - 1), child, ks, js, kseen, jseen, h, jh,
                  k_size + k.bit_count(), j_size + jr.bit_count())

    visit(0, prefix, PatternContext.ROOT, _LadderState(n), _LadderState(n),
          [0] * (n + 1), [0] * (n + 1), 0, 0, 0, 0)
    return heavy_out, j_out, k_out, target_out


def _walk_all(n: int, jobs: int) -> tuple[np.ndarray, ...]:
    """The walk's arrays over all ``2**n`` patterns, in pattern-index order.

    With ``jobs > 1`` the ``2**WALK_SPLIT_DEPTH`` subtrees go to worker
    processes through one ordered ``map``, and each result lands on the
    indices of its prefix.
    """
    if jobs <= 1 or n < 6:  # below 64 patterns, as for sampled sweeps
        return _walk(n, 0, 0)
    depth = min(WALK_SPLIT_DEPTH, n)
    tasks = range(1 << depth)
    arrays = tuple(np.empty(1 << n, dtype) for dtype in (np.int8, np.int16, np.int16, np.int8))
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
        results = pool.map(functools.partial(_walk, n, depth), tasks)
    except OSError:
        # process pools need OS primitives some sandboxes refuse
        if pool is not None:
            pool.shutdown(wait=False)
        return _walk(n, 0, 0)
    try:
        for prefix, subtree in zip(tasks, results):
            for out, part in zip(arrays, subtree):
                out[prefix::1 << depth] = part
    finally:
        pool.shutdown(cancel_futures=True)
    return arrays


def _walk_records(n: int, jobs: int) -> Iterator[SweepRecord]:
    """Records of the exhaustive walk; the first one comes once the walk is done."""
    arrays = _walk_all(n, jobs)
    flip = str.maketrans("01", "+-")
    block = 1 << 16  # Python ints for one block of records at a time
    for start in range(0, 1 << n, block):
        rows = zip(*(a[start: start + block].tolist() for a in arrays))
        for index, (h, j_size, k_size, t) in enumerate(rows, start):
            # bit k of the index flips entry k + 1, as in pattern_from_index
            sigma = format(index, f"0{n}b")[::-1].translate(flip)
            yield SweepRecord(sigma, j_size, k_size, h, t, h >= 0, h == t)


def sweep(
    n: int,
    jobs: int = 1,
    seed: int = 0,
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> Iterator[SweepRecord]:
    """Stream records in ascending pattern-index order.

    Arguments are checked on the call.  An exhaustive sweep is one walk over
    sign prefixes (:func:`_walk`), whose records stream out once it is done;
    parallel workers take its depth-``WALK_SPLIT_DEPTH`` subtrees.  A sampled
    sweep runs :func:`sweep_one` per pattern, and parallel workers take
    chunks of ``SWEEP_CHUNK`` indices that stream out in index order as they
    arrive.  Output is independent of ``jobs``, which is capped at the CPU
    count.
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
    if not sweep_is_sampled(n, exhaustive_cap):
        return _walk_records(n, jobs)
    return _sweep_records(n, _sweep_indices(n, seed, exhaustive_cap), jobs)


def _sweep_records(n: int, indices: Sequence[int], jobs: int) -> Iterator[SweepRecord]:
    if jobs <= 1 or len(indices) < 64:
        for i in indices:
            yield sweep_one(n, i)
        return
    chunks = (indices[k: k + SWEEP_CHUNK] for k in range(0, len(indices), SWEEP_CHUNK))
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
        results = pool.map(functools.partial(_sweep_chunk, n), chunks)
    except OSError:
        # process pools need OS primitives some sandboxes refuse; nothing has
        # been yielded yet, so a serial restart cannot duplicate records
        if pool is not None:
            pool.shutdown(wait=False)
        for i in indices:
            yield sweep_one(n, i)
        return
    try:
        for records in results:
            yield from records
    finally:
        pool.shutdown(cancel_futures=True)


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
    the worst 90,120 evaluations, on a 2-vCPU x86 host with CPython 3.11;
    the iteration limit caps a call at 8 * (1 + 40 * 64 * 44) = 901,128
    evaluations, about 2.4 min at the measured 134-172 us per evaluation.
    """
    n = len(sigma)
    if n > MAX_MAXIMIZE_N:
        raise ValueError(f"maximize takes at most {MAX_MAXIMIZE_N} signs, got {n}")
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
                    for m in line_points(a, b, 9):
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
