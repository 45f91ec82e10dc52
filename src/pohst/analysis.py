"""Sweeps, sharpness probing and the product identities.

``sweep`` grinds through sign patterns (exhaustively up to a configurable
cap, by deterministic subsample beyond it) and emits one record per
pattern: set sizes, the constructed heavy count, the required count,
whether the ladder succeeded and whether everything validated.  Every
sweep is one depth-first walk over the sign prefixes of its patterns,
``_prefix_walk`` in :mod:`pohst.partition`, beside the checks it runs:
row j of the context and of both ladders reads only the first j signs, so
each node runs the shared ladder row step once for every requested
pattern below it.  The walk enters only the prefixes that lead to a
requested pattern, so a sampled sweep takes the same path as an
exhaustive one.  The walk is the one construction this module runs on
every pattern; the tests hold it to a per-pattern reference.  Soundness
sampling reads each pattern's slot table of its groups' factor columns
from its ``partitions_for`` entry, which the same walk builds.

``maximize_f`` is a multi-start projected coordinate ascent over the
sign-respecting box ``x_i in [delta, 1]`` or ``[-1, -delta]``.  Some optima
are suprema approached as a coordinate shrinks to the magnitude floor, so
results report the best value found and never claim attainment.  The
restarts climb in lockstep, so each stage of a line search is one
``factor_matrix`` batch over every restart still climbing.  Every probe is
checked live against the certified bound for its pattern.

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
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

import numpy as np

from pohst.signs import SignVector, min_heavy_target
from pohst.partition import _prefix_walk
from pohst.certify import (DEFAULT_TOLERANCE, RealVectorY, factor_matrix, pair_factor_table,
                           pattern_entries)

MAX_SWEEP_N = 24
MAX_SOUNDNESS_N = 63  # pattern codes are int64 bit masks
# bound_soundness_sample feeds factor_matrix chunks of whole patterns of
# about this many samples.  At n = 10 and 200,000 samples, chunks of 1,024
# to 4,096 samples ran at the same speed, but 4,096 left glibc's heap more
# fragmented and raised the peak RSS by about 6% (5 MiB)
_SOUNDNESS_CHUNK = 2048
DEFAULT_EXHAUSTIVE_CAP = 2 ** 20
# parallel sweeps split their sorted keys into this many runs of about equal
# walk node counts, exhaustive or sampled, so two workers stay balanced
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


# a sweep record's JSON line, its keys in sorted order
_RECORD_LINE = (
    '{"J": %d, "K": %d, "heavy": %d, "ladder": %s, "sigma": "%s", "target": %d, "valid": %s}\n')


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

    def to_json_line(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True)`` and a newline,
        from one template: sigma holds only ``+`` and ``-``, so nothing
        needs escaping."""
        heavy, target = self.heavy, self.target
        return _RECORD_LINE % (self.J, self.K, heavy, "true" if heavy >= 0 else "false",
                               self.sigma, target, "true" if heavy == target else "false")


def _sweep_indices(n: int, seed: int, exhaustive_cap: int) -> np.ndarray:
    total = 1 << n
    if not sweep_is_sampled(n, exhaustive_cap):
        return np.arange(total, dtype=np.int32)
    stride = total // exhaustive_cap
    drawn = np.random.default_rng(seed).integers(0, total, SUBSAMPLE_RANDOM_COUNT)
    # one int32 array: 4 bytes per index, against about 40 in a list of Python
    # ints; MAX_SWEEP_N keeps every index below 2**31
    strided = np.arange(0, total, stride, dtype=np.int32)
    return np.unique(np.concatenate((strided, drawn.astype(np.int32))))


def _bit_reversed(n: int, values: np.ndarray, dtype: type) -> np.ndarray:
    """``values`` with their low ``n`` bits reversed, as ``dtype``: pattern codes,
    whose bit k flips sign k + 1, to walk keys, whose top bit is sign 1, and back."""
    reversed_ = np.zeros(len(values), dtype)
    for k in range(n):
        reversed_ |= (values >> k & 1) << (n - 1 - k)
    return reversed_


def _walk(n: int, keys: np.ndarray) -> np.ndarray:
    """The int16 heavy count, |K| and target of each ascending key, one row each."""
    walked = np.empty((3, len(keys)), np.int16)
    for _ in _prefix_walk(n, keys, walked):  # a writing walk yields nothing
        pass
    return walked.T


def _walk_all(n: int, keys: np.ndarray, jobs: int) -> np.ndarray:
    """The walk's array for the ascending ``keys``, in key order.

    With ``jobs > 1`` worker processes take ``WALK_TASKS`` runs of keys of
    about equal node counts through one ordered ``map``; the pool runs only
    with at least 64 keys.
    """
    if jobs <= 1 or len(keys) < 64:
        return _walk(n, keys)
    # key s opens one node for each key bit from the highest it does not
    # share with key s - 1 down; the runs split the running node count
    # evenly.  An int64 sum left each forked worker 9 MiB larger at n = 24
    nodes = np.cumsum(np.frexp(keys[1:] ^ keys[:-1])[1], dtype=np.int32)
    cuts = np.searchsorted(nodes, nodes[-1] * np.arange(1, WALK_TASKS) // WALK_TASKS)
    runs = np.split(keys, 1 + cuts)
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
        results = pool.map(functools.partial(_walk, n), runs)
    except OSError:
        # process pools need OS primitives some sandboxes refuse
        if pool is not None:
            pool.shutdown(wait=False)
        return _walk(n, keys)
    try:
        return np.concatenate(list(results))
    finally:
        pool.shutdown(cancel_futures=True)


def _walk_records(n: int, indices: np.ndarray, jobs: int) -> Iterator[SweepRecord]:
    """Records of the walk over the ascending ``indices``, in their order.

    The first record comes once the whole walk is done.  Row s of the walk
    belongs to the s-th smallest key, so each block of records finds its rows
    by a binary search of its own keys in the sorted ones.
    """
    keys = np.sort(_bit_reversed(n, indices, np.int32))
    walked = _walk_all(n, keys, jobs)
    pairs = n * (n + 1) // 2
    flip = str.maketrans("01", "+-")
    block = 1 << 16  # Python ints for one block of records at a time
    for start in range(0, len(indices), block):
        part = indices[start:start + block]
        rows = walked[np.searchsorted(keys, _bit_reversed(n, part, np.int32))]
        for index, (h, k_size, t) in zip(part.tolist(), rows.tolist()):
            sigma = format(index, f"0{n}b")[::-1].translate(flip)
            yield SweepRecord(sigma, pairs - k_size, k_size, h, t)


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
    ``WALK_TASKS`` runs of its keys of about equal walk node counts.
    Output is independent of ``jobs``, which must be positive and is
    capped at the CPU count.
    """
    if not (0 <= n <= MAX_SWEEP_N):
        raise ValueError(f"sweep size must lie in 0..{MAX_SWEEP_N}, got {n}")
    if seed < 0:
        raise ValueError(f"sweep seed must be non-negative, got {seed}")
    if exhaustive_cap < 1:
        raise ValueError(f"exhaustive cap must be positive, got {exhaustive_cap}")
    if jobs < 1:
        raise ValueError(f"sweep jobs must be positive, got {jobs}")
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
        return asdict(self)


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
    The restarts still climbing advance in lockstep: each stage of a line
    search evaluates the points of every active restart as the rows of one
    ``factor_matrix`` batch, whose row products equal the scalar running
    product bit for bit, and keeps per restart the first highest point, as
    a strict ``>`` scan in point order would.  A restart stops after the
    iteration that improved it by at most 1e-15.

    Patterns longer than ``MAX_MAXIMIZE_N`` raise ``ValueError``.  At 64
    signs with the default config, 24 patterns (all-minus, all-plus, both
    alternations and 20 seeded random ones) took 0.3-0.8 s of CPU each,
    7-10 us per evaluation and at most 92,936 evaluations, on a 2-vCPU
    x86 host with CPython 3.11 and numpy 2.4.

    A config whose worst case ``restarts * (1 + iterations * n * 44)``
    exceeds ``MAX_MAXIMIZE_EVALUATIONS`` = 10**6 raises ``ValueError``
    before the first evaluation; the default config needs at most
    8 * (1 + 40 * 64 * 44) = 901,128.  Evaluations cost most with one
    restart at 64 signs, 18-22 us of CPU each on the same host, so no
    accepted call runs longer than about 0.4 min.
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
    signs = np.array(sigma.entries, dtype=float)
    lo, hi = cfg.delta, 1.0
    bound = 2.0 ** min_heavy_target(sigma)

    # a coarse grid over the whole range, then refinements around the winner
    searches = [(math.inf, COARSE_POINTS)]
    searches += [((hi - lo) * frac, REFINE_POINTS) for frac in STEP_SCHEDULE]
    mags = np.ones((cfg.restarts, n))
    for restart in range(1, cfg.restarts):
        mags[restart] = [
            lo + (hi - lo) * _van_der_corput(cfg.seed + restart, _PRIMES[k % len(_PRIMES)])
            for k in range(n)
        ]
    values = factor_matrix(mags * signs).prod(axis=1)
    evaluations = cfg.restarts
    active = np.arange(cfg.restarts)  # the restarts still climbing
    for _ in range(cfg.iterations):
        rows = np.arange(len(active))
        improved = np.zeros(len(active))
        for k in range(n):
            x = mags[active] * signs
            value = values[active]
            local_best, cand_best = value.copy(), mags[active, k]
            for radius, count in searches:
                a = np.maximum(lo, cand_best - radius)
                b = np.minimum(hi, cand_best + radius)
                points = a[:, None] + (b - a)[:, None] * np.arange(count) / (count - 1)
                points[:, 0], points[:, -1] = a, b
                X = x.repeat(count, axis=0)
                X[:, k] = signs[k] * points.ravel()
                v = factor_matrix(X).prod(axis=1).reshape(len(active), count)
                evaluations += v.size
                # the first highest point of each line, which a strict > scan
                # in point order keeps
                top = v.argmax(axis=1)
                peak = v[rows, top]
                up = peak > local_best
                local_best[up] = peak[up]
                cand_best[up] = points[rows, top][up]
            mags[active, k] = cand_best
            improved += local_best - value
            values[active] = local_best
        active = active[improved > 1e-15]
        if not len(active):
            break
    restart_values = values.tolist()
    best = int(np.argmax(values))
    best_value, best_mags = restart_values[best], mags[best].tolist()
    best_x = tuple(s * m for s, m in zip(sigma.entries, best_mags))
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
    every choice of ``d`` left-out positions, of the remaining pair factors,
    each at least 2**-53: |y_i| < |y_j| rounds y_i / y_j to at most 1 - 2**-53."""
    n = len(y)
    factors = pair_factor_table(y)
    exponent = math.comb(n - 2, d)
    lhs = 1.0
    lhs_log = 0.0
    for f in factors.values():
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
    uniform signs, checks every group product of each sign pattern's
    ladder partitions of K and J against its shape bound and the total
    against ``2**min(p, m)``, relatively to ``tolerance``.  The signs are
    drawn in blocks of ``_SOUNDNESS_CHUNK`` rows, the stream of one draw
    without its full-size float array.

    One stable sort of the patterns' walk keys makes each pattern a
    contiguous block of samples, in the walk's order; the keys are
    ``uint16`` for n <= 16, where NumPy's stable sort is a radix sort.
    Whole blocks are cut into chunks of about ``_SOUNDNESS_CHUNK``
    samples, and each chunk makes one ``factor_matrix`` call and one total
    product per sample; a block longer than a chunk is a chunk of its own.
    No value depends on the chunk a sample lands in.  Each pattern's group
    products over their bounds come from the slot table of its
    ``partitions_for`` entry in three multiplies (see ``_check_chunk``).
    ``pattern_entries`` takes the codes alone, in key order: it gives the
    held entries, then, with no plan, the missing ones from one lazy walk,
    consumed block by block, so at most one chunk's new entries live
    outside the cache.  A flagged leaf raises ``LadderStuck``.
    ``n`` must lie in 0..63, where a pattern code fits a non-negative
    int64.  The tolerance must be finite, since a NaN or infinite one
    admits every product; a negative one is allowed and tightens the
    bounds.
    """
    if not (0 <= n <= MAX_SOUNDNESS_N):
        raise ValueError(f"soundness size must lie in 0..{MAX_SOUNDNESS_N}, got {n}")
    if not math.isfinite(tolerance):
        raise ValueError(f"soundness tolerance must be finite, got {tolerance!r}")
    rng = np.random.default_rng(seed)
    X = rng.random((samples, n))
    np.subtract(1.0, X, out=X)
    negative = np.empty((samples, n), bool)
    for at in range(0, samples, _SOUNDNESS_CHUNK):
        block = negative[at:at + _SOUNDNESS_CHUNK]
        np.less(rng.random(block.shape), 0.5, out=block)
    np.copysign(X, -negative.view(np.int8), out=X)  # faster than a where= negation
    key_type = np.uint16 if n <= 16 else np.int64
    keys = negative.astype(key_type) @ (1 << np.arange(n - 1, -1, -1, dtype=key_type))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    heads = (np.flatnonzero(np.diff(keys)) + 1).tolist()
    starts = [0] + heads if samples else []
    codes = _bit_reversed(n, keys[starts], np.int64).tolist()
    entries = pattern_entries(n, codes)

    chunks = []  # per chunk: violations of totals and groups, their max ratios
    lo = 0
    blocks = []  # per pattern of the open chunk: size and entry
    for start, end, entry in zip(starts, heads + [samples], entries):
        blocks.append((end - start, entry))
        if end - lo >= _SOUNDNESS_CHUNK or end == samples:
            chunks.append(_check_chunk(X[order[lo:end]], blocks, tolerance))
            lo, blocks = end, []
    # the zero row stands for no chunk at all when no sample is drawn
    total_violations, group_violations, total_ratios, group_ratios = zip((0, 0, 0.0, 0.0), *chunks)
    return SoundnessReport(
        n=n,
        samples=samples,
        patterns=len(starts),
        total_violations=sum(total_violations),
        group_violations=sum(group_violations),
        max_total_ratio=max(total_ratios),
        max_group_ratio=max(group_ratios),
    )


def _check_chunk(X: np.ndarray, blocks: list, tolerance: float) -> tuple[int, int, float, float]:
    """Violations of totals and of groups in one chunk, and their max ratios.

    ``blocks`` lists the chunk's patterns in row order, each with its
    number of rows and :class:`~pohst.certify.PatternEntry`, whose slot
    table and total bound the chunk reads.  The slots index the chunk's
    factor columns, a row of 1.0 below them and a row of 0.5 below that.
    The three multiplies run each group's members left to right, as the
    group product does.  Free slots multiply by 1.0, which is exact, except
    a heavy group's last one, which multiplies by 0.5, so each group yields
    its product over its bound of 1 or 2.  The ratios and violations equal
    those of the products against their bounds bit for bit: ``x * 0.5``
    rounds ``x / 2`` as the division does, and
    ``x * 0.5 > 1 + tolerance`` is ``x > 2 (1 + tolerance)`` whenever
    ``x * 0.5`` is exact, that is unless ``x`` is subnormal.  No heavy
    product is: a heavy group has at most one factor ``1 - t`` below 1,
    with ``t`` a double in [0, 1], so that factor is 0 or at least 2**-53
    and the others are at least 1.
    """
    sizes, entries = zip(*blocks)
    F = factor_matrix(X)
    rows, pairs = F.shape
    total = F.prod(axis=1)
    bound = np.repeat([entry.bound for entry in entries], sizes)
    total_violations = int((total > bound * (1.0 + tolerance)).sum())
    total_ratio = float((total / bound).max())
    if not pairs:  # n = 0: the triangle is empty
        return total_violations, 0, total_ratio, 0.0
    padded = np.empty((pairs + 2, rows))
    padded[:pairs] = F.T
    padded[pairs] = 1.0
    padded[pairs + 1] = 0.5
    ratios = np.empty(sum(entry.table.shape[1] * size for entry, size in zip(entries, sizes)))
    start = at = 0
    for entry, size in zip(entries, sizes):
        members = padded[entry.table, start:start + size]  # (4, groups, rows of the block)
        out = ratios[at:at + members[0].size].reshape(members[0].shape)
        np.multiply(members[0], members[1], out=out)
        out *= members[2]
        out *= members[3]
        start += size
        at += out.size
    return (total_violations, int((ratios > 1.0 + tolerance).sum()), total_ratio,
            float(ratios.max()))
