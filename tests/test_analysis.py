"""Sweeps, sharpness probing, identities and randomized soundness."""

import hashlib
import json
import math
import random

import numpy as np
import pytest

from pohst.analysis import (
    _SOUNDNESS_CHUNK,
    MAX_IDENTITY_N,
    DegenerateInput,
    MaximizeConfig,
    SoundnessReport,
    SweepRecord,
    _slot_table,
    bound_soundness_sample,
    identity_residual,
    iterated_identity_residual,
    maximize_f,
    pattern_from_index,
    sweep,
    sweep_summary,
)
from pohst.certify import RealVectorY, eval_P, factor_matrix, group_bound, partitions_for
from pohst.partition import LadderStuck, Shape, build_pi, eta_partition
from pohst.signs import PatternContext, SignVector, min_heavy_target


def random_y(rng, n, growth=(0.1, 2.0)):
    mag = rng.uniform(0.5, 2.0)
    out = []
    for _ in range(n):
        out.append(rng.choice((1, -1)) * mag)
        mag *= 1.0 + rng.uniform(*growth)
    return RealVectorY(tuple(out))


def sweep_one(n, index):
    """The walk's per-pattern reference: one context feeds both validated
    constructions, bypassing the ``partitions_for`` cache, and a stuck
    ladder surfaces as heavy = -1."""
    ctx = PatternContext(pattern_from_index(n, index))
    try:
        heavy = eta_partition(ctx).heavy_count
        build_pi(ctx)
    except LadderStuck:
        heavy = -1
    return SweepRecord(ctx.sigma.to_string(), ctx.size("J"), ctx.size("K"), heavy, ctx.target)


def assert_flags_derived(records):
    """``ladder`` and ``valid`` follow from ``heavy`` and ``target`` alone."""
    for rec in records:
        assert rec.ladder == (rec.heavy >= 0)
        assert rec.valid == (rec.heavy == rec.target)


def objective(x):
    """The product of all factors ``1 - x_i * ... * x_j`` of a list ``x``, one
    running product per start row, multiplied in lexicographic ``(i, j)`` order."""
    n = len(x)
    total = 1.0
    for i in range(n):
        running = 1.0
        for j in range(i, n):
            running *= x[j]
            total *= 1.0 - running
    return total


def soundness_reference(n, samples, seed=0, tolerance=1e-12):
    """``bound_soundness_sample``'s per-pattern reference: the same draws,
    one ``factor_matrix`` call per pattern block and one ``reduceat`` over
    its member columns for the group products."""
    rng = np.random.default_rng(seed)
    X = 1.0 - rng.random((samples, n))
    negative = rng.random((samples, n)) < 0.5
    np.negative(X, out=X, where=negative)
    codes = negative.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    order = np.argsort(codes, kind="stable")
    codes, heads, sizes = np.unique(codes[order], return_index=True, return_counts=True)

    col = {pair: k for k, pair in enumerate(
        (i, j) for i in range(1, n + 1) for j in range(i, n + 1))}
    total_violations = group_violations = 0
    max_total_ratio = max_group_ratio = 0.0
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
    return SoundnessReport(n, samples, len(codes), total_violations, group_violations,
                           max_total_ratio, max_group_ratio)


def key_of(n, index):
    """The walk's key of a pattern: its index with its ``n`` bits reversed."""
    return int(format(index, f"0{n}b")[::-1], 2)


def walk_nodes(n, keys):
    """Nodes of the walk over ``keys``: the distinct prefixes at each depth."""
    return sum(len({key >> (n - d) for key in keys}) for d in range(n + 1))


def recording_pool(tasks, shutdowns):
    """A pool class that runs tasks inline, recording each task and shutdown."""

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, iterable):
            for arg in iterable:
                tasks.append(arg)
                yield fn(arg)

        def shutdown(self, wait=True, cancel_futures=False):
            shutdowns.append((wait, cancel_futures))

    return RecordingPool


class TestSweep:
    def test_n2_exhaustive(self):
        records = list(sweep(2))
        assert len(records) == 4
        assert all(r.valid for r in records)
        by_sigma = {r.sigma: r for r in records}
        assert by_sigma["++"].heavy == 0 and by_sigma["++"].target == 0
        assert by_sigma["--"].heavy == 1

    def test_n1_heavy_counts(self):
        records = {r.sigma: r for r in sweep(1)}
        assert records["+"].heavy == 0
        assert records["-"].heavy == 1 == records["-"].target

    def test_n3_example_record(self):
        records = {r.sigma: r for r in sweep(3)}
        rec = records["-+-"]
        assert rec.heavy == 2 and rec.valid and rec.J == 4 and rec.K == 2

    def test_deterministic(self):
        assert list(sweep(4, seed=9)) == list(sweep(4, seed=9))

    def test_pattern_numbering(self):
        assert pattern_from_index(3, 0).to_string() == "+++"
        assert pattern_from_index(3, 1).to_string() == "-++"
        assert pattern_from_index(3, 6).to_string() == "+--"

    def test_subsample_deterministic_and_sorted(self):
        first = list(sweep(6, seed=3, exhaustive_cap=16))
        second = list(sweep(6, seed=3, exhaustive_cap=16))
        assert first == second
        assert 16 <= len(first) <= 64
        sigmas = [r.sigma for r in first]
        assert sigmas == [r.sigma for r in sorted(
            first, key=lambda r: [c == "-" for c in reversed(r.sigma)])]

    # SHA-256 of the int64 bytes of the sampled indices, recorded while they
    # were built as a sorted list of Python ints
    @pytest.mark.parametrize("n, seed, digest", [
        (24, 0, "6e21a3f13227a6e9c240ed915caaefaf8365b0ba350c5a4c8a9b4f1507eee57d"),
        (21, 5, "8472e13e84e3b3ff4b216040b05376faffeb3a2dec0e218fabecbecec7ebdc5a"),
    ])
    def test_golden_sampled_indices(self, n, seed, digest):
        from pohst.analysis import _sweep_indices

        indices = np.asarray(_sweep_indices(n, seed, 2 ** 20), dtype=np.int64)
        assert hashlib.sha256(indices.tobytes()).hexdigest() == digest

    # SHA-256 of the JSON lines of two small sampled sweeps (300 random draws
    # each), recorded while sampled sweeps ran the per-pattern path
    @pytest.mark.parametrize("n, cap, count, digest", [
        (16, 2 ** 8, 554, "a66fafd46c6a2c5231c985f5ec8cb9136a7da539ee9973f32e05e256d19fb869"),
        (21, 2 ** 10, 1323, "7cb4815f6d3fa1d0ab4cc27782779e0cb11ae9804a77430447090e12e34a6cde"),
    ])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_golden_sampled_sweep(self, monkeypatch, n, cap, count, digest, jobs):
        import pohst.analysis as analysis

        monkeypatch.setattr(analysis, "SUBSAMPLE_RANDOM_COUNT", 300)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
        lines = [json.dumps(r.to_json_dict(), sort_keys=True) + "\n"
                 for r in sweep(n, jobs=jobs, seed=5, exhaustive_cap=cap)]
        assert len(lines) == count
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            list(sweep(25))
        assert list(sweep(0)) == []

    @pytest.mark.parametrize("kwargs", [
        {"n": 25}, {"n": 21, "seed": -1}, {"n": 4, "seed": -1}, {"n": 4, "exhaustive_cap": 0},
        {"n": 4, "jobs": 0}, {"n": 4, "jobs": -1},
    ], ids=["size", "sampled-seed", "seed", "cap", "jobs-0", "jobs-negative"])
    def test_bad_arguments_raise_on_call(self, kwargs):
        # checked before any record is asked for, so callers can fail early
        with pytest.raises(ValueError):
            sweep(**kwargs)

    def test_summary_counts(self):
        records = list(sweep(3))
        summary = sweep_summary(records, 3)
        assert summary["patterns"] == 8
        assert summary["valid"] == 8 and summary["invalid"] == 0
        assert summary["ladder_used"] == 8
        assert summary["sampled"] is False

    def test_parallel_merge_matches_serial(self, monkeypatch):
        # n = 7 clears the worker threshold, so a real 2-worker pool walks 16
        # runs of keys and the parent puts them back in index order
        import pohst.analysis as analysis

        pools = []

        class CountedPool(analysis.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
        for n in (7, 10):
            assert list(sweep(n, jobs=2)) == list(sweep(n))
        assert pools == [2, 2]

    def test_parallel_sampled_matches_serial(self, monkeypatch):
        import pohst.analysis as analysis

        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
        serial = list(sweep(8, exhaustive_cap=16))
        assert list(sweep(8, jobs=2, exhaustive_cap=16)) == serial

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        # the fake pool runs tasks inline, so a huge jobs value starts nothing
        import pohst.analysis as analysis

        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def map(self, fn, iterable):
                return (fn(arg) for arg in iterable)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
        assert list(sweep(7, jobs=10 ** 9)) == list(sweep(7))
        assert seen == [2]
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: None)
        assert list(sweep(7, jobs=10 ** 9)) == list(sweep(7))
        assert seen == [2]

    @pytest.mark.parametrize("cap", [2 ** 8, 16], ids=["exhaustive", "sampled"])
    def test_early_close_of_exhaustive_sweep_shuts_pool_down(self, monkeypatch, cap):
        # the walk gathers every run of keys before its first record, and the
        # pool is shut down with pending work cancelled all the same
        import pohst.analysis as analysis

        tasks, shutdowns = [], []
        monkeypatch.setattr(analysis, "ProcessPoolExecutor", recording_pool(tasks, shutdowns))
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(analysis, "SUBSAMPLE_RANDOM_COUNT", 80)
        indices = analysis._sweep_indices(8, 0, cap)
        assert 64 <= len(indices) <= 2 ** 8
        records = sweep(8, jobs=2, exhaustive_cap=cap)
        assert tasks == [] and shutdowns == []  # nothing runs before the first record
        assert next(records) == sweep_one(8, 0)
        records.close()
        assert len(tasks) == analysis.WALK_TASKS
        keys = sorted(key_of(8, i) for i in indices)
        assert np.concatenate(tasks).tolist() == keys
        # no run walks more than the path to its first key and its share of
        # the nodes that the other keys open below their predecessors
        share = -(-(walk_nodes(8, keys) - 9) // analysis.WALK_TASKS)
        assert max(walk_nodes(8, run.tolist()) for run in tasks) <= 9 + share
        assert shutdowns == [(True, True)]

    def test_construction_failure_yields_flagged_record(self, monkeypatch):
        import pohst.partition as partition
        from pohst.partition import LadderStuck

        def refuse(state, *args):
            raise LadderStuck(state.sigma, "K", None, "refused")

        monkeypatch.setattr(partition, "_ladder_row", refuse)
        records = list(sweep(1))
        assert all(not r.valid and r.heavy == -1 for r in records)
        assert sweep_summary(records, 1)["invalid"] == 2
        reference = [sweep_one(1, index) for index in range(2)]
        assert reference == records
        assert_flags_derived(records + reference)

    def test_flags_follow_heavy_and_target(self, monkeypatch):
        import pohst.analysis as analysis

        assert_flags_derived(sweep(10))
        monkeypatch.setattr(analysis, "SUBSAMPLE_RANDOM_COUNT", 300)
        assert_flags_derived(sweep(16, exhaustive_cap=2 ** 8))
        assert_flags_derived(sweep_one(10, index) for index in range(1 << 10))

    def test_leaves_partition_cache_untouched(self):
        # every pattern of a sweep is new, so the sweep builds its partitions
        # directly and the cache neither grows nor counts a lookup
        partitions_for.cache_clear()
        list(sweep(6))
        info = partitions_for.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_ladder_fraction_baseline(self):
        # pinned regression baseline: the case ladder covers every pattern
        # (measured exhaustively through n = 12); any drop is a regression
        for n in range(1, 10):
            summary = sweep_summary(list(sweep(n)), n)
            assert summary["ladder_used"] == summary["patterns"]
            assert summary["valid"] == summary["patterns"]


class TestWalk:
    """The exhaustive sweep's prefix walk against the per-pattern reference."""

    def test_matches_sweep_one_through_n12(self):
        for n in range(1, 13):
            assert list(sweep(n)) == [sweep_one(n, i) for i in range(1 << n)]

    @pytest.mark.parametrize("n", [16, 20])
    def test_subtree_matches_sweep_one(self, n):
        # every pattern under one seeded depth-8 prefix, where the runs are
        # complete, plus 200 scattered ones, whose paths the walk prunes
        from pohst.analysis import _walk

        rng = random.Random(n)
        prefix = rng.randrange(1 << 8)
        indices = {prefix + (slot << 8) for slot in range(1 << (n - 8))}
        indices.update(rng.sample(range(1 << n), 200))
        indices = sorted(indices, key=lambda i: key_of(n, i))
        walked = _walk(n, np.array([key_of(n, i) for i in indices]))
        assert walked.dtype == np.int16 and walked.shape == (len(indices), 3)
        heavy, k_size, target = walked.T
        assert (heavy == target).all()
        for slot, index in enumerate(indices):
            rec = sweep_one(n, index)
            assert rec.valid
            assert (heavy[slot], n * (n + 1) // 2 - k_size[slot], k_size[slot], target[slot]) == (
                rec.heavy, rec.J, rec.K, rec.target)

    def test_sampled_sweep_walks_without_sweep_one(self, monkeypatch):
        # pohst.analysis holds no per-pattern path, so the sampled sweep walks
        import pohst.analysis as analysis

        monkeypatch.setattr(analysis, "SUBSAMPLE_RANDOM_COUNT", 40)
        indices = analysis._sweep_indices(8, 0, 16).tolist()
        assert 16 < len(indices) < 64
        reference = [sweep_one(8, i) for i in indices]
        assert list(sweep(8, exhaustive_cap=16)) == reference

    @pytest.mark.parametrize("where", ["report", "state", "new"])
    def test_dropped_rectangle_corner_is_flagged(self, monkeypatch, where):
        # a row step that drops a rectangle's corner, from the group it
        # reports (the shape rules catch it) or from the pairs it takes (the
        # leaf's tiling check does), or that reports all four members as new,
        # the mixed pair's two again among them (the disjointness check
        # does), flags exactly the patterns whose partitions hold a rectangle
        import pohst.partition as partition

        n = 8
        with_rectangle = {
            index for index in range(1 << n)
            if any(
                group.shape is Shape.RECTANGLE_QUAD
                for build in (eta_partition, build_pi)
                for group in build(pattern_from_index(n, index)).groups
            )
        }
        real = partition._ladder_row

        def mutant(state, j, *args):
            reports = []
            for shape, members, new in real(state, j, *args):
                if shape is Shape.RECTANGLE_QUAD:
                    corner = members[3]
                    if where == "report":
                        members = members[:3]
                    elif where == "state":
                        state.free_row[j] |= 1 << corner[0]
                    else:
                        new = members
                reports.append((shape, members, new))
            return reports

        monkeypatch.setattr(partition, "_ladder_row", mutant)
        records = list(sweep(n))
        flagged = {index for index, rec in enumerate(records) if not rec.valid}
        assert len(flagged) > 100 and flagged == with_rectangle
        assert all(rec.heavy == -1 and not rec.ladder for rec in records if not rec.valid)
        # a sampled sweep, which walks only the paths to its drawn patterns,
        # flags exactly its share of them
        import pohst.analysis as analysis

        monkeypatch.setattr(analysis, "SUBSAMPLE_RANDOM_COUNT", 60)
        indices = analysis._sweep_indices(n, 0, 16).tolist()
        records = list(sweep(n, exhaustive_cap=16))
        assert [rec.sigma for rec in records] == [
            pattern_from_index(n, index).to_string() for index in indices]
        flagged = {index for index, rec in zip(indices, records) if not rec.valid}
        assert len(flagged) > 10 and flagged == with_rectangle.intersection(indices)
        assert all(rec.heavy == -1 and not rec.ladder for rec in records if not rec.valid)

    def test_out_of_order_mixed_pair_is_flagged(self, monkeypatch):
        # the shape rule takes a reported group's members in construction
        # order as they come, so a row step that reports a column mate's
        # pair negative first flags exactly the patterns whose partitions
        # hold such a pair, instead of having it sorted back
        import pohst.partition as partition

        n = 8
        with_column_pair = {
            index for index in range(1 << n)
            if any(
                group.shape is Shape.MIXED_PAIR and group.members[0][1] != group.members[1][1]
                for build in (eta_partition, build_pi)
                for group in build(pattern_from_index(n, index)).groups
            )
        }
        real = partition._ladder_row

        def mutant(*args):
            return [
                (shape, members[::-1] if shape is Shape.MIXED_PAIR
                 and members[0][1] != members[1][1] else members, new)
                for shape, members, new in real(*args)
            ]

        monkeypatch.setattr(partition, "_ladder_row", mutant)
        records = list(sweep(n))
        flagged = {index for index, rec in enumerate(records) if not rec.valid}
        assert len(flagged) > 100 and flagged == with_column_pair
        assert all(rec.heavy == -1 for rec in records if not rec.valid)


class TestMaximize:
    def test_negative_seed_rejected(self):
        # restart r starts from the point of index seed + r, whose digit loop
        # never ends for a negative index
        with pytest.raises(ValueError):
            MaximizeConfig(seed=-1)

    def test_single_negative_attains_two(self):
        result = maximize_f(SignVector.from_string("-"))
        assert result.best_value == 2.0
        assert result.gap == 0.0 and not result.exceeded_bound
        assert result.best_x == (-1.0,)

    def test_single_positive_hits_floor(self):
        cfg = MaximizeConfig(restarts=2, iterations=5)
        result = maximize_f(SignVector.from_string("+"), cfg)
        assert result.best_value == 1.0 - cfg.delta
        assert result.bound == 1.0

    def test_double_negative_approaches_two(self):
        cfg = MaximizeConfig(restarts=4, iterations=12, delta=1e-3)
        result = maximize_f(SignVector.from_string("--"), cfg)
        assert result.best_value >= 1.99
        assert result.best_value <= 2.0 * (1 + 1e-9)

    def test_deterministic_given_seed(self):
        cfg = MaximizeConfig(restarts=3, iterations=6, seed=42)
        a = maximize_f(SignVector.from_string("-+-"), cfg)
        b = maximize_f(SignVector.from_string("-+-"), cfg)
        assert a == b

    def test_never_exceeds_certified_bound(self):
        cfg = MaximizeConfig(restarts=3, iterations=8)
        for text in ("+", "-", "-+", "--", "-+-", "+-+-", "----"):
            sigma = SignVector.from_string(text)
            result = maximize_f(sigma, cfg)
            assert not result.exceeded_bound
            assert result.best_value <= (2.0 ** min_heavy_target(sigma)) * (1 + 1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MaximizeConfig(delta=0.0)
        with pytest.raises(ValueError):
            MaximizeConfig(restarts=0)

    def test_batch_objective_matches_scalar_reference(self):
        # maximize_f evaluates its line points as factor_matrix(X).prod(axis=1),
        # up to 8 restarts of 17 points per batch; every row must equal the
        # scalar running product bit for bit, with n = 0 giving 1.0
        rng = np.random.default_rng(17)
        assert factor_matrix(np.empty((3, 0))).prod(axis=1).tolist() == [1.0] * 3
        for rows in range(1, 137):
            n = 7 * rows % 65  # every n in 0..64 comes up twice
            X = (1.0 - rng.random((rows, n))) * rng.choice((-1.0, 1.0), (rows, n))
            full = rng.random((rows, n)) < 0.2  # full magnitudes, as restart 0 starts
            X[full] = np.sign(X[full])
            batch = factor_matrix(X).prod(axis=1).tolist()
            assert batch == [objective(x) for x in X.tolist()]

    # SHA-256 over the evaluation count, best value, restart values and best
    # point (floats as hex) of every case of golden_maximize_cases, recorded
    # with the scalar line search, one objective call per point
    GOLDEN_MAXIMIZE_DIGEST = (
        "531a56da9f9dc0f8569dbb84be6806b293f8f9d8cc34f20bf95cbc9b37b142a7"
    )

    @staticmethod
    def golden_maximize_cases():
        # every pattern with n <= 6; their three restarts stop after
        # different iteration counts on 122 of the 127 patterns
        small = MaximizeConfig(restarts=3, iterations=6, seed=1)
        for n in range(7):
            for index in range(1 << n):
                yield pattern_from_index(n, index), small
        # seeded longer patterns with few iterations; at n = 10 and 16 some
        # restarts stop before the cap, at n = 24 and 64 all reach it
        rng = random.Random(2212)
        for n, count, cfg in (
            (10, 3, MaximizeConfig(restarts=4, iterations=3, seed=5, delta=1e-3)),
            (16, 2, MaximizeConfig(restarts=3, iterations=2, seed=2)),
            (24, 2, MaximizeConfig(restarts=2, iterations=1, seed=7)),
            (64, 1, MaximizeConfig(restarts=2, iterations=1, seed=3)),
        ):
            for _ in range(count):
                yield SignVector(tuple(rng.choice((1, -1)) for _ in range(n))), cfg

    def test_golden_maximize_digest(self):
        digest = hashlib.sha256()
        for sigma, cfg in self.golden_maximize_cases():
            result = maximize_f(sigma, cfg)
            doc = [
                result.sigma,
                [cfg.restarts, cfg.iterations, cfg.seed, cfg.delta.hex()],
                result.evaluations,
                result.best_value.hex(),
                [v.hex() for v in result.restart_values],
                [v.hex() for v in result.best_x],
            ]
            digest.update(json.dumps(doc).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == self.GOLDEN_MAXIMIZE_DIGEST


class TestIdentity:
    def test_three_point_residual_is_exact_zero(self):
        assert identity_residual(RealVectorY((1.0, -2.0, 4.0))) == 0.0

    def test_examples(self):
        assert identity_residual(RealVectorY((1.0, 2.0, 4.0, 8.0))) <= 1e-12
        assert identity_residual(RealVectorY((1.0, -2.0, 4.0, -8.0, 16.0))) <= 1e-12
        assert iterated_identity_residual(RealVectorY((1.0, 2.0, 4.0, 8.0))) <= 1e-12
        assert iterated_identity_residual(
            RealVectorY((1.0, -2.0, 4.0, -8.0, 16.0))) <= 1e-12
        assert iterated_identity_residual(RealVectorY((1.0, -3.0, 9.0, -27.0))) <= 1e-12

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            identity_residual(RealVectorY((1.0, 2.0)))
        with pytest.raises(ValueError):
            iterated_identity_residual(RealVectorY((1.0, 2.0, 4.0)))

    @pytest.mark.parametrize("residual", [identity_residual, iterated_identity_residual])
    def test_length_cap(self, residual, monkeypatch):
        import pohst.analysis as analysis

        reached = []
        monkeypatch.setattr(analysis, "_leave_out_residual",
                            lambda y, d: reached.append(len(y)) or 0.0)
        residual(RealVectorY(tuple(2.0 ** k for k in range(MAX_IDENTITY_N))))
        assert reached == [MAX_IDENTITY_N]
        too_long = RealVectorY(tuple(2.0 ** k for k in range(MAX_IDENTITY_N + 1)))
        with pytest.raises(ValueError, match=f"at most {MAX_IDENTITY_N} entries"):
            residual(too_long)
        assert reached == [MAX_IDENTITY_N]

    def test_overflowing_power_takes_log_path(self):
        # P is about 66 here and P**190 leaves the double range: float **
        # raises there instead of giving inf, and the log side must decide
        y = RealVectorY(tuple(float((-2) ** k) for k in range(22)))
        assert iterated_identity_residual(y) <= 1e-9

    def test_random_residuals_small(self):
        rng = random.Random(31)
        for _ in range(100):
            y = random_y(rng, rng.randint(3, 8))
            assert identity_residual(y) <= 1e-9
        for _ in range(100):
            y = random_y(rng, rng.randint(4, 8))
            assert iterated_identity_residual(y) <= 1e-9

    def test_log_space_path_under_underflow(self):
        # tight ratios drive every factor small; the direct product of the
        # leave-two-out side underflows and the log path must take over
        rng = random.Random(7)
        mag, out = 1.0, []
        for _ in range(8):
            out.append(mag)
            mag *= 1.009
        y = RealVectorY(tuple(out))
        assert iterated_identity_residual(y) <= 1e-9

    # SHA-256 over float.hex of eval_P and both residuals on seeded y vectors
    # with n = 4..12, wide ratios and tight ones (which take the log-space
    # path); recorded while analysis and certify each had their own y-side
    # factor loop
    GOLDEN_Y_DIGEST = (
        "4f1c6bfd1784df7837129f8392cca0f5d361bbd5c6e40fb5cd7982339c397107"
    )

    def test_golden_values(self):
        rng = random.Random(2024)
        digest = hashlib.sha256()
        for n in range(4, 13):
            for growth in ((0.1, 2.0), (0.001, 0.05)):
                for _ in range(30):
                    y = random_y(rng, n, growth)
                    for value in (eval_P(y), identity_residual(y),
                                  iterated_identity_residual(y)):
                        digest.update(value.hex().encode() + b"\n")
        assert digest.hexdigest() == self.GOLDEN_Y_DIGEST


class TestSoundnessSample:
    def test_no_violations_smoke(self):
        report = bound_soundness_sample(4, 3000, seed=2)
        assert report.total_violations == 0
        assert report.group_violations == 0
        assert report.max_total_ratio <= 1.0 + 1e-12
        assert report.max_group_ratio <= 1.0 + 1e-12
        assert report.patterns == 16

    def test_single_entry_patterns(self):
        report = bound_soundness_sample(1, 2000, seed=3)
        assert report.total_violations == 0 and report.group_violations == 0
        assert report.patterns == 2

    # Every field of the report, max ratios as float.hex, recorded with the
    # per-pattern mask-and-column kernel that preceded the sorted pass.
    GOLDEN = {
        (0, 10, 0): (1, 0, 0, "0x1.0000000000000p+0", "0x0.0p+0"),
        (1, 2000, 3): (2, 0, 0, "0x1.ffeb02a1a1ce9p-1", "0x1.ffeb02a1a1ce9p-1"),
        (4, 3000, 2): (16, 0, 0, "0x1.c9b1a07c85c30p-1", "0x1.ffffffe9345fep-1"),
        (6, 5000, 1): (64, 0, 0, "0x1.8c7c70fba4cd5p-1", "0x1.ffffff8af9977p-1"),
        (10, 20000, 5): (1024, 0, 0, "0x1.0972904e14306p-1", "0x1.fffffffff8c0cp-1"),
        (0, 0, 0): (0, 0, 0, "0x0.0p+0", "0x0.0p+0"),
        (5, 0, 7): (0, 0, 0, "0x0.0p+0", "0x0.0p+0"),
    }

    @pytest.mark.parametrize("n, samples, seed", sorted(GOLDEN))
    def test_golden_reports(self, n, samples, seed):
        report = bound_soundness_sample(n, samples, seed=seed)
        assert (report.n, report.samples) == (n, samples)
        assert (
            report.patterns,
            report.total_violations,
            report.group_violations,
            report.max_total_ratio.hex(),
            report.max_group_ratio.hex(),
        ) == self.GOLDEN[(n, samples, seed)]

    # at n = 1 each pattern has exactly one group, so groups == samples
    @pytest.mark.parametrize("n, samples, seed, groups", [
        (1, 500, 4, 500), (3, 700, 1, 2643), (6, 2000, 2, 20848),
    ])
    def test_negative_tolerance_counts_every_positive_product(self, n, samples, seed, groups):
        # magnitudes lie in (0, 1], so every factor, group product and total
        # is positive and a tolerance of -1 turns each of them into a violation
        report = bound_soundness_sample(n, samples, seed=seed, tolerance=-1.0)
        assert report.total_violations == samples
        assert report.group_violations == groups

    @pytest.mark.parametrize("n, samples, seed, tolerance", [
        # one pattern block spans three chunks and more; from n = 1 the
        # sign draws run over as many blocks and a ragged tail
        (0, 3 * _SOUNDNESS_CHUNK + 17, 6, 1e-12),
        (1, 6 * _SOUNDNESS_CHUNK + 5, 7, 1e-12),
        # blocks of about 50 and 8 samples straddle the chunk ends
        (8, 3 * _SOUNDNESS_CHUNK + 301, 8, 1e-12),
        (10, 2 * _SOUNDNESS_CHUNK + 99, 9, -2.0),
        # uint16 codes up to n = 16, int64 codes beyond
        (16, 1500, 10, 1e-12),
        (20, 400, 11, 1e-12),
        (3, 900, 12, -2.0),
        (7, 0, 13, 1e-12),
        # tightened bounds put heavy (bound 2) and light (bound 1) group
        # products on both sides of their bounds, over two chunks and more
        (5, 2 * _SOUNDNESS_CHUNK + 37, 14, -0.5),
        (5, 2 * _SOUNDNESS_CHUNK + 37, 15, -0.25),
        (8, 2 * _SOUNDNESS_CHUNK + 211, 16, -0.5),
        (8, 2 * _SOUNDNESS_CHUNK + 211, 17, -0.25),
        (10, 3 * _SOUNDNESS_CHUNK + 5, 18, -0.5),
        (10, 3 * _SOUNDNESS_CHUNK + 5, 19, -0.25),
    ])
    def test_matches_per_pattern_reference(self, n, samples, seed, tolerance):
        report = bound_soundness_sample(n, samples, seed=seed, tolerance=tolerance)
        reference = soundness_reference(n, samples, seed=seed, tolerance=tolerance)
        assert report == reference
        assert (report.max_total_ratio.hex(), report.max_group_ratio.hex()) == (
            reference.max_total_ratio.hex(), reference.max_group_ratio.hex())

    def test_leaves_partition_cache_untouched(self):
        # soundness sampling keeps its own slot tables and never looks a
        # pattern up in the certificates' partition cache
        partitions_for.cache_clear()
        bound_soundness_sample(6, 5000, seed=1)
        info = partitions_for.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_second_call_hits_one_table_per_pattern(self):
        _slot_table.cache_clear()
        bound_soundness_sample(6, 5000, seed=1)
        info = _slot_table.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 64, 64)
        bound_soundness_sample(6, 5000, seed=2)
        info = _slot_table.cache_info()
        assert (info.hits, info.misses, info.currsize) == (64, 64, 64)

    def test_stuck_ladder_is_not_cached(self, monkeypatch):
        import pohst.partition as partition

        def refuse(state, *args):
            raise LadderStuck(state.sigma, "K", None, "refused")

        _slot_table.cache_clear()
        monkeypatch.setattr(partition, "_ladder_row", refuse)
        with pytest.raises(LadderStuck):
            bound_soundness_sample(6, 5000, seed=1)
        assert _slot_table.cache_info().currsize == 0
        monkeypatch.undo()
        self.test_golden_reports(6, 5000, 1)

    @pytest.mark.parametrize("n", range(9))
    def test_slot_tables_follow_the_partitions(self, n):
        # slot s < pairs is factor_matrix column s, in lexicographic order;
        # slot pairs is the row of 1.0 and slot pairs + 1 the row of 0.5
        pairs = n * (n + 1) // 2
        lexicographic = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for code in range(1 << n):
            sigma = pattern_from_index(n, code)
            table, bound = _slot_table(n, code)
            k_part, j_part = partitions_for(sigma)
            groups = k_part.groups + j_part.groups
            assert table.shape == (4, len(groups))
            assert bound == 2.0 ** min_heavy_target(sigma)
            assert sorted(slot for slot in table.ravel().tolist() if slot < pairs) == list(
                range(pairs))
            halved = 0
            for group, slots in zip(groups, table.T.tolist()):
                size, heavy = len(group.members), group.shape.heavy
                assert tuple(lexicographic[slot] for slot in slots[:size]) == tuple(
                    group.members)
                assert slots[size:] == [pairs] * (4 - size - heavy) + [pairs + 1] * heavy
                halved += pairs + 1 in slots
            assert halved == min_heavy_target(sigma)

    @pytest.mark.parametrize("n", [-1, 64, 65])
    def test_rejects_sizes_whose_codes_overflow(self, n, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("samples drawn before the size check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="0..63"):
            bound_soundness_sample(n, 200)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerance(self, tolerance, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("samples drawn before the tolerance check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="tolerance must be finite"):
            bound_soundness_sample(4, 2000, tolerance=tolerance)
