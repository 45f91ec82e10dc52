"""Good-partition construction, validation, search oracle and trace checks."""

import hashlib
import itertools
import json
import random

import pytest

from pohst.signs import (
    PatternContext,
    SignVector,
    min_heavy_target,
    pair_sign_maps,
    pair_sort_key,
)
from pohst.partition import (
    MAX_SEARCH_N,
    _ladder,
    ConstructionTrace,
    GoodPartition,
    LadderStuck,
    PartitionGroup,
    Shape,
    TraceStep,
    build_eta,
    build_pi,
    check_construction_invariants,
    construct_eta,
    group_shape_violations,
    search_partition,
    validate_partition,
)


def all_sigmas(n):
    for bits in itertools.product((1, -1), repeat=n):
        yield SignVector(bits)


def group(shape, *members):
    return PartitionGroup(shape, tuple(members))


def members_of(part):
    return {g.members for g in part.groups}


class TestValidate:
    def test_two_heavy_singletons_ok(self):
        sigma = SignVector.from_string("-+-")
        part = GoodPartition("K", (
            group(Shape.NEGATIVE_SINGLETON, (1, 1)),
            group(Shape.NEGATIVE_SINGLETON, (3, 3)),
        ))
        report = validate_partition(sigma, part)
        assert report.ok
        assert part.heavy_count == 2 == min_heavy_target(sigma)

    def test_rectangle_ok(self):
        sigma = SignVector.from_string("-+-")
        part = GoodPartition("J", (
            group(Shape.RECTANGLE_QUAD, (2, 2), (1, 2), (2, 3), (1, 3)),
        ))
        assert validate_partition(sigma, part).ok

    def test_sign_mismatch_reported(self):
        sigma = SignVector.from_string("++")
        part = GoodPartition("K", (group(Shape.NEGATIVE_SINGLETON, (1, 2)),))
        report = validate_partition(sigma, part)
        assert not report.ok
        assert any("positive product sign" in v for v in report.violations)

    def test_heavy_count_enforced(self):
        # all-singleton cover of K is shape-valid but over-heavy
        sigma = SignVector.from_string("--")
        part = GoodPartition("K", (
            group(Shape.NEGATIVE_SINGLETON, (1, 1)),
            group(Shape.NEGATIVE_SINGLETON, (2, 2)),
            group(Shape.POSITIVE_SINGLETON, (1, 2)),
        ))
        report = validate_partition(sigma, part)
        assert not report.ok
        assert any("heavy group count" in v for v in report.violations)

    def test_uncovered_and_duplicate_pairs(self):
        sigma = SignVector.from_string("--")
        report = validate_partition(sigma, GoodPartition("K", ()))
        assert any("uncovered" in v for v in report.violations)
        part = GoodPartition("K", (
            group(Shape.NEGATIVE_SINGLETON, (1, 1)),
            group(Shape.NEGATIVE_SINGLETON, (1, 1)),
        ))
        assert any("appears in groups" in v
                   for v in validate_partition(sigma, part).violations)

    def test_heavy_shapes_rejected_in_j(self):
        sigma = SignVector.from_string("+-")
        # J holds {(1,1)+, (1,2)-}; a heavy singleton is not admissible there
        part = GoodPartition("J", (
            group(Shape.POSITIVE_SINGLETON, (1, 1)),
            group(Shape.NEGATIVE_SINGLETON, (1, 2)),
        ))
        report = validate_partition(sigma, part)
        assert any("not admissible" in v for v in report.violations)

    def test_out_of_range_member_raises(self):
        with pytest.raises(IndexError):
            validate_partition(
                SignVector.from_string("+"),
                GoodPartition("J", (group(Shape.POSITIVE_SINGLETON, (1, 2)),)),
            )

    def test_mixed_pair_geometry(self):
        # in K of "--" the negative (1, 1) lies below the positive (1, 2) in
        # its column instead of enclosing it
        kmap = pair_sign_maps(SignVector.from_string("--"))[1]
        findings = group_shape_violations(group(Shape.MIXED_PAIR, (1, 2), (1, 1)), kmap)
        assert findings == ["negative (1, 1) does not enclose positive (1, 2) along a row or column"]
        jmap = pair_sign_maps(SignVector.from_string("+-"))[0]
        assert not group_shape_violations(group(Shape.MIXED_PAIR, (1, 1), (1, 2)), jmap)

    def test_l_triple_geometry(self):
        sigma = SignVector.from_string("--")
        good = group(Shape.L_TRIPLE, (1, 1), (1, 2), (2, 2))
        assert not group_shape_violations(good, pair_sign_maps(sigma)[1])
        bad = group(Shape.L_TRIPLE, (1, 1), (2, 2), (1, 2))
        # same members, shape inference must not depend on member order
        assert not group_shape_violations(bad, pair_sign_maps(sigma)[1])
        # column mate (1,1) and row mate (4,4) are not adjacent, so the
        # triple is not elementary case 3: at x = (-1, 1e-3, 1e-3, -1) its
        # product is about 4 against a bound of 2
        sigma = SignVector.from_string("-++-")
        gapped = group(Shape.L_TRIPLE, (1, 1), (1, 4), (4, 4))
        assert group_shape_violations(gapped, pair_sign_maps(sigma)[1])
        part = GoodPartition("K", (
            gapped,
            group(Shape.MIXED_PAIR, (2, 3), (1, 3)),
            group(Shape.NEGATIVE_SINGLETON, (2, 4)),
        ))
        report = validate_partition(sigma, part)
        assert not report.ok
        assert any("does not end just before" in v for v in report.violations)


class TestBuildEta:
    def test_two_unstable_rows(self):
        sigma = SignVector.from_string("-+-")
        part, trace = build_eta(sigma)
        assert members_of(part) == {((1, 1),), ((3, 3),)}
        assert trace.op3_uses == 2
        assert [s.case for s in trace.steps] == [2, 2]

    def test_no_negatives_keeps_base_partition(self):
        part, trace = build_eta(SignVector.from_string("++"))
        assert members_of(part) == {((1, 2),)}
        assert part.groups[0].shape is Shape.POSITIVE_SINGLETON
        assert trace.op3_uses == 0 and trace.steps == ()

    def test_empty_pattern(self):
        part, trace = build_eta(SignVector(()))
        assert part.groups == () and trace.op3_uses == 0

    def test_stable_row_folds_triple(self):
        part, trace = build_eta(SignVector.from_string("--"))
        assert members_of(part) == {((1, 1), (2, 2), (1, 2))}
        assert part.groups[0].shape is Shape.L_TRIPLE
        assert trace.op3_uses == 1
        assert [s.operation for s in trace.steps] == [3, 4]

    def test_op3_count_matches_heavy(self):
        for n in range(1, 9):
            for sigma in all_sigmas(n):
                part, trace = build_eta(sigma)
                assert trace.op3_uses == part.heavy_count == min_heavy_target(sigma)

    def test_intermediate_groups_respect_shapes(self):
        kmaps = {}
        for sigma in all_sigmas(6):
            _, trace = build_eta(sigma)
            kmap = pair_sign_maps(sigma)[1]
            for step in trace.steps:
                produced = PartitionGroup(step.shape, step.produced)
                assert not group_shape_violations(produced, kmap)

    def test_operations_conserve_heavy_budget(self):
        # heavy count moves only through operation 3; operation 4 trades one
        # heavy singleton for one heavy triple, operations 1 and 2 touch none
        for sigma in all_sigmas(7):
            part, trace = build_eta(sigma)
            heavy = 0
            for step in trace.steps:
                if step.operation == 1:
                    assert step.shape is Shape.MIXED_PAIR
                    assert len(step.consumed) == 1 and len(step.consumed[0]) == 1
                elif step.operation == 2:
                    assert step.shape is Shape.RECTANGLE_QUAD
                    assert [len(g) for g in step.consumed] == [2, 1]
                elif step.operation == 3:
                    assert step.shape is Shape.NEGATIVE_SINGLETON
                    assert step.consumed == ()
                    heavy += 1
                elif step.operation == 4:
                    assert step.shape is Shape.L_TRIPLE
                    assert [len(g) for g in step.consumed] == [1, 1]
            assert heavy == trace.op3_uses == part.heavy_count


class TestBuildPi:
    def test_rectangle_cover(self):
        part = build_pi(SignVector.from_string("-+-"))
        assert members_of(part) == {((2, 2), (1, 2), (2, 3), (1, 3))}
        assert part.groups[0].shape is Shape.RECTANGLE_QUAD

    def test_all_positive_singletons(self):
        part = build_pi(SignVector.from_string("++"))
        assert members_of(part) == {((1, 1),), ((2, 2),)}

    def test_empty_target(self):
        part = build_pi(SignVector.from_string("-"))
        assert part.groups == ()

    def test_exhaustive_small(self):
        for n in range(1, 9):
            for sigma in all_sigmas(n):
                part = build_pi(sigma)
                assert validate_partition(sigma, part).ok
                assert part.heavy_count == 0


def reference_ladder(sigma, target):
    """The set-based case ladder that the bit-row ladder replaced: pairs in
    sets and dicts, members sorted per group.  It serves as the reference
    for partitions and traces; where the ladder would be stuck it fails
    with a ``KeyError`` or ``AssertionError``."""
    heavy = target == "K"
    signmap = pair_sign_maps(sigma)[1 if heavy else 0]
    stable = PatternContext(sigma).stable
    pos_free = {p for p, s in signmap.items() if s > 0}
    hpartner, heavy_in_row, groups, steps, failures = {}, {}, {}, [], {}
    op3_uses = 0
    ids = itertools.count()

    def add_group(shape, members):
        gid = next(ids)
        groups[gid] = PartitionGroup(shape, tuple(sorted(members, key=pair_sort_key)))
        return gid

    for neg in sorted((p for p, s in signmap.items() if s < 0), key=pair_sort_key):
        i, j = neg
        mate = next(((i2, j) for i2 in range(i + 1, j + 1) if (i2, j) in pos_free), None)
        if mate is not None:
            pos_free.discard(mate)
            gid = add_group(Shape.MIXED_PAIR, (mate, neg))
            hpartner[mate] = (gid, neg)
            steps.append(TraceStep(neg, 1, 1, ((mate,),), groups[gid].members, Shape.MIXED_PAIR))
            continue
        case = 0
        if heavy:
            failures[j] = failures.get(j, 0) + 1
            if failures[j] == 1 and not stable[j]:
                gid = add_group(Shape.NEGATIVE_SINGLETON, (neg,))
                heavy_in_row[j] = (gid, neg)
                op3_uses += 1
                steps.append(TraceStep(neg, 2, 3, (), (neg,), Shape.NEGATIVE_SINGLETON))
                continue
            if failures[j] == 1:
                gid_low, low = heavy_in_row.pop(i - 1)
                top = (low[0], j)
                pos_free.remove(top)
                del groups[gid_low]
                gid = add_group(Shape.L_TRIPLE, (low, top, neg))
                steps.append(TraceStep(
                    neg, 5, 4, ((low,), (top,)), groups[gid].members, Shape.L_TRIPLE))
                continue
            case = 6 if stable[j] else (3 if failures[j] == 2 else 4)
        mate = next(((i, j2) for j2 in range(j - 1, i - 1, -1) if (i, j2) in pos_free), None)
        if mate is not None:
            pos_free.discard(mate)
            gid = add_group(Shape.MIXED_PAIR, (mate, neg))
            steps.append(TraceStep(neg, case, 1, ((mate,),), groups[gid].members, Shape.MIXED_PAIR))
            continue
        for ell in range(j - 1, i - 1, -1):
            entry = hpartner.get((i, ell))
            if entry is not None and (entry[1][0], j) in pos_free:
                gid_pair, low_neg = entry
                corner = (low_neg[0], j)
                pos_free.discard(corner)
                consumed = (groups.pop(gid_pair).members, (corner,))
                del hpartner[(i, ell)]
                gid = add_group(Shape.RECTANGLE_QUAD, ((i, ell), low_neg, neg, corner))
                steps.append(TraceStep(
                    neg, case, 2, consumed, groups[gid].members, Shape.RECTANGLE_QUAD))
                break
        else:
            raise AssertionError(f"reference ladder stuck at {neg}")
    for p in pos_free:
        add_group(Shape.POSITIVE_SINGLETON, (p,))
    ordered = tuple(sorted(groups.values(), key=lambda g: pair_sort_key(g.members[0])))
    if not heavy:
        return GoodPartition(target, ordered, "greedy"), None
    return GoodPartition(target, ordered, "ladder"), ConstructionTrace(tuple(steps), op3_uses)


class TestBitRowLadder:
    def test_matches_reference_ladder(self):
        for n in range(11):
            for sigma in all_sigmas(n):
                ctx = PatternContext(sigma)
                for target in ("K", "J"):
                    assert _ladder(ctx, target) == reference_ladder(sigma, target)


class TestSearch:
    def test_agrees_with_ladder_example(self):
        sigma = SignVector.from_string("-+-")
        found = search_partition(sigma, "K", 2)
        part, _ = build_eta(sigma)
        assert members_of(found) == members_of(part)

    def test_no_negatives(self):
        found = search_partition(SignVector.from_string("++"), "K", 0)
        assert members_of(found) == {((1, 2),)}

    def test_rectangle(self):
        found = search_partition(SignVector.from_string("-+-"), "J", 0)
        assert members_of(found) == {((2, 2), (1, 2), (2, 3), (1, 3))}

    def test_heavy_budget_is_forced(self):
        # no cover exists with one heavy group fewer (checked exhaustively)
        for n in range(1, 7):
            for sigma in all_sigmas(n):
                target = min_heavy_target(sigma)
                if target:
                    assert search_partition(sigma, "K", target - 1) is None

    def test_overfull_budget_unreachable(self):
        sigma = SignVector.from_string("-+-")
        negatives = sum(1 for s in pair_sign_maps(sigma)[1].values() if s < 0)
        assert search_partition(sigma, "K", negatives + 1) is None

    def test_ladder_agreement(self):
        for n in range(1, 8):
            for sigma in all_sigmas(n):
                part, _ = build_eta(sigma)
                found = search_partition(sigma, "K", min_heavy_target(sigma))
                assert found is not None
                assert found.heavy_count == part.heavy_count
                assert validate_partition(sigma, found).ok

    def test_rejects_heavy_budget_for_j(self):
        with pytest.raises(ValueError):
            search_partition(SignVector.from_string("+"), "J", 1)

    def test_length_limit(self):
        longest = SignVector((-1,) * MAX_SEARCH_N)
        found = search_partition(longest, "K", min_heavy_target(longest))
        assert validate_partition(longest, found).ok
        with pytest.raises(ValueError, match="at most"):
            search_partition(SignVector((-1,) * (MAX_SEARCH_N + 1)), "K", 0)

    def test_randomized_large_patterns(self):
        import random

        rng = random.Random(123)
        for _ in range(60):
            n = rng.randint(11, 16)
            sigma = SignVector(tuple(rng.choice((1, -1)) for _ in range(n)))
            found_k = search_partition(sigma, "K", min_heavy_target(sigma))
            found_j = search_partition(sigma, "J", 0)
            assert found_k is not None and found_j is not None
            assert validate_partition(sigma, found_k).ok
            assert validate_partition(sigma, found_j).ok
            part, _ = build_eta(sigma)
            assert part.heavy_count == found_k.heavy_count


class TestConstructEta:
    def test_reports_ladder_path(self):
        result = construct_eta(SignVector.from_string("-+-"))
        assert result.ladder_used and result.trace is not None
        assert result.partition.method == "ladder"

    def test_ladder_is_the_only_path(self, monkeypatch):
        import pohst.partition as partition

        def refuse(*args):
            raise AssertionError("the search must not run")

        def empty(ctx, target):
            return GoodPartition(target, ()), None

        def stuck(ctx, target):
            raise LadderStuck(ctx.sigma, target, (1, 1), "forced gap")

        monkeypatch.setattr(partition, "search_partition", refuse)
        sigma = SignVector.from_string("-+-")
        for ladder, negative, reason in ((empty, None, "uncovered"),
                                         (stuck, (1, 1), "forced gap")):
            monkeypatch.setattr(partition, "_ladder", ladder)
            for build, target in ((construct_eta, "K"), (build_pi, "J")):
                with pytest.raises(LadderStuck) as info:
                    build(sigma)
                assert info.value.sigma == sigma and info.value.target == target
                assert info.value.negative == negative
                assert reason in info.value.reason

    def test_heavy_count_helper(self):
        part = GoodPartition("K", (
            group(Shape.NEGATIVE_SINGLETON, (1, 1)),
            group(Shape.POSITIVE_SINGLETON, (1, 2)),
        ))
        assert part.heavy_count == 1
        assert GoodPartition("K", ()).heavy_count == 0


class TestTraceChecks:
    def test_clean_trace(self):
        sigma = SignVector.from_string("-+-")
        _, trace = build_eta(sigma)
        assert check_construction_invariants(sigma, trace) == []

    def test_vacuous_on_empty_trace(self):
        sigma = SignVector.from_string("++")
        _, trace = build_eta(sigma)
        assert check_construction_invariants(sigma, trace) == []

    def test_column_clash_detected(self):
        sigma = SignVector.from_string("-+-")
        fabricated = ConstructionTrace((
            TraceStep((1, 1), 2, 3, (), ((1, 1),), Shape.NEGATIVE_SINGLETON),
            TraceStep((1, 3), 2, 3, (), ((1, 3),), Shape.NEGATIVE_SINGLETON),
        ), 2)
        issues = check_construction_invariants(sigma, fabricated)
        assert any("share column" in v for v in issues)

    def test_order_violation_detected(self):
        sigma = SignVector.from_string("-+-")
        fabricated = ConstructionTrace((
            TraceStep((3, 3), 2, 3, (), ((3, 3),), Shape.NEGATIVE_SINGLETON),
            TraceStep((1, 1), 2, 3, (), ((1, 1),), Shape.NEGATIVE_SINGLETON),
        ), 2)
        issues = check_construction_invariants(sigma, fabricated)
        assert any("construction order" in v for v in issues)

    def test_row_connectivity_detected(self):
        sigma = SignVector.from_string("----")
        fabricated = ConstructionTrace((
            TraceStep((2, 2), 6, 1, (), ((1, 1), (2, 2)), Shape.MIXED_PAIR),
            TraceStep((2, 3), 6, 1, (), ((1, 1), (2, 3)), Shape.MIXED_PAIR),
        ), 0)
        issues = check_construction_invariants(sigma, fabricated)
        assert any("connected to higher rows" in v for v in issues)

    def test_unbalanced_tail_detected(self):
        # the tail (2, 4), (3, 4), (4, 4) holds a canonical negative, a
        # non-canonical negative and a non-canonical positive
        sigma = SignVector.from_string("+-+-")
        fabricated = ConstructionTrace((
            TraceStep((1, 4), 2, 3, (), ((1, 4),), Shape.NEGATIVE_SINGLETON),
        ), 1)
        assert check_construction_invariants(sigma, fabricated) == [
            "step 0: tail of (1, 4) holds 2 negative vs 1 positive pairs, "
            "expected a surplus of 0 (canonical-only count 1/0)"
        ]

    def test_exhaustive_clean(self):
        for n in range(1, 9):
            for sigma in all_sigmas(n):
                ctx = PatternContext(sigma)
                _, trace = build_eta(ctx)
                assert check_construction_invariants(ctx, trace) == \
                    check_construction_invariants(sigma, trace) == []


# SHA-256 over the K ladder's partition and trace and the J partition of
# every pattern with n <= 9, recorded before the two constructions were
# merged into one ladder
GOLDEN_PARTITION_DIGEST = (
    "ac8891e6c19972f4b490f9766e0a4a6dc3bff0ba36ebedfd90ad9167f011cc26"
)

# SHA-256 over the verdicts and violation messages of validate_partition on
# seeded mutations of every K and J ladder partition with n <= 8, recorded
# before the validator moved onto bit rows
GOLDEN_VIOLATION_DIGEST = (
    "4ee1596f33f073f8fbc014d8450d306f8c8c9d2a59fb353f804a542c0dd84fc9"
)

MUTATIONS = ("drop", "relabel", "duplicate", "shift", "append")


def mutate(part, kind, rng):
    """One seeded corruption of ``part``, or ``None`` when ``kind`` cannot apply."""
    groups = list(part.groups)
    if not groups or (kind == "append" and len(groups) < 2):
        return None
    k = rng.randrange(len(groups))
    shape, members = groups[k].shape, groups[k].members
    if kind == "drop":
        del groups[k]
    elif kind == "relabel":
        shape = rng.choice([s for s in Shape if s is not shape])
    elif kind == "duplicate":
        members += (rng.choice(members),)
    elif kind == "shift":
        m = rng.randrange(len(members))
        di, dj = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        i, j = members[m]
        members = members[:m] + ((i + di, j + dj),) + members[m + 1:]
    else:
        other = rng.choice([g for idx, g in enumerate(groups) if idx != k])
        members += (rng.choice(other.members),)
    if kind != "drop":
        groups[k] = PartitionGroup(shape, members)
    return GoodPartition(part.target, tuple(groups), part.method)


class TestSerialization:
    def test_golden_partition_digest(self):
        digest = hashlib.sha256()
        for n in range(10):
            for sigma in all_sigmas(n):
                part, trace = build_eta(sigma)
                doc = {
                    "sigma": sigma.to_string(),
                    "eta": part.to_json_dict(),
                    "trace": trace.to_json_dict(),
                    "pi": build_pi(sigma).to_json_dict(),
                }
                digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
                digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_PARTITION_DIGEST

    def test_golden_violation_digest(self):
        digest = hashlib.sha256()
        rng = random.Random(20221)
        for n in range(1, 9):
            for sigma in all_sigmas(n):
                for part in (build_eta(sigma)[0], build_pi(sigma)):
                    for kind in MUTATIONS:
                        for _ in range(2):
                            mutated = mutate(part, kind, rng)
                            if mutated is None:
                                continue
                            try:
                                verdict = list(validate_partition(sigma, mutated).violations)
                            except IndexError as exc:
                                verdict = f"IndexError: {exc}"
                            doc = [sigma.to_string(), part.target, kind, verdict]
                            digest.update(json.dumps(doc).encode())
                            digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_VIOLATION_DIGEST

    def test_partition_json_schema(self):
        part, trace = build_eta(SignVector.from_string("--"))
        doc = part.to_json_dict()
        assert set(doc) == {"target", "method", "heavy_count", "groups"}
        assert doc["groups"][0] == {
            "shape": "LTriple", "members": [[1, 1], [2, 2], [1, 2]],
        }
        step = trace.to_json_dict()["steps"][0]
        assert set(step) == {"negative", "case", "operation"}
