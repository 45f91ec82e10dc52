"""Good-partition construction, validation, search oracle and trace checks."""

import hashlib
import itertools
import json
import math
import operator
import random
import re

import pytest

import pohst.partition
from pohst.certify import check_pohst_case, group_bound
from pohst.signs import (
    PatternContext,
    SignVector,
    min_heavy_target,
    pair_sign_maps,
    pair_sort_key,
)
from pohst.partition import (
    MAX_SEARCH_N,
    _shape_findings,
    ConstructionTrace,
    GoodPartition,
    LadderStuck,
    PartitionGroup,
    Shape,
    TraceStep,
    build_pi,
    check_construction_invariants,
    construct_eta,
    eta_partition,
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


def shape_violations(group, sigma, target):
    """The validator's shape and sign rules for one group, as findings; the
    members are sorted into construction order first, as the validator does."""
    members = tuple(sorted(group.members, key=pair_sort_key))
    return _shape_findings(group.shape, members, *PatternContext(sigma).rows(target))


class TestShapeTable:
    # the shape list of the module docstring: ``Name`` ``(+, -)``
    DOC_SIGNS = {
        name: tuple(1 if sign == "+" else -1 for sign in signs.split(", "))
        for name, signs in re.findall(r"``(\w+)`` ``\(([+, -]+)\)``", pohst.partition.__doc__)
    }

    @pytest.mark.parametrize("shape", list(Shape), ids=lambda shape: shape.value)
    def test_member_attributes(self, shape):
        assert shape.signs == self.DOC_SIGNS[shape.value]
        assert shape.states == tuple(2 if sign > 0 else 1 for sign in shape.signs)
        assert shape.heavy == (shape in (Shape.NEGATIVE_SINGLETON, Shape.L_TRIPLE))
        assert Shape(shape.value) is shape
        members = ((1, 1),) * len(shape.signs)
        assert group_bound(PartitionGroup(shape, members)) == (2 if shape.heavy else 1)
        # every shape but the positive singleton is reported by one of K's
        # moves, whose negative carries a - sign
        if shape is Shape.POSITIVE_SINGLETON:
            assert shape.move is None
        else:
            assert shape.signs[shape.move[1]] == -1

    def test_every_shape_and_operation_once(self):
        assert set(self.DOC_SIGNS) == {shape.value for shape in Shape}
        assert sorted(shape.move[0] for shape in Shape if shape.move) == [1, 2, 3, 4]


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

    def test_member_outside_target_reported_once(self):
        # (1, 2) lies in K for "++"; the shape rule alone names it
        sigma = SignVector.from_string("++")
        part = GoodPartition("J", (
            group(Shape.POSITIVE_SINGLETON, (1, 2)),
            group(Shape.POSITIVE_SINGLETON, (1, 1)),
            group(Shape.POSITIVE_SINGLETON, (2, 2)),
        ))
        report = validate_partition(sigma, part)
        assert report.violations == (
            "group 0 (PositiveSingleton): member (1, 2) lies outside the target set",
        )

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
        # its column instead of enclosing it, so in construction order the
        # signs read (-, +)
        sigma = SignVector.from_string("--")
        findings = shape_violations(group(Shape.MIXED_PAIR, (1, 2), (1, 1)), sigma, "K")
        assert findings == [
            "member (1, 1) has negative product sign",
            "member (1, 2) has positive product sign",
        ]
        # (1, 1) and (2, 2) share no column and no row
        findings = shape_violations(group(Shape.MIXED_PAIR, (2, 2), (1, 1)), sigma, "K")
        assert findings == ["members ((1, 1), (2, 2)) do not match the shape's geometry"]
        good = group(Shape.MIXED_PAIR, (1, 1), (1, 2))
        assert not shape_violations(good, SignVector.from_string("+-"), "J")

    def test_l_triple_geometry(self):
        sigma = SignVector.from_string("--")
        good = group(Shape.L_TRIPLE, (1, 1), (1, 2), (2, 2))
        assert not shape_violations(good, sigma, "K")
        bad = group(Shape.L_TRIPLE, (1, 1), (2, 2), (1, 2))
        # same members, shape inference must not depend on member order
        assert not shape_violations(bad, sigma, "K")
        # column mate (1,1) and row mate (4,4) are not adjacent, so the
        # triple is not elementary case 3: at x = (-1, 1e-3, 1e-3, -1) its
        # product is about 4 against a bound of 2
        sigma = SignVector.from_string("-++-")
        gapped = group(Shape.L_TRIPLE, (1, 1), (1, 4), (4, 4))
        assert shape_violations(gapped, sigma, "K") == [
            "members ((1, 1), (4, 4), (1, 4)) do not match the shape's geometry"
        ]
        part = GoodPartition("K", (
            gapped,
            group(Shape.MIXED_PAIR, (2, 3), (1, 3)),
            group(Shape.NEGATIVE_SINGLETON, (2, 4)),
        ))
        report = validate_partition(sigma, part)
        assert not report.ok
        assert any("do not match the shape's geometry" in v for v in report.violations)


class TestBuildEta:
    def test_two_unstable_rows(self):
        sigma = SignVector.from_string("-+-")
        part, trace = construct_eta(sigma)
        assert members_of(part) == {((1, 1),), ((3, 3),)}
        assert trace.op3_uses == 2
        assert [s.case for s in trace.steps] == [2, 2]

    def test_no_negatives_keeps_base_partition(self):
        part, trace = construct_eta(SignVector.from_string("++"))
        assert members_of(part) == {((1, 2),)}
        assert part.groups[0].shape is Shape.POSITIVE_SINGLETON
        assert trace.op3_uses == 0 and trace.steps == ()

    def test_empty_pattern(self):
        part, trace = construct_eta(SignVector(()))
        assert part.groups == () and trace.op3_uses == 0

    def test_stable_row_folds_triple(self):
        part, trace = construct_eta(SignVector.from_string("--"))
        assert members_of(part) == {((1, 1), (2, 2), (1, 2))}
        assert part.groups[0].shape is Shape.L_TRIPLE
        assert trace.op3_uses == 1
        assert [s.operation for s in trace.steps] == [3, 4]

    def test_op3_count_matches_heavy(self):
        for n in range(1, 9):
            for sigma in all_sigmas(n):
                part, trace = construct_eta(sigma)
                assert trace.op3_uses == part.heavy_count == min_heavy_target(sigma)

    def test_intermediate_groups_respect_shapes(self):
        for sigma in all_sigmas(6):
            _, trace = construct_eta(sigma)
            for step in trace.steps:
                produced = PartitionGroup(step.shape, step.produced)
                assert not shape_violations(produced, sigma, "K")

    def test_operations_conserve_heavy_budget(self):
        # heavy count moves only through operation 3; operation 4 trades one
        # heavy singleton for one heavy triple, operations 1 and 2 touch none
        for sigma in all_sigmas(7):
            part, trace = construct_eta(sigma)
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


class TestElementaryCases:
    def test_groups_are_the_four_inequalities(self):
        # a group's first member (c2, r1) is the argument a of its
        # elementary case and its last member (c1, r2) the product of all
        # the arguments, so b is (r1 + 1, r2) or (c1, c2 - 1) and c is
        # (r1 + 1, r2); the ladder's partitions, not the cached ones
        rng = random.Random(16)
        groups = 0
        for n in range(1, 13):
            for sigma in all_sigmas(n):
                x = [s * rng.uniform(0.01, 0.99) for s in sigma]
                # run[i][j] = x_i * ... * x_j
                run = [[]] + [[0.0] * i + list(itertools.accumulate(x[i - 1:], operator.mul))
                              for i in range(1, n + 1)]
                ctx = PatternContext(sigma)
                for part in (eta_partition(ctx), build_pi(ctx)):
                    for g in part.groups:
                        # the ladder lists members in construction order
                        (c2, r1), (c1, r2) = g.members[0], g.members[-1]
                        a = run[c2][r1]
                        if g.shape is Shape.POSITIVE_SINGLETON:
                            # its factor 1 - a is at most 1 without a case
                            assert a >= 0
                            continue
                        if g.shape is Shape.NEGATIVE_SINGLETON:
                            case, args = 1, (a,)
                        elif g.shape is Shape.MIXED_PAIR:
                            case, args = 2, (a, run[r1 + 1][r2] if c1 == c2 else run[c1][c2 - 1])
                        elif g.shape is Shape.L_TRIPLE:
                            case, args = 3, (a, run[r1 + 1][r2])
                        else:
                            case, args = 4, (a, run[c1][c2 - 1], run[r1 + 1][r2])
                        check = check_pohst_case(case, *args)
                        assert check.holds and check.bound == group_bound(g)
                        product = math.prod(1.0 - run[i][j] for i, j in g.members)
                        assert abs(check.value - product) <= 1e-12 * product
                        groups += 1
        assert groups == 196_402


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
        # K's trace is read off the row step's reports after the ladder ran
        for n in range(11):
            for sigma in all_sigmas(n):
                ctx = PatternContext(sigma)
                for target, built in (("K", construct_eta(ctx)), ("J", (build_pi(ctx), None))):
                    assert built == reference_ladder(sigma, target)

    def test_untraced_builds_make_no_trace_step(self, monkeypatch):
        # nor does the walk that fills the cache's entries
        import pohst.partition as partition
        from pohst.certify import partitions_for
        from test_certify import assert_same_entry, reference_entry

        def refuse(*args):
            raise AssertionError("a trace step was built")

        monkeypatch.setattr(partition, "TraceStep", refuse)
        partitions_for.cache_clear()
        for n in range(9):
            for sigma in all_sigmas(n):
                ctx = PatternContext(sigma)
                assert eta_partition(ctx) == reference_ladder(sigma, "K")[0]
                assert build_pi(ctx) == reference_ladder(sigma, "J")[0]
                code = sum(1 << k for k, s in enumerate(sigma) if s < 0)
                assert_same_entry(partitions_for(n, code), reference_entry(n, code))
        partitions_for.cache_clear()
        with pytest.raises(AssertionError, match="trace step"):
            construct_eta(SignVector.from_string("-+-"))


class TestSearch:
    def test_agrees_with_ladder_example(self):
        sigma = SignVector.from_string("-+-")
        found = search_partition(sigma, "K", 2)
        part, _ = construct_eta(sigma)
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
                part, _ = construct_eta(sigma)
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
            part, _ = construct_eta(sigma)
            assert part.heavy_count == found_k.heavy_count

    def test_golden_search_digest(self):
        digest = hashlib.sha256()
        for n in range(9):
            for sigma in all_sigmas(n):
                target = min_heavy_target(sigma)
                budgets = [("K", target), ("K", target - 1), ("J", 0)]
                for kind, budget in budgets if target else budgets[::2]:
                    found = search_partition(sigma, kind, budget)
                    doc = [sigma.to_string(), kind, budget,
                           None if found is None else found.to_json_dict()]
                    digest.update(json.dumps(doc, sort_keys=True).encode())
                    digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_SEARCH_DIGEST


class TestConstructEta:
    def test_reports_ladder_path(self):
        part, trace = construct_eta(SignVector.from_string("-+-"))
        assert isinstance(part, GoodPartition) and isinstance(trace, ConstructionTrace)
        assert part.method == "ladder"

    def test_ladder_is_the_only_path(self, monkeypatch):
        import pohst.partition as partition

        def refuse(*args):
            raise AssertionError("the search must not run")

        # a row step that reports and takes nothing forms no heavy group in
        # K and leaves J's pairs untiled, which the walk's leaf check turns
        # into LadderStuck
        def empty(state, j, row, pos, stable, heavy):
            return []

        def stuck(state, j, row, pos, stable, heavy):
            raise LadderStuck(None, "K" if heavy else "J", (1, 1), "forced gap")

        def only_j(row_step):
            # the walk runs K before J, so J fails only where K does not
            return lambda state, j, row, pos, stable, heavy: (real if heavy else row_step)(
                state, j, row, pos, stable, heavy)

        real = partition._ladder_row
        monkeypatch.setattr(partition, "search_partition", refuse)
        sigma = SignVector.from_string("-+-")
        for row_step, negative, k_reason, j_reason in (
                (empty, None, "0 heavy groups", "do not tile"),
                (stuck, (1, 1), "forced gap", "forced gap")):
            for build, target in ((construct_eta, "K"), (eta_partition, "K"),
                                  (build_pi, "J")):
                monkeypatch.setattr(
                    partition, "_ladder_row", row_step if target == "K" else only_j(row_step))
                with pytest.raises(LadderStuck) as info:
                    build(sigma)
                assert info.value.sigma == sigma and info.value.target == target
                assert info.value.negative == negative
                assert (k_reason if target == "K" else j_reason) in info.value.reason

    @pytest.mark.parametrize("site", ["_ladder_row", "_checked_leaf"])
    @pytest.mark.parametrize("failing", ["K", "J"])
    def test_fault_in_either_target_fails_every_entry_point(
            self, monkeypatch, capsys, site, failing):
        # one walk builds K and J for every per-pattern entry point, so a
        # fault in one target, in a row step or in the leaf check, fails all
        # of them, each naming the pattern and the failing target; none runs
        # the validator
        import pohst.partition as partition
        from pohst.certify import partitions_for
        from pohst.cli import main

        def refuse(*args):
            raise AssertionError("a per-pattern construction validated")

        def faulty_row(state, j, row, pos, stable, heavy):
            if ("K" if heavy else "J") == failing:
                raise LadderStuck(None, failing, None, "injected")
            return real(state, j, row, pos, stable, heavy)

        def faulty_leaf(state, target, *args):
            if target == failing:
                raise LadderStuck(None, failing, None, "injected")
            return real(state, target, *args)

        real = getattr(partition, site)
        monkeypatch.setattr(partition, site, faulty_row if site == "_ladder_row" else faulty_leaf)
        monkeypatch.setattr(partition, "validate_partition", refuse)
        sigma = SignVector.from_string("-+-")
        for build in (construct_eta, eta_partition, build_pi):
            for arg in (sigma, PatternContext(sigma)):
                with pytest.raises(LadderStuck) as info:
                    build(arg)
                assert (info.value.sigma, info.value.target) == (sigma, failing)
        partitions_for.cache_clear()
        with pytest.raises(LadderStuck) as info:
            partitions_for(3, 0b101)
        assert (info.value.sigma, info.value.target) == (sigma, failing)
        capsys.readouterr()
        for requested in ("k", "j"):
            assert main(["partition", "-+-", requested, "ladder"]) == 3
            doc = json.loads(capsys.readouterr().out)
            assert (doc["sigma"], doc["target"]) == ("-+-", failing)
            assert doc["error"] == f"ladder stuck on {failing} of '-+-' at None: injected"
        assert partitions_for.cache_info().currsize == 0

    def test_heavy_count_helper(self):
        part = GoodPartition("K", (
            group(Shape.NEGATIVE_SINGLETON, (1, 1)),
            group(Shape.POSITIVE_SINGLETON, (1, 2)),
        ))
        assert part.heavy_count == 1
        assert GoodPartition("K", ()).heavy_count == 0


def reference_shape_findings(shape, members, rows, pos):
    """The shape rule as it read before each shape got its own bit tests:
    the members that the first and last fix, built as a tuple, then one zip
    over the member states.  ``_shape_findings`` must word the same findings."""
    def geometry(first, last):
        (c2, r1), (c1, r2) = first, last
        if shape is Shape.MIXED_PAIR:
            return (first, last) if (c1 == c2) != (r1 == r2) else None
        if shape is Shape.L_TRIPLE:
            return (first, (r1 + 1, r2), last) if c1 == c2 else None
        if shape is Shape.RECTANGLE_QUAD:
            return (first, (c1, r1), (c2, r2), last) if c1 < c2 and r1 < r2 else None
        return (first,)

    if not members or members != geometry(members[0], members[-1]):
        return [f"members {members} do not match the shape's geometry"]
    for (i, j), want in zip(members, shape.states):
        if (rows[j] >> i & 1) + (pos[j] >> i & 1) != want:
            break
    else:
        return []
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


def perturbed(members, n):
    """``members`` as given, with one member moved by 1 along a row or a
    column (staying on rows 0..n and columns >= 0), two members swapped, or
    one member dropped or repeated."""
    yield members
    for m, (i, j) in enumerate(members):
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if i + di >= 0 and 0 <= j + dj <= n:
                yield members[:m] + ((i + di, j + dj),) + members[m + 1:]
        yield members[:m] + members[m + 1:]
        yield members[:m + 1] + members[m:]
    for a, b in itertools.combinations(range(len(members)), 2):
        swapped = list(members)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        yield tuple(swapped)


FAULTS = ("drop", "repeat", "swap", "relabel", "steal", "regrow", "defer")


def faulty_row_step(real, fault, target, pos, rng):
    """A row step that runs ``real`` and corrupts the reports or the state of
    ``target`` once, with ``fault``, at the first row from a seeded one on
    where the fault applies (from the first row on for ``regrow``, which
    needs an earlier rectangle); ``pos`` are the target's positive bit rows.
    The rows it corrupted are appended to the step's ``fired`` list."""
    start = rng.randrange(1, len(pos))
    rectangles = []  # the rectangles reported by earlier rows
    deferred = []  # the negative that "defer" left unabsorbed

    def corrupt(state, j, row, reports):
        if fault == "regrow":
            # grow the row-mate pair of an earlier rectangle a second time,
            # through this row's negative and positive, in place of the
            # report that absorbs the negative; that report's other
            # positives are set free again and the positive is taken
            for (c2, r1), (c1, _) in (r[1][:2] for r in rectangles):
                if (row & ~pos[j]) >> c2 & pos[j] >> c1 & 1:
                    k = next(k for k, r in enumerate(reports) if (c2, j) in r[2])
                    for i, r in reports[k][2]:
                        if pos[r] >> i & 1:
                            state.free_row[r] |= 1 << i
                    state.free_row[j] &= ~(1 << c1)
                    members = ((c2, r1), (c1, r1), (c2, j), (c1, j))
                    return reports[:k] + [(Shape.RECTANGLE_QUAD, members, members[2:])] \
                        + reports[k + 1:]
            return None
        if not reports:
            return None
        k = rng.randrange(len(reports))
        shape, members, new = reports[k]
        if fault == "drop":
            return reports[:k] + reports[k + 1:]
        if fault == "defer":
            # leave a mixed pair's negative unabsorbed, its positive free
            # again, until a later row pairs it, last, with a free positive
            # of its column: a pair that is valid only unsorted
            if shape is not Shape.MIXED_PAIR or new != members:
                return None
            (i0, r0), negative = members
            state.free_row[r0] |= 1 << i0
            deferred.append(negative)
            return reports[:k] + reports[k + 1:]
        if fault == "repeat":
            return reports[:k + 1] + reports[k:]
        if fault == "relabel":
            shape = rng.choice([other for other in Shape if other is not shape])
        elif fault == "swap":
            if len(members) < 2:
                return None
            a, b = rng.sample(range(len(members)), 2)
            swapped = list(members)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            members = tuple(swapped)
        else:
            # "steal": a new group takes a positive pair that another group
            # holds, and the positive it took is set free again
            (i0, r0), rest = members[0], members[1:]
            taken = [(i, r) for r in range(1, j + 1) for i in range(1, r + 1)
                     if (pos[r] & ~state.free_row[r]) >> i & 1 and (i, r) not in members]
            if new != members or not pos[r0] >> i0 & 1 or not taken:
                return None
            state.free_row[r0] |= 1 << i0
            members = new = (rng.choice(taken),) + rest
        return reports[:k] + [(shape, members, new)] + reports[k + 1:]

    def step(state, j, row, row_pos, stable, heavy):
        reports = real(state, j, row, row_pos, stable, heavy)
        if ("K" if heavy else "J") != target:
            return reports
        if not step.fired and (j >= start or fault == "regrow"):
            changed = corrupt(state, j, row, reports)
            if changed is not None:
                step.fired.append(j)
                reports = changed
        elif deferred and state.free_row[j] >> deferred[0][0] & 1:
            c, r = deferred.pop()
            state.free_row[j] ^= 1 << c
            members = ((c, j), (c, r))
            reports = reports + [(Shape.MIXED_PAIR, members, members)]
        rectangles.extend(r for r in reports if r[0] is Shape.RECTANGLE_QUAD)
        return reports

    step.fired = []
    return step


class TestWalkChecks:
    def test_fast_shape_rule_matches_the_reference(self, monkeypatch):
        # on every context with n <= 6, the row step's reports and the final
        # groups of both targets, as reported and perturbed, under every
        # shape and on the bit rows of either target
        import pohst.partition as partition

        real, seen = partition._ladder_row, []

        def spy(*args):
            reports = real(*args)
            seen.extend(members for _, members, _ in reports)
            return reports

        monkeypatch.setattr(partition, "_ladder_row", spy)
        compared = 0
        for n in range(1, 7):
            for sigma in all_sigmas(n):
                ctx = PatternContext(sigma)
                seen.clear()
                groups = eta_partition(ctx).groups + build_pi(ctx).groups
                tuples = set(seen) | {g.members for g in groups}
                for members in tuples:
                    for variant in set(perturbed(members, n)):
                        for shape in Shape:
                            for target in ("K", "J"):
                                rows, pos = ctx.rows(target)
                                assert _shape_findings(shape, variant, rows, pos) == \
                                    reference_shape_findings(shape, variant, rows, pos)
                                compared += 1
        assert compared > 150_000

    def test_a_group_grown_twice_is_flagged(self, monkeypatch):
        # J of -+-++ grows the row-mate pair (2, 2), (1, 2) into a rectangle
        # in row 3; a row 5 that grows it again through (2, 5) and (1, 5),
        # leaving (5, 5) free, would drop the first rectangle's (2, 3) and
        # (1, 3) from the partition, since the leaf keys groups by first member
        import pohst.partition as partition

        real = partition._ladder_row

        def regrow(state, j, row, pos, stable, heavy):
            reports = real(state, j, row, pos, stable, heavy)
            if heavy or j != 5:
                return reports
            state.free_row[5] ^= 1 << 5 | 1 << 1
            members = ((2, 2), (1, 2), (2, 5), (1, 5))
            return [(Shape.RECTANGLE_QUAD, members, members[2:])]

        monkeypatch.setattr(partition, "_ladder_row", regrow)
        sigma = SignVector.from_string("-+-++")
        with pytest.raises(LadderStuck) as info:
            build_pi(sigma)
        assert (info.value.sigma, info.value.target) == (sigma, "J")
        assert info.value.reason == "no live group starts at (2, 2)"

    def test_faulty_row_steps_never_yield_an_invalid_partition(self, monkeypatch):
        # every pattern with n <= 7, both targets and seven seeded faults: the
        # walk raises LadderStuck naming the pattern and target, or hands out
        # a partition that the validator accepts
        import pohst.partition as partition

        real, rng = partition._ladder_row, random.Random(2023)
        fired, raised = dict.fromkeys(FAULTS, 0), dict.fromkeys(FAULTS, 0)
        for n in range(1, 8):
            for sigma in all_sigmas(n):
                ctx = PatternContext(sigma)
                for target, build in (("K", eta_partition), ("J", build_pi)):
                    for fault in FAULTS:
                        step = faulty_row_step(real, fault, target, ctx.rows(target)[1], rng)
                        monkeypatch.setattr(partition, "_ladder_row", step)
                        try:
                            part = build(sigma)
                        except LadderStuck as stuck:
                            assert (stuck.sigma, stuck.target) == (sigma, target)
                            raised[fault] += 1
                        else:
                            report = validate_partition(ctx, part)
                            assert report.ok, (sigma.to_string(), target, fault, report)
                        fired[fault] += bool(step.fired)
        # each fault struck dozens to hundreds of walks, and most of them
        # were caught
        assert min(fired.values()) > 50
        assert all(raised[fault] > fired[fault] // 2 for fault in FAULTS), (fired, raised)


class TestTraceChecks:
    def test_clean_trace(self):
        sigma = SignVector.from_string("-+-")
        _, trace = construct_eta(sigma)
        assert check_construction_invariants(sigma, trace) == []

    def test_vacuous_on_empty_trace(self):
        sigma = SignVector.from_string("++")
        _, trace = construct_eta(sigma)
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
                _, trace = construct_eta(ctx)
                assert check_construction_invariants(ctx, trace) == \
                    check_construction_invariants(sigma, trace) == []


# SHA-256 over the K ladder's partition and trace and the J partition of
# every pattern with n <= 9, recorded before the two constructions were
# merged into one ladder
GOLDEN_PARTITION_DIGEST = (
    "ac8891e6c19972f4b490f9766e0a4a6dc3bff0ba36ebedfd90ad9167f011cc26"
)

# the same SHA-256 over the 252 patterns of long_patterns (n = 10..48),
# where the ladder's choice of column mate is exercised well past the
# exhaustive range; recorded while the row step kept its free pairs in both
# bit rows and bit columns
GOLDEN_LONG_PARTITION_DIGEST = (
    "f7a9ded83b477b7adb543ae3935d0c429f4a40cba3610ae5cc2ee8ccfc31d258"
)

# SHA-256 over the verdicts and violation messages of validate_partition on
# seeded mutations of every K and J ladder partition with n <= 8, recorded
# when the shape rule became the one check that a member lies in the target
# set, which changed messages only (GOLDEN_VERDICT_DIGEST held)
GOLDEN_VIOLATION_DIGEST = (
    "cfd6003d5eece39dec7e395ee5fab664c0fdc9f110f9484ac1a7b1f1b53d70d3"
)

# SHA-256 over report.ok, or the IndexError, of validate_partition on the
# same seeded mutations, recorded before the shape rule became one sign
# table and one geometry: the violation digest pins messages, this one
# pins verdicts alone
GOLDEN_VERDICT_DIGEST = (
    "25c66e536504aae2cf3df4277cae7291e80a5c082ef6162d4833daec08b643a0"
)

# SHA-256 over whether validate_partition flags the shape of a lone group,
# for every pattern with n <= 4, both targets, every shape and every
# ordered tuple of distinct pairs of the triangle with the shape's member
# count, recorded before the same change
GOLDEN_SHAPE_VERDICT_DIGEST = (
    "9f095060903385a0e17d1344f5a088169353fc2e59cdeda4deb08a01aa3c57b4"
)

# SHA-256 over the to_json_dict() of search_partition, or null for None, on
# every pattern with n <= 8: K at min(p, m) and at min(p, m) - 1 where that
# is not negative, J at 0; recorded before the search moved onto the
# context's bit rows and one group dict keyed by first member
GOLDEN_SEARCH_DIGEST = (
    "4de009123e67d6c5d200d98e9c24dbdac3030dc02a09ab270fdbefcd617f2d8f"
)

SHAPE_SIZES = {
    Shape.POSITIVE_SINGLETON: 1,
    Shape.NEGATIVE_SINGLETON: 1,
    Shape.MIXED_PAIR: 2,
    Shape.L_TRIPLE: 3,
    Shape.RECTANGLE_QUAD: 4,
}

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


def mutation_reports():
    """``(sigma, target, kind, report)`` for the seeded mutations of every K
    and J ladder partition with n <= 8; ``report`` is the ``IndexError``
    when a mutation moves a member out of range."""
    rng = random.Random(20221)
    for n in range(1, 9):
        for sigma in all_sigmas(n):
            for part in (construct_eta(sigma)[0], build_pi(sigma)):
                for kind in MUTATIONS:
                    for _ in range(2):
                        mutated = mutate(part, kind, rng)
                        if mutated is None:
                            continue
                        try:
                            report = validate_partition(sigma, mutated)
                        except IndexError as exc:
                            report = exc
                        yield sigma, part.target, kind, report


def long_patterns():
    """8 seeded patterns for each n = 10..40, then the all-minus and the
    alternating pattern at n = 24 and 48."""
    rng = random.Random(2212)
    for n in range(10, 41):
        for _ in range(8):
            yield SignVector(tuple(rng.choice((1, -1)) for _ in range(n)))
    for n in (24, 48):
        yield SignVector((-1,) * n)
        yield SignVector((1, -1) * (n // 2))


class TestSerialization:
    def test_golden_partition_digest(self):
        digest = hashlib.sha256()
        for n in range(10):
            for sigma in all_sigmas(n):
                part, trace = construct_eta(sigma)
                doc = {
                    "sigma": sigma.to_string(),
                    "eta": part.to_json_dict(),
                    "trace": trace.to_json_dict(),
                    "pi": build_pi(sigma).to_json_dict(),
                }
                digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
                digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_PARTITION_DIGEST

    def test_golden_long_partition_digest(self):
        digest = hashlib.sha256()
        for sigma in long_patterns():
            part, trace = construct_eta(sigma)
            doc = {
                "sigma": sigma.to_string(),
                "eta": part.to_json_dict(),
                "trace": trace.to_json_dict(),
                "pi": build_pi(sigma).to_json_dict(),
            }
            digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_LONG_PARTITION_DIGEST

    def test_golden_violation_digest(self):
        digest = hashlib.sha256()
        for sigma, target, kind, report in mutation_reports():
            if isinstance(report, IndexError):
                verdict = f"IndexError: {report}"
            else:
                verdict = list(report.violations)
            doc = [sigma.to_string(), target, kind, verdict]
            digest.update(json.dumps(doc).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_VIOLATION_DIGEST

    def test_golden_verdict_digest(self):
        digest = hashlib.sha256()
        for sigma, target, kind, report in mutation_reports():
            verdict = "IndexError" if isinstance(report, IndexError) else report.ok
            digest.update(json.dumps([sigma.to_string(), target, kind, verdict]).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_VERDICT_DIGEST

    def test_golden_shape_verdicts(self):
        # the shape findings of group 0 are the violations that name its shape
        digest = hashlib.sha256()
        cases = 0
        for n in range(1, 5):
            triangle = [(i, j) for j in range(1, n + 1) for i in range(1, j + 1)]
            lone_groups = {
                (target, shape): [
                    GoodPartition(target, (PartitionGroup(shape, members),))
                    for members in itertools.permutations(triangle, SHAPE_SIZES[shape])
                ]
                for target in ("K", "J")
                for shape in Shape
            }
            for sigma in all_sigmas(n):
                ctx = PatternContext(sigma)
                for (target, shape), parts in lone_groups.items():
                    flag = f"group 0 ({shape.value}):"
                    verdicts = bytes(
                        any(v.startswith(flag) for v in validate_partition(ctx, part).violations)
                        for part in parts
                    )
                    cases += len(verdicts)
                    digest.update(f"{sigma.to_string()} {target} {shape.value} ".encode())
                    digest.update(verdicts)
        assert cases == 196_344
        assert digest.hexdigest() == GOLDEN_SHAPE_VERDICT_DIGEST

    def test_partition_json_schema(self):
        part, trace = construct_eta(SignVector.from_string("--"))
        doc = part.to_json_dict()
        assert set(doc) == {"target", "method", "heavy_count", "groups"}
        assert doc["groups"][0] == {
            "shape": "LTriple", "members": [[1, 1], [2, 2], [1, 2]],
        }
        step = trace.to_json_dict()["steps"][0]
        assert set(step) == {"negative", "case", "operation"}
