"""Numeric evaluation, elementary inequalities and certificates."""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pohst.certify import (
    DomainError,
    GroupCheck,
    PatternEntry,
    RealVectorX,
    RealVectorY,
    certify_x,
    certify_y,
    check_pohst_case,
    eval_P,
    eval_f,
    factor_matrix,
    factor_table,
    group_bound,
    partitions_for,
    pattern_entries,
    x_from_y,
)
from pohst.partition import (
    GoodPartition, PartitionGroup, Shape, build_pi, construct_eta, eta_partition)
from pohst.signs import (
    PatternContext, SignVector, min_heavy_target, pair_sign_maps, pattern_from_index)


SRC = Path(__file__).resolve().parent.parent / "src"


def lexicographic(n):
    """The pairs of the index triangle in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def reference_entry(n, code):
    """The entry of pattern ``(n, code)`` built from the checked partitions
    of K and J on one context, read off a walk over this pattern alone, not
    off a walk shared with other patterns as the entry under test is:
    each group's factor columns in member order, then free slots, the last
    one the row of 0.5 for a heavy group."""
    ctx = PatternContext(pattern_from_index(n, code))
    k_groups, j_groups = eta_partition(ctx).groups, build_pi(ctx).groups
    column = {pair: slot for slot, pair in enumerate(lexicographic(n))}
    pairs = len(column)
    table = []
    for group in k_groups + j_groups:
        slots = [column[pair] for pair in group.members] + [pairs] * (4 - len(group.members))
        slots[-1] += group.shape.heavy
        table.append(slots)
    table = np.array(table, dtype=np.intp).reshape(-1, 4).T
    return PatternEntry(n, code, table, 2.0 ** ctx.target, len(k_groups))


def assert_same_entry(entry, reference):
    """``entry`` holds ``reference``'s table, bound and K's group count, a
    read-only table and no plan."""
    assert (entry.n, entry.code, entry.bound, entry.k_groups) == (
        reference.n, reference.code, reference.bound, reference.k_groups)
    assert entry.table.shape == reference.table.shape
    assert (entry.table == reference.table).all()
    assert not entry.table.flags.writeable
    assert set(vars(entry)) == {"n", "code", "table", "bound", "k_groups"}


def factors_by_pair(x):
    """``factor_table(x)`` keyed by pair."""
    return dict(zip(lexicographic(len(x)), factor_table(x)))


def random_x(rng, n):
    return RealVectorX(tuple(
        rng.choice((1, -1)) * (1.0 - rng.random() * (1 - 1e-9)) for _ in range(n)
    ))


def random_y(rng, n):
    mag = rng.uniform(0.5, 2.0)
    out = []
    for _ in range(n):
        out.append(rng.choice((1, -1)) * mag)
        mag *= 1.0 + rng.uniform(0.1, 2.0)
    return RealVectorY(tuple(out))


class TestVectors:
    def test_x_accepts_boundary(self):
        RealVectorX((1.0, -1.0))

    def test_x_rejects_zero_and_overflow(self):
        with pytest.raises(DomainError):
            RealVectorX((0.5, 0.0))
        with pytest.raises(DomainError):
            RealVectorX((1.5,))
        with pytest.raises(DomainError):
            RealVectorX((float("nan"),))

    def test_y_requires_strict_modulus_growth(self):
        with pytest.raises(DomainError):
            RealVectorY((1.0, -1.0))
        with pytest.raises(DomainError):
            RealVectorY((2.0, 1.0))
        with pytest.raises(DomainError):
            RealVectorY((1.0, 0.0, 2.0))
        RealVectorY((1.0, -2.0, 4.0))

    @pytest.mark.parametrize("entries", [(1, -1), [1, -1], (True, -1)])
    def test_x_entries_become_floats(self, entries):
        x = RealVectorX(entries)
        assert x.entries == (1.0, -1.0) and all(type(v) is float for v in x.entries)
        doc = certify_x(x).to_json_dict()["input"]
        assert json.dumps(doc) == '{"kind": "x", "values": [1.0, -1.0]}'

    def test_y_entries_become_floats(self):
        y = RealVectorY((True, -2, np.int64(4)))
        assert y.entries == (1.0, -2.0, 4.0) and all(type(v) is float for v in y.entries)
        assert json.dumps(certify_y(y).to_json_dict()["input"]["values"]) == "[1.0, -2.0, 4.0]"


class TestEvaluation:
    def test_factor_examples(self):
        assert factors_by_pair(RealVectorX((-1.0,)))[(1, 1)] == 2.0
        assert factors_by_pair(RealVectorX((0.5,)))[(1, 1)] == 0.5
        assert factors_by_pair(RealVectorX((-0.5, 0.5)))[(1, 2)] == 1.25
        assert factor_table(RealVectorX((-0.5, 0.5))) == [1.5, 1.25, 0.5]

    def test_eval_f_examples(self):
        assert eval_f(RealVectorX((-1.0,))) == 2.0
        assert eval_f(RealVectorX((-0.5, 0.5))) == 0.9375
        assert eval_f(RealVectorX(())) == 1.0
        assert eval_f(RealVectorX((1.0, 0.5))) == 0.0

    def test_x_from_y_examples(self):
        assert x_from_y(RealVectorY((1.0, -2.0, 4.0))).entries == (-0.5, -0.5)
        assert x_from_y(RealVectorY((1.0, 2.0))).entries == (0.5,)
        assert x_from_y(RealVectorY((3.0, -6.0, 12.0, -24.0))).entries == (-0.5,) * 3

    def test_x_from_y_names_an_underflowing_ratio(self):
        with pytest.raises(DomainError, match=r"ratio y_2 / y_3 = 1e-320 / 1e\+300 underflows"):
            x_from_y(RealVectorY((5e-321, 1e-320, 1e300)))
        # a subnormal ratio is still a nonzero entry
        assert x_from_y(RealVectorY((1e-310, 1e10))).entries == (1e-320,)

    def test_eval_P_examples(self):
        assert eval_P(RealVectorY((1.0, -2.0))) == 1.5
        assert eval_P(RealVectorY((1.0, -2.0, 4.0))) == 1.6875
        assert eval_P(RealVectorY((1.0, 2.0, 4.0))) == 0.1875

    def test_change_of_variables_identity(self):
        rng = random.Random(11)
        for _ in range(300):
            y = random_y(rng, rng.randint(2, 8))
            P = eval_P(y)
            f = eval_f(x_from_y(y))
            assert abs(P - f) <= 1e-12 * max(abs(P), abs(f))

    @pytest.mark.parametrize("n", [0, 1, 12, 64])
    def test_factor_matrix_rows_equal_factor_table(self, n):
        rng = np.random.default_rng(n)
        # single rows at every n, 64 included, and at n = 12 a block of
        # 5,000 rows, larger than a soundness chunk
        for rows in (1, 17, 300) + ((5000,) if n == 12 else ()):
            X = (1.0 - rng.random((rows, n))) * np.where(rng.random((rows, n)) < 0.5, -1.0, 1.0)
            F = factor_matrix(X)
            assert F.shape == (rows, n * (n + 1) // 2)
            for row, values in zip(X, F):
                table = factor_table(RealVectorX(row))
                assert [v.hex() for v in table] == [float(v).hex() for v in values]

    def test_factor_sign_ranges(self):
        rng = random.Random(5)
        for _ in range(200):
            x = random_x(rng, rng.randint(1, 8))
            jmap, kmap = pair_sign_maps(SignVector.from_reals(x.entries))
            signs = {**jmap, **kmap}
            for pair, value in factors_by_pair(x).items():
                assert 0.0 <= value <= 2.0
                if signs[pair] > 0:
                    assert 0.0 <= value < 1.0
                else:
                    assert 1.0 < value <= 2.0


class TestPohstCases:
    def test_boundary_attainment(self):
        check = check_pohst_case(1, -1.0)
        assert check == (2.0, 2.0, True) or (check.value, check.bound, check.holds) == (2.0, 2.0, True)
        check = check_pohst_case(3, -1.0, 0.0)
        assert (check.value, check.bound, check.holds) == (2.0, 2.0, True)
        check = check_pohst_case(4, 1.0, -1.0, -1.0)
        assert (check.value, check.bound, check.holds) == (0.0, 1.0, True)

    def test_domains(self):
        with pytest.raises(DomainError):
            check_pohst_case(2, -0.5, -0.5)
        with pytest.raises(DomainError):
            check_pohst_case(2, 0.5)
        with pytest.raises(DomainError):
            check_pohst_case(4, 0.5, -0.5, 0.5)
        with pytest.raises(DomainError):
            check_pohst_case(5, 0.5)
        with pytest.raises(DomainError, match="case 1 needs"):
            check_pohst_case(1, 1.5)
        with pytest.raises(DomainError, match="case 3 needs two"):
            check_pohst_case(3, 0.5)
        with pytest.raises(DomainError, match="case 3 needs a, b"):
            check_pohst_case(3, 0.5, -1.5)
        with pytest.raises(DomainError, match="case 4 needs three"):
            check_pohst_case(4, 0.5, -0.5)

    @given(st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=300)
    def test_case_three_holds(self, a, b):
        assert check_pohst_case(3, a, b).holds

    @given(st.floats(0, 1), st.floats(-1, 0), st.floats(-1, 0))
    @settings(max_examples=300)
    def test_cases_two_and_four_hold(self, a, b, c):
        assert check_pohst_case(2, a, b).holds
        assert check_pohst_case(4, a, b, c).holds


class TestGroupBound:
    def test_bounds_by_shape(self):
        assert group_bound(PartitionGroup(Shape.POSITIVE_SINGLETON, ((1, 1),))) == 1
        assert group_bound(PartitionGroup(Shape.NEGATIVE_SINGLETON, ((1, 1),))) == 2
        assert group_bound(PartitionGroup(Shape.RECTANGLE_QUAD, ((2, 2), (1, 2), (2, 3), (1, 3)))) == 1
        assert group_bound(PartitionGroup(Shape.L_TRIPLE, ((1, 1), (2, 2), (1, 2)))) == 2
        assert group_bound(PartitionGroup(Shape.MIXED_PAIR, ((2, 2), (1, 2)))) == 1


class TestCertifyX:
    def test_mixed_example(self):
        cert = certify_x(RealVectorX((-0.5, 0.5)))
        assert cert.ok
        assert cert.total == 0.9375
        assert cert.exponent == 1 and cert.bound == 2.0
        assert cert.n_x == 2 and cert.n_y == 3

    def test_all_positive_bound_one(self):
        cert = certify_x(RealVectorX((0.3, 0.7)))
        assert cert.ok and cert.bound == 1.0 and cert.heavy_count == 0
        assert all(check.product < 1.0 for check in cert.groups)

    def test_boundary_attains_bound(self):
        cert = certify_x(RealVectorX((-1.0,)))
        assert cert.ok and cert.total == 2.0 == cert.bound

    def test_zero_factor_certifies_trivially(self):
        cert = certify_x(RealVectorX((1.0, -0.5)))
        assert cert.ok and cert.total == 0.0
        assert all(check.ok for check in cert.groups)

    def test_total_matches_group_products(self):
        rng = random.Random(17)
        for _ in range(200):
            x = random_x(rng, rng.randint(1, 8))
            cert = certify_x(x)
            assert cert.ok
            regrouped = 1.0
            for check in cert.groups:
                regrouped *= check.product
            assert abs(cert.total - regrouped) <= 1e-10 * max(cert.total, regrouped, 1e-300)

    def test_groups_match_per_group_reference(self):
        # reference: each group's factors looked up by pair and multiplied
        # in member order
        rng = random.Random(2503)
        for n in list(range(0, 13)) + [16, 23, 40]:
            for tolerance in (0.0, 1e-12):
                x = random_x(rng, n)
                cert = certify_x(x, tolerance)
                table = factors_by_pair(x)
                ctx = PatternContext(SignVector.from_reals(x.entries))
                reference = []
                for part in (eta_partition(ctx), build_pi(ctx)):
                    for group in part.groups:
                        product = 1.0
                        for pair in group.members:
                            product *= table[pair]
                        bound = group_bound(group)
                        reference.append(GroupCheck(part.target, group, product, bound,
                                                    product <= bound * (1.0 + tolerance)))
                assert cert.groups == tuple(reference)
                assert [p.hex() for p in cert.products] == [g.product.hex() for g in reference]
                assert cert.groups is cert.groups  # built once
                assert cert.total == math.prod(table.values(), start=1.0)

    def test_groups_json_matches_to_json_dict(self):
        rng = random.Random(2504)
        for n in range(0, 20):
            cert = certify_x(random_x(rng, n))
            assert cert.groups_json() == json.dumps(cert.to_json_dict()["groups"], sort_keys=True)
        # a group over its bound prints false in its own slot
        cert = certify_x(RealVectorX((-1.0, 0.5, -1.0)), 0.0)
        over = replace(cert, products=tuple(p * 1.5 for p in cert.products))
        assert over.groups_json() == json.dumps(over.to_json_dict()["groups"], sort_keys=True)
        assert [g["ok"] for g in json.loads(over.groups_json())] == [False, False, True]

    def test_bounds_product_records_heavy_power(self):
        cert = certify_x(RealVectorX((-0.5, 0.5)))
        assert cert.bounds_product_is_pow2_heavy

    def test_json_schema(self):
        doc = certify_x(RealVectorX((-0.5, 0.5))).to_json_dict()
        assert {"input", "sign_pattern", "exponent", "total", "groups", "ok",
                "tolerance"} <= set(doc)
        assert {"shape", "members", "product", "bound"} <= set(doc["groups"][0])

    def test_json_payload_is_independently_checkable(self):
        # the serialized certificate alone must support re-verification
        rng = random.Random(41)
        for _ in range(50):
            x = random_x(rng, rng.randint(1, 7))
            doc = certify_x(x).to_json_dict()
            heavy = {"NegativeSingleton", "LTriple"}
            regrouped = 1.0
            pairs = []
            for g in doc["groups"]:
                assert g["bound"] == (2 if g["shape"] in heavy else 1)
                assert g["product"] <= g["bound"] * (1 + doc["tolerance"])
                regrouped *= g["product"]
                pairs.extend(map(tuple, g["members"]))
            n = doc["n_x"]
            assert sorted(pairs) == [
                (i, j) for i in range(1, n + 1) for j in range(i, n + 1)
            ]
            assert doc["total"] <= doc["bound"] * (1 + doc["tolerance"])
            assert abs(doc["total"] - regrouped) <= 1e-9 * max(doc["total"], 1e-300)
            assert doc["bound"] == 2.0 ** doc["exponent"]


class TestTolerance:
    BAD = [math.nan, -1.0, -1e-300, math.inf, -math.inf]

    @pytest.fixture
    def refuse_partitions(self, monkeypatch):
        import pohst.certify as certify

        def refuse(n, code):
            raise AssertionError("partitions built before the tolerance check")

        monkeypatch.setattr(certify, "partitions_for", refuse)

    @pytest.mark.parametrize("tolerance", BAD)
    def test_rejected_before_partitions(self, refuse_partitions, tolerance):
        with pytest.raises(DomainError, match="tolerance"):
            certify_x(RealVectorX((0.5, -0.25)), tolerance)
        with pytest.raises(DomainError, match="tolerance"):
            certify_y(RealVectorY((1.0, -2.0, 4.0)), tolerance)

    def test_zero_accepted(self):
        cert = certify_x(RealVectorX((-1.0,)), 0.0)
        assert cert.ok and cert.tolerance == 0.0 and cert.total == cert.bound


# what an entry holds before its first certificate
BARE = {"n", "code", "table", "bound", "k_groups"}


class TestPartitionCache:
    # every pattern of n = 12, then 6 of n = 11: 4,102 distinct keys
    KEYS = [(12, code) for code in range(1 << 12)] + [(11, code) for code in range(6)]

    def test_holds_the_two_partitions(self):
        # the slot table alone encodes both partitions; no entry holds one
        partitions_for.cache_clear()
        for n in range(0, 7):
            for code in range(1 << n):
                sigma = pattern_from_index(n, code)
                entry = partitions_for(n, code)
                k_part, j_part = construct_eta(sigma)[0], build_pi(sigma)
                assert list(entry.groups()) == (
                    [("K", group) for group in k_part.groups]
                    + [("J", group) for group in j_part.groups])
                assert entry.bound == 2.0 ** min_heavy_target(sigma)
                assert set(vars(entry)) == BARE

    def test_capacity(self):
        # the budget holds every pattern of n = 12 exactly; each n = 11 entry
        # then evicts the least recently used n = 12 entry
        partitions_for.cache_clear()
        assert len(set(self.KEYS)) == 4102
        for n, code in self.KEYS:
            partitions_for(n, code)
            assert partitions_for.cache_info().currsize <= 4096 * 78
        info = partitions_for.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (0, 4102, 4096 * 78)
        assert info.currsize == 4090 * 78 + 6 * 66
        assert list(partitions_for._entries) == self.KEYS[6:]
        assert info.maxsize >= max(64 * 136, 1024 * 55)  # certify pool, soundness set
        partitions_for.cache_clear()

    def test_eviction_follows_use(self, monkeypatch):
        partitions_for.cache_clear()
        monkeypatch.setattr(partitions_for, "maxsize", 3 + 6 + 10)
        for n in (2, 3, 4):
            partitions_for(n, 0)
        partitions_for(2, 0)  # a hit makes (2, 0) the most recent
        partitions_for(1, 0)  # one pair over the budget: (3, 0) goes
        assert list(partitions_for._entries) == [(4, 0), (2, 0), (1, 0)]
        assert partitions_for.cache_info() == (1, 4, 19, 14)
        # an entry over the whole budget is held alone, and hits
        big = partitions_for(6, 5)
        assert list(partitions_for._entries) == [(6, 5)]
        assert partitions_for(6, 5) is big
        assert partitions_for.cache_info() == (2, 5, 19, 21)
        partitions_for(1, 1)
        assert list(partitions_for._entries) == [(1, 1)]
        partitions_for.cache_clear()

    def test_entries_count_as_calls_do(self, monkeypatch):
        # pattern_entries looks each held pattern up as a hit, walks only the
        # others and stores each as a miss, evicting as a call does; the
        # codes of n = 2 in walk key order are 0, 2, 1, 3
        partitions_for.cache_clear()
        monkeypatch.setattr(partitions_for, "maxsize", 3 + 6)
        held = partitions_for(2, 1)
        got = list(pattern_entries(2, [0, 2, 1, 3]))
        assert got[2] is held
        walked = {0: got[0], 2: got[1], 3: got[3]}
        for code, entry in walked.items():
            assert_same_entry(entry, reference_entry(2, code))
        # the third one stored goes over the budget and evicts (2, 1)
        assert list(partitions_for._entries) == [(2, 0), (2, 2), (2, 3)]
        assert partitions_for.cache_info() == (1, 4, 9, 9)
        assert all(partitions_for(2, code) is entry for code, entry in walked.items())
        assert partitions_for.cache_info() == (4, 4, 9, 9)
        partitions_for.cache_clear()

    def test_misordered_or_repeated_missing_codes_raise(self):
        # the walk keys of -+++ (code 1) and +++- (code 8) are 8 and 1; walked
        # in the given order, +++-'s leaf would be stored as -+++'s entry
        partitions_for.cache_clear()
        for n, codes in ((4, [1, 8]), (3, [1, 1])):
            with pytest.raises(ValueError, match="ascending walk key"):
                pattern_entries(n, codes)
            assert partitions_for.cache_info() == (0, 0, 4096 * 78, 0)
        cert = certify_x(RealVectorX((-0.9, 0.9, 0.9, 0.9)))
        assert cert.ok and cert.bound == 2.0
        # only the missing patterns' keys must ascend
        assert [entry.code for entry in pattern_entries(4, [1, 8])] == [1, 8]
        assert partitions_for.cache_info()[:2] == (1, 2)
        partitions_for.cache_clear()

    def test_codes_outside_the_pattern_range_raise(self):
        # f"{8:03b}" has four digits: walked, code 8 would store the groups of
        # ++- (walk key 1) as an entry whose fields read +++
        partitions_for.cache_clear()
        for call in (lambda: partitions_for(3, 8), lambda: partitions_for(3, -1),
                     lambda: pattern_entries(3, [8])):
            with pytest.raises(ValueError, match="no pattern of length 3"):
                call()
            assert partitions_for.cache_info() == (0, 0, 4096 * 78, 0)

    def test_storing_a_held_pattern_replaces_it(self):
        # a call that stores (3, 4) between two steps of a walk that lacked it
        # leaves one entry of it, whose pairs count once
        partitions_for.cache_clear()
        entries = pattern_entries(3, [0, 4])
        next(entries)
        partitions_for(3, 4)
        again = next(entries)
        assert list(partitions_for._entries) == [(3, 0), (3, 4)]
        assert partitions_for._entries[3, 4] is again
        assert partitions_for.cache_info() == (0, 3, 4096 * 78, 12)
        entry = partitions_for(10, 5)
        partitions_for._store(entry)
        partitions_for._store(entry)
        assert partitions_for.cache_info() == (0, 6, 4096 * 78, 12 + 55)
        assert list(partitions_for._entries)[-1] == (10, 5)
        partitions_for.cache_clear()

    def test_plan_lives_in_its_entry(self):
        partitions_for.cache_clear()
        entry = partitions_for(3, 0b110)  # +--
        assert set(vars(entry)) == BARE  # the plan is built by the first certificate
        cert = certify_x(RealVectorX((0.5, -0.5, -0.25)))
        assert cert.plan is entry and set(vars(entry)) == BARE | {"bounds", "fields"}
        cert.groups_json()
        assert set(vars(entry)) == BARE | {"bounds", "fields", "template"}
        assert certify_x(RealVectorX((0.25, -0.75, -1.0))).plan is entry
        assert partitions_for.cache_info() == (2, 1, 4096 * 78, 6)
        assert not any(isinstance(value, (GoodPartition, PartitionGroup))
                       for value in vars(entry).values())
        partitions_for.cache_clear()
        assert certify_x(RealVectorX((0.5, -0.5, -0.25))).plan is not cert.plan
        partitions_for.cache_clear()

    def test_plans_share_the_capacity(self):
        # the capacity test's 4,102 patterns, each certified: the plans are
        # evicted with their entries
        partitions_for.cache_clear()
        plans = [certify_x(RealVectorX(tuple(0.5 * s for s in pattern_from_index(*key)))).plan
                 for key in self.KEYS]
        assert len(set(map(id, plans))) == 4102
        info = partitions_for.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 4102, 4090 * 78 + 6 * 66)
        assert all(partitions_for(*key) is plan and "fields" in vars(plan)
                   for key, plan in zip(self.KEYS[6:], plans[6:]))
        assert set(vars(partitions_for(*self.KEYS[0]))) == BARE  # evicted, then rebuilt
        partitions_for.cache_clear()

    def test_long_patterns_stay_bounded_in_memory(self):
        # 32 distinct seeded patterns at n = 256 in a fresh process: the cache
        # holds 9 of them at a time (32,896 pairs each).  On Linux a process
        # started from a larger one inherits that one's ru_maxrss (exec keeps
        # the old memory's high-water mark), so the certificates run in a
        # forked child of the fresh interpreter
        script = (
            "import os, random, resource\n"
            "if os.fork():\n"
            "    raise SystemExit(os.waitstatus_to_exitcode(os.wait()[1]))\n"
            "from pohst.certify import RealVectorX, certify_x, partitions_for\n"
            "rng = random.Random(256)\n"
            "for _ in range(32):\n"
            "    x = [rng.choice((-1, 1)) * rng.uniform(0.02, 0.98) for _ in range(256)]\n"
            "    assert certify_x(RealVectorX(x)).ok\n"
            "info = partitions_for.cache_info()\n"
            "print(info.misses, len(partitions_for._entries),\n"
            "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        misses, held, peak_mib = int(out[0]), int(out[1]), float(out[2])
        assert (misses, held) == (32, 9)
        assert peak_mib < 100


class TestCertifyY:
    def test_empty_y_rejected_before_partitions(self, monkeypatch):
        import pohst.certify as certify

        def refuse(n, code):
            raise AssertionError("a partition was built")

        monkeypatch.setattr(certify, "partitions_for", refuse)
        with pytest.raises(DomainError, match="at least one entry"):
            certify_y(RealVectorY(()))
        monkeypatch.undo()
        # an empty x vector is the one-entry y case
        cert = certify_x(RealVectorX(()))
        assert cert.ok and (cert.n_x, cert.n_y, cert.total) == (0, 1, 1.0)
        cert = certify_y(RealVectorY((-3.0,)))
        assert cert.ok and (cert.n_x, cert.n_y, cert.total) == (0, 1, 1.0)

    def test_examples(self):
        cert = certify_y(RealVectorY((1.0, -2.0, 4.0)))
        assert cert.ok and cert.exponent == 1 and cert.total == 1.6875
        cert = certify_y(RealVectorY((1.0, 2.0, 4.0, 8.0)))
        assert cert.ok and cert.bound == 1.0
        cert = certify_y(RealVectorY((1.0, -1.0001)))
        assert cert.ok and abs(cert.total - 1.99990001) < 1e-6

    def test_global_flip_invariance(self):
        plus = certify_y(RealVectorY((1.0, -2.0, 4.0)))
        minus = certify_y(RealVectorY((-1.0, 2.0, -4.0)))
        assert plus.exponent == minus.exponent
        assert plus.total == minus.total

    def test_random_bound_holds(self):
        rng = random.Random(23)
        for _ in range(200):
            y = random_y(rng, rng.randint(2, 9))
            cert = certify_y(y)
            assert cert.ok
            p = sum(1 for v in y.entries if v > 0)
            assert cert.exponent == min(p, len(y) - p)
