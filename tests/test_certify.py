"""Numeric evaluation, elementary inequalities and certificates."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pohst.certify import (
    Certificate,
    DomainError,
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
    x_from_y,
)
from pohst.partition import GoodPartition, PartitionGroup, Shape, build_pi, construct_eta
from pohst.signs import SignVector, min_heavy_target, pair_sign_maps


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


class TestEvaluation:
    def test_factor_examples(self):
        assert factor_table(RealVectorX((-1.0,)))[(1, 1)] == 2.0
        assert factor_table(RealVectorX((0.5,)))[(1, 1)] == 0.5
        assert factor_table(RealVectorX((-0.5, 0.5)))[(1, 2)] == 1.25

    def test_eval_f_examples(self):
        assert eval_f(RealVectorX((-1.0,))) == 2.0
        assert eval_f(RealVectorX((-0.5, 0.5))) == 0.9375
        assert eval_f(RealVectorX(())) == 1.0
        assert eval_f(RealVectorX((1.0, 0.5))) == 0.0

    def test_x_from_y_examples(self):
        assert x_from_y(RealVectorY((1.0, -2.0, 4.0))).entries == (-0.5, -0.5)
        assert x_from_y(RealVectorY((1.0, 2.0))).entries == (0.5,)
        assert x_from_y(RealVectorY((3.0, -6.0, 12.0, -24.0))).entries == (-0.5,) * 3

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

    @pytest.mark.parametrize("n", [0, 1, 12])
    def test_factor_matrix_rows_equal_factor_table(self, n):
        rng = np.random.default_rng(n)
        X = (1.0 - rng.random((300, n))) * np.where(rng.random((300, n)) < 0.5, -1.0, 1.0)
        F = factor_matrix(X)
        assert F.shape == (300, n * (n + 1) // 2)
        for row, values in zip(X, F):
            table = factor_table(RealVectorX(tuple(float(v) for v in row)))
            assert [v.hex() for v in table.values()] == [float(v).hex() for v in values]

    def test_factor_sign_ranges(self):
        rng = random.Random(5)
        for _ in range(200):
            x = random_x(rng, rng.randint(1, 8))
            jmap, kmap = pair_sign_maps(x.sign_vector())
            signs = {**jmap, **kmap}
            for pair, value in factor_table(x).items():
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

        def refuse(sigma):
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


class TestPartitionCache:
    def test_holds_the_two_partitions(self):
        for n in range(0, 7):
            for bits in itertools.product((1, -1), repeat=n):
                sigma = SignVector(bits)
                k_part, j_part = partitions_for(sigma)
                assert type(k_part) is GoodPartition and type(j_part) is GoodPartition
                assert (k_part.target, j_part.target) == ("K", "J")
                assert k_part == construct_eta(sigma).partition
                assert j_part == build_pi(sigma)

    def test_capacity(self):
        # all patterns of n = 1..11 (4,094) and 8 of n = 12: 4,102 distinct keys
        partitions_for.cache_clear()
        sigmas = [SignVector(bits) for n in range(1, 12)
                  for bits in itertools.product((1, -1), repeat=n)]
        sigmas += [SignVector((1,) * 11 + (s,)) for s in (1, -1)]
        sigmas += [SignVector((-1,) * k + (1,) * (12 - k)) for k in range(1, 7)]
        assert len(set(sigmas)) == 4102
        for sigma in sigmas:
            partitions_for(sigma)
        info = partitions_for.cache_info()
        assert (info.misses, info.maxsize, info.currsize) == (4102, 4096, 4096)
        partitions_for.cache_clear()


class TestCertifyY:
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
