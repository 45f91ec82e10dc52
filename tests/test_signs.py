"""Sign bookkeeping: pair classification, order, counts, levels."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from pohst.signs import (
    PatternContext,
    SignVector,
    alpha_beta,
    boundary_counts,
    classify_pairs,
    min_heavy_target,
    pair_sign_maps,
    pair_sort_key,
    prefix_signs,
    y_sign_counts,
)

sign_vectors = st.lists(st.sampled_from([1, -1]), min_size=0, max_size=10).map(
    lambda bits: SignVector(tuple(bits))
)


def all_sigmas(n):
    for bits in itertools.product((1, -1), repeat=n):
        yield SignVector(bits)


def brute_product_sign(sigma, pair):
    # the independent route: multiply entries directly
    i, j = pair
    s = 1
    for k in range(i - 1, j):
        s *= sigma.entries[k]
    return s


def brute_classify(sigma):
    j_set, k_set = set(), set()
    n = len(sigma)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            s = brute_product_sign(sigma, (i, j))
            if s == (-1) ** (i + j):
                j_set.add(((i, j), s))
            else:
                k_set.add(((i, j), s))
    return j_set, k_set


class TestSignVector:
    def test_from_string_roundtrip(self):
        assert SignVector.from_string("-+-").entries == (-1, 1, -1)
        assert SignVector((1, -1)).to_string() == "+-"

    def test_rejects_zero_and_junk(self):
        with pytest.raises(ValueError):
            SignVector((1, 0))
        with pytest.raises(ValueError):
            SignVector.from_string("x+")
        with pytest.raises(ValueError):
            SignVector.from_reals([0.5, 0.0])

    def test_from_reals(self):
        assert SignVector.from_reals([-0.5, 0.5]).to_string() == "-+"


class TestClassify:
    def test_example_mixed(self):
        j_set, k_set = classify_pairs(SignVector.from_string("-+-"))
        assert {(p.pair, p.product_sign) for p in j_set} == {
            ((2, 2), 1), ((1, 2), -1), ((2, 3), -1), ((1, 3), 1)
        }
        assert {(p.pair, p.product_sign) for p in k_set} == {((1, 1), -1), ((3, 3), -1)}

    def test_example_all_positive(self):
        j_set, k_set = classify_pairs(SignVector.from_string("++"))
        assert {(p.pair, p.product_sign) for p in j_set} == {((1, 1), 1), ((2, 2), 1)}
        assert {(p.pair, p.product_sign) for p in k_set} == {((1, 2), 1)}

    def test_example_single(self):
        j_set, k_set = classify_pairs(SignVector.from_string("+"))
        assert [(p.pair, p.product_sign) for p in j_set] == [((1, 1), 1)]
        assert k_set == []

    def test_covers_triangle_disjointly(self):
        for n in range(0, 8):
            for sigma in all_sigmas(n):
                j_set, k_set = classify_pairs(sigma)
                pairs = [p.pair for p in j_set] + [p.pair for p in k_set]
                assert len(pairs) == len(set(pairs)) == n * (n + 1) // 2
                assert all(not p.canonical for p in j_set)
                assert all(p.canonical for p in k_set)
                for part in (j_set, k_set):
                    order = [p.pair for p in part]
                    assert order == sorted(order, key=pair_sort_key)
        # construction order: rows ascend, starts descend within a row
        assert sorted([(1, 2), (3, 3), (2, 2), (1, 1)], key=pair_sort_key) == [
            (1, 1), (2, 2), (1, 2), (3, 3)
        ]

    def test_matches_brute_force(self):
        for n in range(1, 7):
            for sigma in all_sigmas(n):
                j_set, k_set = classify_pairs(sigma)
                bj, bk = brute_classify(sigma)
                assert {(p.pair, p.product_sign) for p in j_set} == bj
                assert {(p.pair, p.product_sign) for p in k_set} == bk
                jmap, kmap = pair_sign_maps(sigma)
                assert set(jmap.items()) == bj
                assert set(kmap.items()) == bk

    def test_maps_agree_with_lists(self):
        sigma = SignVector.from_string("-++-+")
        j_set, k_set = classify_pairs(sigma)
        jmap, kmap = pair_sign_maps(sigma)
        assert jmap == {p.pair: p.product_sign for p in j_set}
        assert kmap == {p.pair: p.product_sign for p in k_set}
        for text, pair, sign in (("+-", (1, 2), -1), ("+-+", (1, 3), -1),
                                 ("-+-", (1, 3), 1)):
            jmap, kmap = pair_sign_maps(SignVector.from_string(text))
            assert {**jmap, **kmap}[pair] == sign


class TestPatternContext:
    def test_rows_match_direct_multiplication(self):
        for n in range(0, 13):
            tri = [0] + [(1 << (j + 1)) - 2 for j in range(1, n + 1)]
            for sigma in all_sigmas(n):
                ctx = PatternContext(sigma)
                k_rows, k_pos, j_rows, j_pos = ([0] * (n + 1) for _ in range(4))
                for i in range(1, n + 1):
                    s = 1
                    for j in range(i, n + 1):
                        s *= sigma.entries[j - 1]
                        bit = 1 << i
                        rows, pos = (k_rows, k_pos) if s == (-1) ** (i + j + 1) else (j_rows, j_pos)
                        rows[j] |= bit
                        if s > 0:
                            pos[j] |= bit
                assert ctx.k_rows == tuple(k_rows) and ctx.k_pos == tuple(k_pos)
                assert ctx.j_rows == tuple(j_rows) and ctx.j_pos == tuple(j_pos)
                for j in range(n + 1):
                    assert ctx.k_rows[j] & ctx.j_rows[j] == 0
                    assert ctx.k_rows[j] | ctx.j_rows[j] == tri[j]
                assert ctx.size("K") + ctx.size("J") == n * (n + 1) // 2
                # y_{r+1} carries the sign of the first r entries' product
                p = sum(1 for r in range(n + 1) if math.prod(sigma.entries[:r]) > 0)
                assert ctx.target == min(p, n + 1 - p)
                assert len(ctx.stable) == n + 1


class TestAlphaBeta:
    def test_examples(self):
        assert alpha_beta(SignVector.from_string("-+-")) == (1, 2)
        assert alpha_beta(SignVector.from_string("++")) == (2, 0)
        assert alpha_beta(SignVector(())) == (0, 0)

    @given(sign_vectors)
    def test_ties_to_y_counts(self, sigma):
        alpha, beta = alpha_beta(sigma)
        p, m = y_sign_counts(sigma)
        assert alpha + beta == len(sigma)
        assert (p, m) == (alpha + 1, beta)
        assert min_heavy_target(sigma) == min(alpha + 1, beta)


class TestStableLevels:
    def test_examples(self):
        def stable(text):
            return PatternContext(SignVector.from_string(text)).stable

        assert stable("-+-") == (True, False, True, False)
        assert stable("+-+") == (True, True, False, False)
        assert PatternContext(SignVector(())).stable == (True,)

    @given(sign_vectors)
    def test_counts_sum(self, sigma):
        # level j counts the signs of y_1..y_{j+1}, i.e. of the prefix t_0..t_j
        t = prefix_signs(sigma)
        flags = PatternContext(sigma).stable
        assert len(flags) == len(sigma) + 1 and flags[0]
        prev_min = 0
        for j in range(len(sigma) + 1):
            p = sum(1 for r in range(j + 1) if t[r] > 0)
            m = j + 1 - p
            if j:
                assert flags[j] == (min(p, m) == prev_min)
            prev_min = min(p, m)
        assert (p, m) == y_sign_counts(sigma)


class TestBoundaryCounts:
    def test_examples(self):
        assert boundary_counts(SignVector.from_string("-++")) == (1, 2)
        assert boundary_counts(SignVector.from_string("+")) == (0, 0)
        assert boundary_counts(SignVector.from_string("-")) == (0, 1)

    def test_offset_identity_small(self):
        # full exhaustive range runs in the acceptance suite
        for n in (3, 5, 7):
            for sigma in all_sigmas(n):
                if sum(1 for s in sigma if s < 0) % 2 == 1:
                    b_plus, b_minus = boundary_counts(sigma)
                    assert b_plus + 1 == b_minus
