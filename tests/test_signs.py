"""Sign bookkeeping: pair classification, order, counts, levels."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from pohst.signs import (
    PatternContext,
    SignVector,
    min_heavy_target,
    pair_sign_maps,
    pair_sort_key,
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


def prefix_products(sigma):
    """The cumulative signs ``t_0..t_n``, each multiplied out directly."""
    return [math.prod(sigma.entries[:r]) for r in range(len(sigma) + 1)]


def boundary_counts(sigma):
    """Counts of boundary canonical pairs (``i = 1`` or ``j = n``) by sign."""
    n = len(sigma)
    kmap = pair_sign_maps(sigma)[1]
    signs = [s for (i, j), s in kmap.items() if i == 1 or j == n]
    b_plus = sum(1 for s in signs if s > 0)
    return b_plus, len(signs) - b_plus


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
        jmap, kmap = pair_sign_maps(SignVector.from_string("-+-"))
        assert set(jmap.items()) == {
            ((2, 2), 1), ((1, 2), -1), ((2, 3), -1), ((1, 3), 1)
        }
        assert set(kmap.items()) == {((1, 1), -1), ((3, 3), -1)}
        for text, pair, sign in (("+-", (1, 2), -1), ("+-+", (1, 3), -1),
                                 ("-+-", (1, 3), 1)):
            jmap, kmap = pair_sign_maps(SignVector.from_string(text))
            assert {**jmap, **kmap}[pair] == sign

    def test_example_all_positive(self):
        jmap, kmap = pair_sign_maps(SignVector.from_string("++"))
        assert set(jmap.items()) == {((1, 1), 1), ((2, 2), 1)}
        assert set(kmap.items()) == {((1, 2), 1)}

    def test_example_single(self):
        jmap, kmap = pair_sign_maps(SignVector.from_string("+"))
        assert list(jmap.items()) == [((1, 1), 1)]
        assert kmap == {}

    def test_covers_triangle_disjointly(self):
        for n in range(0, 8):
            for sigma in all_sigmas(n):
                jmap, kmap = pair_sign_maps(sigma)
                pairs = [*jmap, *kmap]
                assert len(pairs) == len(set(pairs)) == n * (n + 1) // 2
                for part in (jmap, kmap):
                    order = list(part)
                    assert order == sorted(order, key=pair_sort_key)
        # construction order: rows ascend, starts descend within a row
        assert sorted([(1, 2), (3, 3), (2, 2), (1, 1)], key=pair_sort_key) == [
            (1, 1), (2, 2), (1, 2), (3, 3)
        ]

    def test_matches_brute_force(self):
        for n in range(1, 7):
            for sigma in all_sigmas(n):
                bj, bk = brute_classify(sigma)
                jmap, kmap = pair_sign_maps(sigma)
                assert set(jmap.items()) == bj
                assert set(kmap.items()) == bk


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
        # alpha and beta count the positive and negative prefix products
        # t_1..t_n, so p = alpha + 1 and m = beta
        for text, alpha, beta in (("-+-", 1, 2), ("++", 2, 0), ("", 0, 0)):
            ctx = PatternContext(SignVector.from_string(text))
            assert (ctx.p - 1, ctx.n + 1 - ctx.p) == (alpha, beta)

    @given(sign_vectors)
    def test_ties_to_y_counts(self, sigma):
        t = prefix_products(sigma)
        p = sum(1 for s in t if s > 0)
        m = len(t) - p
        ctx = PatternContext(sigma)
        assert ctx.p == p and p + m == len(sigma) + 1
        assert min_heavy_target(sigma) == ctx.target == min(p, m)


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
        t = prefix_products(sigma)
        ctx = PatternContext(sigma)
        flags = ctx.stable
        assert len(flags) == len(sigma) + 1 and flags[0]
        prev_min = 0
        for j in range(len(sigma) + 1):
            p = sum(1 for r in range(j + 1) if t[r] > 0)
            m = j + 1 - p
            if j:
                assert flags[j] == (min(p, m) == prev_min)
            prev_min = min(p, m)
        assert (ctx.p, len(sigma) + 1 - ctx.p) == (p, m)
        assert min_heavy_target(sigma) == min(p, m)


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
