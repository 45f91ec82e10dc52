"""Discriminant bound formula, Hermite table and signature comparison."""

import math

import pytest

from pohst.regulator import (
    MAX_HERMITE_DIMENSION,
    RegulatorQuery,
    compare_with_signature_free,
    discriminant_log_bound,
    hermite_gamma,
    regulator_report,
)

EXACT_DIMENSIONS = {1, 2, 3, 4, 5, 6, 7, 8, 24}


class TestHermite:
    def test_table_values(self):
        assert hermite_gamma(1).value == 1.0
        assert hermite_gamma(8).value == 2.0
        assert hermite_gamma(24).value == 4.0
        assert abs(hermite_gamma(2).value - 2.0 / math.sqrt(3.0)) < 1e-15
        assert abs(hermite_gamma(4).value - math.sqrt(2.0)) < 1e-15

    def test_classical_bound_beyond_table(self):
        value = hermite_gamma(10)
        assert not value.exact
        assert abs(value.value - (4.0 / 3.0) ** 4.5) < 1e-12

    def test_exact_flags(self):
        for d in range(1, 30):
            assert hermite_gamma(d).exact == (d in EXACT_DIMENSIONS)

    def test_bound_dominates_exact_table(self):
        for d in range(1, 9):
            assert hermite_gamma(d).value <= (4.0 / 3.0) ** ((d - 1) / 2.0) + 1e-12

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            hermite_gamma(0)

    def test_rejects_dimension_past_double_range(self):
        assert math.isfinite(hermite_gamma(MAX_HERMITE_DIMENSION).value)
        with pytest.raises(ValueError, match="at most 4935"):
            hermite_gamma(MAX_HERMITE_DIMENSION + 1)


class TestQuery:
    def test_validation(self):
        RegulatorQuery(2, 1, 1.0)
        with pytest.raises(ValueError):
            RegulatorQuery(1, 0, 1.0)
        with pytest.raises(ValueError):
            RegulatorQuery(2, 2, 1.0)
        with pytest.raises(ValueError):
            RegulatorQuery(4, -1, 1.0)
        with pytest.raises(ValueError):
            RegulatorQuery(4, 1, 0.0)


class TestDiscriminantBound:
    def test_hand_substitution(self):
        result = discriminant_log_bound(RegulatorQuery(2, 1, 1.0))
        assert abs(result.log_bound - (math.log(4.0) + 2.0)) <= 1e-12
        assert result.exact

    def test_without_heavy_term(self):
        result = discriminant_log_bound(RegulatorQuery(2, 0, 1.0))
        assert abs(result.log_bound - 2.0) <= 1e-12

    def test_second_term_vanishes_with_regulator(self):
        tiny = discriminant_log_bound(RegulatorQuery(2, 1, 1e-12))
        assert abs(tiny.log_bound - math.log(4.0)) < 1e-5

    def test_monotone_in_min_pm_and_R(self):
        for n in (2, 4, 7, 11):
            prev = None
            for min_pm in range(n // 2 + 1):
                value = discriminant_log_bound(RegulatorQuery(n, min_pm, 1.0)).log_bound
                if prev is not None:
                    assert value > prev
                prev = value
            lows = discriminant_log_bound(RegulatorQuery(n, 0, 0.5)).log_bound
            highs = discriminant_log_bound(RegulatorQuery(n, 0, 5.0)).log_bound
            assert highs > lows

    def test_bound_overflows_to_infinity(self):
        # exp raises OverflowError past a log bound of about 709.78
        result = discriminant_log_bound(RegulatorQuery(60, 30, 1.0))
        assert 18042 < result.log_bound < 18043 and result.bound == math.inf

    def test_exactness_follows_gamma(self):
        assert discriminant_log_bound(RegulatorQuery(9, 4, 1.0)).exact
        assert not discriminant_log_bound(RegulatorQuery(12, 4, 1.0)).exact


class TestSignatureComparison:
    def test_improvement_examples(self):
        assert compare_with_signature_free(
            RegulatorQuery(4, 0, 1.0)).improvement == 2 * math.log(4.0)
        assert compare_with_signature_free(
            RegulatorQuery(2, 1, 1.0)).improvement == 0.0
        assert compare_with_signature_free(
            RegulatorQuery(5, 1, 1.0)).improvement == math.log(4.0)

    def test_improvement_exact_formula(self):
        for n in range(2, 9):
            for min_pm in range(n // 2 + 1):
                comparison = compare_with_signature_free(RegulatorQuery(n, min_pm, 1.5))
                assert comparison.improvement == (n // 2 - min_pm) * math.log(4.0)
                assert comparison.improvement >= 0.0
                assert comparison.signature_free_log_bound == (
                    comparison.log_bound + comparison.improvement
                )


class TestReport:
    def test_pinned_keys(self):
        doc = regulator_report(RegulatorQuery(2, 1, 1.0))
        assert {"n", "min_pm", "R", "gamma", "gamma_exact", "log_bound", "bound",
                "signature_free_log_bound", "improvement"} <= set(doc)
        assert doc["gamma_exact"] is True
        assert abs(doc["bound"] - math.exp(doc["log_bound"])) < 1e-9 * doc["bound"]
