"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The exhaustive partition runs (criterion 1) are
shared with the trace-assertion check (criterion 8) through a module fixture.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from pohst.analysis import (
    MaximizeConfig,
    bound_soundness_sample,
    identity_residual,
    iterated_identity_residual,
    maximize_f,
)
from pohst.certify import RealVectorY, check_pohst_case
from pohst.partition import (
    build_eta,
    build_pi,
    check_construction_invariants,
    construct_eta,
    search_partition,
    validate_partition,
)
from pohst.regulator import RegulatorQuery, compare_with_signature_free, discriminant_log_bound
from pohst.signs import SignVector, boundary_counts, min_heavy_target


def all_sigmas(n):
    for bits in itertools.product((1, -1), repeat=n):
        yield SignVector(bits)


def report(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


class ExhaustiveRuns:
    """Criterion 1 work product, reused by criterion 8."""

    def __init__(self, n_max):
        self.n_max = n_max
        self.patterns = 0
        self.partition_failures = []
        self.heavy_mismatches = []
        self.trace_violations = []
        self.ladder_used = 0
        self.traces_checked = 0
        start = time.time()
        for n in range(1, n_max + 1):
            for sigma in all_sigmas(n):
                self.patterns += 1
                eta = construct_eta(sigma)
                pi = build_pi(sigma)
                if not validate_partition(sigma, eta.partition).ok:
                    self.partition_failures.append(("K", sigma.to_string()))
                if not validate_partition(sigma, pi).ok:
                    self.partition_failures.append(("J", sigma.to_string()))
                if eta.partition.heavy_count != min_heavy_target(sigma):
                    self.heavy_mismatches.append(sigma.to_string())
                if eta.ladder_used:
                    self.ladder_used += 1
                    self.traces_checked += 1
                    issues = check_construction_invariants(sigma, eta.trace)
                    if issues:
                        self.trace_violations.append((sigma.to_string(), issues[:2]))
        self.elapsed = time.time() - start


@pytest.fixture(scope="module")
def exhaustive_runs():
    return ExhaustiveRuns(12)


def test_criterion_1_exhaustive_partition_existence(exhaustive_runs):
    runs = exhaustive_runs
    ok = (
        runs.patterns == 2 ** 13 - 2
        and not runs.partition_failures
        and not runs.heavy_mismatches
        and runs.elapsed < 300.0
    )
    report(
        1, ok,
        f"{runs.patterns} patterns (n=1..12), {len(runs.partition_failures)} partition "
        f"failures, {len(runs.heavy_mismatches)} heavy-count mismatches, "
        f"{runs.elapsed:.1f}s",
    )


def test_criterion_2_spot_scale_n16():
    rng = random.Random(2024)
    failures = 0
    start = time.time()
    for _ in range(10_000):
        sigma = SignVector(tuple(rng.choice((1, -1)) for _ in range(16)))
        eta = construct_eta(sigma)
        pi = build_pi(sigma)
        if not (
            validate_partition(sigma, eta.partition).ok
            and validate_partition(sigma, pi).ok
            and eta.partition.heavy_count == min_heavy_target(sigma)
        ):
            failures += 1
    report(2, failures == 0,
           f"10^4 sampled patterns at n=16, {failures} failures, "
           f"{time.time() - start:.1f}s")


def test_criterion_3_theorem_bound_soundness():
    worst_total = worst_group = 0.0
    violations = 0
    for n in range(2, 11):
        rep = bound_soundness_sample(n, 100_000, seed=n, tolerance=1e-12)
        violations += rep.total_violations + rep.group_violations
        worst_total = max(worst_total, rep.max_total_ratio)
        worst_group = max(worst_group, rep.max_group_ratio)
    report(3, violations == 0,
           f"9x10^5 random vectors (n=2..10), {violations} bound violations, "
           f"max total/bound {worst_total:.6f}, max group/bound {worst_group:.6f}")


def test_criterion_4_pohst_predicates():
    rng = np.random.default_rng(4)
    failures = 0

    def grid(lo, hi, count):
        return np.linspace(lo, hi, count)

    # case 1: 10^3 grid + 10^5 random on [-1, 1]
    for a in grid(-1, 1, 1000):
        failures += not check_pohst_case(1, float(a)).holds
    for a in rng.uniform(-1, 1, 100_000):
        failures += not check_pohst_case(1, float(a)).holds
    # case 2: a in [0,1], b in [-1,0]
    for a in grid(0, 1, 32):
        for b in grid(-1, 0, 32):
            failures += not check_pohst_case(2, float(a), float(b)).holds
    for a, b in zip(rng.uniform(0, 1, 100_000), rng.uniform(-1, 0, 100_000)):
        failures += not check_pohst_case(2, float(a), float(b)).holds
    # case 3: a, b in [-1,1]
    for a in grid(-1, 1, 32):
        for b in grid(-1, 1, 32):
            failures += not check_pohst_case(3, float(a), float(b)).holds
    for a, b in zip(rng.uniform(-1, 1, 100_000), rng.uniform(-1, 1, 100_000)):
        failures += not check_pohst_case(3, float(a), float(b)).holds
    # case 4: a in [0,1], b, c in [-1,0]
    for a in grid(0, 1, 10):
        for b in grid(-1, 0, 10):
            for c in grid(-1, 0, 10):
                failures += not check_pohst_case(4, float(a), float(b), float(c)).holds
    for a, b, c in zip(rng.uniform(0, 1, 100_000), rng.uniform(-1, 0, 100_000),
                       rng.uniform(-1, 0, 100_000)):
        failures += not check_pohst_case(4, float(a), float(b), float(c)).holds

    boundary1 = check_pohst_case(1, -1.0)
    boundary3 = check_pohst_case(3, -1.0, 0.0)
    exact = boundary1.value == 2.0 and boundary3.value == 2.0
    report(4, failures == 0 and exact,
           f"4 predicates over grids plus 10^5 random points each, {failures} failures, "
           f"boundary values {boundary1.value}/{boundary3.value}")


def test_criterion_5_sharpness_probes():
    single = maximize_f(SignVector.from_string("-"))
    double = maximize_f(
        SignVector.from_string("--"),
        MaximizeConfig(restarts=4, iterations=12, delta=1e-3),
    )
    probes_ok = True
    for text in ("-", "+", "--", "-+", "+-", "-+-", "--+-", "+-+-+"):
        sigma = SignVector.from_string(text)
        result = maximize_f(sigma, MaximizeConfig(restarts=4, iterations=10))
        bound = 2.0 ** min_heavy_target(sigma)
        if result.best_value > bound * (1 + 1e-9):
            probes_ok = False
    ok = single.best_value >= 2 - 1e-6 and double.best_value >= 1.99 and probes_ok
    report(5, ok,
           f"best '-' = {single.best_value}, best '--' = {double.best_value:.6f}, "
           f"all probes within certified bounds: {probes_ok}")


def test_criterion_6_identities():
    rng = random.Random(6)

    def random_y(n):
        mag = rng.uniform(0.5, 2.0)
        out = []
        for _ in range(n):
            out.append(rng.choice((1, -1)) * mag)
            mag *= 1.0 + rng.uniform(0.1, 2.0)
        return RealVectorY(tuple(out))

    worst_single = worst_iterated = 0.0
    for n in range(3, 9):
        for _ in range(1000):
            worst_single = max(worst_single, identity_residual(random_y(n)))
    for n in range(4, 9):
        for _ in range(1000):
            worst_iterated = max(worst_iterated, iterated_identity_residual(random_y(n)))
    ok = worst_single <= 1e-9 and worst_iterated <= 1e-9
    report(6, ok,
           f"10^3 random vectors per size, worst single residual {worst_single:.2e}, "
           f"worst iterated residual {worst_iterated:.2e}")


def test_criterion_7_boundary_count_identity():
    checked = failures = 0
    for n in (3, 5, 7, 9, 11, 13):
        for sigma in all_sigmas(n):
            if sum(1 for s in sigma if s < 0) % 2 == 1:
                checked += 1
                b_plus, b_minus = boundary_counts(sigma)
                if b_plus + 1 != b_minus:
                    failures += 1
    report(7, failures == 0,
           f"{checked} odd patterns with odd negatives (n=3,5,...,13), {failures} failures")


def test_criterion_8_construction_trace_assertions(exhaustive_runs):
    runs = exhaustive_runs
    ok = not runs.trace_violations and runs.traces_checked == runs.patterns
    report(8, ok,
           f"{runs.traces_checked} ladder traces over criterion 1's runs "
           f"(ladder coverage {runs.ladder_used}/{runs.patterns}), "
           f"{len(runs.trace_violations)} violations")


def test_criterion_9_oracle_agreement():
    # the search's heavy budget forces its count to equal the ladder's, so
    # the check that can fail is the one below the budget: no K partition
    # has fewer than min(p, m) heavy groups
    disagreements = 0
    below_budget = 0
    budget_checks = 0
    patterns = 0
    start = time.time()
    for n in range(1, 11):
        for sigma in all_sigmas(n):
            patterns += 1
            part, _ = build_eta(sigma)
            target = min_heavy_target(sigma)
            found = search_partition(sigma, "K", target)
            if found is None or found.heavy_count != part.heavy_count:
                disagreements += 1
            if target >= 1:
                budget_checks += 1
                if search_partition(sigma, "K", target - 1) is not None:
                    below_budget += 1
    report(9, disagreements == 0 and below_budget == 0 and budget_checks == 2036,
           f"{patterns} patterns (n=1..10), ladder vs search heavy counts, "
           f"{disagreements} disagreements; {budget_checks} searches at budget "
           f"min(p, m) - 1, {below_budget} partitions found, {time.time() - start:.1f}s")


def test_criterion_10_regulator_formula():
    hand = math.log(4.0) + 2.0
    got = discriminant_log_bound(RegulatorQuery(2, 1, 1.0)).log_bound
    formula_ok = abs(got - hand) <= 1e-12

    grid = [
        (n, min_pm)
        for n in (2, 3, 4, 5, 6, 7, 8)
        for min_pm in range(n // 2 + 1)
    ][:20]
    grid_failures = 0
    for n, min_pm in grid:
        comparison = compare_with_signature_free(RegulatorQuery(n, min_pm, 1.25))
        if comparison.improvement != (n // 2 - min_pm) * math.log(4.0):
            grid_failures += 1
    ok = formula_ok and grid_failures == 0 and len(grid) == 20
    report(10, ok,
           f"log bound {got:.12f} vs hand value {hand:.12f}; "
           f"{len(grid)} grid cases, {grid_failures} improvement mismatches")
