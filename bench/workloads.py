"""The four benchmark workloads and the correctness gates on their outputs.

Each workload is one client in a closed loop inside one process: a step
calls the public pohst API once, waits for the result, checks it, and
only then issues the next call.  A step completes ``Step.ops``
operations; the operation is what a user of that entry point counts:

* ``sweep``     -- one pattern record of ``pohst sweep n`` (CLI, in process)
* ``certify``   -- one ``pohst certify --x ...`` call (CLI, in process)
* ``soundness`` -- one sampled vector of ``bound_soundness_sample``
* ``maximize``  -- one ``maximize_f`` probe with the default config

Inputs come from the benchmark seed only; the package sees the generated
vectors, patterns and seeds.  The gates recompute what they can
independently (heavy targets, products in 80-digit decimal) and compare
the rest with values recorded in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import decimal
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Sizes for the real runs and for the smoke test.  The maximize pool is
# fixed (32 patterns from a constant seed) because ``expected.json``
# holds the seed-commit result of every pattern in it.
SIZES = {
    "full": {
        "sweep_n": 12,
        "certify_n": 16, "certify_pool": 64, "certify_inputs": 2048,
        "soundness_n": 10, "soundness_samples": 200_000,
        "maximize_n": 10, "maximize_pool": 32,
    },
    "tiny": {
        "sweep_n": 6,
        "certify_n": 16, "certify_pool": 4, "certify_inputs": 16,
        "soundness_n": 6, "soundness_samples": 5_000,
        "maximize_n": 10, "maximize_pool": 4,
    },
}
CERTIFY_POOL_SEED = 20221201
MAXIMIZE_POOL_SEED = 2212_01500
# Magnitudes stay inside [0.02, 0.98]: every factor 1 - x_i..x_j is then
# at least 0.02, which bounds the cancellation the rounding bound prices.
MAG_LO, MAG_HI = 0.02, 0.98


@dataclass
class Step:
    ops: int
    seconds: float
    failed: int
    out_bytes: int = 0
    hits: int = 0
    misses: int = 0
    problems: tuple[str, ...] = ()


# --------------------------------------------------------------------------
# independent recomputation


def heavy_target(signs: str) -> int:
    """min(p, m) over the n + 1 induced y-signs of a '+'/'-' pattern."""
    t, positive = 1, 1
    for ch in signs:
        t = -t if ch == "-" else t
        positive += t > 0
    return min(positive, len(signs) + 1 - positive)


U = 2.0 ** -53


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): bound on k chained roundings."""
    return k * U / (1.0 - k * U)


def product_reference(xs: tuple[float, ...]) -> tuple[float, float]:
    """Product of ``1 - x_i...x_j`` over i <= j, and a bound on a float result.

    The product is evaluated in 80-digit decimal from the exact binary
    inputs.  The bound is the relative error a double evaluation may have
    when every partial product of k entries carries at most k - 1
    roundings, each factor one more for the subtraction, and the total
    N - 1 for its N factors, in any multiplication order:
    ``prod(1 + |p|/f * gamma(k-1) * (1 + u) + u) * (1 + gamma(N-1)) - 1``,
    where ``p`` is the partial product and ``f = 1 - p`` its factor.
    """
    n = len(xs)
    growth = 1.0
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        total = decimal.Decimal(1)
        for i in range(n):
            running = decimal.Decimal(1)
            for j in range(i, n):
                running *= decimal.Decimal(xs[j])
                factor = 1 - running
                total *= factor
                kappa = float(abs(running) / factor)
                growth *= 1.0 + kappa * gamma(j - i) * (1.0 + U) + U
        pairs = n * (n + 1) // 2
        bound = growth * (1.0 + gamma(max(pairs - 1, 0))) - 1.0
        return float(total), bound


# --------------------------------------------------------------------------
# gates: each returns (failed operations, problems)


def check_sweep(code: int, data: bytes, n: int, digest: str) -> tuple[int, list[str]]:
    """Exit 0, 2^n records in the recorded order, each valid with heavy == target."""
    total = 1 << n
    problems = []
    lines = data.decode("utf-8", "replace").splitlines()
    if code != 0:
        problems.append(f"sweep exit code {code}")
    if len(lines) != total:
        problems.append(f"{len(lines)} records, expected {total}")
    digest_ok = hashlib.sha256(data).hexdigest() == digest
    if not digest_ok:
        problems.append("record digest differs from the recorded one")
    bad = 0
    for line in lines:
        try:
            rec = json.loads(line)
            good = (
                rec["valid"] is True
                and rec["heavy"] == rec["target"] == heavy_target(rec["sigma"])
            )
        except (ValueError, KeyError, TypeError):
            good = False
        bad += not good
    if bad:
        problems.append(f"{bad} records invalid or with heavy != target")
    # a call that failed as a whole fails every record it should have made
    failed = bad if code == 0 and len(lines) == total and digest_ok else total
    return min(failed, total), problems


def check_certify(code: int, text: str, xs: tuple[float, ...]) -> tuple[int, list[str]]:
    """Exit 0, ``ok`` true, echoed input, exponent and total recomputed."""
    problems = []
    if code != 0:
        problems.append(f"certify exit code {code}")
    try:
        doc = json.loads(text)
        if doc["ok"] is not True:
            problems.append("certificate not ok")
        if tuple(doc["input"]["values"]) != xs:
            problems.append("certificate echoes other input values")
        signs = "".join("-" if v < 0 else "+" for v in xs)
        if doc["exponent"] != heavy_target(signs) or doc["bound"] != 2.0 ** doc["exponent"]:
            problems.append("exponent or bound differs from min(p, m)")
        reference, rel = product_reference(xs)
        if abs(doc["total"] - reference) > rel * abs(reference):
            problems.append(
                f"total {doc['total']!r} differs from {reference!r} by more than {rel:.3g} relative"
            )
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"malformed certificate: {exc!r}")
    return (1 if problems else 0), problems


def check_soundness(report, n: int, samples: int) -> tuple[int, list[str]]:
    """No total or group violation, and every one of the 2^n patterns drawn."""
    problems = []
    if report.total_violations or report.group_violations:
        problems.append(
            f"{report.total_violations} total and {report.group_violations} group violations"
        )
    if report.patterns != 1 << n:
        problems.append(f"{report.patterns} patterns drawn, expected {1 << n}")
    if report.samples != samples:
        problems.append(f"report covers {report.samples} samples, expected {samples}")
    return (samples if problems else 0), problems


def check_maximize(result, expected: dict) -> tuple[int, list[str]]:
    """Bound not exceeded; evaluations and best value bit-identical to the record."""
    problems = []
    if result.exceeded_bound:
        problems.append(f"{result.sigma}: probe exceeded the bound")
    want = expected.get(result.sigma)
    if want is None:
        problems.append(f"{result.sigma}: no recorded result")
    elif (result.evaluations, result.best_value.hex()) != (
        want["evaluations"], want["best_value"]
    ):
        problems.append(
            f"{result.sigma}: got {result.evaluations} evaluations, best "
            f"{result.best_value.hex()}; recorded {want['evaluations']}, {want['best_value']}"
        )
    return (1 if problems else 0), problems


# --------------------------------------------------------------------------
# inputs


def pattern_pool(n: int, count: int, seed: int) -> list[str]:
    """``count`` distinct length-n patterns drawn with a fixed seed."""
    rng = random.Random(seed)
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen["".join(rng.choice("+-") for _ in range(n))] = None
    return list(seen)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _call_cli(cli, argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, buf.getvalue(), seconds


def _warm(cli, argv: list[str]) -> None:
    code = _call_cli(cli, argv)[0]
    if code != 0:
        raise RuntimeError(f"warm-up call {argv[0]} exited with {code}")


# --------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""
    ops_per_step = 1

    def __init__(self, pohst, seed: int, size: str, tmpdir: Path) -> None:
        self.pohst = pohst
        self.seed = seed
        self.size = SIZES[size]
        self.tmpdir = tmpdir
        # the undecorated cache object, so that tracing wrappers installed
        # later do not hide cache_info / cache_clear
        self.cache = pohst.certify.partitions_for

    def setup(self) -> None:
        raise NotImplementedError

    def step(self) -> Step:
        raise NotImplementedError

    def at_boundary(self) -> bool:
        return True


class SweepWorkload(Workload):
    name = "sweep"
    why = "every pattern is new, so sign maps, the K ladder, the J pass and validation do all the work"

    def setup(self) -> None:
        self.n = self.size["sweep_n"]
        self.ops_per_step = 1 << self.n
        self.digest = load_expected()["sweep_digest"][str(self.n)]
        self.out = self.tmpdir / "sweep.jsonl"
        _warm(self.pohst.cli, ["sweep", "4", "--out", str(self.out)])

    def step(self) -> Step:
        self.cache.cache_clear()
        argv = ["sweep", str(self.n), "--out", str(self.out), "--seed", str(self.seed)]
        code, text, seconds = _call_cli(self.pohst.cli, argv)
        info = self.cache.cache_info()
        data = self.out.read_bytes()
        failed, problems = check_sweep(code, data, self.n, self.digest)
        return Step(self.ops_per_step, seconds, failed, len(text) + len(data),
                    info.hits, info.misses, tuple(problems))


class CertifyWorkload(Workload):
    name = "certify"
    why = "partition lookups all hit the warmed cache, so the CLI and the certificate numerics dominate"

    def setup(self) -> None:
        n = self.size["certify_n"]
        pool = pattern_pool(n, self.size["certify_pool"], CERTIFY_POOL_SEED)
        rng = random.Random(self.seed)
        self.inputs = []
        for _ in range(self.size["certify_inputs"]):
            signs = rng.choice(pool)
            xs = tuple(
                (-1.0 if ch == "-" else 1.0) * rng.uniform(MAG_LO, MAG_HI) for ch in signs
            )
            self.inputs.append((xs, ",".join(repr(v) for v in xs)))
        for signs in pool:
            xs = ",".join("-0.5" if ch == "-" else "0.5" for ch in signs)
            _warm(self.pohst.cli, ["certify", "--x", xs])
        self.next = 0

    def step(self) -> Step:
        xs, arg = self.inputs[self.next % len(self.inputs)]
        self.next += 1
        before = self.cache.cache_info()
        code, text, seconds = _call_cli(self.pohst.cli, ["certify", "--x", arg])
        after = self.cache.cache_info()
        failed, problems = check_certify(code, text, xs)
        return Step(1, seconds, failed, len(text), after.hits - before.hits,
                    after.misses - before.misses, tuple(problems))


class SoundnessWorkload(Workload):
    name = "soundness"
    why = "all 2^n patterns are cached after set-up, so the numpy factor and group-product kernel dominates"

    def setup(self) -> None:
        self.n = self.size["soundness_n"]
        self.ops_per_step = self.size["soundness_samples"]
        self.next = self.seed * 1_000_000
        first = self.step()
        if first.failed:
            raise RuntimeError("; ".join(first.problems))

    def step(self) -> Step:
        sample_seed = self.next
        self.next += 1
        before = self.cache.cache_info()
        t0 = time.perf_counter()
        report = self.pohst.analysis.bound_soundness_sample(
            self.n, self.ops_per_step, seed=sample_seed
        )
        seconds = time.perf_counter() - t0
        after = self.cache.cache_info()
        failed, problems = check_soundness(report, self.n, self.ops_per_step)
        return Step(self.ops_per_step, seconds, failed, 0, after.hits - before.hits,
                    after.misses - before.misses, tuple(problems))


class MaximizeWorkload(Workload):
    name = "maximize"
    why = "pure-Python scalar objective with no partitions and no numpy; only the line search runs"

    def setup(self) -> None:
        pool = pattern_pool(self.size["maximize_n"], self.size["maximize_pool"],
                            MAXIMIZE_POOL_SEED)
        self.expected = load_expected()["maximize"]
        from_string = self.pohst.signs.SignVector.from_string
        self.patterns = [from_string(s) for s in pool]
        self.rng = random.Random(self.seed)
        self.order: list = []

    def at_boundary(self) -> bool:
        # Runs stop only after whole passes over the pool, so every run
        # probes each pattern equally often and per-probe figures do not
        # depend on where the clock ran out.
        return not self.order

    def step(self) -> Step:
        if not self.order:
            self.order = list(self.patterns)
            self.rng.shuffle(self.order)
        sigma = self.order.pop()
        t0 = time.perf_counter()
        result = self.pohst.analysis.maximize_f(sigma)
        seconds = time.perf_counter() - t0
        failed, problems = check_maximize(result, self.expected)
        return Step(1, seconds, failed, problems=tuple(problems))


WORKLOADS = {
    w.name: w for w in (SweepWorkload, CertifyWorkload, SoundnessWorkload, MaximizeWorkload)
}
