"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload untraced and traced, checks that each metric named
in ``BENCHMARK.json`` is reported with its unit, and checks that the
correctness gates catch corrupted outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("report ")
    return json.loads(lines[-2][len("report "):]), json.loads(lines[-1])


def _units(result: dict) -> dict[str, str]:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report, result = _run(workload, 0)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    rows = {row["name"]: (row["value"], row["unit"]) for row in report["rows"]}
    assert rows["op_p50_ms"][1] == "ms" and rows["op_p50_ms"][0] > 0
    assert rows["error_rate"] == (0, "ratio")
    assert ("op_p99_ms" in rows) == (workload in run.TAIL_WORKLOADS)
    assert len(report["setup_samples_s"]) == run.SETUP_REPEATS
    for key in ("commit", "nproc", "python", "numpy", "seed"):
        assert key in report["provenance"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    report, result = _run(workload, 1)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["trace.ops"] > 0 and values["trace.overhead_ratio"] > 0
    if workload == "sweep":
        assert values["partition.validate_partition.calls_per_op"] == 4
        assert values["signs.pair_sign_maps.calls_per_op"] == 7
        assert values["certify.partitions_for.hit_ratio"] == 0
        assert values["partition.search_partition.calls"] == 0
        assert values["partition.ladder_ratio"] == 1
    if workload == "certify":
        assert values["certify.partitions_for.hit_ratio"] == 1
    if workload == "maximize":
        assert values["analysis.maximize_f.evaluations_per_op"] > 0


def test_every_workload_is_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_run_without_sources_fails_without_result():
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=Path(tmp))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _cli(pohst, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pohst.cli.main(argv)
    return code, buf.getvalue()


def test_sweep_gate_catches_a_flipped_valid_flag():
    pohst = run.import_pohst()
    n = workloads.SIZES["tiny"]["sweep_n"]
    digest = workloads.load_expected()["sweep_digest"][str(n)]
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        out = Path(tmp) / "sweep.jsonl"
        code, _ = _cli(pohst, ["sweep", str(n), "--out", str(out)])
        data = out.read_bytes()
    assert workloads.check_sweep(code, data, n, digest) == (0, [])
    flipped = data.replace(b'"valid": true', b'"valid": false', 1)
    failed, problems = workloads.check_sweep(code, flipped, n, digest)
    assert failed > 0
    assert any("invalid" in p for p in problems)


def test_certify_gate_catches_a_perturbed_total():
    pohst = run.import_pohst()
    xs = (-0.5, 0.25, 0.9, -0.125, 0.75, -0.98, 0.02, 0.5)
    code, text = _cli(pohst, ["certify", "--x", ",".join(repr(v) for v in xs)])
    assert workloads.check_certify(code, text, xs) == (0, [])
    doc = json.loads(text)
    doc["total"] *= 1.0 + 1e-9
    failed, problems = workloads.check_certify(code, json.dumps(doc), xs)
    assert failed == 1
    assert any("total" in p for p in problems)
