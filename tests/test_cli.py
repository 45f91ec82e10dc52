"""Command-line contract: payloads, exit codes, reproducibility."""

import hashlib
import itertools
import json
import math
import random
import re

import pytest

from pohst import cli
from pohst.analysis import sweep_summary
from pohst.certify import RealVectorX, RealVectorY, certify_x, certify_y
from pohst.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestClassify:
    def test_mixed_pattern(self, capsys):
        code, doc = run(capsys, "classify", "-+-")
        assert code == 0
        assert doc["n_x"] == 3 and doc["n_y"] == 4
        assert {tuple(e["pair"]) for e in doc["J"]} == {(2, 2), (1, 2), (2, 3), (1, 3)}
        assert {tuple(e["pair"]) for e in doc["K"]} == {(1, 1), (3, 3)}

    def test_single_plus(self, capsys):
        code, doc = run(capsys, "classify", "+")
        assert code == 0
        assert [tuple(e["pair"]) for e in doc["J"]] == [(1, 1)]
        assert doc["K"] == []

    def test_malformed_pattern(self, capsys):
        code, doc = run(capsys, "classify", "x+")
        assert code == 2
        assert "error" in doc

    def test_reproducible_payload(self, capsys):
        _, first = run(capsys, "classify", "-+-")
        _, second = run(capsys, "classify", "-+-")
        first["manifest"].pop("timestamp")
        second["manifest"].pop("timestamp")
        assert first == second

    # SHA-256 over the classify document, manifest dropped, of every
    # pattern with 1 <= n <= 8, recorded while the command built its pair
    # lists through classify_pairs and its counts through alpha_beta
    GOLDEN_ALL_PATTERNS = (
        "a21ac7c8a161fc613d82745d64198b9b4608ac94a57cf4312c972b82364eabc6"
    )

    def test_golden_all_patterns(self, capsys):
        digest = hashlib.sha256()
        for n in range(1, 9):
            for signs in itertools.product("+-", repeat=n):
                code, doc = run(capsys, "classify", "".join(signs))
                assert code == 0
                del doc["manifest"]
                digest.update(json.dumps(doc, sort_keys=True).encode())
                digest.update(b"\n")
        assert digest.hexdigest() == self.GOLDEN_ALL_PATTERNS


class TestPartition:
    def test_both_mode_agreement(self, capsys):
        code, doc = run(capsys, "partition", "-+-", "k", "both")
        assert code == 0
        assert doc["agreement"] is True
        assert doc["heavy_counts"] == {"constructed": 2, "search": 2}
        assert doc["trace_check_violations"] == []

    def test_ladder_mode(self, capsys):
        code, doc = run(capsys, "partition", "++", "k", "ladder")
        assert code == 0
        assert doc["partition"]["heavy_count"] == 0
        assert doc["trace"]["op3_uses"] == 0
        assert doc["partition"]["groups"] == [
            {"shape": "PositiveSingleton", "members": [[1, 2]]}
        ]

    def test_empty_j_target(self, capsys):
        code, doc = run(capsys, "partition", "-", "j")
        assert code == 0
        assert doc["partition"]["groups"] == []

    def test_search_mode(self, capsys):
        code, doc = run(capsys, "partition", "-+-", "j", "search")
        assert code == 0
        assert doc["partition"]["method"] == "search"


    @pytest.mark.parametrize("mode", ["search", "both"])
    def test_search_length_limit(self, capsys, monkeypatch, mode):
        # 1056 negative pairs: deeper than the default recursion limit; the
        # length is refused before either ladder is built
        def refuse(*args):
            raise AssertionError("a ladder was built for a pattern the search refuses")

        monkeypatch.setattr(cli, "construct_eta", refuse)
        monkeypatch.setattr(cli, "build_pi", refuse)
        for target in "kj":
            code, doc = run(capsys, "partition", "-" * 64, target, mode)
            assert code == 2
            assert "at most 48" in doc["error"]

    def test_ladder_mode_has_no_length_limit(self, capsys):
        code, doc = run(capsys, "partition", "-" * 64, "k", "ladder")
        assert code == 0
        assert doc["validation"] == []

    # SHA-256 over the exit code and the JSON document, manifest dropped, of
    # `partition SIGNS SET MODE` for every pattern with 1 <= n <= 6, sets k
    # and j, modes ladder and both; recorded while each construction, check
    # and validation call still built its own context and the ladder's
    # partitions were validated a second time
    GOLDEN_DOCUMENTS_DIGEST = (
        "c416c2960ff36be52d67a926ec54298016aa838037248c4d0335d5d690aa0447"
    )

    def test_golden_documents(self, capsys):
        digest = hashlib.sha256()
        for n in range(1, 7):
            for signs in map("".join, itertools.product("+-", repeat=n)):
                for target, mode in itertools.product("kj", ("ladder", "both")):
                    code, doc = run(capsys, "partition", signs, target, mode)
                    del doc["manifest"]
                    digest.update(f"{code} {json.dumps(doc, sort_keys=True)}\n".encode())
        assert digest.hexdigest() == self.GOLDEN_DOCUMENTS_DIGEST


class TestCertify:
    def test_x_vector(self, capsys):
        code, doc = run(capsys, "certify", "--x", "-0.5,0.5")
        assert code == 0
        assert doc["ok"] and doc["total"] == 0.9375 and doc["bound"] == 2.0

    def test_y_vector(self, capsys):
        code, doc = run(capsys, "certify", "--y", "1,-2,4")
        assert code == 0
        assert doc["ok"] and doc["total"] == 1.6875

    def test_modulus_tie_rejected(self, capsys):
        code, doc = run(capsys, "certify", "--y", "1,-1")
        assert code == 2
        assert "error" in doc

    def test_empty_y_is_a_usage_error(self, capsys):
        code, doc = run(capsys, "certify", "--y", "")
        assert code == 2 and "at least one entry" in doc["error"]
        # an empty x vector is the one-entry y case
        code, doc = run(capsys, "certify", "--x", "")
        assert code == 0 and (doc["n_x"], doc["n_y"]) == (0, 1)
        assert doc["input"] == {"kind": "x", "values": []}

    @pytest.mark.parametrize("flag, values", [
        ("--x", "0.5,,-0.5"), ("--x", ","), ("--x", "0.5, ,-0.5"), ("--x", ",0.5"),
        ("--y", "1,"), ("--y", "1,,-2"),
    ])
    def test_empty_entry_is_malformed(self, capsys, flag, values):
        # an empty entry inside a list is an error, not a dropped entry
        code, doc = run(capsys, "certify", flag, values)
        assert code == 2 and "malformed numeric list" in doc["error"]

    def test_consecutive_calls_leak_no_state(self, capsys):
        # the parser is built once per process; options of one call must
        # not survive into the next
        code, doc = run(capsys, "certify", "--x", "0.5", "--tolerance", "0.25")
        assert code == 0 and doc["tolerance"] == 0.25
        code, doc = run(capsys, "certify", "--x", "0.5")
        assert code == 0 and doc["tolerance"] == 1e-12
        assert doc["manifest"]["args"] == {"x": "0.5", "y": None, "tolerance": 1e-12}
        code, doc = run(capsys, "certify", "--y", "1,-2,4")
        assert code == 0 and doc["input"]["kind"] == "y"
        assert doc["manifest"]["args"]["x"] is None
        code, doc = run(capsys, "classify", "-+-")
        assert code == 0 and "tolerance" not in doc["manifest"]["args"]

    def test_input_length_cap(self, capsys, monkeypatch):
        import pohst.certify as certify

        class Reached(Exception):
            pass

        def refuse(n, code):
            raise Reached

        monkeypatch.setattr(certify, "partitions_for", refuse)
        cap = certify.MAX_CERTIFY_N
        xs = ",".join(["0.5"] * (cap + 1))
        ys = ",".join(str(k) for k in range(1, cap + 3))
        for flag, values in (("--x", xs), ("--y", ys)):
            code, doc = run(capsys, "certify", flag, values)
            assert code == 2
            assert f"at most {cap} x entries" in doc["error"]
        # at the cap the input passes the length check
        for flag, values in (("--x", xs[4:]), ("--y", ys[: ys.rindex(",")])):
            with pytest.raises(Reached):
                main(["certify", flag, values])

    # SHA-256 over the exit code and the JSON document, manifest dropped, of
    # `certify --x` on 8 seeded vectors per length n = 1..16; recorded while
    # the partition cache still kept each pattern's K construction trace
    GOLDEN_DOCUMENTS_DIGEST = (
        "40e03e51e3af7b3fa590cabbc50a9561c961f4f7373a631a24a43f48340df77a"
    )

    def test_golden_documents(self, capsys):
        rng = random.Random(8)
        digest = hashlib.sha256()
        for n in range(1, 17):
            for _ in range(8):
                x = ",".join(
                    repr(rng.choice((1, -1)) * (1.0 - rng.random())) for _ in range(n)
                )
                code, doc = run(capsys, "certify", "--x", x)
                del doc["manifest"]
                digest.update(f"{code} {json.dumps(doc, sort_keys=True)}\n".encode())
        assert digest.hexdigest() == self.GOLDEN_DOCUMENTS_DIGEST

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("flag, values", [("--x", "0.5,-0.25"), ("--y", "1,-2,4")])
    def test_bad_tolerance_is_a_usage_error(self, capsys, flag, values, tolerance):
        code, doc = run(capsys, "certify", flag, values, "--tolerance", tolerance)
        assert code == 2 and "tolerance" in doc["error"]

    def test_underflowing_ratio_is_named(self, capsys):
        # no y entry is zero, but y_1 / y_2 underflows to 0.0
        code, doc = run(capsys, "certify", "--y", "1e-320,1e300")
        assert code == 2
        assert doc["error"] == "ratio y_1 / y_2 = 1e-320 / 1e+300 underflows to zero"

    def test_requires_exactly_one_vector(self, capsys):
        code, _ = run(capsys, "certify", "--x", "0.5", "--y", "1,2")
        assert code == 2
        code, _ = run(capsys, "certify")
        assert code == 2


class TestCertifyDocument:
    """The printed certificate is ``json.dumps`` of the manifest and
    ``Certificate.to_json_dict()``, byte for byte, although ``certify``
    encodes its groups from the pattern's cached plan."""

    @staticmethod
    def reference(manifest, cert, **kwargs):
        return json.dumps({"manifest": manifest, **cert.to_json_dict()}, sort_keys=True,
                          **kwargs) + "\n"

    def check(self, capsys, *argv, cert):
        code = main(["certify", *argv])
        out = capsys.readouterr().out
        manifest = json.loads(out)["manifest"]
        assert out == self.reference(manifest, cert)
        return code, manifest

    @staticmethod
    def seeded_x(rng, n):
        return tuple(rng.choice((1, -1)) * (1.0 - rng.random()) for _ in range(n))

    def test_seeded_x_vectors(self, capsys):
        rng = random.Random(2501)
        for n in range(41):
            for _ in range(3):
                xs = self.seeded_x(rng, n)
                code, _ = self.check(capsys, "--x", ",".join(map(repr, xs)),
                                     cert=certify_x(RealVectorX(xs)))
                assert code == 0

    def test_seeded_y_vectors(self, capsys):
        rng = random.Random(2502)
        for n in range(41):
            mag = rng.uniform(0.5, 2.0)
            ys = []
            for _ in range(n + 1):
                ys.append(rng.choice((1, -1)) * mag)
                mag *= 1.0 + rng.uniform(0.01, 2.0)
            code, _ = self.check(capsys, "--y", ",".join(map(repr, ys)),
                                 cert=certify_y(RealVectorY(ys)))
            assert code == 0

    @pytest.mark.parametrize("xs", [
        (1.0,), (-1.0,), (1.0, -1.0, 1.0), (-1.0,) * 9, (-0.5,) * 40, (-1.0,) * 40,
        (0.5, 1.0, -1.0, -0.25, 1.0, -1.0),
    ])
    def test_boundary_and_all_minus(self, capsys, xs):
        # entries of modulus 1 give factors of exactly 0.0 and 2.0
        cert = certify_x(RealVectorX(xs))
        code, _ = self.check(capsys, "--x", ",".join(map(repr, xs)), cert=cert)
        assert code == 0

    @pytest.mark.parametrize("argv, certify", [
        (("--x", "-0.5,0.25,-1.0"), lambda: certify_x(RealVectorX((-0.5, 0.25, -1.0)))),
        (("--y", "1,-2,4"), lambda: certify_y(RealVectorY((1.0, -2.0, 4.0)))),
    ])
    def test_pretty_is_the_indented_form(self, capsys, argv, certify):
        assert main(["certify", "--pretty", *argv]) == 0
        out = capsys.readouterr().out
        manifest = json.loads(out)["manifest"]
        assert out == self.reference(manifest, certify(), indent=2)

    def test_replaced_certificate_prints_its_own_ok(self, capsys, monkeypatch):
        import dataclasses

        real = certify_x
        replaced = []

        def pessimist(x, tolerance):
            replaced.append(dataclasses.replace(real(x, tolerance), ok=False))
            return replaced[-1]

        monkeypatch.setattr(cli, "certify_x", pessimist)
        code = main(["certify", "--x", "-0.5,0.5,0.25"])
        out = capsys.readouterr().out
        assert code == 4 and '"ok": false, "pi_method"' in out
        assert out == self.reference(json.loads(out)["manifest"], replaced[-1])
        # every group still checks, only the certificate's own ok changed
        assert all(group["ok"] for group in json.loads(out)["groups"])

    def test_equal_length_patterns_keep_their_own_plans(self, capsys):
        a, b = (0.5, -0.5, 0.5, -0.5), (-0.5, 0.5, -0.5, 0.5)
        cert_a, cert_b = certify_x(RealVectorX(a)), certify_x(RealVectorX(b))
        assert cert_a.plan is not cert_b.plan
        assert certify_x(RealVectorX((0.25, -0.75, 0.5, -0.125))).plan is cert_a.plan
        for xs in (a, b, a):
            cert = certify_x(RealVectorX(xs))
            self.check(capsys, "--x", ",".join(map(repr, xs)), cert=cert)


class TestSweep:
    def test_n2(self, capsys, tmp_path):
        out = tmp_path / "s.jsonl"
        code, doc = run(capsys, "sweep", "2", "--out", str(out))
        assert code == 0
        assert doc["patterns"] == 4 and doc["valid"] == 4
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 4
        assert set(lines[0]) == {"sigma", "J", "K", "heavy", "target", "ladder", "valid"}

    def test_n0_writes_empty_file(self, capsys, tmp_path):
        out = tmp_path / "empty.jsonl"
        code, doc = run(capsys, "sweep", "0", "--out", str(out))
        assert code == 0
        assert doc["patterns"] == 0 and out.read_text() == ""

    def test_n25_rejected(self, capsys, tmp_path):
        code, doc = run(capsys, "sweep", "25", "--out", str(tmp_path / "x.jsonl"))
        assert code == 2

    def test_bad_seed_exits_two_before_opening(self, capsys, tmp_path):
        out = tmp_path / "x.jsonl"
        code, doc = run(capsys, "sweep", "21", "--out", str(out), "--seed", "-1")
        assert code == 2 and "error" in doc
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs_exits_two_before_opening(self, capsys, tmp_path, jobs):
        out = tmp_path / "x.jsonl"
        code, doc = run(capsys, "sweep", "2", "--out", str(out), "--jobs", jobs)
        assert code == 2 and "jobs must be positive" in doc["error"]
        assert not out.exists()

    def test_unwritable_path(self, capsys):
        code, doc = run(capsys, "sweep", "2", "--out", "/nonexistent-dir/x.jsonl")
        assert code == 1

    def test_summary_streams_records(self, capsys, tmp_path, monkeypatch):
        seen = []

        def summary(records, n, sampled=False):
            seen.append(type(records))
            return sweep_summary(records, n, sampled)

        monkeypatch.setattr(cli, "sweep_summary", summary)
        out = tmp_path / "s.jsonl"
        code, doc = run(capsys, "sweep", "5", "--out", str(out))
        assert code == 0 and len(seen) == 1
        assert not issubclass(seen[0], (list, tuple))  # no record list is kept
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert doc["patterns"] == len(lines) == 32
        assert doc["valid"] == sum(rec["valid"] for rec in lines)
        assert doc["ladder_used"] == sum(rec["ladder"] for rec in lines)

    def test_parallel_matches_serial(self, capsys, tmp_path):
        serial, parallel = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(capsys, "sweep", "5", "--out", str(serial))
        run(capsys, "sweep", "5", "--out", str(parallel), "--jobs", "2")
        assert serial.read_text() == parallel.read_text()

    # SHA-256 of the 4,096 JSON lines of `pohst sweep 12`, recorded while
    # every record came from its own per-pattern ladder run
    SWEEP_12_DIGEST = "0393b93a8d8ec0382712c820da0667aa494718eb7d73e41df84a010d3cc82bd7"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_golden_sweep_12(self, capsys, tmp_path, jobs):
        out = tmp_path / "s.jsonl"
        code, doc = run(capsys, "sweep", "12", "--out", str(out), "--jobs", jobs)
        assert code == 0 and doc["patterns"] == doc["valid"] == 4096
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SWEEP_12_DIGEST


class TestMaximize:
    def test_single_negative(self, capsys):
        code, doc = run(capsys, "maximize", "-")
        assert code == 0
        assert doc["best_value"] == 2.0 and doc["gap"] == 0.0

    def test_double_negative(self, capsys):
        # flags go before the pattern; a bare '--' at the end is the pattern
        code, doc = run(capsys, "maximize", "--restarts", "3",
                        "--iters", "8", "--delta", "0.001", "--")
        assert code == 0
        assert doc["best_value"] >= 1.99 and doc["bound"] == 2.0

    def test_bare_double_minus_pattern(self, capsys):
        code, doc = run(capsys, "maximize", "--")
        assert code == 0
        assert doc["sigma"] == "--" and doc["bound"] == 2.0

    def test_separated_double_minus_pattern(self, capsys):
        code, doc = run(capsys, "maximize", "--restarts", "2", "--iters", "4",
                        "--", "--")
        assert code == 0
        assert doc["sigma"] == "--"

    def test_single_positive(self, capsys):
        code, doc = run(capsys, "maximize", "+", "--restarts", "2", "--iters", "4")
        assert code == 0
        assert doc["best_value"] == 1.0 - 1e-6 and doc["bound"] == 1.0

    def test_bad_delta(self, capsys):
        code, _ = run(capsys, "maximize", "+", "--delta", "2.0")
        assert code == 2

    def test_negative_seed(self, capsys):
        # one restart never reaches the seeded start points, so this cannot hang
        code, doc = run(capsys, "maximize", "+", "--restarts", "1", "--seed", "-2")
        assert code == 2 and "seed" in doc["error"]


class TestRegbound:
    def test_hand_value(self, capsys):
        code, doc = run(capsys, "regbound", "2", "1", "1")
        assert code == 0
        assert abs(doc["log_bound"] - (math.log(4.0) + 2.0)) <= 1e-12

    def test_min_pm_cap(self, capsys):
        code, doc = run(capsys, "regbound", "2", "2", "1")
        assert code == 2

    def test_exact_gamma_dimension_eight(self, capsys):
        code, doc = run(capsys, "regbound", "9", "4", "1")
        assert code == 0
        assert doc["gamma_exact"] is True and doc["gamma"] == 2.0

    def test_degree_cap(self, capsys):
        # past degree 4936 the classical Hermite bound overflows a double
        code, doc = run(capsys, "regbound", "4937", "1", "1.0")
        assert code == 2 and "at most 4936" in doc["error"]
        code, doc = run(capsys, "regbound", "4936", "1", "1.0")
        assert code == 0 and doc["log_bound"] == math.inf


class TestIdentity:
    def test_single_zero_residual(self, capsys):
        code, doc = run(capsys, "identity", "single", "--y", "1,-2,4")
        assert code == 0
        assert doc["residual"] == 0.0

    def test_iterated(self, capsys):
        code, doc = run(capsys, "identity", "iterated", "--y", "1,2,4,8")
        assert code == 0
        assert doc["residual"] <= 1e-12

    def test_too_short(self, capsys):
        code, doc = run(capsys, "identity", "single", "--y", "1,2")
        assert code == 2

    def test_residual_above_tolerance(self, capsys):
        code, doc = run(capsys, "identity", "iterated", "--y", "1,-3,9,-27",
                        "--tolerance", "0.0")
        assert code == 4

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, tolerance):
        code, doc = run(capsys, "identity", "--y", "1,-2,4,-8", "--tolerance", tolerance)
        assert code == 2 and "tolerance" in doc["error"]

    @pytest.mark.parametrize("which", ["single", "iterated"])
    def test_length_cap(self, capsys, monkeypatch, which):
        import pohst.analysis as analysis
        from pohst.analysis import MAX_IDENTITY_N

        def refuse(y, d):
            raise AssertionError("factors computed before the length check")

        monkeypatch.setattr(analysis, "_leave_out_residual", refuse)
        y = ",".join(str(2 ** k) for k in range(MAX_IDENTITY_N + 1))
        code, doc = run(capsys, "identity", which, "--y", y)
        assert code == 2 and f"at most {MAX_IDENTITY_N} entries" in doc["error"]

    def test_degenerate_input_maps_to_usage_error(self, capsys, monkeypatch):
        import pohst.cli as cli

        def boom(y):
            raise ValueError("zero factor")

        monkeypatch.setattr(cli, "identity_residual", boom)
        code, doc = run(capsys, "identity", "single", "--y", "1,-2,4")
        assert code == 2 and "zero factor" in doc["error"]


class TestExitCodeSurfaces:
    """Codes 3 and 4 guard outcomes the engine never produces on real input;
    the contract still has to hold if they ever fire."""

    def test_partition_existence_failure_exits_three(self, capsys, monkeypatch):
        import pohst.cli as cli

        monkeypatch.setattr(cli, "search_partition", lambda sigma, target, budget: None)
        code, doc = run(capsys, "partition", "-+-", "j", "search")
        assert code == 3
        assert doc["sigma"] == "-+-" and doc["target"] == "J"

    @pytest.mark.parametrize("argv, target", [
        (("certify", "--x", "-0.5,0.5"), "K"),
        (("partition", "-+", "k", "ladder"), "K"),
        (("partition", "-+", "j", "ladder"), "J"),
    ])
    def test_stuck_ladder_exits_three(self, capsys, monkeypatch, argv, target):
        # the row step serves the walk behind both the partition command and
        # certify's entries; the walk runs K before J, so the fault is
        # injected into the failing target alone
        import pohst.partition as partition
        from pohst.certify import partitions_for

        def stuck(state, j, row, pos, stable, heavy):
            if ("K" if heavy else "J") != target:
                return real(state, j, row, pos, stable, heavy)
            raise partition.LadderStuck(None, target, (1, 1), "forced gap")

        real = partition._ladder_row
        monkeypatch.setattr(partition, "_ladder_row", stuck)
        partitions_for.cache_clear()
        code, doc = run(capsys, *argv)
        assert code == 3
        assert doc["sigma"] == "-+" and doc["target"] == target
        assert "forced gap" in doc["error"]

    def test_bound_violation_exits_four(self, capsys, monkeypatch):
        import dataclasses

        import pohst.cli as cli
        from pohst.certify import certify_x as real_certify_x

        def pessimist(x, tolerance):
            return dataclasses.replace(real_certify_x(x, tolerance), ok=False)

        monkeypatch.setattr(cli, "certify_x", pessimist)
        code, doc = run(capsys, "certify", "--x", "0.5")
        assert code == 4 and doc["ok"] is False

    def test_maximize_excess_exits_four(self, capsys, monkeypatch):
        import dataclasses

        import pohst.cli as cli
        from pohst.analysis import maximize_f as real_maximize_f

        def excessive(sigma, cfg):
            return dataclasses.replace(
                real_maximize_f(sigma, cfg), exceeded_bound=True
            )

        monkeypatch.setattr(cli, "maximize_f", excessive)
        code, _ = run(capsys, "maximize", "+")
        assert code == 4

    def test_invalid_sweep_exits_five(self, capsys, tmp_path, monkeypatch):
        # a row step that leaves each rectangle's corner free, as in the
        # walk's mutant test, flags every pattern with a rectangle; the
        # flagged lines must carry heavy -1 and false flags byte for byte
        import pohst.partition as partition
        from pohst.analysis import sweep
        from pohst.partition import Shape

        real = partition._ladder_row

        def mutant(state, j, *args):
            reports = real(state, j, *args)
            for shape, members, _ in reports:
                if shape is Shape.RECTANGLE_QUAD:
                    state.free_row[j] |= 1 << members[3][0]
            return reports

        monkeypatch.setattr(partition, "_ladder_row", mutant)
        records = list(sweep(8))
        flagged = [rec for rec in records if not rec.valid]
        assert len(flagged) > 100
        out = tmp_path / "s.jsonl"
        code, doc = run(capsys, "sweep", "8", "--out", str(out))
        assert code == 5
        assert doc["patterns"] == 256 and doc["invalid"] == len(flagged)
        assert out.read_text().splitlines() == [
            json.dumps(rec.to_json_dict(), sort_keys=True) for rec in records]
        assert '"heavy": -1, "ladder": false' in out.read_text()
        assert all(rec.heavy == -1 and not rec.ladder for rec in flagged)

    # the success path and every error path of each command; sweep writes
    # its relative --out under the test's working directory
    GOLDEN_ARGV = (
        ("classify", "-+-"),
        ("classify", "--pretty", "+-+-"),
        ("classify", "x+"),
        ("classify", ""),
        ("partition", "-+-", "k", "both"),
        ("partition", "--+-", "j", "ladder"),
        ("partition", "-+-", "j", "search"),
        ("partition", "+x", "k"),
        ("partition", "-" * 49, "k", "search"),
        ("partition", "-" * 49, "j", "both"),
        ("certify", "--x", "-0.5,0.5"),
        ("certify", "--pretty", "--y", "1,-2,4"),
        ("certify", "--x", "0.5", "--y", "1,2"),
        ("certify",),
        ("certify", "--x", "0.5,0"),
        ("certify", "--x", "1.5"),
        ("certify", "--x", "a,b"),
        ("certify", "--y", "1,-1"),
        ("certify", "--x", "0.5", "--tolerance", "nan"),
        ("certify", "--y", "1,2", "--tolerance", "-1"),
        ("certify", "--x", ",".join(["0.5"] * 1025)),
        ("certify", "--y", ",".join(str(k) for k in range(1, 1027))),
        ("sweep", "3", "--out", "s.jsonl"),
        ("sweep", "3", "--out", "s.jsonl", "--jobs", "2", "--seed", "7"),
        ("sweep", "25", "--out", "s.jsonl"),
        ("sweep", "-1", "--out", "s.jsonl"),
        ("sweep", "21", "--out", "s.jsonl", "--seed", "-1"),
        ("sweep", "2", "--out", "missing/s.jsonl"),
        ("maximize", "--restarts", "2", "--iters", "3", "--seed", "4", "-+"),
        ("maximize", "+x"),
        ("maximize", "+", "--restarts", "1", "--seed", "-2"),
        ("maximize", "+", "--delta", "2.0"),
        ("maximize", "+", "--delta", "0"),
        ("maximize", "+", "--restarts", "0"),
        ("regbound", "9", "4", "1"),
        ("regbound", "--pretty", "5", "2", "1.5"),
        ("regbound", "1", "0", "1"),
        ("regbound", "2", "2", "1"),
        ("regbound", "4", "-1", "1"),
        ("regbound", "4", "1", "0"),
        ("regbound", "4", "1", "inf"),
        ("regbound", "4", "1", "nan"),
        ("identity", "--y", "1,-2,4"),
        ("identity", "iterated", "--y", "1,2,4,8"),
        ("identity", "iterated", "--y", "1,-3,9,-27", "--tolerance", "0.0"),
        ("identity", "--y", "1,2"),
        ("identity", "iterated", "--y", "1,2,4"),
        ("identity", "--y", ",".join(str(2 ** k) for k in range(65))),
        ("identity", "--y", "1,-1,2"),
        ("identity", "--y", "1,-2,4", "--tolerance", "-1"),
        (),
        ("frobnicate",),
        ("classify",),
        ("partition", "-+", "q"),
        ("sweep", "x", "--out", "s.jsonl"),
        ("sweep", "3"),
        ("identity", "--y", "1,2,3", "--tolerance", "abc"),
    )

    # SHA-256 over the argv, the exit code and the printed document, manifest
    # timestamp dropped, of GOLDEN_ARGV and of the forced exit-3 and exit-4
    # calls below; recorded while every command mapped its own exceptions to
    # exit codes and attached its own manifest
    GOLDEN_DOCUMENTS_DIGEST = (
        "c42d61b4d4d9e5c4abba862646f66d8379032ad1364dd628a540ac890c0bf222"
    )

    def test_golden_documents(self, capsys, tmp_path, monkeypatch):
        import dataclasses

        import pohst.partition as partition
        from pohst.analysis import maximize_f as real_maximize_f
        from pohst.certify import certify_x as real_certify_x
        from pohst.certify import partitions_for

        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()

        def record(argv):
            code = main(list(argv))
            out = re.sub(r'("timestamp": )"[^"]*"', r"\1null", capsys.readouterr().out)
            digest.update(json.dumps([list(argv), code, out]).encode() + b"\n")

        for argv in self.GOLDEN_ARGV:
            record(argv)

        def stuck(state, j, row, pos, stable, heavy):
            raise partition.LadderStuck(None, "K" if heavy else "J", (1, 1), "forced gap")

        def stuck_j(state, j, row, pos, stable, heavy):
            # the walk runs K before J, so J fails only where K does not
            return (real if heavy else stuck)(state, j, row, pos, stable, heavy)

        real = partition._ladder_row
        with monkeypatch.context() as patched:
            patched.setattr(partition, "_ladder_row", stuck)
            partitions_for.cache_clear()
            record(("certify", "--x", "-0.5,0.5"))
            record(("partition", "-+", "k", "ladder"))
            patched.setattr(partition, "_ladder_row", stuck_j)
            record(("partition", "-+", "j", "both"))
        with monkeypatch.context() as patched:
            patched.setattr(cli, "search_partition", lambda sigma, target, budget: None)
            record(("partition", "-+-", "j", "search"))
            patched.setattr(cli, "certify_x", lambda x, tolerance: dataclasses.replace(
                real_certify_x(x, tolerance), ok=False))
            record(("certify", "--x", "0.5"))
            patched.setattr(cli, "maximize_f", lambda sigma, cfg: dataclasses.replace(
                real_maximize_f(sigma, cfg), exceeded_bound=True))
            record(("maximize", "--restarts", "2", "--iters", "3", "+"))
        assert digest.hexdigest() == self.GOLDEN_DOCUMENTS_DIGEST


class TestManifest:
    ARGV = {
        "classify": ("classify", "-+-"),
        "partition": ("partition", "-+-", "k", "both"),
        "certify": ("certify", "--x", "-0.5,0.25", "--tolerance", "1e-9"),
        "sweep": ("sweep", "3", "--out", "s.jsonl", "--jobs", "1", "--seed", "5"),
        "maximize": ("maximize", "--restarts", "2", "--iters", "3", "--seed", "4", "-+"),
        "regbound": ("regbound", "--pretty", "5", "2", "1.5"),
        "identity": ("identity", "iterated", "--y", "1,-2,4,-8"),
    }

    # SHA-256 of each command's manifest, timestamp dropped, for the argv
    # above; recorded while every command still listed its arguments by hand
    GOLDEN = {
        "certify": "d4a92e6515452276ba8e8e572801c626f9f2d675743a8c29774c987157a3edc9",
        "classify": "21acc5f5732de60ec3483dadb8ced49b2986f0d55f4ac3ab1c481ee3a7710cbe",
        "identity": "51c38b42ea8f126b61ebd29521e540395d7f52137a2a2e411ebd6a10967262ac",
        "maximize": "2e446304ea3677d1dcf494b03af2830111169e82163ab257373c5d3920da8fb9",
        "partition": "b3ab16b0facd3844b4da3d4814e07c73b85dbe7e994c95823e5db5443b6599ba",
        "regbound": "1d84cbb89481b8f0c2f3bb0d8215472bca4c0d7e91a6a547dc057da473637ef0",
        "sweep": "73e7ae062c7de05abfd20aaa9e479cc5ef7e61674bb00166619c7d2d5d37a14b",
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_golden_manifest(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)  # sweep writes its relative --out here
        _, doc = run(capsys, *self.ARGV[command])
        manifest = doc["manifest"]
        del manifest["timestamp"]
        assert manifest["command"] == command
        encoded = json.dumps(manifest, sort_keys=True).encode()
        assert hashlib.sha256(encoded).hexdigest() == self.GOLDEN[command]


class TestPatternLengthCap:
    @pytest.mark.parametrize("argv, call", [
        (("classify",), "PatternContext"),
        (("partition", "k", "ladder"), "PatternContext"),
        (("maximize",), "maximize_f"),
    ], ids=["classify", "partition", "maximize"])
    def test_cap(self, capsys, monkeypatch, argv, call):
        class Reached(Exception):
            pass

        def refuse(*args):
            raise Reached

        monkeypatch.setattr(cli, call, refuse)
        cap = cli.MAX_PATTERN_N
        command, *rest = argv
        code, doc = run(capsys, command, "-" * (cap + 1), *rest)
        assert code == 2 and f"at most {cap} signs" in doc["error"]
        # at the cap the pattern reaches the library call
        with pytest.raises(Reached):
            main([command, "-" * cap, *rest])


class TestMaximizeLengthCap:
    def test_cap(self, capsys, monkeypatch):
        import pohst.analysis as analysis

        class Reached(Exception):
            pass

        def refuse(X):
            raise Reached

        # the line search's batch evaluator: reached only once the length passed
        monkeypatch.setattr(analysis, "factor_matrix", refuse)
        cap = analysis.MAX_MAXIMIZE_N
        code, doc = run(capsys, "maximize", "-" * (cap + 1))
        assert code == 2 and f"at most {cap} signs" in doc["error"]
        with pytest.raises(Reached):
            main(["maximize", "-" * cap])


class TestMaximizeEvaluationCap:
    def test_cap(self, capsys, monkeypatch):
        import pohst.analysis as analysis

        class Reached(Exception):
            pass

        def refuse(X):
            raise Reached

        monkeypatch.setattr(analysis, "factor_matrix", refuse)
        cap = analysis.MAX_MAXIMIZE_EVALUATIONS
        # one sign: each restart costs at most 1 + 44 * iterations
        # evaluations, so 320 restarts of 71 iterations need exactly 10**6
        assert cap == 320 * (1 + 44 * 71)
        for restarts, iters in (("321", "71"), ("320", "72"), ("1000000000", "40")):
            code, doc = run(capsys, "maximize", "--restarts", restarts, "--iters", iters, "--", "-")
            assert code == 2 and f"at most {cap} evaluations" in doc["error"]
        with pytest.raises(Reached):
            main(["maximize", "--restarts", "320", "--iters", "71", "--", "-"])


class TestParsing:
    def test_double_dash_passthrough(self, capsys):
        code, doc = run(capsys, "classify", "--", "-+-")
        assert code == 0 and doc["sigma"] == "-+-"

    @pytest.mark.parametrize("argv, error", [
        (("certify", "--x", "-0.5", "--y", "-1,2"), "provide exactly one of --x or --y"),
        (("certify", "--y", "-1,2", "--x", "-0.5"), "provide exactly one of --x or --y"),
        (("certify", "--x", "-0.5,0.5", "--tolerance", "-1e-3"),
         "tolerance must be finite and non-negative, got -0.001"),
        (("identity", "--y", "-1,2,-4", "--tolerance", "-1e-3"),
         "tolerance must be finite and non-negative, got -0.001"),
        (("maximize", "--delta", "-1e-3", "-+"), "magnitude floor must lie in (0, 1), got -0.001"),
    ])
    def test_every_negative_numeric_value_reaches_its_handler(self, capsys, argv, error):
        # values starting with '-' that argparse does not read as negative
        # numbers: every one is merged, so the handler reports in JSON
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        assert json.loads(captured.out) == {"error": error}

    def test_merged_values_parse_as_given(self, capsys):
        code, doc = run(capsys, "certify", "--tolerance", "-0.0", "--x", "-0.5,-0.25")
        assert code == 0 and doc["tolerance"] == 0.0
        assert doc["input"]["values"] == [-0.5, -0.25]

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_handler_replaced_after_first_call_runs(self, capsys, monkeypatch):
        # main looks each handler up when it runs it, so a wrapper installed
        # once the parser is built (as a timing tracer does) still runs
        run(capsys, "regbound", "2", "1", "1")
        calls = []

        def stub(ns):
            calls.append(ns.n)
            return {"stub": True}, cli.EXIT_BOUND

        monkeypatch.setattr(cli, "cmd_regbound", stub)
        code, doc = run(capsys, "regbound", "3", "1", "1")
        assert (code, doc["stub"], calls) == (cli.EXIT_BOUND, True, [3])
