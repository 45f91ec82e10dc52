"""Command-line front end.

Every command prints a single JSON document (JSON lines for sweep output
files) and reports through the exit code:

    0  success
    1  I/O failure
    2  usage or precondition violation
    3  partition-existence failure: the ladder failed or the search found
       nothing (a would-be counterexample, reported with sigma and target)
    4  bound or identity violation
    5  sweep produced invalid records

Sign patterns are compact ``'+'``/``'-'`` strings; numeric vectors are
comma-separated decimals.  A leading ``-`` in a pattern would normally read
as an option, so place flags before the pattern or separate it with ``--``;
the launcher inserts the separator automatically for plain patterns.
``partition``'s search and both modes take at most ``MAX_SEARCH_N`` = 48
signs (the search recurses once per negative pair); longer patterns exit 2.
``certify`` takes at most ``MAX_CERTIFY_N`` = 1024 x entries (1025 y
entries; a certificate costs O(n^2)); longer vectors exit 2.  ``identity``
takes at most ``MAX_IDENTITY_N`` = 64 y entries (the leave-two-out side
costs O(n^4)); longer vectors exit 2.  A ``--tolerance`` of ``certify`` or
``identity`` that is negative or not finite exits 2.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from datetime import datetime, timezone

from pohst import __version__
from pohst.analysis import (
    DegenerateInput,
    MaximizeConfig,
    identity_residual,
    iterated_identity_residual,
    maximize_f,
    sweep,
    sweep_is_sampled,
    sweep_summary,
    MAX_SWEEP_N,
)
from pohst.certify import (DEFAULT_TOLERANCE, DomainError, RealVectorX, RealVectorY,
                           certify_x, certify_y, check_tolerance)
from pohst.partition import (
    LadderStuck,
    SearchExhausted,
    check_construction_invariants,
    construct_eta,
    build_pi,
    search_partition,
    validate_partition,
)
from pohst.signs import PatternContext, SignVector, alpha_beta, classify_pairs, min_heavy_target
from pohst.regulator import RegulatorQuery, regulator_report

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NO_PARTITION = 3
EXIT_BOUND = 4
EXIT_SWEEP_INVALID = 5

_PATTERN_RE = re.compile(r"[+-]+")


def _emit(ns, payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2 if ns.pretty else None))


def _fail(ns, code: int, message: str, **extra) -> int:
    doc = {"error": message}
    doc.update(extra)
    _emit(ns, doc)
    return code


def _manifest(ns) -> dict:
    """Run record: the parsed arguments, less output formatting, and their digest."""
    args = {k: v for k, v in vars(ns).items() if k not in ("func", "pretty", "command")}
    canonical = json.dumps({"command": ns.command, "args": args}, sort_keys=True)
    return {
        "command": ns.command,
        "args": args,
        "engine_version": __version__,
        "seed": getattr(ns, "seed", None),
        "input_digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _no_partition(ns, exc: LadderStuck | SearchExhausted) -> int:
    return _fail(
        ns, EXIT_NO_PARTITION, str(exc), sigma=exc.sigma.to_string(), target=exc.target
    )


def _parse_pattern(text: str) -> SignVector:
    if not _PATTERN_RE.fullmatch(text):
        raise ValueError(f"malformed sign pattern {text!r}: expected only '+' and '-'")
    return SignVector.from_string(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"malformed numeric list {text!r}") from None


def cmd_classify(ns) -> int:
    try:
        sigma = _parse_pattern(ns.signs)
    except ValueError as exc:
        return _fail(ns, EXIT_USAGE, str(exc))
    j_set, k_set = classify_pairs(sigma)
    alpha, beta = alpha_beta(sigma)
    _emit(ns, {
        "manifest": _manifest(ns),
        "sigma": sigma.to_string(),
        "n_x": len(sigma),
        "n_y": len(sigma) + 1,
        "alpha": alpha,
        "beta": beta,
        "min_heavy_target": min_heavy_target(sigma),
        "J": [info.to_json_dict() for info in j_set],
        "K": [info.to_json_dict() for info in k_set],
    })
    return EXIT_OK


def cmd_partition(ns) -> int:
    try:
        sigma = _parse_pattern(ns.signs)
    except ValueError as exc:
        return _fail(ns, EXIT_USAGE, str(exc))
    target = ns.set.upper()
    doc = {
        "manifest": _manifest(ns),
        "sigma": sigma.to_string(),
        "target": target,
        "mode": ns.mode,
    }
    ctx = PatternContext(sigma)
    doc["validation"] = []  # construct_eta and build_pi raise on any violation
    try:
        constructed = searched = None
        if ns.mode in ("ladder", "both"):
            if target == "K":
                eta = construct_eta(ctx)
                constructed = eta.partition
                doc["trace"] = eta.trace.to_json_dict()
                doc["trace_check_violations"] = check_construction_invariants(
                    ctx, eta.trace
                )
            else:
                constructed = build_pi(ctx)
            doc["partition"] = constructed.to_json_dict()
        if ns.mode in ("search", "both"):
            budget = ctx.target if target == "K" else 0
            try:
                searched = search_partition(sigma, target, budget)
            except ValueError as exc:  # the pattern is too long for the search
                return _fail(ns, EXIT_USAGE, str(exc))
            if searched is None:
                raise SearchExhausted(sigma, target)
            key = "search_partition" if ns.mode == "both" else "partition"
            doc[key] = searched.to_json_dict()
            doc["validation"] = list(validate_partition(ctx, searched).violations)
        if ns.mode == "both":
            doc["agreement"] = constructed.heavy_count == searched.heavy_count
            doc["heavy_counts"] = {
                "constructed": constructed.heavy_count,
                "search": searched.heavy_count,
            }
    except (LadderStuck, SearchExhausted) as exc:
        return _no_partition(ns, exc)
    _emit(ns, doc)
    return EXIT_OK


def cmd_certify(ns) -> int:
    if (ns.x is None) == (ns.y is None):
        return _fail(ns, EXIT_USAGE, "provide exactly one of --x or --y")
    try:
        if ns.x is not None:
            cert = certify_x(RealVectorX(_parse_floats(ns.x)), ns.tolerance)
        else:
            cert = certify_y(RealVectorY(_parse_floats(ns.y)), ns.tolerance)
    except (DomainError, ValueError) as exc:
        return _fail(ns, EXIT_USAGE, str(exc))
    except LadderStuck as exc:
        return _no_partition(ns, exc)
    doc = {"manifest": _manifest(ns)}
    doc.update(cert.to_json_dict())
    _emit(ns, doc)
    return EXIT_OK if cert.ok else EXIT_BOUND


def _written(handle, records):
    """Write each record as one JSON line and pass it on, keeping none."""
    for record in records:
        handle.write(json.dumps(record.to_json_dict(), sort_keys=True))
        handle.write("\n")
        yield record


def cmd_sweep(ns) -> int:
    if not (0 <= ns.n <= MAX_SWEEP_N):
        return _fail(ns, EXIT_USAGE, f"sweep size must lie in 0..{MAX_SWEEP_N}, got {ns.n}")
    try:
        with open(ns.out, "w", encoding="utf-8") as handle:
            records = _written(handle, sweep(ns.n, jobs=ns.jobs, seed=ns.seed))
            summary = sweep_summary(records, ns.n, sampled=sweep_is_sampled(ns.n))
    except OSError as exc:
        return _fail(ns, EXIT_IO, f"cannot write sweep output: {exc}")
    _emit(ns, {
        "manifest": _manifest(ns),
        "out": ns.out,
        **summary,
    })
    return EXIT_SWEEP_INVALID if summary["invalid"] else EXIT_OK


def cmd_maximize(ns) -> int:
    try:
        sigma = _parse_pattern(ns.signs)
        cfg = MaximizeConfig(
            restarts=ns.restarts, iterations=ns.iters, seed=ns.seed, delta=ns.delta
        )
    except ValueError as exc:
        return _fail(ns, EXIT_USAGE, str(exc))
    result = maximize_f(sigma, cfg)
    doc = {"manifest": _manifest(ns)}
    doc.update(result.to_json_dict())
    _emit(ns, doc)
    return EXIT_BOUND if result.exceeded_bound else EXIT_OK


def cmd_regbound(ns) -> int:
    try:
        query = RegulatorQuery(ns.n, ns.min_pm, ns.R)
    except ValueError as exc:
        return _fail(ns, EXIT_USAGE, str(exc))
    doc = {"manifest": _manifest(ns)}
    doc.update(regulator_report(query))
    _emit(ns, doc)
    return EXIT_OK


def cmd_identity(ns) -> int:
    try:
        check_tolerance(ns.tolerance)
        y = RealVectorY(_parse_floats(ns.y))
        residual = (
            identity_residual(y) if ns.which == "single"
            else iterated_identity_residual(y)
        )
    except (DomainError, DegenerateInput, ValueError) as exc:
        return _fail(ns, EXIT_USAGE, str(exc))
    _emit(ns, {
        "manifest": _manifest(ns),
        "y": list(y.entries),
        "which": ns.which,
        "n": len(y),
        "residual": residual,
        "tolerance": ns.tolerance,
        "ok": residual <= ns.tolerance,
    })
    return EXIT_OK if residual <= ns.tolerance else EXIT_BOUND


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves the parser unchanged (every call starts from a fresh
    namespace filled with the declared defaults), so calls cannot leak state.
    """
    parser = argparse.ArgumentParser(
        prog="pohst",
        description="Certification engine for the generalized Pohst product inequality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        p.set_defaults(func=func)
        return p

    p = add("classify", cmd_classify, "split the index triangle into J and K")
    p.add_argument("signs", help="sign pattern, e.g. '-+-'")

    p = add("partition", cmd_partition, "construct and validate a good partition")
    p.add_argument("signs", help="sign pattern")
    p.add_argument("set", choices=["j", "k"], help="which set to partition")
    p.add_argument("mode", nargs="?", default="both",
                   choices=["ladder", "search", "both"],
                   help="construction path (default: both, with agreement check)")

    p = add("certify", cmd_certify, "certify the product bound on a numeric vector")
    p.add_argument("--x", help="comma-separated box vector, entries in [-1,1] minus 0")
    p.add_argument("--y", help="comma-separated vector of strictly growing modulus")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)

    p = add("sweep", cmd_sweep, "sweep sign patterns and write JSON lines")
    p.add_argument("n", type=int, help="pattern length (0..24)")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = add("maximize", cmd_maximize, "search for the largest product on a sign box")
    p.add_argument("signs", help="sign pattern")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=1e-6,
                   help="magnitude floor keeping entries away from zero")

    p = add("regbound", cmd_regbound, "discriminant bound from degree, min(p,m), regulator")
    p.add_argument("n", type=int)
    p.add_argument("min_pm", type=int)
    p.add_argument("R", type=float)

    p = add("identity", cmd_identity, "residual of the leave-one/two-out identities")
    p.add_argument("which", nargs="?", default="single", choices=["single", "iterated"])
    p.add_argument("--y", required=True, help="comma-separated modulus-ordered vector")
    p.add_argument("--tolerance", type=float, default=1e-9)

    return parser


def _guard_argv(argv: list[str]) -> list[str]:
    """Keep leading '-' arguments out of argparse's option matching.

    Plain sign patterns get a '--' separator inserted before them; numeric
    vector flags are merged into '--x=...' form so values like '-0.5,0.5'
    survive.
    """
    if not argv:
        return argv
    out = list(argv)
    for pos in range(len(out) - 1):
        if out[pos] in ("--x", "--y") and out[pos + 1].startswith("-"):
            out[pos: pos + 2] = [f"{out[pos]}={out[pos + 1]}"]
            break
    if out[0] in ("classify", "partition", "maximize"):
        for pos in range(1, len(out)):
            tok = out[pos]
            if not (tok.startswith("-") and _PATTERN_RE.fullmatch(tok)):
                continue
            if tok == "--" and any(_PATTERN_RE.fullmatch(t) for t in out[pos + 1:]):
                break  # a real separator in front of the actual pattern
            return out[:pos] + ["--"] + out[pos:]
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _build_parser().parse_args(_guard_argv(argv))
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    return ns.func(ns)


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
