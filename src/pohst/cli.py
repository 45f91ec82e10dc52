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

Handlers return their payload and exit code and raise on failure; ``main``
is the one place that maps exceptions to exit codes.  A success document
carries a ``manifest``; an error document holds ``error``, plus ``sigma``
and ``target`` for exit 3, and no manifest.  A payload member may arrive
already encoded (:class:`Encoded`, as ``certify``'s groups do, filled into
their pattern's template); the printed bytes are those of ``json.dumps``
either way.

Sign patterns are compact ``'+'``/``'-'`` strings; numeric vectors are
comma-separated decimals.  A leading ``-`` in a pattern would normally read
as an option, so place flags before the pattern or separate it with ``--``;
the launcher inserts the separator automatically for plain patterns.
Patterns take at most ``MAX_PATTERN_N`` = 1024 signs (``classify`` and the
``partition`` ladder cost O(n^2), as a certificate does); longer ones exit 2.
``maximize`` takes at most ``MAX_MAXIMIZE_N`` = 64 signs (it costs O(n^3)
per iteration); longer patterns exit 2.
``partition``'s search and both modes take at most ``MAX_SEARCH_N`` = 48
signs (the search recurses once per negative pair); longer patterns exit 2.
``certify`` takes at most ``MAX_CERTIFY_N`` = 1024 x entries (1025 y
entries; a certificate costs O(n^2)); longer vectors exit 2, as does an
empty y.  ``identity`` takes at most ``MAX_IDENTITY_N`` = 64 y entries
(the leave-two-out side costs O(n^4)); longer vectors exit 2.  A
``--tolerance`` of ``certify`` or ``identity`` that is negative or not
finite exits 2.
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
    MaximizeConfig,
    identity_residual,
    iterated_identity_residual,
    maximize_f,
    sweep,
    sweep_is_sampled,
    sweep_summary,
)
from pohst.certify import (DEFAULT_TOLERANCE, RealVectorX, RealVectorY,
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
from pohst.signs import PatternContext, SignVector, pair_sign_maps
from pohst.regulator import RegulatorQuery, regulator_report

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NO_PARTITION = 3
EXIT_BOUND = 4
EXIT_SWEEP_INVALID = 5

MAX_PATTERN_N = 1024

_PATTERN_RE = re.compile(r"[+-]+")
# options whose value may start with '-' and does not always read as a
# negative number to argparse ('-0.5,0.5', '-1e-3')
_NUMERIC_FLAGS = ("--x", "--y", "--tolerance", "--delta")


class Encoded(str):
    """A payload member that is already compact JSON with sorted keys."""


_encode = json.JSONEncoder(sort_keys=True).encode


def _emit(ns, payload: dict) -> None:
    """Print ``json.dumps(payload, sort_keys=True)``, indented for ``--pretty``.

    Members marked :class:`Encoded` are printed as they stand; each run of
    other members between them, in key order, is one encoder call.
    """
    if ns.pretty:
        decoded = {k: json.loads(v) if isinstance(v, Encoded) else v for k, v in payload.items()}
        print(json.dumps(decoded, sort_keys=True, indent=2))
        return
    parts, run = [], {}
    for key, value in sorted(payload.items()):
        if isinstance(value, Encoded):
            if run:
                parts.append(_encode(run)[1:-1])
                run = {}
            parts.append(f"{_encode(key)}: {value}")
        else:
            run[key] = value
    if run:
        parts.append(_encode(run)[1:-1])
    print("{" + ", ".join(parts) + "}")


def _manifest(ns) -> dict:
    """Run record: the parsed arguments, less output formatting, and their digest."""
    args = {k: v for k, v in vars(ns).items() if k not in ("pretty", "command")}
    canonical = json.dumps({"command": ns.command, "args": args}, sort_keys=True)
    return {
        "command": ns.command,
        "args": args,
        "engine_version": __version__,
        "seed": getattr(ns, "seed", None),
        "input_digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _parse_pattern(text: str) -> SignVector:
    if not _PATTERN_RE.fullmatch(text):
        raise ValueError(f"malformed sign pattern {text!r}: expected only '+' and '-'")
    if len(text) > MAX_PATTERN_N:
        raise ValueError(f"sign patterns take at most {MAX_PATTERN_N} signs, got {len(text)}")
    return SignVector.from_string(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    """Comma-separated floats; a blank list is empty, a blank entry is malformed."""
    if not text.strip():
        return ()
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed numeric list {text!r}") from None


def cmd_classify(ns) -> tuple[dict, int]:
    sigma = _parse_pattern(ns.signs)
    ctx = PatternContext(sigma)
    jmap, kmap = pair_sign_maps(sigma)
    return {
        "sigma": sigma.to_string(),
        "n_x": ctx.n,
        "n_y": ctx.n + 1,
        # alpha, beta: positive, negative prefix products t_1..t_n (not t_0 = +1)
        "alpha": ctx.p - 1,
        "beta": ctx.n + 1 - ctx.p,
        "min_heavy_target": ctx.target,
        "J": [{"pair": list(p), "sign": s, "canonical": False} for p, s in jmap.items()],
        "K": [{"pair": list(p), "sign": s, "canonical": True} for p, s in kmap.items()],
    }, EXIT_OK


def cmd_partition(ns) -> tuple[dict, int]:
    sigma = _parse_pattern(ns.signs)
    target = ns.set.upper()
    doc = {
        "sigma": sigma.to_string(),
        "target": target,
        "mode": ns.mode,
    }
    ctx = PatternContext(sigma)
    doc["validation"] = []  # construct_eta and build_pi raise on any violation
    constructed = searched = None
    if ns.mode in ("ladder", "both"):
        if target == "K":
            constructed, trace = construct_eta(ctx)
            doc["trace"] = trace.to_json_dict()
            doc["trace_check_violations"] = check_construction_invariants(ctx, trace)
        else:
            constructed = build_pi(ctx)
        doc["partition"] = constructed.to_json_dict()
    if ns.mode in ("search", "both"):
        budget = ctx.target if target == "K" else 0
        searched = search_partition(sigma, target, budget)
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
    return doc, EXIT_OK


def cmd_certify(ns) -> tuple[dict, int]:
    if (ns.x is None) == (ns.y is None):
        raise ValueError("provide exactly one of --x or --y")
    if ns.x is not None:
        cert = certify_x(RealVectorX(_parse_floats(ns.x)), ns.tolerance)
    else:
        cert = certify_y(RealVectorY(_parse_floats(ns.y)), ns.tolerance)
    doc = {**cert.head_json_dict(), "groups": Encoded(cert.groups_json())}
    return doc, EXIT_OK if cert.ok else EXIT_BOUND


def _written(handle, records):
    """Write each record as one JSON line and pass it on, keeping none."""
    write = handle.write
    for record in records:
        write(record.to_json_line())
        yield record


def cmd_sweep(ns) -> tuple[dict, int]:
    records = sweep(ns.n, jobs=ns.jobs, seed=ns.seed)  # raises before the file opens
    with open(ns.out, "w", encoding="utf-8") as handle:
        records = _written(handle, records)
        summary = sweep_summary(records, ns.n, sampled=sweep_is_sampled(ns.n))
    return {
        "out": ns.out,
        **summary,
    }, EXIT_SWEEP_INVALID if summary["invalid"] else EXIT_OK


def cmd_maximize(ns) -> tuple[dict, int]:
    sigma = _parse_pattern(ns.signs)
    cfg = MaximizeConfig(
        restarts=ns.restarts, iterations=ns.iters, seed=ns.seed, delta=ns.delta
    )
    result = maximize_f(sigma, cfg)
    return result.to_json_dict(), EXIT_BOUND if result.exceeded_bound else EXIT_OK


def cmd_regbound(ns) -> tuple[dict, int]:
    query = RegulatorQuery(ns.n, ns.min_pm, ns.R)
    return regulator_report(query), EXIT_OK


def cmd_identity(ns) -> tuple[dict, int]:
    check_tolerance(ns.tolerance)
    y = RealVectorY(_parse_floats(ns.y))
    residual = (
        identity_residual(y) if ns.which == "single"
        else iterated_identity_residual(y)
    )
    ok = residual <= ns.tolerance
    return {
        "y": list(y.entries),
        "which": ns.which,
        "n": len(y),
        "residual": residual,
        "tolerance": ns.tolerance,
        "ok": ok,
    }, EXIT_OK if ok else EXIT_BOUND


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

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        return p

    p = add("classify", "split the index triangle into J and K")
    p.add_argument("signs", help="sign pattern, e.g. '-+-'")

    p = add("partition", "construct and validate a good partition")
    p.add_argument("signs", help="sign pattern")
    p.add_argument("set", choices=["j", "k"], help="which set to partition")
    p.add_argument("mode", nargs="?", default="both",
                   choices=["ladder", "search", "both"],
                   help="construction path (default: both, with agreement check)")

    p = add("certify", "certify the product bound on a numeric vector")
    p.add_argument("--x", help="comma-separated box vector, entries in [-1,1] minus 0")
    p.add_argument("--y", help="comma-separated vector of strictly growing modulus")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)

    p = add("sweep", "sweep sign patterns and write JSON lines")
    p.add_argument("n", type=int, help="pattern length (0..24)")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = add("maximize", "search for the largest product on a sign box")
    p.add_argument("signs", help="sign pattern")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=1e-6,
                   help="magnitude floor keeping entries away from zero")

    p = add("regbound", "discriminant bound from degree, min(p,m), regulator")
    p.add_argument("n", type=int)
    p.add_argument("min_pm", type=int)
    p.add_argument("R", type=float)

    p = add("identity", "residual of the leave-one/two-out identities")
    p.add_argument("which", nargs="?", default="single", choices=["single", "iterated"])
    p.add_argument("--y", required=True, help="comma-separated modulus-ordered vector")
    p.add_argument("--tolerance", type=float, default=1e-9)

    return parser


def _guard_argv(argv: list[str]) -> list[str]:
    """Keep leading '-' arguments out of argparse's option matching.

    Plain sign patterns get a '--' separator inserted before them; every
    value of a numeric flag that starts with '-' is merged into '--x=...'
    form, so values like '-0.5,0.5' and '-1e-3' survive.
    """
    if not argv:
        return argv
    out = []
    pos = 0
    while pos < len(argv):
        tok = argv[pos]
        if tok in _NUMERIC_FLAGS and pos + 1 < len(argv) and argv[pos + 1].startswith("-"):
            out.append(f"{tok}={argv[pos + 1]}")
            pos += 2
        else:
            out.append(tok)
            pos += 1
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
    """Run one command, print its JSON document and return its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _build_parser().parse_args(_guard_argv(argv))
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        # looked up per call, so a handler replaced after the parser is built runs
        payload, code = globals()[f"cmd_{ns.command}"](ns)
    except (LadderStuck, SearchExhausted) as exc:
        payload = {"error": str(exc), "sigma": exc.sigma.to_string(), "target": exc.target}
        code = EXIT_NO_PARTITION
    except ValueError as exc:  # includes DomainError and DegenerateInput
        payload, code = {"error": str(exc)}, EXIT_USAGE
    except OSError as exc:
        payload, code = {"error": f"cannot write {ns.command} output: {exc}"}, EXIT_IO
    else:
        payload = {"manifest": _manifest(ns), **payload}
    _emit(ns, payload)
    return code


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
