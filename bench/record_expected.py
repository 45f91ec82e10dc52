#!/usr/bin/env python3
"""Record the reference outputs the benchmark gates compare against.

Writes ``bench/expected.json``: the SHA-256 of the ``pohst sweep n``
output file for every sweep size the benchmark uses, and the
``maximize_f`` evaluation count and best value (as a float hex string)
for every pattern of the maximize pool.  The gates then require later
commits to reproduce these bit for bit, so run this only on a commit
whose outputs are trusted, and say so when the file changes::

    python3 bench/record_expected.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from run import ROOT, import_pohst
from workloads import EXPECTED_PATH, MAXIMIZE_POOL_SEED, SIZES, pattern_pool


def main() -> None:
    pohst = import_pohst()
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        out = Path(tmp) / "sweep.jsonl"
        for n in sorted({size["sweep_n"] for size in SIZES.values()}):
            pohst.certify.partitions_for.cache_clear()
            with contextlib.redirect_stdout(io.StringIO()):
                code = pohst.cli.main(["sweep", str(n), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"sweep {n} exited with {code}")
            digests[str(n)] = hashlib.sha256(out.read_bytes()).hexdigest()
    n = SIZES["full"]["maximize_n"]
    pool = pattern_pool(n, max(s["maximize_pool"] for s in SIZES.values()), MAXIMIZE_POOL_SEED)
    maximize = {}
    for signs in pool:
        result = pohst.analysis.maximize_f(pohst.signs.SignVector.from_string(signs))
        maximize[signs] = {"evaluations": result.evaluations,
                           "best_value": result.best_value.hex()}
    EXPECTED_PATH.write_text(json.dumps(
        {"sweep_digest": digests, "maximize": maximize}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
