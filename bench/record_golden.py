"""Record bench/golden.json: the digest and op count of every output block.

    python3 bench/record_golden.py

Covers every input a seed can pick (all band starts, all accum targets), so
every seed is checked by digest, not only by claim flags.  Refuses to record
a block that raised or has a false claim, and checks that verify-all gives
one digest for every resume split.  Rerun only when a change is meant to
alter output bytes; the diff of golden.json then shows which blocks moved.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
GC = wl.import_library(BENCH.parent / "src")


def entry(block: wl.Block) -> dict:
    if block.error or block.claim_fail:
        raise SystemExit(f"refusing to record {block.name}: error={block.error} "
                         f"false claims={block.claim_fail}")
    return {"digest": block.digest, "ops": block.ops}


def record(workload: str) -> dict:
    store = GC.primes.build_store(wl.store_limit(GC, workload))
    info: dict = {}
    blocks = wl.run(GC, workload, store, 0, wl.Phases(), info)
    wl.check_band(store, info, blocks)
    seeded_now = set(wl.seeded_names(workload, 0))
    fixed = {b.name: entry(b) for b in blocks if b.name not in seeded_now}
    seeded = {}
    if workload == "verify-all":
        digests = {info["verify_digest"]}
        for split in (1, wl.VERIFY_N_HI // 2, wl.VERIFY_N_HI - 1):
            other: dict = {}
            wl.verify_blocks(GC, store, split, wl.Phases(), other)
            digests.add(other["verify_digest"])
        if len(digests) != 1:
            raise SystemExit(f"verify-all digest depends on the resume split: {digests}")
    elif workload == "tables":
        for n_lo in wl.BAND_STARTS:
            band_info: dict = {}
            block = wl.square_block(GC, store, n_lo, n_lo + wl.BAND_WIDTH - 1, band_info)
            wl.check_band(store, band_info, [block])
            seeded[block.name] = entry(block)
    else:
        for a, b in wl.all_accum_targets():
            for sign in "+-":
                block = wl.accum_scan_block(GC, a, b, sign)
                seeded[block.name] = entry(block)
    return {"fixed": fixed, "seeded": seeded}


def main() -> int:
    doc = {"python": platform.python_version(),
           "workloads": {w: record(w) for w in wl.WORKLOADS}}
    (BENCH / "golden.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
