"""Golden row fingerprint: cache transparency enforced by machine.

Cached rows are keyed by ``ENGINE_VERSION``; rows that change while the
version stays put would be served stale from every existing cache
(invariant 6).  This test pins the SHA-256 of the canonical-JSON rows of
one small grid next to the version it was recorded at.  When a change
moves the rows on purpose, bump ``ENGINE_VERSION`` and record the new
digest here; a refactor that claims bit-identity must pass unchanged.

The digest covers last-ulp float output (NumPy 2.x on x86-64 Linux), so
a platform with a different libm may need its own reference run before
this test is meaningful there.
"""

import hashlib
import json

from repro.runner import GridSpec, run_grid
from repro.runner.engine import ENGINE_VERSION

GOLDEN_ENGINE_VERSION = 5
GOLDEN_DIGEST = \
    "077e45f5d128311add3da7d582dae70e185a67d19a87ddab3a9111d88e05cfcc"

GOLDEN_SPEC = GridSpec(
    scenarios=("diurnal", "bursty", "hetero-mix"),
    algorithms=("lcp", "eager-lcp", "threshold", "memoryless", "followmin",
                "never-off", "binary_search"),
    seeds=(0, 1), sizes=(1000,))


def rows_digest(rows) -> str:
    """SHA-256 of the rows as canonical JSON (sorted keys, no spaces)."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_rows_match_golden_digest():
    rows = run_grid(GOLDEN_SPEC)
    assert len(rows) == len(GOLDEN_SPEC)
    assert all(r.get("status") != "failed" for r in rows)
    digest = rows_digest(rows)
    assert ENGINE_VERSION == GOLDEN_ENGINE_VERSION, (
        f"ENGINE_VERSION is {ENGINE_VERSION} but the golden digest was "
        f"recorded at {GOLDEN_ENGINE_VERSION}: record the new digest "
        f"{digest} together with the new version")
    assert digest == GOLDEN_DIGEST, (
        f"result rows changed (digest {digest}) while ENGINE_VERSION "
        f"stayed {ENGINE_VERSION}: bump ENGINE_VERSION or restore the rows")
