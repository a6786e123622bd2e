"""Golden row fingerprint: cache transparency enforced by machine.

Cached rows are keyed by ``ENGINE_VERSION``; rows that change while the
version stays put would be served stale from every existing cache
(invariant 6).  This test pins the SHA-256 of the canonical-JSON rows of
one small general-pipeline grid next to the version it was recorded at,
plus one small grid per other pipeline (restricted, hetero, game), each
with and without the instance store (rows never depend on where an
instance came from).  When a change moves the rows on purpose, bump
``ENGINE_VERSION`` and record the new digest here; a refactor that
claims bit-identity must pass unchanged.

The digest covers last-ulp float output (NumPy 2.x on x86-64 Linux), so
a platform with a different libm may need its own reference run before
this test is meaningful there.
"""

import hashlib
import json

import pytest

from repro.runner import EngineConfig, GridSpec, instancestore, run_grid
from repro.runner.engine import ENGINE_VERSION

GOLDEN_ENGINE_VERSION = 5
GOLDEN_DIGEST = \
    "077e45f5d128311add3da7d582dae70e185a67d19a87ddab3a9111d88e05cfcc"

GOLDEN_SPEC = GridSpec(
    scenarios=("diurnal", "bursty", "hetero-mix"),
    algorithms=("lcp", "eager-lcp", "threshold", "memoryless", "followmin",
                "never-off", "binary_search"),
    seeds=(0, 1), sizes=(1000,))

#: the Section 4 rounding and the Section 2.2 offline solver, which
#: GOLDEN_SPEC leaves out or covers only at one size; recorded at
#: ENGINE_VERSION 5 before either got a compiled loop
ROUNDING_SPEC = GridSpec(
    scenarios=("diurnal", "bursty"),
    algorithms=("randomized", "binary_search"),
    seeds=(0, 1), sizes=(1000,))
ROUNDING_DIGEST = \
    "da715e9eff5ceb4984fa4dd674129dc9a4cfc432680041c9a25ee2cae94c9fce"

#: one small grid per non-general pipeline, recorded at ENGINE_VERSION 5
PIPELINE_GOLDENS = {
    "restricted": (
        GridSpec(scenarios=("restricted-diurnal",),
                 algorithms=("restricted", "lcp"), seeds=(0, 1),
                 sizes=(96,)),
        "96ddd396e2046517cccde928c122fb6e0e4b7df7bfd86fc7bebc6d59b3dd71d7"),
    "hetero": (
        GridSpec(scenarios=("hetero-fleet",),
                 algorithms=("dp_hetero", "greedy_hetero", "static_hetero"),
                 seeds=(0, 1), sizes=(48,)),
        "8b0a4beacaa64a9abb393a8c2f4145ece65170f6ebc58d05d508b8eede4a2c59"),
    "game-sim": (
        GridSpec(scenarios=("sim-diurnal",),
                 algorithms=("sim-lcp", "sim-static"), seeds=(0, 1),
                 sizes=(48,)),
        "53e0d32aeeb04722955b494e7c43c4da2a03d06411feaaed8db7d50b90dc8799"),
    "game-lb": (
        GridSpec(scenarios=("lb-deterministic",), algorithms=("game-lcp",),
                 seeds=(0,), sizes=(200,)),
        "9b856c295b3810afc8bf9d8a13a67e941bcd98b0ed904399f7b15e397baae104"),
}


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


def test_rounding_rows_match_golden_digest():
    rows = run_grid(ROUNDING_SPEC)
    assert len(rows) == len(ROUNDING_SPEC)
    assert all(r.get("status") != "failed" for r in rows)
    assert ENGINE_VERSION == GOLDEN_ENGINE_VERSION
    assert rows_digest(rows) == ROUNDING_DIGEST, (
        f"randomized/binary_search rows changed (digest "
        f"{rows_digest(rows)}) while ENGINE_VERSION stayed "
        f"{ENGINE_VERSION}")


@pytest.mark.parametrize("store", [False, True], ids=["rebuild", "store"])
@pytest.mark.parametrize("name", sorted(PIPELINE_GOLDENS))
def test_pipeline_rows_match_golden_digest(name, store, tmp_path):
    spec, golden = PIPELINE_GOLDENS[name]
    instancestore.clear_memo()
    rows = run_grid(spec, EngineConfig(store_dir=tmp_path if store
                                       else None))
    instancestore.clear_memo()
    assert len(rows) == len(spec)
    assert all(r.get("status") != "failed" for r in rows)
    assert ENGINE_VERSION == GOLDEN_ENGINE_VERSION
    assert rows_digest(rows) == golden, (
        f"{name} rows changed (digest {rows_digest(rows)}) while "
        f"ENGINE_VERSION stayed {ENGINE_VERSION}")
