"""Self-test of the benchmark: tiny runs of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a deliberately wrong comparison is counted as failed, that every layer
records calls on the workload meant to exercise it, that the counts of two
traced runs agree exactly, and that the expected homology tables match the
oracle.  Each run is `run.report` on a workload cut down to a few items, in
a forked process, so that every run starts from the same package state.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cechmf import suites  # noqa: E402

SEED = 3
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# layer -> workloads on which it must record at least one call
EXERCISED_ON = {
    "scene.scene_from_dict": WORKLOADS,
    "scene.validate_scene": WORKLOADS,
    "diagrams.trace_route": ["trace-square"],
    "diagrams.residue_route": ["trace-square"],
    "trace.phi": ["trace-square"],
    "trace.hq_basis": ["trace-square", "chain-identities"],
    "trace.sh_shuffle_cech": ["trace-square"],
    "trace.supertrace": ["trace-square"],
    "cdg.build_P": ["trace-square"],
    "cdg.end_algebra": ["trace-square"],
    "cdg.can_map": ["trace-square"],
    "cech.todd_inverse": ["trace-square"],
    "ses.cone_delta": ["trace-square"],
    "linalg.rank_kernel": ["homology-window"],
    "homology.homology_dims": ["homology-window"],
    "cech.cech_total_d": ["homology-window", "chain-identities"],
    "hochschild.cech_hoch_d": ["chain-identities"],
    "hkr.hkr_xf": ["trace-square", "chain-identities"],
    "hkr.hkr_A": ["trace-square", "chain-identities"],
    "hkr.hkr_y": ["chain-identities"],
    "lax.cech_lax_map": ["chain-identities"],
    "lax.strict_vs_lax_homotopy": ["chain-identities"],
    "lax.iso_homotopy": ["chain-identities"],
    "lax.restriction_htilde": ["chain-identities"],
    "rings.RingMap.__call__": WORKLOADS,
    "rings.LocPoly.__mul__": WORKLOADS,
    "rings.LocPoly.__add__": WORKLOADS,
}


# Smaller windows for the tiny homology-window run; each answer equals
# suites.oracle_homology_dims (test_homology_table_matches_oracle).
HOMOLOGY_TINY = {
    ("SCENE-P2", "omega", 0): (1, 0, 2, 0),
    ("SCENE-A2D", "cone", 0): (0, 0, 2, 2),
}


def tiny(wl):
    """Cut the workload's pass down to a few items."""
    make = wl.make_items
    if wl.name == "homology-window":
        def make_tiny(fx, seed):
            return [workloads.Item(f"{s}:{c}", (s, c, D, want))
                    for (s, c, D), want in HOMOLOGY_TINY.items()]
    elif wl.name == "trace-square":
        def make_tiny(fx, seed):
            # all length-0 chains (the only ones with a nonzero trace) and
            # one chain of every other (tuple, length) stratum
            seen = set()
            return [it for it in make(fx, seed)
                    if it.key[1] == 0 or not (it.key in seen or seen.add(it.key))]
    else:
        def make_tiny(fx, seed):  # one element of every family
            seen = set()
            return [it for it in make(fx, seed) if not (it.family in seen or seen.add(it.family))]
    wl.make_items = make_tiny
    return wl


def _tiny_report(name: str, trace: bool, flip_todd_sign: bool) -> tuple[int, str]:
    wl = tiny(workloads.WORKLOADS[name]())
    if flip_todd_sign:
        wl.todd_sign = -wl.todd_sign
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.report(wl, SEED, 0, trace)
    return code, out.getvalue()


def bench(name: str, trace: bool, flip_todd_sign: bool = False) -> tuple[dict, str]:
    """A tiny run in a forked process; its JSON line and its output."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        code, stdout = pool.submit(_tiny_report, name, trace, flip_todd_sign).result()
    assert code == 0, stdout
    return json.loads(stdout.strip().splitlines()[-1]), stdout


def trace_stats(workload: str) -> dict:
    path = HERE / "traces" / f"{workload}-seed{SEED}.json"
    return json.loads(path.read_text())["stats"]


@pytest.fixture(scope="module")
def traced():
    """Two traced tiny runs per workload, with the stats of the first."""
    out = {}
    for w in WORKLOADS:
        first, _ = bench(w, True)
        stats = trace_stats(w)
        second, _ = bench(w, True)
        out[w] = (first, second, stats)
    return out


def test_benchmark_json_matches_the_runner():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result, stdout = bench(workload, False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
        assert f"{m['name']} {got['value']} {m['unit']}" in stdout
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_wrong_todd_sign_is_counted_as_failed():
    result, stdout = bench("trace-square", False, flip_todd_sign=True)
    assert result["failed"] > 0
    assert not result["correct"]
    assert result["metrics"]["pass_ratio"]["value"] < 1
    assert "fail_ratio 0.000000" not in stdout


def test_per_layer_metrics_printed_with_units(traced):
    for w in WORKLOADS:
        first, _, _ = traced[w]
        assert first["correct"]
        assert {k: v["unit"] for k, v in first["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCH["per_layer"]
        }


def test_every_layer_is_exercised(traced):
    spanned = {f"{mod}.{fn}" for mod, fn in tracing.SPANNED}
    counted = {f"rings.{cls.__name__}.{meth}" for cls, meth, _ in tracing.COUNTED}
    assert set(EXERCISED_ON) == spanned | counted
    for layer, names in EXERCISED_ON.items():
        for w in names:
            assert traced[w][2].get(layer, {}).get("calls", 0) >= 1, (layer, w)


def test_bypassed_layers_never_run(traced):
    """The traced run exits non-zero when a bypassed layer runs; check the
    stats too, so a silent change to that check shows here."""
    for w in WORKLOADS:
        for layer in workloads.WORKLOADS[w].bypassed:
            assert traced[w][2].get(layer, {}).get("calls", 0) == 0, (layer, w)


def test_counts_repeat_exactly(traced):
    for w in WORKLOADS:
        first, second, _ = traced[w]
        assert first["attempted"] == second["attempted"]
        for name, m in first["metrics"].items():
            if name.rpartition(".")[2] in ("calls", "terms_out", "cells", "distinct_ratio"):
                assert m["value"] == second["metrics"][name]["value"], (w, name)


@pytest.mark.parametrize(
    "key", list(workloads.HOMOLOGY_EXPECTED) + list(HOMOLOGY_TINY), ids=repr
)
def test_homology_table_matches_oracle(key):
    table = {**workloads.HOMOLOGY_EXPECTED, **HOMOLOGY_TINY}
    scene_name, kind, D = key
    sc = workloads._build_scene(scene_name)
    here = suites.oracle_homology_dims(sc, kind, D)
    there = suites.oracle_homology_dims(sc, kind, D + 1)
    assert (here["even"], here["odd"], there["even"], there["odd"]) == table[key]
