"""Benchmark of the cechmf chain-level engine.

    python3 perfbench/run.py --workload trace-square --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.  The run
builds one pass of items from the seed, then runs whole passes until at
least `--seconds` have gone by and at least MIN_PASSES passes are done.  The
first pass fills the scene caches; the timed metrics are medians over the
later (warm) passes.  Every item's result is checked on every pass; an item
that is wrong or raises on any pass counts as failed and does not stop the
run.  `attempted` and `failed` count items, not checks, so they do not depend
on how many passes the machine's speed allows.

Times are corrected for the machine's speed at the time (see
`reference_work`): the run times a fixed piece of pure-Python work between
items, and each pass's times are multiplied by
(REF_SECONDS / median time of that work during the pass) ** SPEED_EXPONENT.
The fixtures are set up SETUP_REPS times in a forked child process,
so that the extra fixture sets do not count in the run's peak memory.

With `--trace 1` the run does exactly one pass with every layer wrapped,
prints the per-layer metrics instead, and writes the spans to
`perfbench/traces/`.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3  # one to fill the caches, at least two warm ones
SETUP_REPS = 25
REF_SECONDS = 0.002  # time of reference_work() at the reference speed
# When the machine slows, item time grows about as this power of
# reference_work's time (fitted in README.md, "Reference speed").
SPEED_EXPONENT = 0.8
REF_EVERY = 0.05  # seconds of item time between two reference samples
REF_MAX_BURST = 5  # samples taken at once after a long item
REF_NEAREST = 9  # samples that set one item's correction

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def reference_work():
    """Fixed pure-Python work that uses no package code: Fraction sums and
    products on a small tuple-keyed dict, the package's kind of work.

    The benchmark's machines run other load on the same cores, which makes
    all code slower, by up to 2x for this work, for minutes at a time.  That
    time is not taken from the process, so CPU-time clocks count it too;
    timing this work between items measures how slow the machine is at that
    moment.  Its data stays in the processor caches, so its time does not
    depend on what the package did before it.
    """
    d: dict = {}
    for i in range(1, 120):
        k = (i % 13, i % 7, i % 3)
        d[k] = d.get(k, Fraction(0)) + Fraction(i, i % 11 + 1)
    terms = list(d.items())[:25]
    out: dict = {}
    for (a, b, c), v in terms:
        for (e, f, g), w in terms:
            key = (a + e, b + f, c ^ g)
            out[key] = out.get(key, 0) + v * w
    return sorted(out)


def time_reference() -> float:
    gc.disable()  # its time must not depend on how many objects the program holds
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class SpeedProbe:
    """Reference samples taken between items, one per REF_EVERY seconds of
    item time."""

    def __init__(self):
        self.samples: list = []
        self.at: list = []  # items done when each sample was taken
        self.done = 0
        self.owed = 0.0
        self.sample()

    def sample(self, count: int = 1):
        for _ in range(count):
            self.samples.append(time_reference())
            self.at.append(self.done)

    def after(self, seconds: float):
        """Record that one item took `seconds`; sample when one is due."""
        self.done += 1
        self.owed += seconds
        burst = min(REF_MAX_BURST, int(self.owed / REF_EVERY))
        if burst:
            self.owed = 0.0
            self.sample(burst)

    def scales(self) -> list:
        """Per item, the factor that corrects its time to the reference
        speed, from the median of the REF_NEAREST samples taken nearest it."""
        out = []
        for i in range(self.done):
            mid = i + 0.5  # item i ran between sample positions i and i + 1
            k = bisect.bisect_left(self.at, mid)
            window = range(max(0, k - REF_NEAREST), min(len(self.at), k + REF_NEAREST))
            near = sorted(window, key=lambda j: abs(self.at[j] - mid))[:REF_NEAREST]
            ref = statistics.median(self.samples[j] for j in near)
            out.append((REF_SECONDS / ref) ** SPEED_EXPONENT)
        return out


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(round(q * len(sorted_values), 9)) - 1
    return sorted_values[max(0, k)]


def sample_setups(workload) -> list:
    """Set the workload up SETUP_REPS times in a forked child; return each
    set-up's time in reference seconds.

    The child keeps every fixture set it builds alive (the package caches
    key on id(scene)); those sets end with it, so they do not count in the
    run's peak memory.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: write the times, then leave without cleanup
        status = 1
        try:
            os.close(rfd)
            probe = SpeedProbe()
            times, fixtures = [], []
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                fixtures.append(workload.setup())
                times.append(time.perf_counter() - t0)
                probe.after(REF_EVERY)
            with os.fdopen(wfd, "w") as fh:
                json.dump([t * c for t, c in zip(times, probe.scales())], fh)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"set-up child failed with status {status}")
    return json.loads(data)


def run(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Set up, build items, run passes; return the raw measurements."""
    if tracer is not None:
        tracer.enabled = True
    fx = workload.setup()
    if tracer is not None:
        tracer.enabled = False
    items = workload.make_items(fx, seed)
    if tracer is not None:
        tracer.enabled = True

    passes = []  # per pass: item latencies in seconds and their corrections
    failures: dict = {}  # (family, why) -> indices of the items that failed
    deadline = time.perf_counter() + seconds
    while True:
        probe = SpeedProbe()
        latencies = []
        for index, item in enumerate(items):
            why = "wrong"
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    ok = workload.run_item(fx, item)
                else:
                    ok = tracer.span("bench.item", workload.run_item, fx, item)
            except Exception as exc:  # a raising item is a failed item
                ok = False
                why = type(exc).__name__
            latencies.append(time.perf_counter() - t0)
            probe.after(latencies[-1])
            if not ok:
                failures.setdefault((item.family, why), set()).add(index)
        probe.sample()
        passes.append({
            "latencies": latencies,
            "scales": probe.scales(),
            "ref": statistics.median(probe.samples) / REF_SECONDS,
        })
        if tracer is not None or (len(passes) >= MIN_PASSES and time.perf_counter() >= deadline):
            break
    if tracer is not None:
        tracer.enabled = False
    failed = set().union(*failures.values())
    return {"passes": passes, "failures": failures, "failed": len(failed), "items": len(items)}


def warm_passes(raw: dict) -> list:
    """Each warm pass's item latencies in reference seconds, ascending."""
    return [sorted(t * c for t, c in zip(p["latencies"], p["scales"])) for p in raw["passes"][1:]]


def end_to_end(raw: dict, setup_times: list) -> dict:
    warm = warm_passes(raw)
    attempted, failed = raw["items"], raw["failed"]
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": statistics.median(len(lat) / sum(lat) for lat in warm),
        "item_p50_ms": statistics.median(statistics.median(lat) for lat in warm) * 1000,
        "pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def report(wl, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print the summary and the metrics; return the exit code."""
    import tracing
    import workloads

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(extra_modules=(workloads,))
        try:
            raw = run(wl, seed, seconds, tracer)
        finally:
            tracer.uninstall()
    else:
        setup_times = sample_setups(wl)
        raw = run(wl, seed, seconds)

    passes = raw["passes"]
    n, failed = raw["items"], raw["failed"]
    unexpected = {k: v for k, v in raw["failures"].items() if k[0] not in wl.known_defects}
    checks = n * len(passes)
    wall = sum(sum(p["latencies"]) for p in passes)
    print(f"workload {wl.name} seed {seed}: {len(passes)} pass(es) of {n} items; "
          f"{checks} checks in {wall:.3f} s, {checks / wall:.4f} items/s wall-clock")
    print("median reference work time per pass, in units of REF_SECONDS: "
          + ", ".join(f"{p['ref']:.3f}" for p in passes))
    print(f"fail_ratio {failed / n:.6f} ({failed} of {n} items)")
    for (family, why), indices in sorted(raw["failures"].items()):
        known = "known defect" if family in wl.known_defects else "UNEXPECTED"
        print(f"  failed {family} ({why}): {len(indices)} items [{known}]")

    first = [t * c for t, c in zip(passes[0]["latencies"], passes[0]["scales"])]
    print(f"first pass (fills the caches): {len(first) / sum(first):.4f} items/s")
    if tracer is None:
        metrics = end_to_end(raw, setup_times)
        if raw["items"] >= 200:  # at least ten samples beyond p95
            p95 = statistics.median(percentile(lat, 0.95) for lat in warm_passes(raw))
            print(f"item_p95 {p95 * 1000:.3f} ms over {raw['items']} items per pass")
    else:
        stats = tracer.stats()
        metrics = tracing.per_layer(stats)
        for layer in wl.bypassed:
            calls = stats.get(layer, {}).get("calls", 0)
            if calls:
                print(f"bypass assertion failed: {layer} ran {calls} times on {wl.name}",
                      file=sys.stderr)
                return 3
        out = HERE / "traces" / f"{wl.name}-seed{seed}.json"
        tracer.write(out, {"workload": wl.name, "seed": seed}, stats)
        print(f"spans written to {out.relative_to(HERE.parent)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cechmf").is_dir():
        print(f"package source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    return report(workloads.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
