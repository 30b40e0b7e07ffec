"""crumby benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload survey --seed 3 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  With
``--trace 0`` the batch is repeated while another one fits in ``--seconds``
and the end-to-end metrics are medians over batches, scaled to a reference
host speed (see hostspeed.py).  With ``--trace 1`` one untraced and one
traced batch run, and the per-layer metrics come from the traced one.  The metric names and units are read from BENCHMARK.json; see
perfbench/README.md for what each one means.  Detailed results (and the spans
of a traced run) are written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

SURVEY_SHARES = {"accepted": 10200, "treewidth3": 840, "degree4": 840, "bad": 120}
SETUP_SAMPLES = 5
TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it

# import crumby, build every bundled gadget, fill the lazy popcount table
SETUP_STEPS = """
import crumby
from crumby.gadgets import GADGETS
for build in GADGETS.values():
    build()
crumby.count_crumby(crumby.complete_graph(3))
"""
# the child prints the set-up time and the mean inverse probe time around it
SETUP_TIMED = (
    "import statistics, time\nfrom hostspeed import probe\n"
    "before = [probe() for _ in range(20)]\nt0 = time.perf_counter()\n"
    + SETUP_STEPS
    + "t = time.perf_counter() - t0\nafter = [probe() for _ in range(20)]\n"
    "print(repr(t), repr(statistics.fmean(1 / p for p in before + after)))\n"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("paper", "survey", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def measure_setup() -> float:
    import hostspeed

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_TIMED],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        raw, mean_inverse = map(float, out.stdout.split())
        samples.append(raw * hostspeed.REFERENCE_S * mean_inverse)
    return statistics.median(samples)


def tail_quantile(n_items: int) -> float:
    """0.99, or the highest quantile with TAIL_SAMPLES samples beyond it."""
    return max(0.5, min(0.99, 1 - TAIL_SAMPLES / n_items))


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all order
    statistics, with Beta(q(n+1), (1-q)(n+1)) weights.  Unlike a single order
    statistic it does not jump between neighbouring items, which matters when
    a batch has a few dozen items of very different sizes (paper's checks)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], grid)), cdf)
    return float(np.dot(np.diff(edges), x))


def make_inputs(workload: str, seed: int):
    import inputs

    if workload == "survey":
        return inputs.survey_corpus(seed, **SURVEY_SHARES)
    if workload == "certify":
        return inputs.certify_instances(seed)
    return None


def corrected_wall(batch, probe) -> float:
    """A batch's time at the reference host speed: the sum over its items,
    which cover it."""
    if not batch.items:
        return batch.wall_s
    return sum(probe.scaled(*item) for item in batch.items)


def end_to_end(batches, probes, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """Medians over batches of timings at the reference host speed."""
    n_items = len(batches[0].items)
    q = tail_quantile(n_items) if n_items else 0.99
    latencies = [[p.scaled(*item) for item in b.items] for b, p in zip(batches, probes)]
    walls = [corrected_wall(b, p) for b, p in zip(batches, probes)]
    timed = [lat for lat in latencies if lat]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(b.work / w for b, w in zip(batches, walls)),
        "item_p50_ms": 1000 * statistics.median(quantile(v, 0.5) for v in timed)
        if timed else 0.0,
        "item_p99_ms": 1000 * statistics.median(quantile(v, q) for v in timed)
        if timed else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "batches": len(batches),
        "items_per_batch": n_items,
        "tail_quantile": q,
        "raw_wall_s": [b.wall_s for b in batches],
        "speed_factor": [w / b.wall_s for b, w in zip(batches, walls)],
        "latencies_s": latencies,
        "raw_items": [b.items for b in batches],
        "probes": [[p.times, p.samples] for p in probes],
    }
    return values, info


def per_layer(table: dict, walls, fail_ratio: float, spans: int) -> dict:
    """The tracer's table plus derived ratios; walls = (untraced, traced)."""
    def rate(count_key, time_key):
        t = table[time_key]
        return table[count_key] / t if t else 0.0

    stream = ("tested", "filtered_out", "skipped")
    lines = sum(table[f"survey.survey_stream.{k}"] for k in stream)
    derived = {
        "minorfree.has_minor.share": table["minorfree.has_minor.s"] / walls[1],
        "coloring.backtracking_solve.nodes_per_s": rate(
            "coloring.backtracking_solve.nodes", "coloring.backtracking_solve.s"),
        "coloring.dpll_solve.nodes_per_s": rate(
            "coloring.dpll_solve.nodes", "coloring.dpll_solve.s"),
        "coloring.exhaustive_solve.colorings_per_s": rate(
            "coloring.exhaustive_solve.nodes", "coloring.exhaustive_solve.s"),
        "survey.survey_stream.accept_ratio": (
            table["survey.survey_stream.tested"] / lines if lines else 0.0),
        "trace.overhead_s": walls[1] - walls[0],
        "trace.spans": spans,
        "fail_ratio": fail_ratio,
    }
    return {**table, **derived}


def normalized(obj):
    return json.loads(json.dumps(obj))


def check_determinism(workload: str, seed: int, batches) -> list[str]:
    """Counts must repeat exactly across batches and across runs of a seed."""
    counts = [normalized(b.counts) for b in batches if not b.errors]
    errors = []
    if any(c != counts[0] for c in counts[1:]):
        errors.append("exact counts differ between batches of one run")
    if not counts:
        return errors
    path = RESULTS / f"counts-{workload}-seed{seed}.json"
    if path.exists():
        if json.loads(path.read_text()) != counts[0]:
            errors.append(f"exact counts differ from an earlier run ({path.name})")
    else:
        path.write_text(json.dumps(counts[0]))
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crumby" / "__init__.py").is_file():
        print(f"error: no crumby package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    setup_s = measure_setup() if args.trace == 0 else None
    exec(SETUP_STEPS, {})  # the same warm state, untimed

    import hostspeed
    import spans
    import workloads

    run_batch = workloads.BATCHES[args.workload]
    data = make_inputs(args.workload, args.seed)
    RESULTS.mkdir(parents=True, exist_ok=True)
    errors: list[str] = []
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment()}

    if args.trace == 0:
        batches, probes = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            with hostspeed.Probe() as probe:
                batches.append(run_batch(data, probe.clock))
            probes.append(probe)
            if len(batches) == 1:  # later batches repeat the work, only bookkeeping grows
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            typical = statistics.median(b.wall_s for b in batches)
            if time.perf_counter() + typical > deadline:
                break
        values, info = end_to_end(batches, probes, setup_s, peak_rss_mb)
        names = spec["end_to_end"]
        record["info"] = info
    else:
        with hostspeed.Probe() as plain:
            untraced = run_batch(data, plain.clock)
        with hostspeed.Probe() as probe:
            tracer = spans.Tracer(probe.clock)
            tracer.install()
            try:
                traced = run_batch(data, probe.clock)
            finally:
                tracer.uninstall()
        batches = [untraced, traced]
        natural = workloads.natural_counts()
        if natural != workloads.NATURAL_BASELINE:
            errors.append(f"natural-label counts {natural} != {workloads.NATURAL_BASELINE}")
        fail = traced.failed / traced.attempted
        walls = [corrected_wall(b, p) for b, p in ((untraced, plain), (traced, probe))]
        values = per_layer(tracer.table(probe.scaled), walls, fail, len(tracer.spans))
        names = spec["per_layer"]
        record["natural_counts"] = natural
        record["spans"] = tracer.dump()

    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    for b in batches:
        errors.extend(b.errors)
    errors.extend(check_determinism(args.workload, args.seed, batches))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    record.update(metrics=metrics, errors=errors,
                  counts=normalized(batches[0].counts))
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print("env " + json.dumps(record["env"]))
    if "info" in record:
        summary = {k: v for k, v in record["info"].items()
                   if k not in ("latencies_s", "raw_items", "probes")}
        print("info " + json.dumps(summary))
    for line in errors[:20]:
        print("error " + line)
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
