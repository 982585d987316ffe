"""sl3tensor benchmark.

    python3 perfbench/run.py --workload sweep-p7 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src``.  Workloads (see BENCHMARK.json for why each was chosen):

* ``sweep-p7``      cold ``sweep(7, run_verify=True)``, one fresh process per sweep
* ``sample-p13``    seeded restricted pairs at p = 13: ``decompose`` then ``verify``
* ``char-products`` seeded dominant pairs: ``lr_tensor`` against ``mult_via_monomial``
* ``cli-session``   seeded ``python -m sl3tensor.cli`` commands, one child each
* ``all``           each of the above in turn

Every workload is a closed loop with one caller: an op starts when the
previous one has finished, and processes run one at a time.

A timed run makes passes until ``--seconds`` have passed, each in a fresh
process with cold caches: pass j runs the j-th block of the seeded op
sequence, and sweep-p7 runs one sweep() per pass.  The host is shared and
its speed swings by up to a factor of two between spells that last up to
minutes, so every time is corrected to the host's usual speed with a probe
of ``hostspeed.py``, measured in the same process (the uncorrected
throughput is kept in the record as ``raw_ops_per_s``).  ``ops_per_s`` is
the median over the passes of a pass's ops over its time (the sum of its op
latencies), ``op_p50_ms`` and ``op_tail_ms`` are percentiles of the
latencies of every op of every pass, and ``peak_rss_mb`` is the median over
the passes of the pass's peak.  ``setup_s`` is the median of several fresh
set-up processes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed op
count untraced, traced and untraced again, and prints per-layer call counts,
self times and distinct-argument counts, plus the tracing overhead.  Human-readable
lines come first; the last line of standard output is the JSON result.  A
record with the environment and the details behind each figure is written to
``.perfbench_out/`` in the checkout, with the trace spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# Fresh set-up processes per run; set_up reports their median.
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # string hashing is randomized per process; fixing it makes traced call
    # counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(spec: dict, timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run one worker process to completion and return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {spec['mode']} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {spec['mode']} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_metrics(latencies_s, pct: float) -> tuple:
    """(p50 ms, tail ms, details)."""
    n = len(latencies_s)
    beyond = n - max(1, math.ceil(pct / 100.0 * n))
    details = {"tail_pct": pct, "samples": n, "samples_beyond_tail": beyond}
    return (statistics.median(latencies_s) * 1e3,
            nearest_rank(latencies_s, pct) * 1e3, details)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sl3tensor")
    for base, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _numpy_version():
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def measure_setup(name: str) -> tuple:
    primes = list(workloads.PRIMES[name])
    # one untimed process first, so byte-code compilation is not counted
    worker({"mode": "setup", "primes": primes})
    results = [worker({"mode": "setup", "primes": primes}) for _ in range(SETUP_REPEATS)]
    runs = [r["setup_s"] * r["speed"] for r in results]
    return statistics.median(runs), {"setup_runs_s": runs,
                                     "setup_speed": [r["speed"] for r in results]}


def _sweep_status(results) -> tuple:
    golden = workloads.load_golden()["sweep-p7"]
    digest_ok = all(r["digests"] == golden for r in results)
    attempted = sum(r["ops"] for r in results)
    failed = attempted if not digest_ok else sum(r["failed_ops"] for r in results)
    return attempted, failed, digest_ok


def _passes(seconds: float, spec_of) -> list:
    """Run ``worker(spec_of(j))`` for j = 0, 1, ... until ``seconds`` have
    passed, at least MIN_PASSES times."""
    results = []
    end = time.perf_counter() + seconds
    while len(results) < workloads.MIN_PASSES or time.perf_counter() < end:
        results.append(worker(spec_of(len(results))))
    return results


def run_sweep(seconds: float) -> tuple:
    results = _passes(seconds, lambda j: {"mode": "sweep"})
    walls = [r["wall_s"] * r["speed"] for r in results]
    pairs = results[0]["ops"]
    attempted, failed, digest_ok = _sweep_status(results)
    # one sweep() is the op of a pass; its latency is stated per pair
    p50, tail, details = latency_metrics([w / pairs for w in walls],
                                         workloads.TAIL_PCT["sweep-p7"])
    metrics = {
        "ops_per_s": pairs / statistics.median(walls),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    details.update(
        passes=len(results), sweep_wall_s=walls, speed=[r["speed"] for r in results],
        raw_ops_per_s=pairs / statistics.median(r["wall_s"] for r in results),
        op_latency="time of one sweep() per pair, one sample per pass",
        digest="match" if digest_ok else "MISMATCH",
    )
    return metrics, attempted, failed, details


def _ops_status(name: str, seed: int, results) -> tuple:
    """(attempted, failed, digest word) of passes that together ran ops 0,
    1, ... of the seed's sequence, in order."""
    oks = [ok for r in results for ok in r["oks"]]
    verdict, covered = workloads.check_digests(
        name, seed, [d for r in results for d in r["digests"]])
    word = {None: "not recorded for this seed", False: "MISMATCH",
            True: f"match ({covered} ops)"}[verdict]
    return len(oks), workloads.count_failed(oks, verdict), word


def run_ops(name: str, seed: int, seconds: float) -> tuple:
    """Passes over consecutive blocks of the seeded ops, each in a fresh
    process."""
    count = workloads.PASS_OPS[name]
    spec = {"mode": "ops", "workload": name, "seed": seed}
    results = _passes(seconds, lambda j: dict(spec, start=j * count, count=count))
    timed = len(results) * count
    extra = workloads.checkpoint_extra(name, seed, timed)
    # untimed, the ops up to the next golden checkpoint
    checked = results + ([worker(dict(spec, start=timed, count=0, extra=extra))]
                         if extra else [])
    lat = [[x * r["speed"] for x in r["latencies_s"]] for r in results]
    pass_s = [sum(one) for one in lat]
    p50, tail, details = latency_metrics([x for one in lat for x in one],
                                         workloads.TAIL_PCT[name])
    metrics = {
        "ops_per_s": statistics.median(count / t for t in pass_s),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    attempted, failed, digest = _ops_status(name, seed, checked)
    details.update(passes=len(results), ops_per_pass=count, pass_s=pass_s,
                   speed=[r["speed"] for r in results],
                   raw_ops_per_s=statistics.median(
                       count / sum(r["latencies_s"]) for r in results),
                   op_latency="every op of every pass", digest=digest,
                   untimed_checkpoint_ops=extra,
                   errors=[e for r in checked for e in r["errors"]][:5])
    return metrics, attempted, failed, details


def end_to_end(name: str, seed: int, seconds: float) -> tuple:
    setup_s, setup_details = measure_setup(name)
    if name == "sweep-p7":
        metrics, attempted, failed, details = run_sweep(seconds)
    else:
        metrics, attempted, failed, details = run_ops(name, seed, seconds)
    metrics["setup_s"] = setup_s
    details.update(setup_details)
    return metrics, attempted, failed, details


def per_layer_names():
    for module, fn, distinct in tracer.TARGETS:
        yield f"{module}.{fn}.calls", "count"
        yield f"{module}.{fn}.self_s", "s"
        if distinct:
            yield f"{module}.{fn}.distinct", "count"
    yield "process.import_s", "s"
    yield "trace.overhead", "ratio"


def traced(name: str, seed: int, tag: str) -> tuple:
    """A fixed op count, untraced, traced and untraced again, each in a fresh
    process; the overhead's base is the mean of the two untraced passes."""
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "spans", f"{tag}.tsv.gz")
    if name == "sweep-p7":
        spec = {"mode": "sweep"}
    else:
        count = workloads.TRACE_OPS[name]
        spec = {"mode": "ops", "workload": name, "seed": seed, "count": count,
                "extra": workloads.checkpoint_extra(name, seed, count)}
    before = worker(spec)
    trace = worker(dict(spec, trace=True, spans_path=spans_path))
    after = worker(spec)
    passes = (before, trace, after)
    if name == "sweep-p7":
        attempted, failed, digest_ok = _sweep_status(passes)
        digest = "match" if digest_ok else "MISMATCH"
    else:
        status = [_ops_status(name, seed, [r]) for r in passes]
        attempted = sum(a for a, _, _ in status)
        failed = sum(f for _, f, _ in status)
        digest = status[1][2]
    # cli-session walls are sums of per-command times, as the worker process
    # itself idles between children
    walls = [sum(r["latencies_s"]) if name == "cli-session" else r["wall_s"]
             for r in passes]
    plain_wall, traced_wall = (walls[0] + walls[2]) / 2, walls[1]
    metrics = {}
    for metric, _ in per_layer_names():
        fn, _, field = metric.rpartition(".")
        metrics[metric] = trace["trace"].get(fn, {}).get(field, 0)
    metrics["process.import_s"] = trace["import_s"]
    metrics["trace.overhead"] = traced_wall / plain_wall
    details = {
        "ops_per_pass": workloads.TRACE_OPS.get(name, 2401),
        "untraced_wall_s": [walls[0], walls[2]], "traced_wall_s": traced_wall,
        "spans_kept": trace.get("spans"), "spans_dropped": trace.get("dropped_spans"),
        "spans_path": os.path.relpath(spans_path, ROOT), "digest": digest,
    }
    return metrics, attempted, failed, details


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_lines(name, metrics, units, attempted, failed, details):
    yield f"== {name}"
    for metric, value in metrics.items():
        yield f"  {metric:<40} {_fmt(value):>14} {units[metric]}"
    yield f"  {'failed_ops':<40} {failed:>14} of {attempted} ops"
    for key, value in details.items():
        if isinstance(value, list) and value and isinstance(value[0], float):
            value = "[" + ", ".join(f"{v:.4g}" for v in value) + "]"
        yield f"  {key}: {value}"


def run_one(name: str, seed: int, seconds: float, trace: bool):
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, attempted, failed, details = traced(name, seed, tag)
        units = dict(per_layer_names())
    else:
        metrics, attempted, failed, details = end_to_end(name, seed, seconds)
        order = list(E2E_UNITS)
        metrics = {k: metrics[k] for k in order}
        units = E2E_UNITS
    # a golden mismatch already counts every op of the run as failed
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "units": units, "details": details, "tag": tag}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sl3tensor", "__init__.py")):
        print(f"no library source at {SRC}/sl3tensor; run from a checkout root",
              file=sys.stderr)
        return 2
    env_record = environment()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env_record["loadavg_end"] = os.getloadavg()

    os.makedirs(OUT_DIR, exist_ok=True)
    print("environment: " + json.dumps(env_record))
    for run in runs:
        for line in report_lines(run["workload"], run["metrics"], run["units"],
                                 run["attempted"], run["failed"], run["details"]):
            print(line)
        with open(os.path.join(OUT_DIR, run["tag"] + ".json"), "w") as fh:
            json.dump(dict(run, environment=env_record), fh, indent=1)

    if len(runs) == 1:
        metrics = {k: {"value": v, "unit": runs[0]["units"][k]}
                   for k, v in runs[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": r["units"][k]}
                   for r in runs for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
