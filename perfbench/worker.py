"""One benchmark process.  Started by run.py as

    python3 perfbench/worker.py '<json spec>'

with ``src`` on PYTHONPATH; prints one JSON object as its last line.  Modes:

* ``setup``: time ``import sl3tensor`` plus the first ``linked_weight`` call
  for each prime of the workload, in this fresh process.
* ``sweep``: one cold ``sweep(7, run_verify=True)``.
* ``ops``: ``count`` ops of a workload's seeded sequence, from ``start``.
* ``cli-child``: one traced command-line call (the untraced workload runs
  ``python -m sl3tensor.cli`` itself).

Only ``time``, ``sys`` and ``os`` are imported before the set-up timer
starts, so the set-up figure is the library's own import cost.  Each timed
mode also reports ``speed``, the host-speed factor of a ``hostspeed.py``
probe over the process's timed part; probe time is kept out of every time
reported.
"""

import os
import sys
import time


def _setup(primes, tracer=None):
    """Import the library and build the region index of each prime."""
    t0 = time.perf_counter()
    import sl3tensor
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    for p in primes:
        sl3tensor.linked_weight((0, 0), "C1", p)
    t2 = time.perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.abspath(sl3tensor.__file__).startswith(os.path.join(root, "src")):
        raise SystemExit(f"imported sl3tensor from {sl3tensor.__file__}, not {root}/src")
    return {"import_s": t1 - t0, "setup_s": t2 - t0}


def _peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest waited-for
    child.  ru_maxrss is in KiB on Linux."""
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _tracer(spec):
    if not spec.get("trace"):
        return None
    from tracer import Tracer

    return Tracer()


def _finish_trace(tracer, spec, out):
    if tracer is None:
        return
    tracer.uninstall()
    out["trace"] = tracer.summary()
    out["spans"] = tracer.span_count()
    out["dropped_spans"] = tracer.dropped_spans
    if spec.get("spans_path"):
        tracer.write_spans(spec["spans_path"])


def run_setup(spec):
    out = _setup(spec["primes"])
    from hostspeed import startup_probe

    # probe right after the timed set-up, which is too short to interrupt
    probe = startup_probe()
    for _ in range(3):
        probe.probe()
    out["speed"] = probe.factor()
    return out


def run_sweep(spec):
    import contextlib

    tracer = _tracer(spec)
    out = _setup((7,), tracer)
    import workloads
    from hostspeed import SpeedProbe
    from sl3tensor import sweep

    probe = SpeedProbe()
    # no probes in a traced pass, where they would land in self times
    with probe.periodic() if tracer is None else contextlib.nullcontext():
        t0 = time.perf_counter()
        result = sweep(7, run_verify=True)
        out["wall_s"] = time.perf_counter() - t0 - probe.spent
    out["speed"] = probe.factor() if probe.times else None
    _finish_trace(tracer, spec, out)
    out["ops"] = result.pairs
    out["failed_ops"] = workloads.failed_sweep_pairs(result)
    out["digests"] = workloads.sweep_digests(result)
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def _traced_cli_op(argv, spec, index):
    """Run one command in a traced child interpreter."""
    import json
    import subprocess

    child = {"mode": "cli-child", "argv": list(argv), "trace": True}
    if spec.get("spans_path"):
        child["spans_path"] = spec["spans_path"].replace(".tsv.gz", f"-{index}.tsv.gz")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), json.dumps(child)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"traced child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_ops(spec):
    """Ops ``start`` to ``start + count`` of the workload's seeded sequence,
    timed, then ``extra`` more untimed (up to a golden checkpoint)."""
    import hashlib

    import workloads
    from hostspeed import SpeedProbe, startup_probe

    name, seed = spec["workload"], spec["seed"]
    start, count, extra = spec.get("start", 0), spec["count"], spec.get("extra", 0)
    cli = name == "cli-session"
    # cli-session ops run in child interpreters; this process stays idle.
    tracer = None if cli else _tracer(spec)
    out = {} if cli else _setup(workloads.PRIMES[name], tracer)
    inputs = workloads.make_inputs(name, seed, start + count + extra)[start:]
    op = {"sample-p13": workloads.op_sample,
          "char-products": workloads.op_product}.get(name)
    oks, digests, latencies, errors = [], [], [], []
    children = []  # traced cli-session child results

    def run_one(i, item):
        if tracer is not None:
            tracer.op = i
        try:
            if cli and spec.get("trace"):
                child = _traced_cli_op(item, spec, i)
                children.append(child)
                return child["rc"] == 0, workloads.cli_output(child["rc"], child["stdout"])
            if cli:
                return workloads.op_cli(item)
            return op(item)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            errors.append(f"op {i} {item}: {type(exc).__name__}: {exc}")
            return False, repr(exc).encode()

    probe = startup_probe() if cli else SpeedProbe()
    t_start = time.perf_counter()
    end = t_start
    for i, item in enumerate(inputs[:count], start):
        probe.tick()  # between ops, outside their times
        t0 = time.perf_counter()
        ok, output = run_one(i, item)
        end = time.perf_counter()
        latencies.append(end - t0)
        oks.append(ok)
        digests.append(hashlib.sha256(output).hexdigest())
    out["wall_s"] = end - t_start - probe.spent
    out["speed"] = probe.factor() if probe.times else None
    # read after the fixed op count, as the library's caches grow with every op
    out["peak_rss_mb"] = _peak_rss_mb(children=cli)
    _finish_trace(tracer, spec, out)
    if cli and spec.get("trace"):
        out["trace"] = _merge_traces([c["trace"] for c in children])
        for key in ("import_s", "spans", "dropped_spans"):
            out[key] = sum(c[key] for c in children)
    for i, item in enumerate(inputs[count:], start + count):
        ok, output = run_one(i, item)
        oks.append(ok)
        digests.append(hashlib.sha256(output).hexdigest())
    out.update(ops=count, extra_ops=len(oks) - count, oks=oks, digests=digests,
               latencies_s=latencies, errors=errors[:5])
    return out


def _merge_traces(traces):
    """Sum per-process traces; ``distinct`` is summed too, since each process
    starts with empty caches."""
    merged = {}
    for trace in traces:
        for fn, entry in trace.items():
            acc = merged.setdefault(fn, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value
    return merged


def run_cli_child(spec):
    import contextlib
    import io

    t0 = time.perf_counter()
    import sl3tensor.cli as cli
    import_s = time.perf_counter() - t0
    tracer = _tracer(spec)
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(spec["argv"])
        except SystemExit as exc:  # argparse exits on bad arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    out = {"rc": rc, "stdout": buf.getvalue(), "import_s": import_s}
    _finish_trace(tracer, spec, out)
    return out


MODES = {"setup": run_setup, "sweep": run_sweep, "ops": run_ops,
         "cli-child": run_cli_child}


if __name__ == "__main__":
    import json

    spec = json.loads(sys.argv[1])
    result = MODES[spec["mode"]](spec)
    print(json.dumps(result))
