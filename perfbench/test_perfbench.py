"""Tests of the benchmark's own machinery: tracer arithmetic, seeded inputs,
the golden-output check and the host-speed correction."""

import json
import os
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_nested_and_recursive():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    ns = types.SimpleNamespace()

    def leaf():
        clock.advance(1.0)

    def rec(n):
        clock.advance(2.0)
        if n:
            ns.rec(n - 1)
        clock.advance(0.5)

    def outer():
        clock.advance(3.0)
        ns.leaf()
        ns.rec(2)
        clock.advance(1.0)

    ns.leaf = tr.wrap("leaf", leaf)
    ns.rec = tr.wrap("rec", rec, distinct=True)
    ns.outer = tr.wrap("outer", outer)
    ns.outer()

    s = tr.summary()
    assert s["outer"] == {"calls": 1, "self_s": 4.0}
    assert s["leaf"] == {"calls": 1, "self_s": 1.0}
    assert s["rec"] == {"calls": 3, "self_s": 7.5, "distinct": 3}
    # self times add up to the root span's duration
    assert sum(e["self_s"] for e in s.values()) == clock.t == 12.5
    assert tr.span_count() == 5


def test_spans_record_parents_and_write_out(tmp_path):
    clock = FakeClock()
    tr = Tracer(clock=clock)
    ns = types.SimpleNamespace()
    ns.inner = tr.wrap("inner", lambda: clock.advance(1.0))

    def outer():
        ns.inner()
        ns.inner()

    ns.outer = tr.wrap("outer", outer)
    tr.op = 7
    ns.outer()
    path = tmp_path / "spans.tsv.gz"
    tr.write_spans(str(path))
    import gzip

    rows = [line.split("\t") for line in gzip.open(path, "rt").read().splitlines()[1:]]
    by_name = {}
    for row in rows:
        by_name.setdefault(row[3], []).append(row)
    (root,) = by_name["outer"]
    assert root[1] == "-1" and root[2] == "7"
    assert [r[1] for r in by_name["inner"]] == [root[0], root[0]]


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    a.f = f
    b.g = f  # what "from .a import f as g" leaves in b's namespace
    b.call = lambda x: b.g(x)
    pkg.f = f
    return {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}


def test_install_patches_every_namespace_and_uninstalls():
    mods = _fake_package()
    sys.modules.update(mods)
    try:
        original = mods["fakepkg.a"].f
        tr = Tracer()
        tr.install("fakepkg", targets=(("a", "f", True), ("a", "missing", False)))
        assert mods["fakepkg.b"].call(1) == 2
        assert mods["fakepkg"].f(1) == 2
        assert mods["fakepkg.a"].f(5) == 6
        s = tr.summary()
        assert s["a.f"]["calls"] == 3 and s["a.f"]["distinct"] == 2
        assert s["a.missing"] == {"calls": 0, "self_s": 0.0}
        tr.uninstall()
        assert mods["fakepkg.b"].g is original and mods["fakepkg"].f is original
    finally:
        for name in mods:
            sys.modules.pop(name, None)


def test_install_reaches_library_imports():
    import importlib

    # the package re-exports the function decompose over its module name
    alcoves, dec, weylchar = (importlib.import_module(f"sl3tensor.{m}")
                              for m in ("alcoves", "decompose", "weylchar"))

    original_classify = alcoves.classify
    original_init = weylchar.Character.__init__
    tr = Tracer()
    tr.install()
    try:
        assert dec.classify is alcoves.classify is not original_classify
        dec.decompose((1, 0), (0, 1), 5)
        dec.tensor_char((1, 0), (0, 1), 5)
        s = tr.summary()
        for name in ("decompose.decompose", "decompose.tensor_char",
                     "weylchar.mult", "weylchar.Character"):
            assert s[name]["calls"] >= 1, name
    finally:
        tr.uninstall()
    assert alcoves.classify is original_classify
    assert weylchar.Character.__init__ is original_init


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS[1:]:
        a = workloads.make_inputs(name, 4, 60)
        assert a == workloads.make_inputs(name, 4, 60)
        assert a[:25] == workloads.make_inputs(name, 4, 25)
        assert a != workloads.make_inputs(name, 5, 60)


def test_inputs_do_not_depend_on_hash_seed():
    code = ("import sys, json; sys.path.insert(0, %r); import workloads; "
            "print(json.dumps([workloads.make_inputs(w, 3, 40) "
            "for w in workloads.WORKLOADS[1:]]))" % HERE)
    outs = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONHASHSEED=h), check=True).stdout
        for h in ("1", "2")
    }
    assert len(outs) == 1


def test_pair_blocks_are_balanced():
    pairs = workloads.make_inputs("sample-p13", 9, 169)
    weights = sorted(workloads.restricted(13))
    assert sorted(a for a, _ in pairs) == weights
    assert sorted(b for _, b in pairs) == weights


def test_perturbed_answer_fails_every_op():
    import hashlib

    every, seed = workloads.CHECK_EVERY["sample-p13"], workloads.DEFAULT_SEED
    inputs = workloads.make_inputs("sample-p13", seed, every)
    results = [workloads.op_sample(pair) for pair in inputs]
    oks = [ok for ok, _ in results]
    digests = [hashlib.sha256(output).hexdigest() for _, output in results]

    verdict, covered = workloads.check_digests("sample-p13", seed, digests)
    assert (verdict, covered) == (True, every)
    assert workloads.count_failed(oks, verdict) == 0
    # another seed has no golden record: only the ops' own checks apply
    assert workloads.check_digests("sample-p13", 1, digests) == (None, 0)

    doc = json.loads(results[17][1])
    doc["summands"][0]["mult"] += 1
    digests[17] = hashlib.sha256(workloads.canonical(doc)).hexdigest()
    verdict, _ = workloads.check_digests("sample-p13", seed, digests)
    assert verdict is False
    assert workloads.count_failed(oks, verdict) == every


def test_checkpoint_extra_reaches_the_next_golden_mark():
    every = workloads.CHECK_EVERY["sample-p13"]
    assert workloads.checkpoint_extra("sample-p13", workloads.DEFAULT_SEED, 3 * every) == 0
    assert workloads.checkpoint_extra("sample-p13", workloads.DEFAULT_SEED, 1014) == 36
    assert workloads.checkpoint_extra("sample-p13", 1, 1014) == 0


def test_perturbed_sweep_digest_fails_every_pair():
    golden = workloads.load_golden()["sweep-p7"]
    good = {"digests": dict(golden), "ops": 2401, "failed_ops": 0}
    assert run._sweep_status([good]) == (2401, 0, True)
    bad = dict(good, digests=dict(golden, pairs_sha256="0" * 64))
    assert run._sweep_status([good, bad]) == (4802, 4802, False)


def test_tail_has_stated_samples_beyond():
    lat = [i / 1000 for i in range(1, 201)]
    p50, tail, details = run.latency_metrics(lat, 95)
    assert tail == 0.190 * 1e3 and details["samples_beyond_tail"] == 10
    assert abs(p50 - 100.5) < 1e-9


def test_speed_factor_scales_to_the_reference_time():
    probe = hostspeed.SpeedProbe()
    probe.times = [4 * hostspeed.REF_S, 2 * hostspeed.REF_S, 3 * hostspeed.REF_S]
    assert abs(probe.factor() - 1 / 3) < 1e-12
    probe.times.append(5 * hostspeed.REF_S)
    assert abs(probe.factor() - 1 / 3.5) < 1e-12


def test_periodic_probe_runs_and_counts_its_time():
    import time

    probe = hostspeed.SpeedProbe(interval=0.01)
    with probe.periodic():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.times) >= 3
    assert abs(probe.spent - sum(probe.times)) < 1e-9
    n = len(probe.times)
    time.sleep(0.03)  # the timer is off again
    assert len(probe.times) == n


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.E2E_UNITS.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.per_layer_names())

    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)["layers"]
    targets = {(m, f) for m, f, _ in run.tracer.TARGETS}
    for layer, entry in layers.items():
        module = layer.split(".")[0]
        assert {(module, f) for f in entry["functions"]} <= targets, layer
        for move in entry["moves"]:
            assert move["metric"] in run.E2E_UNITS
            assert move["workload"] in workloads.WORKLOADS + ("*",)
