#!/usr/bin/env python3
"""The tighttri benchmark: one serial, single-caller closed loop per workload.

Usage (from the root of a checkout):

    python3 bench/run.py --workload scan|construct|spheres --seed N \
        --seconds S --trace 0|1

It imports ``tighttri`` from ``src/`` of the checkout, builds the workload's
inputs from the seed (timed as set-up), then runs whole passes over the
workload's items until ``--seconds`` have elapsed.  Every pass runs the same
items on the same inputs, starting from the same chain-data cache state.
Every item's output is checked against ``bench/goldens.json`` and against
golden-free invariants before the next item starts.  Times are rescaled to
a reference host speed by a probe loop timed next to each call (see
``probe``).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
See bench/README.md for the metric definitions.
"""

import gc
import time
from fractions import Fraction

PROBE_ROUNDS = 2
# The probe's time at the reference speed.  A call that takes t seconds
# while the probe takes p is reported as t * PROBE_REF_S / p.
PROBE_REF_S = 0.001


def probe():
    """Time a fixed pure-Python loop of the kinds of work the package does:
    XOR of big ints (GF(2) rows), list arithmetic mod 3 (GF(p) rows),
    ``Fraction`` arithmetic (Q), and small-int, tuple, dict and set work.

    The speed of a shared host changes under the benchmark: on the 2-core
    host this was built on, the probe took twice as long at some moments as
    at others, sometimes switching several times a second, sometimes staying
    slow for minutes, and the package's calls slowed by about the same
    factor.  Timing the probe next to every call measures the host's speed
    at that moment, so that the reported times do not depend on it.  A mix
    of kinds of work tracked the package's calls better than any one kind.
    The garbage collector is off while it runs, so that the probe never
    pays for a collection of the garbage the previous call left.
    """
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        rows = [(i * 2654435761) & ((1 << 120) - 1) for i in range(1, 40)]
        for _ in range(6):
            rows = [r ^ rows[0] if r & 1 else r >> 1 for r in rows]
        a, b = list(range(40)), list(range(40, 80))
        for _ in range(12):
            a = [(x - 2 * y) % 3 for x, y in zip(a, b)]
        q = Fraction(1, 3)
        for i in range(1, 25):
            q = q * Fraction(i, i + 1) - Fraction(1, i + 2)
        seen, acc = {}, set()
        for i in range(800):
            key = (i * 7919) % 509
            seen[key] = seen.get(key, 0) ^ i
            face = (key, i & 63, (i >> 3) & 31)
            if face[1] > face[2]:
                acc.add(face[:2])
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def probe_scale(probes):
    """Factor that turns a time measured next to ``probes`` into reference seconds."""
    probes = sorted(probes)
    return PROBE_REF_S / probes[len(probes) // 2]


SETUP_PROBES = [probe() for _ in range(3)]
T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
MIN_PASSES = 3  # so that every slot's median rests on at least three times
CHILD_TIMEOUT_S = 170


def import_tighttri():
    """Import the package from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "tighttri", "__init__.py")):
        print(f"error: no tighttri package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import tighttri
    if not os.path.abspath(tighttri.__file__).startswith(SRC + os.sep):
        print(f"error: imported tighttri from {tighttri.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


class Tracer:
    """Spans of public calls made from the benchmark, kept in memory."""

    def __init__(self, next_offset):
        self.spans = []
        self.cost = 0.0
        self.item = None
        self.fresh_offset = next_offset

    def call(self, name, fn, *args, covers=True, attrs=None):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            span = {"item": self.item, "name": name, "start": t0, "end": t1, "covers": covers}
            if attrs:
                span.update(attrs)
            self.spans.append(span)
            self.cost += time.perf_counter() - t1

    @property
    def last(self):
        return self.spans[-1]


def check(w, item, args, res, exc, goldens):
    """None if the output is right, else a one-line reason.  For an item
    that must raise, ``res`` is the exception it raised."""
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    if item.raises is not None and not isinstance(res, item.raises):
        return f"expected {item.raises.__name__}, got {repr(res)[:80]}"
    if item.invariant is not None:
        err = item.invariant(args, res)
        if err:
            return err
    if item.summary is not None:
        want = goldens.get(w.golden_key(item))
        got = w.digest(item.summary(args, res))
        if want is None:
            return "no golden recorded for this item"
        if got != want:
            return f"output differs from the golden ({got} != {want})"
    return None


def run_pass(w, workload, inp, p, state, goldens, next_offset, tracer, records, workdir):
    w.flush_chain_cache()
    before = probe()
    for slot, item in enumerate(w.pass_items(workload, inp, state, workdir)):
        off = next_offset()
        try:
            args = item.make(off)
        except Exception as e:  # a broken input recipe is a failed item
            records.append({"key": item.key, "kind": item.kind, "pass": p, "slot": slot,
                            "dt": 0.0, "error": f"input: {type(e).__name__}: {e}"})
            continue
        if args is None:
            continue  # the item does not apply to this input (no handle site)
        exc = res = None
        gc.collect()  # no call pays for collecting what earlier ones left
        t0 = time.perf_counter()
        try:
            res = item.call(*args)
        except Exception as e:
            exc = e
        dt = time.perf_counter() - t0
        after = probe()
        if item.raises is not None and isinstance(exc, item.raises):
            res, exc = exc, None
        # The host's speed around the call: the probe just before it (taken
        # after the previous call, ahead of that call's check) and just after.
        rec = {"key": item.key, "kind": item.kind, "pass": p, "slot": slot, "dt": dt,
               "scale": 2 * PROBE_REF_S / (before + after), "probes": (before, after),
               "field": w.FIELD_TAG.get(item.field), "cli": item.cli}
        try:
            err = check(w, item, args, res, exc, goldens)
            if err is None and item.stats is not None:
                rec["stats"] = item.stats(args, res)
            if err is None and tracer is not None and item.replay is not None:
                tracer.item = (p, item.key)
                err = item.replay(tracer, item, args, res)
        except Exception as e:
            err = f"check: {type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)
        if err:
            rec["error"] = err
        records.append(rec)
        before = after


def quantile(values, q):
    """The q-th percentile, as the mean of the values from the (q-5)-th to
    the (q+5)-th percentile: about a tenth of the slots, so that it does not
    rest on the time of a single slot."""
    values = sorted(values)
    lo = len(values) * (q - 5) // 100
    hi = max(lo + 1, -(-len(values) * (q + 5) // 100))
    return statistics.fmean(values[lo:hi])


def slot_medians(records, key):
    """Each item slot's median over the passes of ``key(record)``.

    Slot i is the i-th item of every pass: the same call on the same input,
    relabelled, from the same cache state.
    """
    slots = {}
    for r in records:
        slots.setdefault(r["slot"], []).append(key(r))
    return {s: statistics.median(v) for s, v in slots.items()}


def end_to_end(records, setups):
    """End-to-end metrics from each slot's median time in reference seconds."""
    ref = slot_medians(records, lambda r: r["dt"] * r.get("scale", 0.0))
    slots = {}
    for r in records:
        slots.setdefault(r["slot"], []).append(r)
    ok = {s: rs[0] for s, rs in slots.items() if not any("error" in r for r in rs)}

    def rate(work, kind, field):
        chosen = [s for s, r in ok.items() if r["kind"] == kind and r["field"] == field]
        return sum(ok[s]["stats"][work] for s in chosen) / max(sum(ref[s] for s in chosen), 1e-9)

    m = {"setup_s": (statistics.median(setups), "s"),
         "wall_s": (sum(ref.values()), "s"),
         "item_p50_ms": (quantile(ref.values(), 50) * 1e3, "ms"),
         "item_p90_ms": (quantile(ref.values(), 90) * 1e3, "ms")}
    for tag in ("gf2", "gfp", "q"):
        m[f"{tag}_subsets_per_s"] = (rate("subsets", "decider", tag), "1/s")
    m["restarts_per_s"] = (rate("restarts", "search", "q"), "1/s")
    searches = [ref[s] for s, r in ok.items() if r["kind"] == "search" and r["field"] == "gf2"]
    m["search_p50_ms"] = (statistics.median(searches) * 1e3 if searches else 0.0, "ms")
    m["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return m


def per_layer(records, tracer, passes):
    """Per-layer metrics; counts and times are per pass, ratios are not."""
    spans = tracer.spans
    ok = [r for r in records if "error" not in r]

    def spans_of(name, **where):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in where.items())]

    def dur(ss):
        return sum(s["end"] - s["start"] for s in ss)

    def recs(kind):
        return [r for r in ok if r["kind"] == kind]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for tag in ("gf2", "gfp", "q"):
        el = spans_of("linalg.elim", field=tag)
        m[f"linalg.elim.{tag}.rows"] = (sum(s["rows"] for s in el), "count")
        m[f"linalg.elim.{tag}.time_s"] = (dur(el), "s")
    inj = spans_of("homology.injective")
    m["homology.chain_data.time_s"] = (dur(spans_of("homology.chain_data")), "s")
    m["homology.injective.calls"] = (len(inj), "count")
    m["homology.injective.time_s"] = (dur(inj), "s")
    for tag in ("gf2", "gfp", "q"):
        ss = spans_of("homology.injective", field=tag)
        m[f"homology.injective.us_per_subset.{tag}"] = (ratio(dur(ss), len(ss)) * 1e6, "us")
    for k in range(3):
        m[f"homology.injective.fail_deg{k}"] = (len(spans_of("homology.injective", fail_deg=k)), "count")
    for name in ("induced", "verify_closed_manifold"):
        ss = spans_of(f"complexes.{name}")
        m[f"complexes.{name}.calls"] = (len(ss), "count")
        m[f"complexes.{name}.time_s"] = (dur(ss), "s")
    iso = recs("iso")
    m["complexes.is_isomorphic.calls"] = (len(iso), "count")
    m["complexes.is_isomorphic.time_s"] = (sum(r["dt"] for r in iso), "s")
    dec = recs("decider")
    m["tightness.brute.calls"] = (len(dec), "count")
    m["tightness.brute.time_s"] = (sum(r["stats"]["brute_s"] for r in dec), "s")
    m["tightness.brute.subsets"] = (sum(r["stats"]["subsets"] for r in dec), "count")
    m["tightness.brute.scan_ratio"] = (ratio(sum(r["stats"]["subsets"] for r in dec),
                                             sum(r["stats"]["total"] for r in dec)), "ratio")
    m["tightness.fast.time_s"] = (sum(r["stats"]["fast_s"] for r in dec), "s")
    se = recs("search")
    restarts = sum(r["stats"]["restarts"] for r in se)
    found = sum(r["stats"]["found"] for r in se)
    m["construct.search.restarts"] = (restarts, "count")
    m["construct.search.found"] = (found, "count")
    m["construct.search.found_ratio"] = (ratio(found, restarts), "ratio")
    m["construct.search.time_s"] = (sum(r["dt"] for r in se), "s")
    m["construct.confirm.time_s"] = (dur(spans_of("construct.confirm")), "s")
    fh = recs("find")
    m["construct.find_handle.calls"] = (len(fh), "count")
    none = sum(r["stats"]["none"] for r in fh)
    m["construct.find_handle.none_ratio"] = (ratio(none, len(fh)), "ratio")
    m["construct.find_handle.time_s"] = (sum(r["dt"] for r in fh), "s")
    ha = recs("handle") + recs("reject")
    m["construct.handle_addition.calls"] = (len(ha), "count")
    m["construct.handle_addition.rejected"] = (len(recs("reject")), "count")
    m["construct.handle_addition.time_s"] = (sum(r["dt"] for r in ha), "s")
    cyc = recs("cycles")
    m["stacked.cycles.enumerated"] = (sum(s["count"] for s in spans_of("stacked.cycles"))
                                      + sum(r["stats"]["count"] for r in cyc), "count")
    mod3_replay = dur(spans_of("stacked.mod3"))
    m["stacked.mod3.time_s"] = (mod3_replay + sum(r["dt"] for r in recs("mod3")), "s")
    de = recs("decompose")
    m["stacked.decompose.time_s"] = (sum(r["dt"] for r in de), "s")
    m["stacked.decompose.cuts"] = (sum(r["stats"]["cuts"] for r in de), "count")
    m["stacked.decompose.mod3_share"] = (ratio(mod3_replay, sum(r["dt"] for r in de)), "ratio")
    for kind, name in (("stacked2", "is_stacked_sphere"), ("cert", "replay"),
                       ("locstack", "locally_stacked")):
        m[f"stacked.{name}.time_s"] = (sum(r["dt"] for r in recs(kind)), "s")
    ku = recs("kuratowski")
    m["planarity.kuratowski.calls"] = (len(ku), "count")
    m["planarity.kuratowski.time_s"] = (sum(r["dt"] for r in ku), "s")
    planar = sum(r["stats"]["planar"] for r in ku)
    m["planarity.kuratowski.planar_ratio"] = (ratio(planar, len(ku)), "ratio")
    cli = [r for r in ok if r["cli"]]
    # The library call a CLI item wraps: its reported wall_time_s, or the replayed call.
    lib = {s["item"]: s["end"] - s["start"] for s in spans_of("cli.library")}
    lib_s = [r["stats"]["lib_s"] if "stats" in r else lib[(r["pass"], r["key"])] for r in cli]
    m["cli.main.time_s"] = (sum(r["dt"] for r in cli), "s")
    m["cli.main.self_s"] = (sum(r["dt"] for r in cli) - sum(lib_s), "s")
    covered = {}
    for s in spans:
        if s["covers"]:
            covered[s["item"]] = covered.get(s["item"], 0.0) + s["end"] - s["start"]
    item_dt = {(r["pass"], r["key"]): r["dt"] for r in ok}
    untraced = sum(item_dt[k] for k in covered if k in item_dt)
    m["trace.coverage"] = (ratio(sum(covered.values()), untraced), "ratio")
    m["trace.overhead_s"] = (tracer.cost, "s")
    return {k: (v / passes if u in ("s", "count") else v, u) for k, (v, u) in m.items()}


def commit_id():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tighttri")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def child_setup(workload, seed):
    """One set-up in a fresh interpreter, so its caches start cold."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                          "--seed", str(seed), "--seconds", "0", "--setup-only"],
                         cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"set-up child failed: {out.stderr.strip()[-300:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan", "construct", "spheres"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up time and exit")
    args = ap.parse_args(argv)

    w = import_tighttri()
    inp = w.build_inputs(args.workload, args.seed)
    setup_raw_s = time.perf_counter() - T0
    setup_s = setup_raw_s * probe_scale(SETUP_PROBES + [probe() for _ in range(3)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(os.path.join(BENCH, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)["digests"]
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    # The inputs live for the whole run: keep the garbage collector from
    # walking them again in every timed call.
    gc.collect()
    gc.freeze()
    counter = [0]

    def next_offset():
        counter[0] += 1
        return counter[0] * w.OFFSET_STEP

    tracer = Tracer(next_offset) if args.trace else None
    min_passes = 1 if tracer else MIN_PASSES  # per-layer metrics need no slot medians
    records = []
    start = time.perf_counter()
    passes = 0
    pass_s = 0.0
    try:
        # Stop at the pass end nearest to --seconds.
        while passes < min_passes or time.perf_counter() - start + pass_s / 2 < args.seconds:
            t = time.perf_counter()
            run_pass(w, args.workload, inp, passes, {}, goldens, next_offset, tracer,
                     records, workdir)
            pass_s = time.perf_counter() - t
            passes += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    measured_s = time.perf_counter() - start

    setups = [setup_s] + [child_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    failed = [r for r in records if "error" in r]
    for r in failed:
        print(f"FAIL pass {r['pass']} {r['key']}: {r['error']}", file=sys.stderr)
    metrics = per_layer(records, tracer, passes) if tracer else end_to_end(records, setups)
    raw = slot_medians(records, lambda r: r["dt"])
    scales = sorted(r["scale"] for r in records if "scale" in r)
    info = {"workload": args.workload, "seed": args.seed, "golden_set": inp.g,
            "trace": args.trace, "passes": passes, "measured_s": measured_s,
            "wall_raw_s": sum(raw.values()), "setup_raw_s": setup_raw_s,
            "probe_ms": PROBE_REF_S * 1e3 / scales[len(scales) // 2] if scales else None,
            "items": len(records), "slots": len({r["slot"] for r in records}),
            "setups_s": setups, "workers": 1,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit_id(), "src_sha256": src_digest()}
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result,
                   "items": [[r["pass"], r["slot"], r["key"], r["dt"], r.get("probes")]
                             for r in records]}, fh)
    if tracer:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(s, item=list(s["item"]))) + "\n")
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
