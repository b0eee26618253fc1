#!/usr/bin/env python3
"""Record bench/goldens.json: the digest of every item's checked output.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 bench/record_goldens.py

It runs one pass of every workload for each of the GOLDEN_SETS recipe sets,
with inputs at their base labels.  The benchmark compares each repetition's
output, mapped back to base labels, with these digests.  Takes a few
minutes.
"""

import json
import os
import shutil
import sys

from run import BENCH, commit_id, import_tighttri, src_digest


def record(w, items, digests):
    for item in items:
        args = item.make(0)
        if args is None:
            continue
        try:
            res = item.call(*args)
        except Exception as e:
            if item.raises is None or not isinstance(e, item.raises):
                raise
            res = e
        if item.raises is not None and not isinstance(res, item.raises):
            raise SystemExit(f"{item.key}: expected {item.raises.__name__}, got {res!r}")
        err = item.invariant(args, res) if item.invariant else None
        if err:
            raise SystemExit(f"{item.key}: {err}")
        if item.summary is None:
            continue
        d = w.digest(item.summary(args, res))
        if digests.setdefault(w.golden_key(item), d) != d:
            raise SystemExit(f"{item.key}: output differs between recipe sets")


def main():
    w = import_tighttri()
    workdir = os.path.join(os.path.dirname(BENCH), ".bench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    digests = {}
    for g in range(w.GOLDEN_SETS):
        for workload in w.WORKLOADS:
            inp = w.build_inputs(workload, g)
            record(w, w.pass_items(workload, inp, {}, workdir), digests)
            print(f"set {g} {workload}: {len(digests)} digests", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    os.rmdir(os.path.dirname(workdir))
    doc = {"commit": commit_id(), "src_sha256": src_digest(), "digests": dict(sorted(digests.items()))}
    with open(os.path.join(BENCH, "goldens.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written", file=sys.stderr)


if __name__ == "__main__":
    main()
