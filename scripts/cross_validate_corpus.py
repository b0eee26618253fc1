#!/usr/bin/env python3
"""Cross-validate the two tightness deciders on a generated manifold corpus.

Builds stacked spheres, searched handle quotients and non-tight
perturbations (all on at most 12 vertices), runs the definitional scan and
the polynomial criterion over GF(2), GF(3) and Q on each, and prints one
line per (complex, field) pair.  Any disagreement raises.

Usage: python scripts/cross_validate_corpus.py [--quotients N]
"""

import argparse
import sys
import time

from corpus import closed_3_manifolds, subdivide_facet
from tighttri import cross_validate, search_tight
from tighttri.linalg import GF2, QQ, FieldSpec

FIELDS = (GF2, FieldSpec.gf(3), QQ)


def build_corpus(quotients: int):
    found = []
    for seed in range(quotients):
        res = search_tight(1, GF2, budget=2000, seed=seed)
        if res is None:
            continue
        m, _ = res
        found.append((f"quotient-s{seed}", m))
        found.append((f"quotient-s{seed}-subdivided", subdivide_facet(m, m.facets[0])))
    return closed_3_manifolds(found)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quotients", type=int, default=6)
    args = ap.parse_args()

    corpus = build_corpus(args.quotients)
    t0 = time.perf_counter()
    tight = 0
    for name, x in corpus:
        for field in FIELDS:
            cv = cross_validate(x, field)
            tight += cv.verdict
            print(f"{name:28s} {str(field):6s} tight={str(cv.verdict):5s} "
                  f"scan={cv.brute.subsets_scanned:4d} subsets "
                  f"({cv.brute.elapsed:.3f}s)")
    print(f"\n{len(corpus)} complexes x {len(FIELDS)} fields, {tight} tight verdicts, "
          f"all decider pairs agree ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
