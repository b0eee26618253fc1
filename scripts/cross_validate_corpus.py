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

from tighttri import (Complex, catalog, cross_validate, search_tight,
                      stacked_sphere)
from tighttri.linalg import GF2, QQ, FieldSpec

FIELDS = (GF2, FieldSpec.gf(3), QQ)


def subdivide_first_facet(x: Complex) -> Complex:
    w = max(x.vertex_set) + 1
    base = x.facets[0]
    facets = [f for f in x.facets if f != base]
    facets.extend(tuple(sorted(set(base) - {u} | {w})) for u in base)
    return Complex.from_facets(facets)


def build_corpus(quotients: int):
    corpus = [("boundary-delta4", catalog.boundary_simplex(4))]
    for n in range(5, 13):
        for seed in range(4):
            corpus.append((f"stacked-{n}-s{seed}", stacked_sphere(n, 3, seed=seed)))
    for seed in range(quotients):
        found = search_tight(1, GF2, budget=2000, seed=seed)
        if found is None:
            continue
        m, _ = found
        corpus.append((f"quotient-s{seed}", m))
        corpus.append((f"quotient-s{seed}-subdivided", subdivide_first_facet(m)))
    corpus.append(("susp-delta3", catalog.suspension(catalog.boundary_simplex(3))))
    corpus.append(("susp-octahedron",
                   catalog.suspension(catalog.suspension(catalog.cycle_complex(4)))))
    return corpus


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
