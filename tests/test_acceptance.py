"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import random
import time

from tighttri import (betti, catalog, classify_topology, cross_validate,
                      decompose_ti, find_admissible_handle,
                      find_kuratowski_subdivision, handle_addition,
                      induced_cycles, is_locally_stacked, is_orientable,
                      is_stacked_sphere, is_tight_bruteforce, is_tight_surface,
                      stacked_sphere, verify_stacked_certificate)
from tighttri.cli import main
from tighttri.construct import AdmissibilityError
from tighttri.linalg import GF2, QQ

from corpus import random_ti_sum


def test_criterion_01_decider_agreement_on_corpus(corpus3, capsys):
    t0 = time.perf_counter()
    assert len(corpus3) >= 50
    assert all(x.num_vertices <= 12 for _, x in corpus3)
    tight_counts = {GF2: 0, QQ: 0}
    slowest_full_scan = 0.0
    for name, x in corpus3:
        for field in (GF2, QQ):
            cv = cross_validate(x, field)  # raises on any disagreement
            assert cv.brute.verdict == cv.fast.verdict, (name, str(field))
            if cv.verdict:
                tight_counts[field] += 1
                slowest_full_scan = max(slowest_full_scan, cv.brute.elapsed)
    elapsed = time.perf_counter() - t0
    assert tight_counts[GF2] >= 10  # the searched quotients plus the 5-vertex sphere
    assert tight_counts[QQ] >= 1
    assert slowest_full_scan < 5.0  # 9-vertex full scans stay well under 5 s
    assert elapsed < 600.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 01 PASS: brute/fast agree on {len(corpus3)} manifolds "
              f"x {{GF(2), Q}} in {elapsed:.1f}s (slowest full scan {slowest_full_scan:.2f}s)")


def test_criterion_02_admissible_k_table(capsys):
    t0 = time.perf_counter()
    code = main(["admissible-k", "--limit", "600"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [tuple(int(t) for t in line.split()) for line in out.strip().splitlines()]
    assert rows == [(1, 9), (30, 29), (99, 49), (208, 69), (357, 89), (546, 109)]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"ACCEPTANCE 02 PASS: admissible-k table exact in {elapsed * 1000:.0f}ms")


def test_criterion_03_k1_tight_instance(tight9, capsys):
    m9, cert = tight9  # found by search_tight(1, GF2, budget <= 10^6, seed=0)
    assert m9.f_vector == (9, 36, 54, 27)
    assert betti(m9, GF2)[1] == 1
    assert (9 - 4) * (9 - 5) == 20 * betti(m9, GF2)[1]
    t0 = time.perf_counter()
    brute = is_tight_bruteforce(m9, GF2)
    scan_time = time.perf_counter() - t0
    assert brute.verdict and scan_time < 5.0
    assert not is_orientable(m9, QQ)
    topo = classify_topology(m9, cert)
    assert topo.kind == "nonorientable-handle-sum" and topo.k == 1
    assert verify_stacked_certificate(m9, cert).ok
    with capsys.disabled():
        print(f"ACCEPTANCE 03 PASS: 9-vertex GF(2)-tight quotient found "
              f"(restart {cert.rng_seed}); brute scan {scan_time:.2f}s")


def test_criterion_04_necessary_conditions(corpus3, capsys):
    checked = 0
    for name, x in corpus3:
        for field in (GF2, QQ):
            if not is_tight_bruteforce(x, field).verdict:
                continue
            assert x.is_neighbourly(), (name, str(field))
            assert is_orientable(x, field), (name, str(field))
            assert is_locally_stacked(x).ok, (name, str(field))
            checked += 1
    assert checked >= 10
    with capsys.disabled():
        print(f"ACCEPTANCE 04 PASS: {checked} tight corpus verdicts are neighbourly, "
              "orientable and locally stacked, zero exceptions")


def test_criterion_05_icosahedron_machinery(capsys):
    t0 = time.perf_counter()
    ico = catalog.icosahedron()
    assert decompose_ti(ico).as_dict() == {"T": 0, "I": 1}
    cycles = induced_cycles(ico.one_skeleton(), 12)
    vertex_lists = {c.vertices for c in cycles}
    for pentagon in ((0, 2, 10, 9, 5), (0, 1, 10, 11, 3),
                     (0, 3, 7, 8, 5), (0, 1, 9, 8, 4)):
        assert pentagon in vertex_lists
    assert all(c.residue != 1 for c in cycles)
    for tri in (c.vertices for c in cycles if c.length == 3):
        assert ico.has_face(tri)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"ACCEPTANCE 05 PASS: icosahedron decomposes to {{I: 1}}, "
              f"{len(cycles)} chordless cycles, none with length 1 mod 3 "
              f"({elapsed * 1000:.0f}ms)")


def test_criterion_06_roundtrip_decomposition(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20160108)
    for trial in range(200):
        x, expected = random_ti_sum(rng, max_summands=6)
        summands = decompose_ti(x)
        assert summands.as_dict() == {"T": expected.get("T", 0),
                                      "I": expected.get("I", 0)}, trial
        assert is_stacked_sphere(x, 2).ok == (expected.get("I", 0) == 0), trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        print(f"ACCEPTANCE 06 PASS: 200 seeded T/I sums round-trip exactly in {elapsed:.1f}s")


def test_criterion_07_stacked_f_vector_laws(capsys):
    rng = random.Random(7)
    for trial in range(100):
        n = rng.randrange(5, 51)
        f = stacked_sphere(n, 3, seed=trial).f_vector
        assert f[1] == 4 * f[0] - 10, trial
    for trial in range(100):
        n = rng.randrange(4, 51)
        f = stacked_sphere(n, 2, seed=trial).f_vector
        assert f[1] == 3 * f[0] - 6, trial
    with capsys.disabled():
        print("ACCEPTANCE 07 PASS: 100 stacked 3-spheres satisfy f1 = 4*f0 - 10 "
              "and 100 stacked 2-spheres satisfy f1 = 3*f0 - 6")


def test_criterion_08_handle_bookkeeping(capsys):
    t0 = time.perf_counter()
    done = 0
    seed = 0
    rejected_adjacent = 0
    rejected_intersecting = 0
    while done < 100:
        n = 18 + (seed % 13)
        x = stacked_sphere(n, 3, seed=seed)
        rng = random.Random(seed)
        seed += 1
        choice = find_admissible_handle(x, rng)
        if choice is None:
            continue
        f1, f2, bijection = choice
        y = handle_addition(x, f1, f2, bijection)
        fx, fy = x.f_vector, y.f_vector
        assert tuple(a - b for a, b in zip(fx, fy)) == (4, 6, 4, 2)
        assert betti(y, GF2)[1] == betti(x, GF2)[1] + 1
        done += 1
        if rejected_intersecting < 25:
            facets = sorted(x.facets)
            g2 = next(g for g in facets if g != f1 and set(g) & set(f1))
            try:
                handle_addition(x, f1, g2, dict(zip(f1, g2)))
            except AdmissibilityError:
                rejected_intersecting += 1
            else:
                raise AssertionError("intersecting facets must be rejected")
        if rejected_adjacent < 25:
            # any disjoint facet pair joined by an edge, matched along that edge
            facets = sorted(x.facets)
            for g1 in facets:
                pick = None
                for g2 in facets:
                    if set(g1) & set(g2):
                        continue
                    adj = [(v, w) for v in g1 for w in g2 if w in x.neighbors(v)]
                    if adj:
                        pick = (g2, adj[0])
                        break
                if pick is not None:
                    g2, (v, w) = pick
                    rest1 = [u for u in g1 if u != v]
                    rest2 = [u for u in g2 if u != w]
                    try:
                        handle_addition(x, g1, g2, {v: w, **dict(zip(rest1, rest2))})
                    except AdmissibilityError:
                        rejected_adjacent += 1
                    else:
                        raise AssertionError("adjacent identification must be rejected")
                    break
    elapsed = time.perf_counter() - t0
    assert rejected_intersecting >= 25 and rejected_adjacent >= 10
    with capsys.disabled():
        print(f"ACCEPTANCE 08 PASS: 100 handle additions change f by (-4,-6,-4,-2) "
              f"and raise beta_1 by 1; {rejected_intersecting + rejected_adjacent} "
              f"inadmissible requests rejected ({elapsed:.1f}s)")


def test_criterion_09_surface_criterion(capsys):
    t0 = time.perf_counter()
    rp2 = catalog.projective_plane_6()
    for field, expected in ((GF2, True), (QQ, False)):
        brute = is_tight_bruteforce(rp2, field)
        assert brute.verdict is expected
        assert is_tight_surface(rp2, field).verdict is expected
    b3 = catalog.boundary_simplex(3)
    for field in (GF2, QQ):
        assert is_tight_bruteforce(b3, field).verdict
        assert is_tight_surface(b3, field).verdict
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"ACCEPTANCE 09 PASS: RP2_6 GF(2)-tight / Q-non-tight and the "
              f"tetrahedron boundary tight over both, brute matching the surface "
              f"criterion ({elapsed * 1000:.0f}ms)")


def test_criterion_10_kuratowski(sphere_skeletons, capsys):
    t0 = time.perf_counter()
    witness = find_kuratowski_subdivision(catalog.subdivided_k33_graph())
    assert witness is not None and witness.pattern == "K33"
    assert len(sphere_skeletons) >= 50
    for name, s in sphere_skeletons:
        assert find_kuratowski_subdivision(s.one_skeleton()) is None, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"ACCEPTANCE 10 PASS: K33 witness on the subdivided-link graph, none "
              f"on {len(sphere_skeletons)} sphere skeletons ({elapsed:.1f}s)")
