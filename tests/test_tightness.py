import dataclasses
import itertools
import multiprocessing
import multiprocessing.pool
import os
import pickle

import pytest

from tighttri import (Complex, InternalInconsistencyError, PreconditionError, catalog, cross_validate,
                      is_tight_bruteforce, is_tight_fast_3manifold, is_tight_surface,
                      search_tight)
from tighttri.homology import induced_map_injective
from tighttri.linalg import GF2, QQ, FieldSpec
from tighttri import tightness
from conftest import cyclic_polytope_boundary


class TestBruteForce:
    def test_boundary_delta4_tight_over_any_field(self):
        x = catalog.boundary_simplex(4)
        for field in (QQ, GF2, FieldSpec.gf(7)):
            assert is_tight_bruteforce(x, field).verdict

    def test_projective_plane(self):
        rp2 = catalog.projective_plane_6()
        assert is_tight_bruteforce(rp2, GF2).verdict
        r = is_tight_bruteforce(rp2, QQ)
        assert not r.verdict
        w, degree = r.witness
        assert degree == 1
        # the witness re-verifies as a failing subset in isolation
        assert not induced_map_injective(rp2, w, QQ).ok

    def test_icosahedron_fails_at_a_non_edge_pair(self):
        r = is_tight_bruteforce(catalog.icosahedron(), GF2)
        assert not r.verdict
        assert r.witness == ((0, 6), 0)

    def test_triangle_is_the_tight_closed_1_manifold(self):
        assert is_tight_bruteforce(catalog.cycle_complex(3), QQ).verdict
        r = is_tight_bruteforce(catalog.cycle_complex(7), QQ)
        assert not r.verdict and r.witness == ((0, 2), 0)

    @pytest.mark.parametrize("field", [FieldSpec.gf(3), QQ], ids=str)
    def test_delta10_2_skeleton_full_scan(self, field):
        # every subset's d_2 rows start with its least vertex's star
        skeleton = Complex.from_facets(itertools.combinations(range(11), 3))
        r = is_tight_bruteforce(skeleton, field, jobs=1)
        assert (r.verdict, r.witness, r.subsets_scanned) == (True, None, 2**11 - 11 - 2)

    @pytest.mark.parametrize("field", [GF2, FieldSpec.gf(3), QQ], ids=str)
    def test_delta8_3_skeleton_full_scan(self, field):
        # degree 2 is decided by counting each subset's tetrahedra through
        # its least vertex, as degree 1 is by its triangles
        skeleton = Complex.from_facets(itertools.combinations(range(9), 4))
        r = is_tight_bruteforce(skeleton, field, jobs=1)
        assert (r.verdict, r.witness, r.subsets_scanned) == (True, None, 501)

    def test_disconnected_complex(self):
        x = Complex.from_facets([(0, 1), (2, 3)])
        r = is_tight_bruteforce(x, QQ)
        assert not r.verdict and r.witness == ((0, 1, 2, 3), 0)

    def test_vertex_cap(self):
        with pytest.raises(PreconditionError):
            is_tight_bruteforce(catalog.cycle_complex(31), QQ)

    def test_relabel_invariance(self):
        rp2 = catalog.projective_plane_6()
        perm = [3, 5, 0, 4, 1, 2]
        y = Complex.from_facets([tuple(perm[v] for v in f) for f in rp2.facets])
        for field in (GF2, QQ):
            assert is_tight_bruteforce(y, field).verdict == \
                is_tight_bruteforce(rp2, field).verdict

    def test_parallel_scan_matches_sequential(self, monkeypatch, tight9):
        monkeypatch.setattr(tightness, "PARALLEL_MIN_SUBSETS", 8)
        monkeypatch.setattr(tightness, "_CHUNK", 16)
        # the seed-0 quotient over GF(2) is a full pass under the duality
        # gate, over Q a plain scan failing at subset 121; the cyclic
        # polytope fails at exactly half its vertices under the gate
        cases = [(catalog.icosahedron(), GF2), (tight9[0], GF2), (tight9[0], QQ),
                 (cyclic_polytope_boundary(6, 4), GF2)]
        for x, field in cases:
            seq = is_tight_bruteforce(x, field, jobs=1)
            par = is_tight_bruteforce(x, field, jobs=2)
            assert (seq.verdict, seq.witness, seq.subsets_scanned) == \
                (par.verdict, par.witness, par.subsets_scanned)
        assert is_tight_bruteforce(tight9[0], QQ).subsets_scanned == 121

    def test_parallel_scan_full_pass(self, monkeypatch):
        monkeypatch.setattr(tightness, "PARALLEL_MIN_SUBSETS", 8)
        monkeypatch.setattr(tightness, "_CHUNK", 16)
        rp2 = catalog.projective_plane_6()
        seq = is_tight_bruteforce(rp2, GF2, jobs=1)
        par = is_tight_bruteforce(rp2, GF2, jobs=2)
        assert seq.verdict and par.verdict
        assert seq.subsets_scanned == par.subsets_scanned

    def test_workers_are_capped_at_the_core_count(self, monkeypatch, tight9):
        # one core would start no pool at all
        cores = max(2, os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        asked = []

        class Done:
            def __init__(self, value):
                self.value = value

            def get(self):
                return self.value

        class InlinePool:
            """Runs the initializer once and each task at submission; records
            the worker count asked for."""

            def __init__(self, processes, initializer, initargs):
                asked.append(processes)
                if processes > cores:
                    raise AssertionError(f"{processes} workers asked for on {cores} cores")
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def apply_async(self, fn, args):
                return Done(fn(*args))

        monkeypatch.setattr(tightness, "Pool", InlinePool)
        monkeypatch.setattr(tightness, "PARALLEL_MIN_SUBSETS", 8)
        monkeypatch.setattr(tightness, "_CHUNK", 16)
        for x, field in [(tight9[0], GF2), (tight9[0], QQ), (catalog.icosahedron(), GF2)]:
            seq = is_tight_bruteforce(x, field)
            par = is_tight_bruteforce(x, field, jobs=10**6)
            assert (seq.verdict, seq.witness, seq.subsets_scanned) == \
                (par.verdict, par.witness, par.subsets_scanned)
        assert len(asked) == 3
        par = search_tight(1, GF2, budget=2000, seed=0, jobs=10**6)
        assert par[0] == tight9[0] and par[1] == tight9[1]
        assert len(asked) == 4

    def test_workers_get_the_task_once_and_then_only_blocks(self, monkeypatch, tmp_path, tight9):
        # two forked workers, even on one core; each logs its pid when it
        # installs the task and when it runs a block
        log = tmp_path / "log"

        def logged(kind, fn):
            def run(*args):
                with open(log, "a") as f:
                    f.write(f"{kind} {os.getpid()}\n")
                return fn(*args)
            return run

        sent, initargs = [], []

        class SpyPool(multiprocessing.pool.Pool):
            def __init__(self, processes, initializer, args):
                assert processes == 2
                initargs.append(args)
                super().__init__(processes, initializer, args, context=multiprocessing.get_context("fork"))

            def apply_async(self, fn, args):
                sent.append(args)
                return super().apply_async(fn, args)

        # over Q a plain scan of 32 blocks, failing in the eighth
        x = tight9[0]
        seq = is_tight_bruteforce(x, QQ, jobs=1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(tightness, "PARALLEL_MIN_SUBSETS", 8)
        monkeypatch.setattr(tightness, "_CHUNK", 16)
        monkeypatch.setattr(tightness, "_install", logged("install", tightness._install))
        monkeypatch.setattr(tightness, "_first_failure", logged("block", tightness._first_failure))
        monkeypatch.setattr(tightness, "Pool", SpyPool)
        par = is_tight_bruteforce(x, QQ, jobs=2)
        assert (seq.verdict, seq.witness, seq.subsets_scanned) == \
            (par.verdict, par.witness, par.subsets_scanned)
        # the complex travels once per worker, in the task the initializer installs
        assert len(initargs) == 1 and initargs[0][0].args[0] is x
        assert sent and not any(b"Complex" in pickle.dumps(args) for args in sent)
        entries = [line.split() for line in log.read_text().splitlines()]
        installs = [pid for kind, pid in entries if kind == "install"]
        assert len(installs) == len(set(installs)) <= 2
        assert {pid for kind, pid in entries if kind == "block"} <= set(installs)

    def test_one_core_starts_no_pool(self, monkeypatch, tight9):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")
        monkeypatch.setattr(tightness, "Pool", no_pool)
        monkeypatch.setattr(tightness, "PARALLEL_MIN_SUBSETS", 8)
        monkeypatch.setattr(tightness, "_CHUNK", 16)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        for x, field in [(tight9[0], GF2), (tight9[0], QQ), (catalog.icosahedron(), GF2)]:
            seq = is_tight_bruteforce(x, field, jobs=1)
            par = is_tight_bruteforce(x, field, jobs=4)
            assert (seq.verdict, seq.witness, seq.subsets_scanned) == \
                (par.verdict, par.witness, par.subsets_scanned)
        par = search_tight(1, GF2, budget=2000, seed=0, jobs=4)
        assert par[0] == tight9[0] and par[1] == tight9[1]

    def test_large_scans_are_serial_by_default(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")
        monkeypatch.setattr(tightness, "Pool", no_pool)
        x = catalog.cycle_complex(15)  # 2**15 - 17 subsets, above the parallel threshold
        report = is_tight_bruteforce(x, GF2)
        assert not report.verdict
        assert report.witness == ((0, 2), 0) and report.subsets_scanned == 2


    def test_parallel_early_exit_leaves_no_workers(self):
        # the first subset, the non-edge {0, 1}, fails while the other
        # worker is still scanning a later block
        skeleton = Complex.from_facets(f for f in itertools.combinations(range(15), 3)
                                       if not {0, 1} <= set(f))
        seq = is_tight_bruteforce(skeleton, GF2, jobs=1)
        par = is_tight_bruteforce(skeleton, GF2, jobs=2)
        assert (seq.verdict, seq.witness, seq.subsets_scanned) == \
            (par.verdict, par.witness, par.subsets_scanned) == (False, ((0, 1), 0), 1)
        assert multiprocessing.active_children() == []


class TestFast3Manifold:
    def test_boundary_delta4(self):
        r = is_tight_fast_3manifold(catalog.boundary_simplex(4), QQ)
        assert r.verdict and r.orientable and r.beta1 == 0

    def test_tight_quotient_over_gf2_and_q(self, tight9):
        m9, _ = tight9
        r2 = is_tight_fast_3manifold(m9, GF2)
        assert r2.verdict and r2.beta1 == 1 and r2.orientable
        rq = is_tight_fast_3manifold(m9, QQ)
        assert not rq.verdict and not rq.orientable

    def test_rejects_surfaces(self):
        with pytest.raises(PreconditionError):
            is_tight_fast_3manifold(catalog.icosahedron(), GF2)

    def test_rejects_non_manifolds(self):
        with pytest.raises(PreconditionError):
            is_tight_fast_3manifold(Complex.from_facets([(0, 1, 2, 3), (1, 2, 3, 4)]), GF2)

    def test_stacked_spheres_above_five_vertices_fail(self):
        from tighttri import stacked_sphere
        x = stacked_sphere(8, 3, seed=0)
        r = is_tight_fast_3manifold(x, GF2)
        assert not r.verdict  # orientable, but (f0-4)(f0-5) = 12 != 0


class TestSurfaceCriterion:
    def test_projective_plane(self):
        rp2 = catalog.projective_plane_6()
        assert is_tight_surface(rp2, GF2).verdict
        assert not is_tight_surface(rp2, QQ).verdict

    def test_icosahedron_never_tight(self):
        for field in (QQ, GF2, FieldSpec.gf(5)):
            r = is_tight_surface(catalog.icosahedron(), field)
            assert not r.verdict and not r.neighbourly

    def test_torus_7_tight_both_ways(self):
        t7 = catalog.torus_7()
        for field in (QQ, GF2):
            assert is_tight_surface(t7, field).verdict
            assert is_tight_bruteforce(t7, field).verdict

    def test_rejects_3_manifolds(self):
        with pytest.raises(PreconditionError):
            is_tight_surface(catalog.boundary_simplex(4), QQ)


class TestCrossValidate:
    def test_agree_true(self):
        cv = cross_validate(catalog.boundary_simplex(4), GF2)
        assert cv.verdict and cv.brute.verdict and cv.fast.verdict

    def test_disagreement_raises_with_both_reports(self, monkeypatch):
        real = tightness.is_tight_fast_3manifold
        monkeypatch.setattr(tightness, "is_tight_fast_3manifold",
                            lambda x, f: dataclasses.replace(real(x, f), verdict=False))
        with pytest.raises(InternalInconsistencyError) as info:
            cross_validate(catalog.boundary_simplex(4), GF2)
        assert info.value.brute.verdict and not info.value.fast.verdict

    def test_agree_false_on_suspension(self):
        x = catalog.suspension(catalog.boundary_simplex(3))
        cv = cross_validate(x, GF2)
        assert not cv.verdict

    def test_agree_on_tight_quotient(self, tight9):
        m9, _ = tight9
        assert cross_validate(m9, GF2).verdict
        assert not cross_validate(m9, QQ).verdict

    def test_agree_false_when_a_link_is_icosahedral(self):
        x = catalog.suspension(catalog.icosahedron())
        for field in (GF2, QQ):
            assert not cross_validate(x, field).verdict

    def test_corpus_witnesses_refail_in_isolation(self, corpus3):
        for name, x in corpus3:
            r = is_tight_bruteforce(x, GF2)
            if r.verdict or not x.is_connected():
                continue
            w, degree = r.witness
            v = induced_map_injective(x, w, GF2)
            assert not v.ok and v.witness[0] == degree, name
