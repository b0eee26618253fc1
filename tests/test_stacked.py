import itertools
import random
from collections import Counter

import pytest

from tighttri import (Complex, PreconditionError, Verdict, catalog, connected_sum,
                      decompose_ti, induced_cycles, is_isomorphic,
                      is_locally_stacked, is_stacked_sphere, mod3_obstruction,
                      stacked_sphere, verify_closed_manifold, verify_stacked_certificate)
from tighttri.construct import Certificate, HandleStep
from tighttri.stacked import HypothesisViolationError
from corpus import random_ti_sum
import oracle
from oracle import empty_triangle, split_at_triangle


def exhaustive_stacked(s, d):
    """Oracle: backtracking over every admissible removal order."""
    if s.num_vertices == d + 2:
        return is_isomorphic(s, catalog.boundary_simplex(d + 1)) is not None
    for v in s.vertices:
        link_vertices = tuple(sorted(s.link(v).vertex_set))
        if len(link_vertices) != d + 1 or s.has_face(link_vertices):
            continue
        nxt = Complex.from_facets(
            [f for f in s.facets if v not in f] + [link_vertices])
        if exhaustive_stacked(nxt, d):
            return True
    return False


class TestStackedSphereRecognition:
    def test_base_case(self):
        v = is_stacked_sphere(catalog.boundary_simplex(4), 3)
        assert v.ok and v.witness == ()

    def test_triple_connected_sum(self):
        b = catalog.boundary_simplex(4)
        s = connected_sum(b, b, (0, 1, 2, 3), (0, 1, 2, 3), {i: i for i in range(4)})
        f = s.facets[3]
        s = connected_sum(s, b, f, (0, 1, 2, 3), dict(zip(range(4), f)))
        v = is_stacked_sphere(s, 3)
        assert v.ok and len(v.witness) == s.num_vertices - 5

    def test_icosahedron_is_not_stacked(self):
        assert not is_stacked_sphere(catalog.icosahedron(), 2).ok

    def test_octahedron_is_not_stacked(self):
        octa = catalog.suspension(catalog.cycle_complex(4))
        assert not is_stacked_sphere(octa, 2).ok

    def test_projective_plane_is_not_a_sphere(self):
        assert not is_stacked_sphere(catalog.projective_plane_6(), 2).ok

    def test_generated_spheres_verify(self):
        for seed in range(5):
            assert is_stacked_sphere(stacked_sphere(9, 2, seed=seed), 2).ok
            assert is_stacked_sphere(stacked_sphere(10, 3, seed=seed), 3).ok

    def test_disjoint_spheres_are_not_a_sphere(self):
        b = catalog.boundary_simplex(4)
        two = Complex.from_facets(list(b.facets) + [tuple(v + 5 for v in f) for f in b.facets])
        v = is_stacked_sphere(two, 3)
        assert not v.ok and v.detail == "disconnected, hence not a sphere"

    def test_non_manifold_rejected(self):
        with pytest.raises(PreconditionError):
            is_stacked_sphere(Complex.from_facets([(0, 1, 2), (0, 1, 3)]), 2)

    def test_dimension_support(self):
        with pytest.raises(ValueError):
            is_stacked_sphere(catalog.cycle_complex(4), 1)

    def test_greedy_matches_exhaustive_search(self):
        cases = [stacked_sphere(n, 2, seed=s) for n in range(4, 10) for s in range(3)]
        cases += [catalog.suspension(catalog.cycle_complex(4)),
                  catalog.suspension(catalog.cycle_complex(5))]
        for s in cases:
            assert is_stacked_sphere(s, 2).ok == exhaustive_stacked(s, 2)

    def test_removal_sequence_replays(self):
        s = stacked_sphere(11, 3, seed=8)
        v = is_stacked_sphere(s, 3)
        assert v.ok
        current = s
        for vertex in v.witness:
            link_vertices = tuple(sorted(current.link(vertex).vertex_set))
            current = Complex.from_facets(
                [f for f in current.facets if vertex not in f] + [link_vertices])
        assert is_isomorphic(current, catalog.boundary_simplex(4)) is not None


def reference_is_stacked_sphere(s, d):
    """The recogniser before it ran on a facet set: it rebuilt the complex
    after every removal and compared the remainder with the simplex
    boundary by isomorphism search."""
    assert verify_closed_manifold(s).ok and s.dim == d
    if not s.is_connected():
        return Verdict(False, detail="disconnected, hence not a sphere")
    current = s
    removals = []
    while current.num_vertices > d + 2:
        pick = None
        for v in current.vertices:
            link_vertices = tuple(sorted(current.neighbors(v)))
            if len(link_vertices) == d + 1 and not current.has_face(link_vertices):
                pick = v
                break
        if pick is None:
            return Verdict(False, witness=tuple(removals),
                           detail=f"no reverse-subdivision vertex at f0={current.num_vertices}")
        removals.append(pick)
        current = Complex.from_facets(
            [f for f in current.facets if pick not in f] + [link_vertices])
    if is_isomorphic(current, catalog.boundary_simplex(d + 1)) is None:
        return Verdict(False, witness=tuple(removals),
                       detail="irreducible remainder is not a simplex boundary")
    return Verdict(True, witness=tuple(removals))


def acceptance_sums():
    """The 200 T/I sums of acceptance criterion 06, same seed and order."""
    rng = random.Random(20160108)
    return [random_ti_sum(rng, max_summands=6)[0] for _ in range(200)]


def suspended_cycles():
    return [catalog.suspension(catalog.cycle_complex(k)) for k in range(3, 10)]


def prime_pieces(s):
    """The prime pieces ``decompose_ti`` cuts a 2-sphere into, by the
    reference cut."""
    stack, out = [s], []
    while stack:
        piece = stack.pop()
        tri = empty_triangle(piece)
        if tri is None:
            out.append(piece)
        else:
            stack.extend(split_at_triangle(piece, tri))
    return out


class TestCountingRecognition:
    def test_facet_set_recogniser_matches_the_reference(self, quotient_bank):
        cases = [(x, 2) for x in acceptance_sums() + suspended_cycles()]
        cases += [(catalog.projective_plane_6(), 2), (catalog.torus_7(), 2),
                  (catalog.icosahedron(), 2)]
        cases += [(stacked_sphere(n, d, seed=seed), d)
                  for d in (2, 3) for n in range(d + 2, 40, 3) for seed in range(3)]
        cases += [(m.link(v), 2) for m, _ in quotient_bank for v in m.vertices]
        cases += [(m, 3) for m, _ in quotient_bank]
        verdicts = Counter()
        for x, d in cases:
            got = is_stacked_sphere(x, d)
            assert got == reference_is_stacked_sphere(x, d), (x.facets, d)
            verdicts[got.ok] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_heap_matches_the_greedy_scan(self, quotient_bank):
        """The heap of degree-(d+1) vertices gives the greedy scan's verdict,
        removal sequence and failure witness, on large stacked spheres, on
        shuffled labels, and on spheres and manifolds where the removals
        stop part-way: T/I sums with icosahedra, and stacked 3-spheres
        summed with a quotient."""
        rng = random.Random(3)
        cases = [(x, 2) for x in acceptance_sums()[:60]]
        cases += [(stacked_sphere(n, d, seed=seed), d)
                  for d in (2, 3) for n in (50, 300, 1200) for seed in range(2)]
        for d in (2, 3):
            x = stacked_sphere(400, d, seed=5)
            labels = rng.sample(range(3 * x.num_vertices), x.num_vertices)
            rename = dict(zip(x.vertices, labels))
            cases.append((Complex.from_facets([[rename[v] for v in f] for f in x.facets]), d))
        for i, (m, _) in enumerate(quotient_bank[:3]):
            cases.append((m, 3))
            x = stacked_sphere(60 + 20 * i, 3, seed=i)
            fx, fm = sorted(x.facets)[i], sorted(m.facets)[0]
            cases.append((connected_sum(x, m, fx, fm, dict(zip(fm, fx))), 3))
        verdicts = Counter()
        for x, d in cases:
            got = is_stacked_sphere(x, d)
            assert got == oracle.is_stacked_sphere(x, d), (x.f_vector, d)
            verdicts[got.ok, bool(got.witness)] += 1
        assert verdicts[True, True] >= 10 and verdicts[False, True] >= 10, verdicts

    def test_counts_recognise_the_summands(self):
        tetra, icosa = catalog.boundary_simplex(3), catalog.icosahedron()
        kinds = Counter()
        for s in acceptance_sums() + suspended_cycles() + [stacked_sphere(12, 2, seed=1)]:
            for piece in prime_pieces(s):
                is_t = piece.num_vertices == 4
                is_i = all(len(piece.neighbors(v)) == 5 for v in piece.vertices)
                assert is_t == (is_isomorphic(piece, tetra) is not None), piece.facets
                assert is_i == (is_isomorphic(piece, icosa) is not None), piece.facets
                kinds["T" if is_t else "I" if is_i else "other"] += 1
        assert min(kinds.values()) > 0, kinds


class TestInducedCycles:
    def test_plain_cycle(self):
        out = induced_cycles(catalog.cycle_complex(7), 7)
        assert len(out) == 1
        assert out[0].length == 7 and out[0].residue == 1
        assert out[0].vertices == (0, 1, 2, 3, 4, 5, 6)

    def test_matches_exhaustive_subset_oracle_on_icosahedron(self):
        g = catalog.icosahedron().one_skeleton()
        mine = {frozenset(c.vertices) for c in induced_cycles(g, 12)}
        oracle = set()
        for size in range(3, 13):
            for w in itertools.combinations(g.vertices, size):
                sub = g.induced(w)
                if sub.num_vertices == size and sub.is_connected() and \
                        all(len(sub.neighbors(v)) == 2 for v in sub.vertex_set):
                    oracle.add(frozenset(w))
        assert mine == oracle

    def test_icosahedron_contains_the_pentagon_witnesses(self):
        cycles = {c.vertices for c in induced_cycles(catalog.icosahedron().one_skeleton(), 12)}
        assert (0, 2, 10, 9, 5) in cycles
        assert (0, 1, 10, 11, 3) in cycles
        assert (0, 3, 7, 8, 5) in cycles
        assert (0, 1, 9, 8, 4) in cycles

    def test_icosahedron_has_no_residue_one_cycles(self):
        assert all(c.residue != 1
                   for c in induced_cycles(catalog.icosahedron().one_skeleton(), 12))

    def test_cycle_longer_than_the_recursion_limit(self):
        out = induced_cycles(catalog.cycle_complex(1100), 1100)
        assert [c.length for c in out] == [1100]

    def test_max_len_cuts_off(self):
        assert induced_cycles(catalog.cycle_complex(9), 8) == []

    def test_rejects_higher_dimensional_input(self):
        with pytest.raises(PreconditionError):
            induced_cycles(catalog.boundary_simplex(3), 5)

    def test_rejects_length_bounds_below_three(self):
        g = catalog.icosahedron().one_skeleton()
        for max_len in (-3, 2):
            with pytest.raises(PreconditionError):
                induced_cycles(g, max_len)


class TestMod3Obstruction:
    def test_tetrahedron_boundary(self):
        assert mod3_obstruction(catalog.boundary_simplex(3)).ok

    def test_four_cycle(self):
        v = mod3_obstruction(catalog.cycle_complex(4))
        assert not v.ok and v.witness.length == 4

    def test_icosahedron(self):
        assert mod3_obstruction(catalog.icosahedron()).ok

    def test_links_of_tight_quotient(self, tight9):
        m9, _ = tight9
        for v in m9.vertices:
            assert mod3_obstruction(m9.link(v)).ok


class TestMoebius:
    def test_every_link_of_projective_plane(self):
        rp2 = catalog.projective_plane_6()
        for v in rp2.vertices:
            link = rp2.link(v)
            cycles = induced_cycles(link, 5)
            assert len(cycles) == 1
            band = rp2.induced(cycles[0].vertices)
            assert is_isomorphic(band, catalog.moebius_band_5()) is not None


class TestTriangleBound:
    def test_links_of_tight_quotient(self, tight9):
        m9, _ = tight9
        for v in m9.vertices:
            link = m9.link(v).one_skeleton()
            for c in induced_cycles(link, 3):
                assert m9.has_face(c.vertices)


class TestLocallyStacked:
    def test_boundary_delta4(self):
        assert is_locally_stacked(catalog.boundary_simplex(4)).ok

    def test_tight_quotient(self, tight9):
        assert is_locally_stacked(tight9[0]).ok

    def test_suspension_of_icosahedron_fails(self):
        x = catalog.suspension(catalog.icosahedron())
        v = is_locally_stacked(x)
        assert not v.ok
        assert not is_stacked_sphere(x.link(v.witness), 2).ok

    def test_rejects_surfaces(self):
        with pytest.raises(PreconditionError):
            is_locally_stacked(catalog.icosahedron())


class TestDecomposition:
    def test_tetrahedron(self):
        s = decompose_ti(catalog.boundary_simplex(3))
        assert s.as_dict() == {"T": 1, "I": 0} and s.cuts == ()

    def test_icosahedron_is_prime(self):
        s = decompose_ti(catalog.icosahedron())
        assert s.as_dict() == {"T": 0, "I": 1}

    def test_t_i_t_roundtrip(self):
        rng = random.Random(5)
        t, i = catalog.boundary_simplex(3), catalog.icosahedron()
        x = connected_sum(t, i, (0, 1, 2), (0, 1, 2), {0: 1, 1: 2, 2: 0})
        f = sorted(x.facets)[rng.randrange(len(x.facets))]
        x = connected_sum(x, t, f, (0, 1, 2), dict(zip((0, 1, 2), f)))
        s = decompose_ti(x)
        assert s.as_dict() == {"T": 2, "I": 1}
        assert len(s.cuts) == 2

    def test_stacked_spheres_are_pure_t(self):
        for n, seed in ((4, 0), (7, 1), (10, 2)):
            s = decompose_ti(stacked_sphere(n, 2, seed=seed))
            assert s.as_dict() == {"T": n - 3, "I": 0}
            assert len(s.cuts) == n - 4

    def test_octahedron_violates_the_cycle_hypothesis(self):
        octa = catalog.suspension(catalog.cycle_complex(4))
        with pytest.raises(HypothesisViolationError) as exc:
            decompose_ti(octa)
        assert exc.value.witness.length % 3 == 1

    def test_rejects_non_spheres(self):
        with pytest.raises(PreconditionError):
            decompose_ti(catalog.projective_plane_6())
        with pytest.raises(PreconditionError):
            decompose_ti(catalog.torus_7())

    def test_cut_sides_partition_vertices(self):
        x, _ = random_ti_sum(random.Random(17), max_summands=4)
        s = decompose_ti(x)
        for tri, (left, right) in s.cuts:
            assert set(tri) == set(left) & set(right)

    def test_multiset_invariant_under_gluing_choices(self):
        t, i = catalog.boundary_simplex(3), catalog.icosahedron()
        for seed in range(4):
            rng = random.Random(seed)
            fx = sorted(i.facets)[rng.randrange(20)]
            perm = list(fx)
            rng.shuffle(perm)
            x = connected_sum(i, t, fx, (0, 1, 2), dict(zip((0, 1, 2), perm)))
            assert decompose_ti(x).as_dict() == {"T": 1, "I": 1}


class TestCertificateReplay:
    def test_empty_certificate(self):
        b4 = catalog.boundary_simplex(4)
        cert = Certificate(seed_facets=tuple(sorted(b4.facets)), steps=(),
                           final_f_vector=b4.f_vector)
        assert verify_stacked_certificate(b4, cert).ok

    def test_search_certificate(self, tight9):
        m9, cert = tight9
        assert verify_stacked_certificate(m9, cert).ok

    def test_non_stacked_seed_fails(self):
        # a valid 3-sphere that is not stacked: the suspension of the octahedron
        octa3 = catalog.suspension(catalog.suspension(catalog.cycle_complex(4)))
        cert = Certificate(seed_facets=tuple(sorted(octa3.facets)), steps=(),
                           final_f_vector=octa3.f_vector)
        v = verify_stacked_certificate(octa3, cert)
        assert not v.ok and "stacked" in v.detail

    def test_final_mismatch(self, tight9):
        _, cert = tight9
        other = catalog.boundary_simplex(4)
        assert not verify_stacked_certificate(other, cert).ok

    def test_final_f_vector_differs(self):
        b4 = catalog.boundary_simplex(4)
        cert = Certificate(seed_facets=tuple(sorted(b4.facets)), steps=(),
                           final_f_vector=(6, 15, 20, 10))
        v = verify_stacked_certificate(b4, cert)
        assert (v.ok, v.witness, v.detail) == \
            (False, b4.f_vector, "replayed f-vector differs from the certificate")

    def test_adjacent_matched_step_raises(self):
        from tighttri import AdmissibilityError
        s = stacked_sphere(13, 3, seed=0)
        facets = sorted(s.facets)
        f1 = facets[0]
        f2 = next(f for f in facets if not set(f) & set(f1))
        # force an adjacent identification
        bijection = {v: w for v, w in zip(f1, f2)}
        v0 = f1[0]
        adjacent = next(iter(s.neighbors(v0) & set(f2)), None)
        if adjacent is not None:
            other = bijection[v0]
            for k, val in bijection.items():
                if val == adjacent:
                    bijection[k] = other
            bijection[v0] = adjacent
        cert = Certificate(seed_facets=tuple(facets),
                           steps=(HandleStep.make(f1, f2, bijection),),
                           final_f_vector=(9, 36, 54, 27))
        with pytest.raises(AdmissibilityError):
            verify_stacked_certificate(s, cert)
