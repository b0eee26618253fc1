import itertools
import random
from collections import Counter

import pytest

import oracle
from oracle import grow_search_sphere_facets, stacked_sphere_facets
from tighttri import (AdmissibilityError, Certificate, Complex, InternalInconsistencyError,
                      MalformedCertificateError, PreconditionError, UnsupportedDimensionError,
                      admissible_k, betti, catalog, classify_topology,
                      construct, find_admissible_handle, handle_addition, is_isomorphic,
                      is_orientable, is_stacked_sphere, is_tight_fast_3manifold, search_tight,
                      stacked_sphere, verify_closed_manifold, verify_stacked_certificate)
from tighttri.complexes import _check_closed_manifold
from tighttri.construct import (HandleStep, _closed_3_manifold_f_vector, _FacetMasks, _glue,
                                _grow_search_sphere, _keeps_orientation, _search_attempt)
from tighttri.linalg import GF2, QQ, FieldSpec


class TestStackedSphereGenerator:
    def test_minimal_is_simplex_boundary(self):
        assert is_isomorphic(stacked_sphere(5, 3), catalog.boundary_simplex(4)) is not None
        assert is_isomorphic(stacked_sphere(4, 2), catalog.boundary_simplex(3)) is not None

    def test_dimension_support(self):
        with pytest.raises(UnsupportedDimensionError):
            stacked_sphere(6, 4)

    def test_thirteen_vertex_f_vector(self):
        assert stacked_sphere(13, 3, seed=11).f_vector == (13, 42, 58, 29)

    def test_six_vertex_2_sphere_has_a_degree_3_vertex(self):
        s = stacked_sphere(6, 2, seed=4)
        assert s.f_vector == (6, 12, 8)
        assert min(len(s.neighbors(v)) for v in s.vertices) == 3

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            stacked_sphere(4, 3)

    def test_seed_determinism(self):
        assert stacked_sphere(12, 3, seed=7) == stacked_sphere(12, 3, seed=7)

    def test_draws_match_the_per_step_sort(self):
        # the bisected facet list draws what sorting the set afresh drew
        for seed in range(40):
            for d in (2, 3):
                n = d + 2 + 3 * seed
                assert stacked_sphere(n, d, seed=seed).facets == stacked_sphere_facets(n, d, seed)
            n = 13 + seed % 14
            rng, ref = random.Random(f"{seed}:0"), random.Random(f"{seed}:0")
            assert tuple(_grow_search_sphere(n, rng)) == grow_search_sphere_facets(n, ref)
            assert rng.getstate() == ref.getstate()

    def test_links_are_stacked_2_spheres(self):
        s = stacked_sphere(11, 3, seed=2)
        for v in s.vertices:
            assert is_stacked_sphere(s.link(v), 2).ok

    def test_rational_homology_is_a_3_sphere(self):
        assert betti(stacked_sphere(10, 3, seed=6), QQ) == (1, 0, 0, 1)


class TestHandleAddition:
    def test_seeded_addition_bookkeeping(self):
        done = 0
        for seed in range(60):
            x = stacked_sphere(22 + (seed % 9), 3, seed=seed)
            choice = find_admissible_handle(x, random.Random(seed))
            if choice is None:
                continue
            f1, f2, bijection = choice
            y = handle_addition(x, f1, f2, bijection)
            fx, fy = x.f_vector, y.f_vector
            assert tuple(a - b for a, b in zip(fx, fy)) == (4, 6, 4, 2)
            assert betti(y, GF2)[1] == betti(x, GF2)[1] + 1
            # chi stays zero for a closed 3-manifold
            assert fy[0] - fy[1] + fy[2] - fy[3] == 0
            done += 1
            if done == 3:
                return
        pytest.fail(f"only {done} admissible additions found in the sample")

    def test_intersecting_facets_rejected(self):
        x = stacked_sphere(13, 3, seed=0)
        facets = sorted(x.facets)
        f1 = facets[0]
        f2 = next(f for f in facets[1:] if set(f) & set(f1))
        with pytest.raises(AdmissibilityError):
            handle_addition(x, f1, f2, dict(zip(f1, f2)))

    def test_adjacent_identification_rejected(self):
        x = stacked_sphere(13, 3, seed=0)
        facets = sorted(x.facets)
        for f1 in facets:
            for f2 in facets:
                if set(f1) & set(f2):
                    continue
                for v in f1:
                    adjacent = sorted(s for s in x.neighbors(v) if s in f2)
                    if adjacent:
                        w = adjacent[0]
                        rest1 = [u for u in f1 if u != v]
                        rest2 = [u for u in f2 if u != w]
                        bijection = {v: w, **dict(zip(rest1, rest2))}
                        with pytest.raises(AdmissibilityError):
                            handle_addition(x, f1, f2, bijection)
                        return
        pytest.fail("no adjacent cross pair found")

    def test_extra_face_merges_rejected(self):
        # pairwise-admissible bijections that share an external neighbour must
        # be refused: the identification would merge two edges
        found = False
        for seed in range(30):
            x = stacked_sphere(16, 3, seed=seed)
            for f1, f2 in oracle.handle_sites(x):
                ext1 = {v: x.neighbors(v) - set(f1) for v in f1}
                ext2 = {w: x.neighbors(w) - set(f2) for w in f2}
                for perm in itertools.permutations(f2):
                    pairs = list(zip(f1, perm))
                    if any(w in x.neighbors(v) for v, w in pairs):
                        continue
                    if all(not (ext1[v] & ext2[w]) for v, w in pairs):
                        continue  # this one would succeed
                    with pytest.raises(AdmissibilityError):
                        handle_addition(x, f1, f2, dict(pairs))
                    found = True
                    break
                if found:
                    break
            if found:
                break
        assert found, "no merge-prone bijection located in the sample"

    def test_non_facet_site_rejected(self):
        x = stacked_sphere(13, 3, seed=0)
        f1 = next(f for f in itertools.combinations(x.vertices, 4) if f not in x.facets)
        f2 = next(f for f in sorted(x.facets) if not set(f) & set(f1))
        with pytest.raises(AdmissibilityError, match="both gluing sites must be facets"):
            handle_addition(x, f1, f2, dict(zip(f1, f2)))

    def test_bad_bijection_rejected(self):
        x = stacked_sphere(13, 3, seed=0)
        facets = sorted(x.facets)
        f1 = facets[0]
        f2 = next(f for f in facets if not set(f) & set(f1))
        with pytest.raises(AdmissibilityError):
            handle_addition(x, f1, f2, {f1[0]: f2[0]})

    def test_input_must_be_closed_3_manifold(self):
        with pytest.raises(PreconditionError):
            handle_addition(catalog.icosahedron(), (0, 1, 2), (6, 7, 8), {0: 6, 1: 7, 2: 8})


def test_candidate_sites_match_pairwise_definition():
    spheres = [stacked_sphere(18 + s % 13, 3, seed=s) for s in range(40)]
    search_spheres = [Complex.from_facets(_grow_search_sphere(13 + s % 8, random.Random(f"{s}:0")))
                      for s in range(40)]
    quotients = []
    for s, x in enumerate(spheres + search_spheres):
        choice = find_admissible_handle(x, random.Random(s))
        if choice is not None:
            quotients.append(handle_addition(x, *choice))
    assert len(quotients) >= 10
    # gapped labels in shuffled order, so that mask positions are not labels
    rng = random.Random(9)
    relabelled = []
    for x in spheres[:10] + search_spheres[:10] + quotients[:10]:
        labels = rng.sample(range(5, 4 * x.num_vertices), x.num_vertices)
        rename = dict(zip(x.vertices, labels))
        relabelled.append(Complex.from_facets([[rename[v] for v in f] for f in x.facets]))
    found = 0
    for x in spheres + search_spheres + quotients + relabelled:
        want = oracle.handle_sites(x)
        facets = sorted(x.facets)
        assert [(facets[i], facets[j]) for i, j in _FacetMasks(facets).sites()] == want
        found += len(want)
    assert found > 0


def assert_recorded_verdict(x: Complex) -> None:
    """The closed-manifold verdict was recorded when ``x`` was built, and
    equals the check's, recomputed on the same complex."""
    assert "_closed_manifold_verdict" in vars(x)
    assert verify_closed_manifold(x) == _check_closed_manifold(x)
    assert verify_closed_manifold(x).ok


def test_facet_list_f_vector_matches_the_complex():
    """The f-vector that a search restart reads off its sphere's facet
    list, with f2 = 2 f3 and f1 = f0 + f3, is the f-vector of the complex
    on those facets; so is that of each quotient."""
    for n in range(13, 27):
        for seed in range(5):
            rng = random.Random(f"{seed}:{n}")
            facets = _grow_search_sphere(n, rng)
            assert _closed_3_manifold_f_vector(facets) == Complex._from_faces(facets).f_vector
            choice = find_admissible_handle(Complex.from_facets(facets), rng)
            if choice is not None:
                quotient = handle_addition(Complex.from_facets(facets), *choice)
                assert _closed_3_manifold_f_vector(quotient.facets) == quotient.f_vector


def test_recorded_verdicts_match_the_check():
    """Stacked 2- and 3-spheres, k = 1 and k = 2 handle quotients, and the
    quotients of search restarts and of certificate replays.  A search
    sphere is only a facet list, which must be a closed 3-manifold, as the
    restart's gluing assumes without a check."""
    quotients = {1: 0, 2: 0}
    for s in range(60):
        for d in (2, 3):
            assert_recorded_verdict(stacked_sphere(d + 2 + s % 17, d, seed=s))
        rng = random.Random(f"{s}:0")
        if s % 2:
            x = Complex.from_facets(_grow_search_sphere(13 + s % 14, rng))
            assert verify_closed_manifold(x).ok and x.is_connected()
        else:
            x = stacked_sphere(20 + s % 9, 3, seed=s)
            assert_recorded_verdict(x)
        for k in (1, 2):
            choice = find_admissible_handle(x, rng)
            if choice is None:
                break
            x = handle_addition(x, *choice)
            assert_recorded_verdict(x)
            quotients[k] += 1
    assert quotients[1] >= 20 and quotients[2] >= 5
    replays = 0
    for restart in range(40):
        found = _search_attempt(7, restart, 1, 13, GF2)
        if found is None:
            continue
        assert_recorded_verdict(found[0])
        cert = found[1]
        current = cert.seed_complex()
        for step in cert.steps:
            current = handle_addition(current, step.facet1, step.facet2, dict(step.bijection))
            assert_recorded_verdict(current)
        assert current.f_vector == cert.final_f_vector
        replays += 1
    assert replays >= 5


def test_clash_table_matches_pairwise_search():
    """Same triple and same generator state afterwards, on stacked 3- and
    2-spheres, search spheres, quotients, relabelled copies and complexes
    with facets of two sizes."""
    spheres = [stacked_sphere(18 + s % 13, 3, seed=s) for s in range(150)]
    spheres += [stacked_sphere(12 + s % 15, 2, seed=s) for s in range(100)]
    spheres += [Complex.from_facets(_grow_search_sphere(13 + s % 8, random.Random(f"{s}:0")))
                for s in range(150)]
    rng = random.Random(5)
    extra = []
    for i, x in enumerate(spheres[::10]):
        labels = rng.sample(range(3, 4 * x.num_vertices), x.num_vertices)
        rename = dict(zip(x.vertices, labels))
        extra.append(Complex.from_facets([[rename[v] for v in f] for f in x.facets]))
        # a stacked 2-sphere sharing half its labels with x: sites that pair
        # a tetrahedron with a triangle, with clashes on both sides
        shift = x.num_vertices // 2
        glued = [tuple(v + shift for v in f) for f in stacked_sphere(x.num_vertices, 2, seed=i).facets]
        extra.append(Complex.from_facets(list(x.facets) + glued))
    found = {3: 0, 4: 0}
    for i, x in enumerate(spheres + extra):
        for seed in (i, i + 1000):
            mine, theirs = random.Random(seed), random.Random(seed)
            got = find_admissible_handle(x, mine)
            assert got == oracle.find_admissible_handle(x, theirs)
            assert mine.getstate() == theirs.getstate()
            if got is not None:
                found[len(got[0])] += 1
                if seed == i and i < len(spheres) and len(got[0]) == 4:
                    assert handle_addition(x, *got).f_vector[0] == x.f_vector[0] - 4
    assert found[3] >= 20 and found[4] >= 50


def coherent(signed: dict) -> bool:
    """Whether the facet signs orient the closed 3-manifold on the facets:
    the boundaries of the signed facets cancel on every triangle."""
    total = Counter()
    for f, sign in signed.items():
        for i in range(4):
            total[f[:i] + f[i + 1:]] += sign * (-1) ** i
    return not any(total.values())


def test_search_sphere_signs_are_an_orientation():
    for n in range(5, 40):
        for seed in range(5):
            signed = _grow_search_sphere(n, random.Random(f"{seed}:{n}"))
            assert set(signed.values()) == {1, -1} and coherent(signed)
            flipped = dict(signed)
            flipped[next(iter(flipped))] *= -1
            assert not coherent(flipped)


def test_sign_verdict_matches_orientability_at_k1():
    """Every quotient that restarts 0-1999 of three seeds reach at k = 1:
    the sign rule says whether the handle keeps the orientation exactly
    when the quotient is orientable over GF(3) and Q, which it never is,
    since the orientable S^2-bundle over S^1 needs 10 vertices (Walkup).
    So the restart's look-ahead finds no handle that keeps the
    orientation, and finds one that passes the clash table exactly when
    the draw does."""
    reached = 0
    for seed in (7, 11, 12):
        for restart in range(2000):
            rng = random.Random(f"{seed}:{restart}")
            signed = _grow_search_sphere(13, rng)
            masks = _FacetMasks(list(signed))
            sites = masks.sites()
            assert not masks.admits(sites, signed)
            drawable = masks.admits(sites, None)
            choice = masks.find_handle(rng, sites)
            assert drawable == (choice is not None)
            if choice is None:
                continue
            quotient, by_size = _glue(signed, *choice)
            x = Complex._from_closure(by_size, pure=True)
            assert x == Complex.from_facets(quotient)
            keeps = _keeps_orientation(signed, *choice)
            assert keeps == is_orientable(x, FieldSpec.gf(3)) == is_orientable(x, QQ) == coherent(quotient)
            assert not keeps
            reached += 1
    assert reached >= 2000


def test_sign_verdict_matches_orientability_along_handles():
    """Two to four handles drawn the way ``corpus.two_handle_quotient``
    draws them, on the complex: after each, the quotient is orientable
    over GF(3) and Q exactly when every handle so far kept the
    orientation by the sign rule, and then the carried signs orient it.
    The spheres have 45 vertices, on which four handles often fit."""
    steps = Counter()
    for seed in range(160):
        rng = random.Random(seed)
        signed = _grow_search_sphere(45, rng)
        x = Complex.from_facets(signed)
        kept = True
        for handles in range(1, 5):
            choice = find_admissible_handle(x, rng)
            if choice is None:
                break
            kept = kept and _keeps_orientation(signed, *choice)
            signed, _ = _glue(signed, *choice)
            x = handle_addition(x, *choice)
            assert x.facets == tuple(signed)
            assert is_orientable(x, FieldSpec.gf(3)) == is_orientable(x, QQ) == kept
            assert coherent(signed) == kept
            steps[handles, kept] += 1
    assert all(steps[h, kept] >= 5 for h in (2, 3, 4) for kept in (True, False)), steps


def criterion_attempt(seed, restart: int, k: int, n: int, field):
    """A search restart as it was before it accepted on orientability: it
    gave up on a failed handle addition and on a quotient that is not
    neighbourly, and accepted on the polynomial criterion.  Returns its
    outcome and the quotient it built, or None if it built none."""
    rng = random.Random(f"{seed}:{restart}")
    sphere = Complex.from_facets(_grow_search_sphere(n, rng))
    current = sphere
    steps = []
    for _ in range(k):
        choice = find_admissible_handle(current, rng)
        if choice is None:
            return None, None
        f1, f2, bijection = choice
        try:
            current = handle_addition(current, f1, f2, bijection)
        except AdmissibilityError:
            return None, None
        steps.append(HandleStep.make(f1, f2, bijection))
    if not current.is_neighbourly() or not is_tight_fast_3manifold(current, field).verdict:
        return None, current
    cert = Certificate(seed_facets=tuple(sorted(sphere.facets)), steps=tuple(steps),
                       final_f_vector=current.f_vector, rng_seed=f"{seed}:{restart}")
    return (current, cert), current


class TestAdmissibleK:
    def test_table_to_600(self):
        table = admissible_k(600)
        assert [(a.k, a.f0) for a in table] == \
            [(1, 9), (30, 29), (99, 49), (208, 69), (357, 89), (546, 109)]

    def test_square_identity(self):
        import math
        for a in admissible_k(10_000):
            s = math.isqrt(80 * a.k + 1)
            assert s * s == 80 * a.k + 1
            assert a.f0 == (9 + s) // 2
            assert (a.f0 - 4) * (a.f0 - 5) == 20 * a.k

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            admissible_k(0)

    def test_small_limits(self):
        assert [(a.k, a.f0) for a in admissible_k(1)] == [(1, 9)]
        assert [(a.k, a.f0) for a in admissible_k(29)] == [(1, 9)]


class TestSearch:
    def test_k2_is_inadmissible(self):
        with pytest.raises(ValueError):
            search_tight(2, GF2, budget=10, seed=0)

    def test_k1_over_gf2(self, tight9):
        m9, cert = tight9
        assert m9.f_vector == (9, 36, 54, 27)
        assert m9.is_neighbourly()
        assert betti(m9, GF2)[1] == 1
        assert not is_orientable(m9, QQ)
        assert len(cert.steps) == 1
        assert verify_stacked_certificate(m9, cert).ok

    def test_k1_over_q_finds_nothing(self):
        assert search_tight(1, QQ, budget=120, seed=0) is None

    def test_k1_over_gf3_finds_nothing(self):
        # a closed manifold is GF(3)-orientable iff it is orientable
        assert search_tight(1, FieldSpec.gf(3), budget=120, seed=0) is None

    @pytest.mark.parametrize("field", [GF2, FieldSpec.gf(3), QQ], ids=str)
    def test_restarts_match_the_criterion_acceptance(self, field):
        """Accepting on orientability gives the outcome that skipping failed
        handle additions and non-neighbourly quotients and then asking the
        polynomial criterion gave; every quotient built is neighbourly
        with beta_1 = 1."""
        built = 0
        for seed in (7, 11):
            for restart in range(200):
                want, quotient = criterion_attempt(seed, restart, 1, 13, field)
                assert _search_attempt(seed, restart, 1, 13, field) == want
                if quotient is not None:
                    built += 1
                    assert quotient.is_neighbourly() and betti(quotient, field)[1] == 1
        assert built >= 100

    @pytest.mark.parametrize("field", [GF2, FieldSpec.gf(3), QQ], ids=str)
    def test_restarts_match_the_complex_reference(self, field, monkeypatch):
        """A restart on facet lists and masks returns what the restart on
        complexes, with sites and gluing checked pair by pair, returns: the
        same quotient and certificate, or None.  Over GF(2) every quotient
        is orientable, so each one built is compared.

        A restart ends in one of three ways, counted here: before drawing,
        as no site admits a handle (over an odd field, one that keeps the
        orientation); over an odd field, on a drawn handle that breaks the
        orientation although one that keeps it exists; or accepted.  The
        pinned k = 2 restarts are accepted over every field."""
        admits, keeps = _FacetMasks.admits, construct._keeps_orientation
        last = []

        def spy(name, decide):
            def call(*args):
                last.append((name, decide(*args)))
                return last[-1][1]
            return call

        monkeypatch.setattr(_FacetMasks, "admits", spy("admits", admits))
        monkeypatch.setattr(construct, "_keeps_orientation", spy("keeps", keeps))
        seeds = [7, 11, *range(6), *range(1000, 1006), *range(2_000_000, 2_000_004),
                 *range(3_000_000, 3_000_006)]
        # the pair-by-pair reference takes seconds at 37 vertices
        cases = [(seed, restart, k, n) for seed in seeds
                 for k, n, restarts in ((1, 13, 8), (2, 17, 8), (2, 21, 8), (3, 29, 3), (4, 37, 2))
                 for restart in range(restarts)]
        pins = [(12, 83, 2, 21), (12, 85, 2, 21)]
        ends = Counter()
        for case in cases + pins:
            last.clear()
            got = _search_attempt(*case, field)
            assert got == oracle.search_attempt(*case, field), case
            end = "accepted" if got else "before drawing" if last[-1] == ("admits", False) else "not drawn"
            ends[case[2], end] += 1
            assert end == "accepted" or case not in pins
        # per k: accepted, returned before drawing, drawn handle not kept
        if field == GF2:
            want = {1: (68, 124, 0), 2: (13, 373, 0), 3: (4, 68, 0), 4: (5, 43, 0)}
        else:
            want = {1: (0, 192, 0), 2: (3, 213, 170), 3: (1, 15, 56), 4: (0, 4, 44)}
        assert {k: (ends[k, "accepted"], ends[k, "before drawing"], ends[k, "not drawn"])
                for k in want} == want, ends

    @pytest.mark.parametrize("confirm_max", [12, 0])
    def test_a_quotient_that_is_not_tight_raises(self, monkeypatch, confirm_max):
        """If a restart accepted a non-orientable quotient, the check before
        returning (definitional, or polynomial above the cut-off) raises.
        Each restart here accepts as it would over GF(2), where every
        quotient is orientable."""
        attempt = construct._search_attempt
        monkeypatch.setattr(construct, "_search_attempt",
                            lambda seed, restart, k, n, field: attempt(seed, restart, k, n, GF2))
        monkeypatch.setattr(construct, "BRUTE_CONFIRM_MAX_VERTICES", confirm_max)
        with pytest.raises(InternalInconsistencyError):
            search_tight(1, QQ, budget=40, seed=0)

    def test_determinism(self, tight9):
        again = search_tight(1, GF2, budget=2000, seed=0)
        assert again[0] == tight9[0] and again[1] == tight9[1]

    def test_parallel_matches_sequential(self, tight9):
        par = search_tight(1, GF2, budget=2000, seed=0, jobs=2)
        assert par[0] == tight9[0] and par[1] == tight9[1]

    def test_certificate_roundtrips_through_json(self, tight9):
        _, cert = tight9
        assert Certificate.from_dict(cert.to_dict()) == cert

    @pytest.mark.parametrize("change,message", [
        ({"seed_facets": [[0, 1, 2, "3"]]}, "'seed_facets' must be a list of integers"),
        ({"steps": [[0, 1]]}, "'steps' must be a list of objects"),
        ({"seed_params": 5}, "'seed_params' must be a list"),
    ])
    def test_malformed_certificates_rejected(self, tight9, change, message):
        doc = dict(tight9[1].to_dict(), **change)
        with pytest.raises(MalformedCertificateError, match=message):
            Certificate.from_dict(doc)


class TestClassify:
    def test_empty_certificate_is_s3(self):
        b4 = catalog.boundary_simplex(4)
        cert = Certificate(seed_facets=tuple(sorted(b4.facets)), steps=(),
                           final_f_vector=b4.f_vector)
        topo = classify_topology(b4, cert)
        assert topo.kind == "S3" and topo.k == 0

    def test_tight_quotient_is_the_twisted_product(self, tight9):
        m9, cert = tight9
        topo = classify_topology(m9, cert)
        assert topo.kind == "nonorientable-handle-sum" and topo.k == 1
        assert str(topo) == "nonorientable-handle-sum(1)"

    def test_orientable_handle_instance(self):
        # hunt deterministically for a handle whose quotient stays orientable
        for seed in range(40):
            x = stacked_sphere(20 + (seed % 8), 3, seed=seed)
            choice = find_admissible_handle(x, random.Random(seed))
            if choice is None:
                continue
            f1, f2, bijection = choice
            y = handle_addition(x, f1, f2, bijection)
            if betti(y, QQ)[3] != 1:
                continue
            cert = Certificate(seed_facets=tuple(sorted(x.facets)),
                               steps=(HandleStep.make(f1, f2, bijection),),
                               final_f_vector=y.f_vector)
            topo = classify_topology(y, cert)
            assert topo.kind == "orientable-handle-sum" and topo.k == 1
            assert betti(y, GF2)[1] == 1
            return
        pytest.fail("no orientable handle quotient found in the sample")

    def test_failing_certificate_rejected(self, tight9):
        m9, cert = tight9
        with pytest.raises(PreconditionError):
            classify_topology(catalog.boundary_simplex(4), cert)
