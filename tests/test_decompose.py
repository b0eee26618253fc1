"""Differential tests of the T/I decomposition against the reference it
replaced, which searched the whole sphere for a chordless cycle of length
= 1 (mod 3) before cutting and split each piece by a facet-adjacency search.
The reference finds empty triangles and cycles with the exhaustive code in
``oracle.py``, not with the library's.
Every input must give the same summands and cuts, or the same exception
type, message and witness.

The three largest input families (300 spheres) are compared with the
reference's outcomes recorded in ``decompose_reference.json``, because the
reference spends seconds on them; a few entries of each are replayed
through the live reference on every run, so the file cannot drift.  To
re-record it, run ``PYTHONPATH=src:scripts python tests/test_decompose.py``.

``mod3_obstruction`` and ``induced_cycles`` are compared the same way with
the exhaustive search in ``oracle.py``: live on a sample of spheres and on
seeded graphs, and on every recorded sphere through the recorded witness.
"""

import dataclasses
import hashlib
import itertools
import json
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List

import pytest

from tighttri import (Complex, HypothesisViolationError, PreconditionError, SummandList,
                      Verdict, catalog, decompose_ti, induced_cycles, mod3_obstruction,
                      stacked_sphere, verify_closed_manifold)
from tighttri import stacked
from tighttri.catalog import boundary_simplex, icosahedron
from tighttri.complexes import is_isomorphic

from corpus import glue, random_ti_sum, ti_sum
from oracle import empty_triangle
from oracle import induced_cycles as reference_induced_cycles
from oracle import mod3_obstruction as reference_mod3_obstruction


# -- reference: up-front obstruction, facet-adjacency split --------------------

def _ref_split_at_triangle(s: Complex, tri: tuple):
    cut_edges = {tri[:2], tri[::2], tri[1:]}
    edge_to_facets: Dict[tuple, List[tuple]] = {}
    for f in s.facets:
        for e in (f[:2], f[::2], f[1:]):
            edge_to_facets.setdefault(e, []).append(f)
    facets = list(s.facets)
    comp_of: Dict[tuple, int] = {}
    comp_id = 0
    for start in facets:
        if start in comp_of:
            continue
        stack = [start]
        comp_of[start] = comp_id
        while stack:
            f = stack.pop()
            for e in (f[:2], f[::2], f[1:]):
                if e in cut_edges:
                    continue
                for g in edge_to_facets[e]:
                    if g not in comp_of:
                        comp_of[g] = comp_id
                        stack.append(g)
        comp_id += 1
    if comp_id != 2:
        raise HypothesisViolationError(
            f"empty triangle {tri} does not separate the facets into two sides",
            witness=tri)
    sides = [[], []]
    for f, c in comp_of.items():
        sides[c].append(f)
    side_complexes = []
    vertex_sets = []
    for part in sides:
        part.append(tri)
        side = Complex.from_facets(part)
        side_complexes.append(side)
        vertex_sets.append(side.vertex_set)
    if vertex_sets[0] & vertex_sets[1] != set(tri):
        raise HypothesisViolationError(
            f"sides of the cut at {tri} share vertices beyond the triangle",
            witness=tri)
    side_complexes.sort(key=lambda c: min(c.vertex_set - set(tri)))
    return side_complexes[0], side_complexes[1]


def reference_decompose_ti(s: Complex) -> SummandList:
    if s.dim != 2:
        raise PreconditionError(f"not a triangulated 2-sphere: dimension {s.dim}")
    man = verify_closed_manifold(s)
    if not man.ok:
        raise PreconditionError(f"not a triangulated 2-sphere: {man.detail}")
    if not s.is_connected():
        raise PreconditionError("not a triangulated 2-sphere: disconnected")
    f = s.f_vector
    if f[0] - f[1] + f[2] != 2:
        raise PreconditionError("not a 2-sphere: Euler characteristic differs from 2")
    obstruction = reference_mod3_obstruction(s)
    if not obstruction.ok:
        raise HypothesisViolationError(
            f"sphere has a chordless cycle of length = 1 (mod 3): {obstruction.witness.vertices}",
            witness=obstruction.witness)
    counts: Counter = Counter()
    cuts: List[tuple] = []
    stack = [s]
    tetra = boundary_simplex(3)
    icosa = icosahedron()
    while stack:
        piece = stack.pop()
        tri = empty_triangle(piece)
        if tri is None:
            if is_isomorphic(piece, tetra) is not None:
                counts["T"] += 1
            elif is_isomorphic(piece, icosa) is not None:
                counts["I"] += 1
            else:
                raise HypothesisViolationError(
                    f"prime summand with f-vector {piece.f_vector} is neither "
                    "the tetrahedron nor the icosahedron boundary")
            continue
        left, right = _ref_split_at_triangle(piece, tri)
        cuts.append((tri, (tuple(sorted(left.vertex_set)), tuple(sorted(right.vertex_set)))))
        stack.append(right)
        stack.append(left)
    return SummandList(counts["T"], counts["I"], tuple(cuts))


def outcome(decompose, x: Complex) -> tuple:
    try:
        r = decompose(x)
    except (HypothesisViolationError, PreconditionError) as e:
        return type(e), str(e), e.witness if isinstance(e, HypothesisViolationError) else None
    return r.as_dict(), r.cuts


def assert_same(x: Complex) -> tuple:
    got = outcome(decompose_ti, x)
    assert got == outcome(reference_decompose_ti, x)
    return got


# -- input families -------------------------------------------------------------

def flips(x: Complex, rng: random.Random):
    """Every edge flip of a 2-sphere that keeps it simplicial, in seeded order."""
    edges = list(x.faces(1))
    rng.shuffle(edges)
    for a, b in edges:
        tris = [t for t in x.faces(2) if a in t and b in t]
        c, d = (next(v for v in t if v not in (a, b)) for t in tris)
        if x.has_face((c, d)):
            continue
        facets = [f for f in x.facets if f not in tris]
        facets += [tuple(sorted((a, c, d))), tuple(sorted((b, c, d)))]
        yield Complex.from_facets(facets)


def flipped_violators(count: int, seed: int) -> List[Complex]:
    """T/I sums with at least one icosahedron, each after the first seeded
    edge flip that creates a chordless cycle of length = 1 (mod 3)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kinds = ["I"] + [rng.choice("TI") for _ in range(rng.randint(0, 3))]
        rng.shuffle(kinds)
        x = ti_sum(kinds, rng)
        y = next((y for y in flips(x, rng) if not mod3_obstruction(y).ok), None)
        if y is not None:
            out.append(y)
    return out


def suspended_cycles() -> List[Complex]:
    return [catalog.suspension(catalog.cycle_complex(n)) for n in range(3, 11)]


# -- tests ----------------------------------------------------------------------

def reference_families() -> Dict[str, list]:
    """The inputs whose reference outcomes are recorded, by family: 200
    seeded T/I sums with their recipes, 60 flipped violators, and the first
    flip of each of 40 sums where one exists (``None`` recipes)."""
    rng = random.Random(20160108)
    sums = [random_ti_sum(rng, max_summands=6) for _ in range(200)]
    rng = random.Random(11)
    single = []
    for _ in range(40):
        kinds = [rng.choice("TI") for _ in range(rng.randint(1, 4))]
        y = next(flips(ti_sum(kinds, rng), rng), None)
        if y is not None:
            single.append((y, None))
    return {"sums": sums,
            "flipped_violators": [(y, None) for y in flipped_violators(60, seed=5)],
            "single_flips": single}


def facets_digest(x: Complex) -> str:
    return hashlib.sha256(repr(sorted(x.facets)).encode()).hexdigest()[:16]


def encode(result: tuple) -> dict:
    """An :func:`outcome` as JSON: summands and cuts, or the exception's
    type name, message and witness (a cycle, a triangle or none)."""
    if isinstance(result[0], dict):
        return {"summands": result[0], "cuts": result[1]}
    kind, message, witness = result
    if isinstance(witness, stacked.CycleWitness):
        witness = {"cycle": dataclasses.asdict(witness)}
    return {"error": kind.__name__, "message": message, "witness": witness}


def recorded_form(x: Complex, result: tuple) -> dict:
    """One file entry: the input's facet digest and its encoded outcome,
    through JSON so that tuples read back as lists."""
    return json.loads(json.dumps({"input": facets_digest(x), **encode(result)}))


REFERENCE_FILE = Path(__file__).parent / "decompose_reference.json"


def record_reference() -> None:
    """Write the reference's outcomes on :func:`reference_families`."""
    doc = {name: [recorded_form(x, outcome(reference_decompose_ti, x)) for x, _ in inputs]
           for name, inputs in reference_families().items()}
    with open(REFERENCE_FILE, "w") as out:
        out.write("{\n" + ",\n".join(
            f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(e, separators=(',', ':'))}"
                                                      for e in entries) + "\n ]"
            for name, entries in doc.items()) + "\n}\n")


@pytest.fixture(scope="module")
def recorded():
    return json.loads(REFERENCE_FILE.read_text())


@pytest.fixture(scope="module")
def families():
    return reference_families()


def assert_recorded(recorded, families, name: str) -> list:
    """``decompose_ti`` on every input of the family matches the file."""
    entries = recorded[name]
    assert len(entries) == len(families[name])
    got = []
    for (x, _), want in zip(families[name], entries):
        result = outcome(decompose_ti, x)
        assert recorded_form(x, result) == want
        got.append(result)
    return got


def test_recorded_reference_replays(recorded, families):
    """The first entries of each family, through the live reference."""
    for name, inputs in families.items():
        for (x, _), want in list(zip(inputs, recorded[name]))[:4]:
            assert recorded_form(x, outcome(reference_decompose_ti, x)) == want, name


def test_acceptance_sums_match_reference(recorded, families):
    results = assert_recorded(recorded, families, "sums")
    for (_, expected), got in zip(families["sums"], results):
        assert got[0] == {"T": expected.get("T", 0), "I": expected.get("I", 0)}


def test_flipped_violators_match_reference(recorded, families):
    results = assert_recorded(recorded, families, "flipped_violators")
    assert len(results) == 60
    assert all(got[0] is HypothesisViolationError and got[2] is not None for got in results)


def test_single_flips_match_reference(recorded, families):
    """The first flip of each sum, whether it creates a violation or leaves
    a sum of summands."""
    results = Counter(got[0] is HypothesisViolationError
                      for got in assert_recorded(recorded, families, "single_flips"))
    assert results[True] > 0 and results[False] > 0


@pytest.mark.parametrize("n", [5, 6, 8, 12, 17, 25, 40])
def test_stacked_spheres_match_reference(n):
    for seed in range(15):
        got = assert_same(stacked_sphere(n, 2, seed=seed))
        assert got[0] == {"T": n - 3, "I": 0}


def test_suspended_cycles_match_reference():
    outcomes = [assert_same(x) for x in suspended_cycles()]
    assert outcomes[0][0] == {"T": 2, "I": 0}
    assert all(o[0] is HypothesisViolationError for o in outcomes[1:])


def test_sums_with_suspended_cycles_match_reference():
    rng = random.Random(3)
    bases = suspended_cycles()
    for i in range(40):
        kinds = [rng.choice("TI") for _ in range(rng.randint(1, 3))]
        x = glue(ti_sum(kinds, rng), bases[i % len(bases)], rng)
        got = assert_same(x)
        if i % len(bases):
            assert got[0] is HypothesisViolationError and got[2] is not None


def test_violations_in_several_pieces_match_reference():
    """The least witness across pieces, whichever piece is cut off first."""
    rng = random.Random(8)
    for _ in range(30):
        a, b = rng.sample(suspended_cycles()[1:], 2)
        x = glue(glue(ti_sum(rng.choice(["T", "I", "TI"]), rng), a, rng), b, rng)
        assert assert_same(x)[0] is HypothesisViolationError


def test_unrecognised_pieces_without_witness_match_reference(monkeypatch):
    """With the cycle search switched off, the first prime piece that is
    neither summand raises, in the reference's cutting order."""
    monkeypatch.setattr(stacked, "_mod3_witness", lambda s, within: None)
    monkeypatch.setitem(globals(), "reference_mod3_obstruction", lambda s: Verdict(True))
    rng = random.Random(4)
    octa, susp5 = suspended_cycles()[1:3]
    messages = set()
    for _ in range(10):
        x = glue(glue(ti_sum(rng.choice(["T", "I", "TI"]), rng), octa, rng), susp5, rng)
        got = assert_same(x)
        assert got[0] is HypothesisViolationError and got[2] is None
        messages.add(got[1])
    assert len(messages) == 2


def test_non_spheres_match_reference():
    for x in (catalog.projective_plane_6(), catalog.torus_7(), catalog.cycle_complex(5),
              catalog.boundary_simplex(4)):
        assert assert_same(x)[0] is PreconditionError


# -- chordless cycles -------------------------------------------------------------

def random_graphs(count: int, seed: int) -> List[Complex]:
    """Seeded graphs on 4 to 13 vertices of every density, on labels
    scattered below 60 so that positions and labels differ."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        labels = sorted(rng.sample(range(60), rng.randint(4, 13)))
        p = rng.uniform(0.25, 0.75)
        edges = [e for e in itertools.combinations(labels, 2) if rng.random() < p]
        out.append(Complex.from_facets(edges + [(v,) for v in labels]))
    return out


@pytest.fixture(scope="module")
def cycle_inputs(families, sphere_skeletons):
    """The sphere fixtures, the first acceptance-06 sums and flipped
    violators, the suspended cycles, two surfaces that are not spheres and
    seeded graphs."""
    xs = [x for _, x in sphere_skeletons]
    xs += [x for x, _ in families["sums"][:25] + families["flipped_violators"][:25]]
    xs += suspended_cycles() + [catalog.projective_plane_6(), catalog.torus_7()]
    return xs + random_graphs(80, seed=17)


def test_mod3_obstruction_matches_reference(cycle_inputs):
    verdicts = Counter()
    for x in cycle_inputs:
        got = mod3_obstruction(x)
        assert got == reference_mod3_obstruction(x), x.facets
        verdicts[got.ok] += 1
    assert verdicts[True] > 40 and verdicts[False] > 40, verdicts


def test_induced_cycles_match_reference(cycle_inputs):
    """Every cycle up to the vertex count, or up to length 8 on the spheres
    above 20 vertices, where there are too many."""
    for x in cycle_inputs:
        g = x.one_skeleton()
        bound = 8 if g.num_vertices > 20 else max(g.num_vertices, 3)
        assert induced_cycles(g, bound) == reference_induced_cycles(g, bound), x.facets


def test_mod3_obstruction_matches_recorded_reference(recorded, families):
    """The reference decomposition ran the reference obstruction on the
    whole sphere first, so a recorded cycle is its witness, and a sphere
    without one passed it."""
    for name, inputs in families.items():
        for (x, _), want in zip(inputs, recorded[name]):
            got = mod3_obstruction(x)
            cycle = want["witness"]["cycle"] if isinstance(want.get("witness"), dict) else None
            assert got.ok == (cycle is None), (name, want)
            if cycle is not None:
                assert json.loads(json.dumps(dataclasses.asdict(got.witness))) == cycle


if __name__ == "__main__":
    sys.exit(record_reference())
