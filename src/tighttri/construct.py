"""Generators: stacked spheres, elementary handle additions, the handle-count
admissibility table, the randomized search for neighbourly handle quotients,
and topology classification of certified constructions.

Randomness comes from seeded ``random.Random`` instances only; every search
restart derives its generator from ``"<seed>:<restart>"``, so outcomes are
reproducible bit for bit and independent of worker count.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import (Complex, InternalInconsistencyError, PreconditionError,
                        UnsupportedDimensionError, Verdict, _closure_by_size,
                        _require_closed_manifold, is_isomorphic)
from .homology import is_orientable
from .linalg import QQ, FieldSpec
from .stacked import _subdivide, is_stacked_sphere
from .tightness import _first_hit, cross_validate, is_tight_fast_3manifold

# A successful candidate is confirmed by the definitional decider only when
# the subset scan is this small (2**12 subsets); bigger quotients by the
# polynomial criterion.
BRUTE_CONFIRM_MAX_VERTICES = 12
# Restarts per block of a search.  On a process pool a block without a hit
# is tens of milliseconds of work, far more than sending it costs, and a hit
# is read no later than its block ends; in process a block is a lazy range.
_SEARCH_BLOCK = 16
# Chance that a search sphere's subdivision extends its newest branch.
_BRANCH_BIAS = 0.85
# The boundary of the 4-simplex [0, ..., 4], ascending, with the sign
# (-1)^j of the facet without vertex j, whose labels sum to 10 - j.
_SIMPLEX_BOUNDARY = {f: (-1) ** (10 - sum(f)) for f in itertools.combinations(range(5), 4)}


class AdmissibilityError(ValueError):
    """A handle addition request violates its gluing constraints."""


class MalformedCertificateError(ValueError):
    """A certificate document does not have the shape ``to_dict`` writes."""


def _ints(value, field: str) -> tuple:
    if isinstance(value, (list, tuple)) and all(type(v) is int for v in value):
        return tuple(value)
    raise MalformedCertificateError(f"certificate field {field!r} must be a list of integers")


def _int_lists(value, field: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise MalformedCertificateError(f"certificate field {field!r} must be a list of lists")
    return tuple(_ints(v, field) for v in value)


@dataclass(frozen=True)
class HandleStep:
    """One elementary handle addition: two disjoint facets and the vertex
    identification, stored as sorted (from, to) pairs."""

    facet1: tuple
    facet2: tuple
    bijection: tuple

    @classmethod
    def make(cls, facet1: Sequence[int], facet2: Sequence[int], bijection: Dict[int, int]) -> "HandleStep":
        return cls(tuple(sorted(facet1)), tuple(sorted(facet2)),
                   tuple(sorted(bijection.items())))


@dataclass(frozen=True)
class Certificate:
    """Construction trace: a stacked-sphere seed plus ordered handle steps.

    ``seed_params`` optionally records how the seed was generated
    (n, dim, rng seed); the facet list is authoritative for replay.
    """

    seed_facets: tuple
    steps: tuple
    final_f_vector: tuple
    rng_seed: Optional[str] = None
    seed_params: Optional[tuple] = None

    def seed_complex(self) -> Complex:
        return Complex.from_facets(self.seed_facets)

    def to_dict(self) -> dict:
        return {
            "seed_facets": [list(f) for f in self.seed_facets],
            "steps": [
                {
                    "facet1": list(s.facet1),
                    "facet2": list(s.facet2),
                    "bijection": [list(p) for p in s.bijection],
                }
                for s in self.steps
            ],
            "final_f_vector": list(self.final_f_vector),
            "rng_seed": self.rng_seed,
            "seed_params": list(self.seed_params) if self.seed_params else None,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Certificate":
        """Inverse of :meth:`to_dict`; a document of any other shape raises
        :class:`MalformedCertificateError` (a missing field, ``KeyError``)."""
        if not isinstance(doc, dict):
            raise MalformedCertificateError("a certificate must be a JSON object")
        steps = doc.get("steps", ())
        params = doc.get("seed_params")
        if not isinstance(steps, (list, tuple)) or not all(isinstance(s, dict) for s in steps):
            raise MalformedCertificateError("certificate field 'steps' must be a list of objects")
        if params is not None and not isinstance(params, (list, tuple)):
            raise MalformedCertificateError("certificate field 'seed_params' must be a list")
        return cls(
            seed_facets=_int_lists(doc["seed_facets"], "seed_facets"),
            steps=tuple(HandleStep(_ints(s["facet1"], "facet1"), _ints(s["facet2"], "facet2"),
                                   _int_lists(s["bijection"], "bijection"))
                        for s in steps),
            final_f_vector=_ints(doc["final_f_vector"], "final_f_vector"),
            rng_seed=doc.get("rng_seed"),
            seed_params=tuple(params) if params else None,
        )


def stacked_sphere(n: int, d: int, seed=0) -> Complex:
    """A stacked d-sphere on n vertices built by repeated facet subdivision.

    Starts from the boundary of the (d+1)-simplex and performs n-(d+2)
    subdivisions at facets chosen by the seeded generator.  It is a closed
    d-manifold by construction, so the closed-manifold verdict is recorded
    on it rather than checked.
    """
    if d not in (2, 3):
        raise UnsupportedDimensionError("stacked spheres are generated for d in {2, 3}")
    if n < d + 2:
        raise ValueError(f"a {d}-sphere needs at least {d + 2} vertices")
    rng = random.Random(seed)
    facets = list(itertools.combinations(range(d + 2), d + 1))
    for w in range(d + 2, n):
        _subdivide(facets, facets[rng.randrange(len(facets))], w)
    return Complex._from_faces(facets)._record_closed_manifold()


def _sort_sign(t: Sequence[int]) -> int:
    """The sign of the permutation that sorts the four distinct entries of
    t: -1 iff an odd number of pairs is out of order."""
    a, b, c, d = t
    return -1 if ((a > b) + (a > c) + (a > d) + (b > c) + (b > d) + (c > d)) & 1 else 1


# The orders of four vertex positions, all of them in the order of
# itertools.permutations and split by their sign: the bijections of one
# tetrahedron onto another.
_PERMS = tuple(itertools.permutations(range(4)))
_PERMS_OF_SIGN = {sign: tuple(p for p in _PERMS if _sort_sign(p) == sign) for sign in (1, -1)}


class _FacetMasks:
    """A complex as its sorted facet list and vertex bit masks, on which a
    search restart lists its handle sites and reads their clash tables
    without building a :class:`Complex`.

    Vertices take bit positions in ascending label order.  ``closed[v]`` is
    the mask of the closed neighbourhood of vertex v: v and every vertex
    that shares a facet with it, which are its neighbours, as every edge of
    a complex lies in a facet.  ``masks[i]`` is the vertex mask of
    ``facets[i]``.  ``tables`` keeps the clash tables read so far, by site.
    """

    __slots__ = ("facets", "closed", "masks", "tables")

    def __init__(self, facets: Sequence[tuple]):
        self.facets = facets
        self.tables: Dict[tuple, List[list]] = {}
        bit = {v: 1 << i for i, v in enumerate(sorted(set().union(*facets)))}
        closed = self.closed = dict.fromkeys(bit, 0)
        masks = self.masks = []
        for f in facets:
            m = 0
            for v in f:
                m |= bit[v]
            for v in f:
                closed[v] |= m
            masks.append(m)

    def sites(self) -> List[tuple]:
        """Index pairs (i, j), i < j, ascending, of facets with no edge
        between them: the handle sites.  Any edge running between the two
        facets would merge with a facet edge under the identification, so
        these are the only sites where a handle keeps the f-vector
        bookkeeping exact.

        (i, j) is a site exactly when the mask of facet j misses the closed
        neighbourhood of facet i, the union of its vertices' ones, so the
        two are also disjoint.  Facet j then lies among the vertices outside
        that neighbourhood, so a facet i with fewer of those than the
        smallest facet has vertices has no site."""
        closed, masks = self.closed, self.masks
        full = (1 << len(closed)) - 1
        least = min(map(len, self.facets), default=0)
        out = []
        for i, f in enumerate(self.facets):
            c = 0
            for v in f:
                c |= closed[v]
            if (full & ~c).bit_count() < least:
                continue
            j = i
            for m in masks[i + 1:]:
                j += 1
                if not m & c:
                    out.append((i, j))
        return out

    def clash_table(self, i1: int, i2: int) -> List[list]:
        """The clash table of the site (i1, i2): entry [a][b] says whether
        vertex a of facet i1 and vertex b of facet i2 have no common
        neighbour outside the two facets, and so may be identified."""
        table = self.tables.get((i1, i2))
        if table is None:
            facets, closed, masks = self.facets, self.closed, self.masks
            # a vertex of f1 lies in its own closed neighbourhood, so
            # masking out f1 leaves its neighbours outside f1
            outside1, outside2 = ~masks[i1], ~masks[i2]
            ext2 = [closed[w] & outside2 for w in facets[i2]]
            table = [[not (closed[v] & outside1 & e2) for e2 in ext2] for v in facets[i1]]
            self.tables[i1, i2] = table
        return table

    def admits(self, sites: List[tuple], signs: Optional[Dict[tuple, int]]) -> bool:
        """Whether one of the ``sites`` of a closed 3-manifold admits a
        bijection that passes its clash table, decided without a draw.
        Given facet ``signs`` that orient the manifold, the bijection must
        also keep the orientation: its sign must be -s(f1) s(f2), see
        :func:`_glue`."""
        facets = self.facets
        for i1, i2 in sites:
            t0, t1, t2, t3 = self.clash_table(i1, i2)
            perms = _PERMS if signs is None else _PERMS_OF_SIGN[-signs[facets[i1]] * signs[facets[i2]]]
            if any(t0[a] and t1[b] and t2[c] and t3[d] for a, b, c, d in perms):
                return True
        return False

    def find_handle(self, rng: random.Random, sites: List[tuple]):
        """:func:`find_admissible_handle` on these masks and their
        :meth:`sites`: the sites in shuffled order, each with its clash
        table and shuffled bijections."""
        facets = self.facets
        rng.shuffle(sites)
        for i1, i2 in sites:
            f1, f2 = facets[i1], facets[i2]
            fits = self.clash_table(i1, i2)
            perms = list(_PERMS if len(f2) == 4 else itertools.permutations(range(len(f2))))
            rng.shuffle(perms)
            if len(f1) == len(f2) and not (all(map(any, fits)) and all(map(any, zip(*fits)))):
                continue
            for perm in perms:
                if all(map(list.__getitem__, fits, perm)):
                    return f1, f2, dict(zip(f1, (f2[j] for j in perm)))
        return None


def _closed_3_manifold_f_vector(facets: Sequence[tuple]) -> tuple:
    """The f-vector of a closed 3-manifold from its facet list: each
    triangle lies in exactly two tetrahedra, so f2 = 2 f3, and the Euler
    characteristic of a closed odd-dimensional manifold is 0, so
    f1 = f0 - f2 + f3 = f0 + f3."""
    f0, f3 = len(set().union(*facets)), len(facets)
    return (f0, f0 + f3, 2 * f3, f3)


def _glue(facets: Dict[tuple, int], facet1: Sequence[int], facet2: Sequence[int],
          bijection: Dict[int, int]) -> Tuple[Dict[tuple, int], list]:
    """The handle addition on the facets of a closed 3-manifold, each with
    its sign, with every admissibility check of :func:`handle_addition` and
    its messages: both sites are facets, they are disjoint, the bijection
    maps one onto the other, and no identified pair shares a facet, which
    is to say an edge.  The quotient's f-vector, counted on its facet list,
    must be :func:`_closed_3_manifold_f_vector` of the facets minus exactly
    (4, 6, 4, 2); it is then a closed 3-manifold by the lemma in
    :func:`handle_addition`.  Returns the quotient's facets, ascending, each
    with its sign, and their downward closure by size, from which
    :meth:`Complex._from_closure` builds the quotient.

    The signs carry an orientation.  Let the sign s(f) of a sorted facet f
    say that the orientation restricted to f is s(f) [f].  Removing f1 and
    f2 leaves their boundaries with the induced orientations, and the
    bijection p maps s(f1) [f1] to s(f1) parity(p) [f2], where parity(p) is
    the sign of p read against the sorted facets.  The gluing keeps the
    orientation iff that is -s(f2) [f2], iff parity(p) = -s(f1) s(f2).  A
    kept facet keeps its sign, times the parity of the sort that its
    renamed vertices need.  Signs that are not an orientation, such as all
    0, are carried along and mean nothing."""
    f1 = tuple(sorted(facet1))
    f2 = tuple(sorted(facet2))
    if f1 not in facets or f2 not in facets:
        raise AdmissibilityError("both gluing sites must be facets")
    if set(f1) & set(f2):
        raise AdmissibilityError(f"facets {f1} and {f2} are not disjoint")
    if set(bijection.keys()) != set(f1) or set(bijection.values()) != set(f2):
        raise AdmissibilityError("bijection must map the first facet onto the second")
    for v, w in bijection.items():
        for f in facets:
            if v in f and w in f:
                raise AdmissibilityError(f"vertices {v} and {w} are adjacent; gluing would collapse an edge")
    rename = {w: v for v, w in bijection.items()}
    glued = []
    for f, sign in facets.items():
        if f == f1 or f == f2:
            continue
        if not rename.keys().isdisjoint(f):
            f = [rename.get(u, u) for u in f]
            sign *= _sort_sign(f)
            f = tuple(sorted(f))
        glued.append((f, sign))
    glued.sort()
    signed = dict(glued)
    by_size = _closure_by_size(signed)
    f = _closed_3_manifold_f_vector(facets)
    expected = (f[0] - 4, f[1] - 6, f[2] - 4, f[3] - 2)
    got = tuple(map(len, by_size))
    if got != expected:
        raise AdmissibilityError(f"identification merged extra faces: f-vector {got}, expected {expected}")
    return signed, by_size


def _keeps_orientation(signs: Dict[tuple, int], f1: tuple, f2: tuple, bijection: Dict[int, int]) -> bool:
    """Whether the handle on the sorted facets f1 and f2 keeps the
    orientation that the facet signs give: parity(p) = -s(f1) s(f2), the
    rule of :func:`_glue`."""
    return _sort_sign([bijection[v] for v in f1]) == -signs[f1] * signs[f2]


def handle_addition(x: Complex, facet1: Sequence[int], facet2: Sequence[int],
                    bijection: Dict[int, int]) -> Complex:
    """Remove two disjoint facets of a connected closed 3-manifold and identify
    their vertices along the bijection.

    Admissibility requires v and bijection[v] to be non-adjacent for every v
    (identifying adjacent vertices would collapse an edge), and the f-vector
    must drop by exactly (4, 6, 4, 2); identifications that merge any extra
    faces are rejected.

    Only the precondition runs here: the input is checked as a connected
    closed 3-manifold, and the verdict is kept on the complex, so the
    package's own spheres and quotients pass it at no cost.  Every
    admissibility check, the gluing and the f-vector test run in
    :func:`_glue` on the facet list, as in a search restart.  The result's
    verdict is recorded, not checked, by this lemma.  Let X be a connected
    closed 3-manifold, s1 and s2 disjoint facets, and p a bijection from s1
    onto s2 with v and p(v) non-adjacent for every v.  No face of X then
    contains both v and p(v), so each face other than s1 and s2 maps onto a
    face of the same dimension, and the faces of the boundary of s2 merge
    onto those of the boundary of s1, which alone drops the f-vector by
    (4, 6, 4, 2).  If it drops by exactly that, no other faces merge, and
    the result is X minus the interiors of s1 and s2 with the two boundary
    spheres glued.  The link of each merged vertex v is then the connected
    sum of the links of v and p(v), two 2-spheres, and every other link is
    unchanged up to renaming; so every vertex link is a
    2-sphere, and the result is a closed 3-manifold.
    """
    _require_closed_manifold(x, 3, "handle addition needs a connected closed 3-manifold",
                             connected=True)
    _, by_size = _glue(dict.fromkeys(x.facets, 0), facet1, facet2, bijection)
    return Complex._from_closure(by_size, pure=True)._record_closed_manifold()


def verify_stacked_certificate(m: Complex, cert: Certificate) -> Verdict:
    """Replay a construction certificate against a target 3-manifold.

    Checks the recorded seed is a stacked 3-sphere, replays every handle
    addition (invalid steps raise), and accepts iff the result is isomorphic
    to ``m`` with the recorded final f-vector.
    """
    seed = cert.seed_complex()
    sv = is_stacked_sphere(seed, 3)
    if not sv.ok:
        return Verdict(False, detail=f"certificate seed is not a stacked 3-sphere: {sv.detail}")
    current = seed
    for step in cert.steps:
        current = handle_addition(current, step.facet1, step.facet2, dict(step.bijection))
    if tuple(cert.final_f_vector) != current.f_vector:
        return Verdict(False, witness=current.f_vector,
                       detail="replayed f-vector differs from the certificate")
    if is_isomorphic(current, m) is None:
        return Verdict(False, witness=current.f_vector,
                       detail="replayed complex is not isomorphic to the target")
    return Verdict(True, detail=f"replayed {len(cert.steps)} handle addition(s)")


@dataclass(frozen=True)
class AdmissibleK:
    """A handle count k in the family of known tight quotients: 80k+1 is a
    perfect square and the quotient vertex count f0 = (9 + sqrt(80k+1)) / 2
    lies in the realized progression f0 = 9 (mod 20)."""

    k: int
    f0: int


def admissible_k(limit: int) -> List[AdmissibleK]:
    """Handle counts up to ``limit`` in the constructible family k = 20j^2+9j+1.

    Every output satisfies the square condition (f0-4)(f0-5) = 20k exactly;
    the enumeration walks the vertex counts f0 = 9, 29, 49, ... for which
    tight quotients are actually realized.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    out = []
    j = 0
    while True:
        k = 20 * j * j + 9 * j + 1
        if k > limit:
            break
        out.append(AdmissibleK(k, 20 * j + 9))
        j += 1
    return out


def _vertex_count_for_k(k: int) -> int:
    if k < 1:
        raise ValueError(f"k={k} is inadmissible: a handle count is at least 1")
    s = math.isqrt(80 * k + 1)
    if s * s != 80 * k + 1:
        raise ValueError(f"k={k} is inadmissible: 80k+1 = {80 * k + 1} is not a perfect square")
    f0 = (9 + s) // 2
    if f0 % 20 != 9:
        raise ValueError(
            f"k={k} is outside the realized family: f0 = {f0} is not 9 (mod 20)")
    return f0


def find_admissible_handle(x: Complex, rng: random.Random):
    """A random (facet1, facet2, bijection) expected to survive handle_addition.

    Beyond the pairwise non-adjacency, matched vertices must share no
    neighbour outside the two facets, otherwise the identification would
    merge a pair of edges.  Each site gets its clash table once: entry
    [i][j] says whether f1[i] and f2[j] may be identified, read off the
    neighbour masks.  The bijections are then tried in the shuffled order
    of the permutations of f2, drawn as permutations of its indices.  A site
    of two equal facets where some vertex may be identified with none of
    the other facet admits no bijection and is passed over, after the
    shuffle, so that the generator's draws stay the same.
    """
    masks = _FacetMasks(sorted(x.facets))
    return masks.find_handle(rng, masks.sites())


def _grow_search_sphere(n: int, rng: random.Random) -> Dict[tuple, int]:
    """The facets of a stacked 3-sphere biased toward elongated simplex
    trees, ascending, each with its sign in an orientation of the sphere.

    A handle needs two facets with no edges between them, and at the tight
    13-vertex scale only near-path trees have such far-apart ends; uniform
    facet choice essentially never produces them.  With probability
    ``_BRANCH_BIAS`` each subdivision extends the newest branch, otherwise
    it hits a uniform random facet.  Its vertices are 0 to n - 1.

    The sphere starts as the boundary of the 4-simplex [0, ..., 4], in
    which the facet without vertex j has sign (-1)^j.  Subdividing a facet
    [a, b, c, d] of sign s at w gives it the cone from w over its boundary;
    the facet with w in place of its i-th vertex has sign s, and moving w
    past the 3 - i vertices after it gives the sorted facet sign
    s (-1)^(3 - i).
    """
    # (facet, sign) pairs, ascending by facet
    signed = list(_SIMPLEX_BOUNDARY.items())
    continuation = None
    for w in range(5, n):
        # the newest branch's facet is one the last subdivision made
        if continuation and rng.random() < _BRANCH_BIAS:
            target = continuation
        else:
            target = signed[rng.randrange(len(signed))][0]
        # the subdivision of stacked.py's _subdivide, on the pairs: (target,)
        # sorts just before target's pair, and the facet without target[i]
        # gets target's sign times (-1)^(3 - i)
        sign = signed.pop(bisect_left(signed, (target,)))[1]
        a, b, c, d = target
        continuation = (b, c, d, w)
        insort(signed, (continuation, -sign))
        insort(signed, ((a, c, d, w), sign))
        insort(signed, ((a, b, d, w), -sign))
        insort(signed, ((a, b, c, w), sign))
    return dict(signed)


def _search_attempt(seed, restart: int, k: int, n: int, field: FieldSpec):
    """One restart: a fresh search sphere on n = f0 + 4k vertices, k random
    handles, then acceptance on orientability over the field.  Returns
    (complex, certificate), or None when a step finds no handle site or,
    over an odd field, no handle that keeps the orientation.

    The sphere stays a facet list with a sign for each facet, an
    orientation (see :func:`_grow_search_sphere`).  Each step lists the
    sites and reads their clash tables on :class:`_FacetMasks`, and
    :func:`_glue` runs every admissibility check of :func:`handle_addition`
    and the exact f-vector drop on the facet list, and carries the signs on
    to the quotient.  The only :class:`Complex` is the quotient the restart
    accepts.  The closed-manifold precondition is skipped, which the
    stacked sphere and each quotient meet by construction.

    By the paper's theorem, as :func:`is_tight_fast_3manifold` reads it, a
    quotient is tight iff it is orientable and (f0-4)(f0-5) = 20 beta_1.
    :func:`_vertex_count_for_k` makes (f0-4)(f0-5) = 20k.  Every site that
    :func:`find_admissible_handle` returns passes :func:`handle_addition`:
    beyond the facets' boundaries, a merged edge, triangle or tetrahedron
    needs a common neighbour of some v and its image outside both facets,
    which the clash table excludes.  So the handles remove exactly 6k of
    the sphere's 4n - 10 edges, leaving 4 f0 - 10 + 10k = C(f0, 2): the
    quotient is neighbourly.  Each handle is a connected sum with an
    S^2-bundle over S^1, so beta_1 = k over every field, and tightness is
    F-orientability.  Over GF(2) every quotient is orientable.  Over an
    odd field F-orientability is orientability, and the quotient is
    orientable iff every handle keeps the orientation of the sphere, which
    is the sign rule of :func:`_glue`: a handle that breaks it leaves a
    non-orientable manifold, which no later handle mends.  So the restart
    stops at its first such handle.

    Before the draws of each step, :meth:`_FacetMasks.admits` asks whether
    any site admits a bijection that passes its clash table and, over an
    odd field, keeps the orientation.  If none does, every draw would end
    in None, and the restart returns None without drawing; its generator
    is its own, so no other restart sees the difference.  Walkup showed
    that the orientable S^2-bundle over S^1 needs 10 vertices, so every
    9-vertex k = 1 quotient is non-orientable, and over an odd field every
    k = 1 restart ends there.
    """
    rng = random.Random(f"{seed}:{restart}")
    signed = sphere = _grow_search_sphere(n, rng)
    # over a field of characteristic 2 every closed manifold is orientable
    orient = field.char != 2
    steps: List[HandleStep] = []
    for _ in range(k):
        masks = _FacetMasks(list(signed))
        sites = masks.sites()
        if not masks.admits(sites, signed if orient else None):
            return None
        f1, f2, bijection = masks.find_handle(rng, sites)
        if orient and not _keeps_orientation(signed, f1, f2, bijection):
            return None
        signed, by_size = _glue(signed, f1, f2, bijection)
        steps.append(HandleStep.make(f1, f2, bijection))
    current = Complex._from_closure(by_size, pure=True)._record_closed_manifold()
    cert = Certificate(
        seed_facets=tuple(sphere),
        steps=tuple(steps),
        final_f_vector=current.f_vector,
        rng_seed=f"{seed}:{restart}",
    )
    return current, cert


def _first_found(seed, k: int, n: int, field: FieldSpec, restarts: range):
    """The first successful attempt among ``restarts``, in order, or None."""
    for restart in restarts:
        res = _search_attempt(seed, restart, k, n, field)
        if res is not None:
            return res
    return None


def search_tight(k: int, field: FieldSpec, budget: int = 10_000, seed=0,
                 jobs: int = 1) -> Optional[Tuple[Complex, Certificate]]:
    """Restart-based random search for a tight neighbourly handle quotient.

    Each restart builds a stacked 3-sphere on f0+4k vertices and applies k
    random admissible handle additions; a candidate is accepted when it is
    orientable over the given field, which for these quotients is tightness
    (see :func:`_search_attempt`).  The definitional decider, or above
    ``BRUTE_CONFIRM_MAX_VERTICES`` the polynomial criterion, must then
    call it tight, else :class:`InternalInconsistencyError` is raised.
    Restarts are independent, so with ``jobs`` > 1 they run in blocks on
    min(jobs, cores) processes and the lowest successful restart index
    wins, keeping results seed-deterministic.
    """
    f0 = _vertex_count_for_k(k)  # raises for inadmissible k
    n = f0 + 4 * k
    blocks = (range(start, min(start + _SEARCH_BLOCK, budget))
              for start in range(0, budget, _SEARCH_BLOCK))
    found = _first_hit(partial(_first_found, seed, k, n, field), blocks, jobs)
    if found is None:
        return None
    complex_, cert = found
    small = complex_.num_vertices <= BRUTE_CONFIRM_MAX_VERTICES
    # cross_validate raises on any disagreement between the deciders
    if not (cross_validate if small else is_tight_fast_3manifold)(complex_, field).verdict:
        raise InternalInconsistencyError(f"the search accepted a quotient that is not {field}-tight")
    return complex_, cert


@dataclass(frozen=True)
class TopologyClass:
    """Homeomorphism type of a certified handle quotient."""

    kind: str  # "S3" | "orientable-handle-sum" | "nonorientable-handle-sum"
    k: int

    def __str__(self) -> str:
        return self.kind if self.k == 0 else f"{self.kind}({self.k})"


def classify_topology(m: Complex, cert: Certificate) -> TopologyClass:
    """S3 for an empty certificate; otherwise the k-fold handle sum, split by
    rational orientability.  The certificate must replay onto ``m``."""
    v = verify_stacked_certificate(m, cert)
    if not v.ok:
        raise PreconditionError(f"certificate does not verify: {v.detail}")
    k = len(cert.steps)
    if k == 0:
        return TopologyClass("S3", 0)
    if is_orientable(m, QQ):
        return TopologyClass("orientable-handle-sum", k)
    return TopologyClass("nonorientable-handle-sum", k)
