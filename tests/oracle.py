"""Dense linear algebra and exhaustive 2-sphere structure for the tests to
compare the library against.

Textbook Gauss-Jordan elimination, column by column on dense rows: over Q
in ``Fraction`` arithmetic, over GF(p) on ints mod p.  Rows come in as bit
masks over GF(2) (bit j is column j), and otherwise as dense lists of
entries or the library's ``{column: entry}`` dicts; they go out as masks
over GF(2) and dense lists otherwise.  :func:`library_rows` turns dense
rows of ints and Fractions into the library's row format, and
:func:`echelon_rank` ranks rows in that format without densifying them.
Nothing here calls the library's elimination.

The chordless-cycle and sphere-cutting references at the end are the
library's earlier code, on adjacency sets and one ``Complex`` per piece:
:func:`induced_cycles` enumerates every cycle up to the bound, and
:func:`mod3_obstruction` keeps the first with length = 1 (mod 3) of all of
them.  So are the sphere generators after them, which sort the facet set
afresh before every draw, the greedy stacked-sphere recogniser, which
looks for the lowest eligible vertex afresh after every removal, and the
search restart on complexes, with handle sites and gluing checked pair by
pair on neighbour sets.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

from tighttri import (AdmissibilityError, Certificate, Complex, CycleWitness, HandleStep,
                      HypothesisViolationError, Verdict, is_orientable)
from tighttri.construct import _BRANCH_BIAS
from tighttri.linalg import FieldSpec


def library_rows(field: FieldSpec, rows) -> list:
    """Dense rows of ints and Fractions in the library's row format.  Over
    GF(p) an entry a/b is ``a * b**-1`` mod p, and ``ValueError`` when p
    divides b; over GF(2) the rows are then bit masks.  Over Q each row is
    scaled by the lcm of its denominators into ints, the same direction."""
    p = field.char
    out = []
    for r in rows:
        r = [Fraction(c) for c in r]
        if p:
            if any(c.denominator % p == 0 for c in r):
                raise ValueError(f"an entry of {r} has no value mod {p}")
            r = [c.numerator * pow(c.denominator, -1, p) % p for c in r]
        else:
            den = lcm(*[c.denominator for c in r])
            r = [int(c * den) for c in r]
        out.append(sum(1 << j for j, c in enumerate(r) if c) if p == 2
                   else {j: c for j, c in enumerate(r) if c})
    return out


def entries(field: FieldSpec, rows, ncols: int) -> list:
    """The rows as dense lists of entries."""
    if field.char == 2:
        return [[(r >> j) & 1 for j in range(ncols)] for r in rows]
    return [[r.get(j, 0) for j in range(ncols)] if type(r) is dict else list(r)
            for r in rows]


def _packed(field: FieldSpec, rows: list) -> list:
    """Dense lists back in the row layout of ``field``."""
    if field.char == 2:
        return [sum(1 << j for j, c in enumerate(r) if c) for r in rows]
    return rows


def is_zero(field: FieldSpec, rows, ncols: int) -> bool:
    return not any(c for r in entries(field, rows, ncols) for c in r)


def rref(field: FieldSpec, rows, ncols: int):
    """(pivots, rows) of the reduced row echelon form of the span of
    ``rows``: entries are Fractions over Q and ints in ``[0, p)`` over
    GF(p)."""
    p = field.char
    m = [[Fraction(c) if p == 0 else c % p for c in r] for r in entries(field, rows, ncols)]
    pivots = []
    for j in range(ncols):
        i = len(pivots)
        k = next((k for k in range(i, len(m)) if m[k][j]), None)
        if k is None:
            continue
        m[i], m[k] = m[k], m[i]
        inv = 1 / m[i][j] if p == 0 else pow(m[i][j], -1, p)
        m[i] = [c * inv if p == 0 else c * inv % p for c in m[i]]
        for t in range(len(m)):
            c = m[t][j]
            if t != i and c:
                m[t] = [u - c * v if p == 0 else (u - c * v) % p for u, v in zip(m[t], m[i])]
        pivots.append(j)
    return pivots, _packed(field, m[:len(pivots)])


def rank(field: FieldSpec, rows, ncols: int) -> int:
    return len(rref(field, rows, ncols)[0])


def echelon_rank(field: FieldSpec, rows) -> int:
    """Rank of rows in the library's format, by a plain echelon form that
    keeps each row under its leading column: the highest bit of a GF(2)
    mask, the least column of a ``{column: entry}`` dict.  Entries are ints
    mod p over GF(p) and Fractions over Q."""
    p = field.char
    leading: dict = {}
    for r in rows:
        if p == 2:
            while r and r.bit_length() in leading:
                r ^= leading[r.bit_length()]
            if r:
                leading[r.bit_length()] = r
            continue
        d = {j: c % p if p else Fraction(c) for j, c in r.items()}
        d = {j: c for j, c in d.items() if c}
        while d and min(d) in leading:
            lead = min(d)
            b = leading[lead]
            c = d[lead] * pow(b[lead], -1, p) if p else d[lead] / b[lead]
            for j, v in b.items():
                nv = (d.get(j, 0) - c * v) % p if p else d.get(j, 0) - c * v
                if nv:
                    d[j] = nv
                else:
                    d.pop(j, None)
        if d:
            leading[min(d)] = d
    return len(leading)


def right_nullspace(field: FieldSpec, rows, ncols: int) -> list:
    """A basis of {x : M x = 0}, one vector per free column f: 1 at f, and
    minus the echelon form's column f at the pivots."""
    p = field.char
    pivots, basis = rref(field, rows, ncols)
    basis = entries(field, basis, ncols)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0) if p == 0 else 0] * ncols
        x[f] = Fraction(1) if p == 0 else 1
        for piv, b in zip(pivots, basis):
            x[piv] = -b[f] if p == 0 else -b[f] % p
        out.append(x)
    return _packed(field, out)


def transpose(field: FieldSpec, rows, ncols: int) -> list:
    return _packed(field, [list(col) for col in zip(*entries(field, rows, ncols))]
                   if rows else [[] for _ in range(ncols)])


def left_nullspace(field: FieldSpec, rows, ncols: int) -> list:
    """A basis of {c : c M = 0}: the right null space of the transpose."""
    return right_nullspace(field, transpose(field, rows, ncols), len(rows))


def matmul(field: FieldSpec, a, b, ncols: int) -> list:
    """The product of the matrices with rows ``a`` and ``b``, where ``b``
    has ``ncols`` columns and as many rows as ``a`` has columns."""
    p = field.char
    da, db = entries(field, a, len(b)), entries(field, b, ncols)
    out = []
    for r in da:
        acc = [sum(c * brow[t] for c, brow in zip(r, db)) for t in range(ncols)]
        out.append([v % p for v in acc] if p else acc)
    return _packed(field, out)


# -- chordless cycles and sphere cuts --------------------------------------------

def induced_cycles(g: Complex, max_len: int) -> list:
    """All chordless cycles of length <= max_len in a graph, once each,
    sorted by (length, vertices): from the least vertex toward the smaller
    of its two cycle neighbours, pruning any path whose tip is adjacent to
    an interior vertex."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    found = []

    def extend(s, path, on_path):
        tip = path[-1]
        for u in sorted(adj[tip]):
            if u <= s or u in on_path or any(u in adj[w] for w in path[1:-1]):
                continue
            if u in adj[s]:
                if path[1] < u:
                    cyc = tuple(path) + (u,)
                    found.append(CycleWitness(cyc, len(cyc), len(cyc) % 3))
                continue
            if len(path) + 1 < max_len:
                extend(s, path + [u], on_path | {u})

    for s in g.vertices:
        for v1 in sorted(w for w in adj[s] if w > s):
            extend(s, [s, v1], {s, v1})
    found.sort(key=lambda c: (c.length, c.vertices))
    return found


def mod3_obstruction(s: Complex) -> Verdict:
    """The first of all chordless cycles with length = 1 (mod 3)."""
    g = s.one_skeleton()
    for cyc in induced_cycles(g, max(g.num_vertices, 3)):
        if cyc.residue == 1:
            return Verdict(False, witness=cyc,
                           detail=f"chordless {cyc.length}-cycle with length = 1 (mod 3)")
    return Verdict(True)


def empty_triangle(s: Complex):
    """Lexicographically first 3-clique of the skeleton that is not a face."""
    for a in s.vertices:
        for b in sorted(s.neighbors(a)):
            if b <= a:
                continue
            for c in sorted(s.neighbors(a) & s.neighbors(b)):
                if c > b and not s.has_face((a, b, c)):
                    return (a, b, c)
    return None


def split_at_triangle(s: Complex, tri: tuple) -> tuple:
    """The two closed sides of a 2-sphere cut along an empty triangle, each
    a complex: induced on one interior and the triangle, plus the
    triangle, ordered by least interior vertex."""
    interiors = s.induced(s.vertex_set - set(tri)).components()
    if len(interiors) != 2:
        raise HypothesisViolationError(
            f"empty triangle {tri} does not separate the sphere into two sides",
            witness=tri)
    return tuple(Complex.from_facets(s.induced(c | set(tri)).faces(2) + (tri,))
                 for c in interiors)


# -- sphere generators ------------------------------------------------------------

def _cone(facets: set, target: tuple, w: int) -> None:
    facets.remove(target)
    facets.update(target[:i] + target[i + 1:] + (w,) for i in range(len(target)))


def stacked_sphere_facets(n: int, d: int, seed=0) -> tuple:
    """The sorted facets of ``stacked_sphere(n, d, seed)``: each subdivision
    draws its facet by index into the facet set sorted afresh."""
    rng = random.Random(seed)
    facets = set(itertools.combinations(range(d + 2), d + 1))
    for w in range(d + 2, n):
        _cone(facets, sorted(facets)[rng.randrange(len(facets))], w)
    return tuple(sorted(facets))


def grow_search_sphere_facets(n: int, rng) -> tuple:
    """The sorted facets of ``_grow_search_sphere(n, rng)``, by the same
    per-draw sort."""
    facets = set(itertools.combinations(range(5), 4))
    continuation = None
    for w in range(5, n):
        if continuation in facets and rng.random() < _BRANCH_BIAS:
            target = continuation
        else:
            target = sorted(facets)[rng.randrange(len(facets))]
        _cone(facets, target, w)
        continuation = target[1:] + (w,)
    return tuple(sorted(facets))


def is_stacked_sphere(s: Complex, d: int) -> Verdict:
    """The greedy recogniser on neighbour sets, for a connected closed
    d-manifold: after each removal it scans the vertices in ascending order
    for the first of degree d+1."""
    nbrs = {v: set(s.neighbors(v)) for v in s.vertices}
    removals = []
    while len(nbrs) > d + 2:
        v = next((v for v, around in nbrs.items() if len(around) == d + 1), None)
        if v is None:
            return Verdict(False, witness=tuple(removals),
                           detail=f"no reverse-subdivision vertex at f0={len(nbrs)}")
        removals.append(v)
        for u in nbrs.pop(v):
            nbrs[u].discard(v)
    return Verdict(True, witness=tuple(removals))


# -- search restarts on complexes ------------------------------------------------

def handle_sites(x: Complex) -> list:
    """The site definition pair by pair: disjoint facets, no edge between."""
    facets = sorted(x.facets)
    return [(f1, f2) for i, f1 in enumerate(facets) for f2 in facets[i + 1:]
            if not set(f1) & set(f2)
            and not any(w in x.neighbors(v) for v in f1 for w in f2)]


def find_admissible_handle(x: Complex, rng):
    """The site search with neighbour sets intersected afresh for each
    shuffled bijection of each shuffled site."""
    sites = handle_sites(x)
    rng.shuffle(sites)
    for f1, f2 in sites:
        ext1 = {v: x.neighbors(v) - set(f1) for v in f1}
        ext2 = {w: x.neighbors(w) - set(f2) for w in f2}
        perms = list(itertools.permutations(f2))
        rng.shuffle(perms)
        for perm in perms:
            if all(not (ext1[v] & ext2[w]) for v, w in zip(f1, perm)):
                return f1, f2, dict(zip(f1, perm))
    return None


def glue(x: Complex, f1: tuple, f2: tuple, bijection: dict) -> Complex:
    """The handle addition on a complex: no identified pair adjacent, and
    the f-vector of the rebuilt quotient exactly (4, 6, 4, 2) lower."""
    if any(w in x.neighbors(v) for v, w in bijection.items()):
        raise AdmissibilityError("an identified pair is adjacent")
    rename = {w: v for v, w in bijection.items()}
    result = Complex.from_facets([[rename.get(u, u) for u in f]
                                  for f in x.facets if f not in (f1, f2)])
    if tuple(a - b for a, b in zip(x.f_vector, result.f_vector)) != (4, 6, 4, 2):
        raise AdmissibilityError("the identification merged extra faces")
    return result


def search_attempt(seed, restart: int, k: int, n: int, field: FieldSpec):
    """A search restart on complexes: the sphere is built as a ``Complex``,
    and each of the k handles is found and glued on it as above; the
    quotient is accepted when it is orientable over the field."""
    rng = random.Random(f"{seed}:{restart}")
    sphere = Complex.from_facets(grow_search_sphere_facets(n, rng))
    current = sphere
    steps = []
    for _ in range(k):
        choice = find_admissible_handle(current, rng)
        if choice is None:
            return None
        current = glue(current, *choice)
        steps.append(HandleStep.make(*choice))
    if not is_orientable(current, field):
        return None
    cert = Certificate(seed_facets=tuple(sorted(sphere.facets)), steps=tuple(steps),
                       final_f_vector=current.f_vector, rng_seed=f"{seed}:{restart}")
    return current, cert
