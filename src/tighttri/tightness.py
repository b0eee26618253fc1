"""Tightness deciders: definitional subset scan, the polynomial 3-manifold
criterion, and the closed-surface criterion.

The brute-force decider enumerates induced subcomplexes by increasing vertex
count (then lexicographically) and stops at the first injectivity failure,
so the reported witness is deterministic.  Subsets are vertex bitmasks,
and on closed F-orientable surfaces and 3-manifolds Alexander duality halves
the scan and leaves out its top degree (see :func:`is_tight_bruteforce`).
Scans and restart searches share one first-hit loop, in process with one
worker and on a process pool otherwise.  The fast 3-manifold
decider checks orientability together with (f0-4)(f0-5) = 20*beta_1 over
the field; cross-validation of the two is the headline regression test and
raises if they ever disagree.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool
from typing import Optional

from .complexes import (Complex, InternalInconsistencyError, PreconditionError,
                        _closed_surface_or_3_manifold, _require_closed_manifold)
from .homology import betti, chain_data, injectivity_on_mask, is_orientable
from .linalg import FieldSpec

BRUTE_FORCE_VERTEX_CAP = 30
# Below this many subsets a parallel scan costs more than it saves.
PARALLEL_MIN_SUBSETS = 1 << 14
_CHUNK = 2048


@dataclass(frozen=True)
class TightnessReport:
    """Outcome of one tightness decision.

    ``witness`` is a ``(vertex subset, degree)`` pair and is present exactly
    when the brute-force method fails; the fast and surface methods record
    the data their criterion evaluated instead.  ``subsets_scanned`` counts
    the subsets decided, duality's included (2**f0 - f0 - 2 when tight).
    """

    verdict: bool
    method: str  # "brute" | "fast-3manifold" | "surface"
    field: FieldSpec
    f_vector: tuple
    witness: Optional[tuple] = None
    orientable: Optional[bool] = None
    beta1: Optional[int] = None
    neighbourly: Optional[bool] = None
    subsets_scanned: int = 0
    elapsed: float = 0.0


def _subset_masks(n: int, last: int):
    """Vertex-position masks of the subsets of 2..last vertices, in scan order."""
    bits = [1 << i for i in range(n)]
    for size in range(2, last + 1):
        for c in itertools.combinations(bits, size):
            yield sum(c)


def _duality_applies(x: Complex, field: FieldSpec) -> bool:
    """Whether the connected ``x`` is a closed F-orientable 2- or 3-manifold."""
    return _closed_surface_or_3_manifold(x) and is_orientable(x, field)


def _first_failure(x: Complex, field: FieldSpec, top: int, block: tuple) -> Optional[tuple]:
    """``(index, mask, degree)`` of the first mask in ``block = (start, masks)``
    whose subcomplex fails injectivity in a degree up to ``top``, or None;
    masks are numbered from ``start``."""
    start, masks = block
    cd = chain_data(x, field)
    for i, w in enumerate(masks, start):
        v = injectivity_on_mask(cd, w, top)
        if not v.ok:
            return i, w, v.witness[0]
    return None


def _install(task) -> None:
    """Pool initializer, run once per worker: the task :func:`_run` calls."""
    global _task
    _task = task


def _run(block):
    return _task(block)


def _first_hit(task, blocks, jobs: int):
    """The first non-None ``task(block)`` in block order.  With one worker,
    min(jobs, cores), the blocks run in this process; otherwise on a pool
    whose initializer hands each worker ``task`` once, so only blocks
    travel, at most two per worker queued.  It returns as soon as the hit
    is known: leaving the pool terminates its workers, so the blocks still
    running or queued behind it are dropped, not waited for."""
    workers = min(jobs, os.cpu_count() or 1) if jobs > 1 else 1
    if workers == 1:
        return next((hit for hit in map(task, blocks) if hit is not None), None)
    blocks = iter(blocks)
    with Pool(workers, _install, (task,)) as pool:
        pending = deque(pool.apply_async(_run, (b,)) for b in itertools.islice(blocks, 2 * workers))
        while pending:
            hit = pending.popleft().get()
            if hit is not None:
                return hit
            pending.extend(pool.apply_async(_run, (b,)) for b in itertools.islice(blocks, 1))
    return None


def is_tight_bruteforce(x: Complex, field: FieldSpec, *,
                        allow_exponential: bool = False,
                        jobs: int = 1) -> TightnessReport:
    """Definitional tightness: connectivity plus injectivity for every induced
    subcomplex on 2 <= |W| < f0 vertices (the full vertex set is trivially
    injective, singletons are automatic).

    Each subset W is a vertex bitmask tested on the ambient faces.  On a
    closed F-orientable 2- or 3-manifold (beta_dim > 0) Alexander duality
    makes W fail in degree k iff V - W fails in degree dim - 1 - k, so every
    failure past f0/2 vertices has an earlier dual: the scan stops after
    floor(f0/2) vertices.  It also tests degrees 0..dim - 2 only.  X[V - W]
    is a deformation retract of |X| - |X[W]|, so W fails in degree dim - 1
    iff X[V - W] is disconnected, and that never decides the scan: if the
    1-skeleton is complete, every nonempty X[V - W] is connected; otherwise
    the first non-edge fails in degree 0, and no 2-vertex W fails in a
    higher degree, because removing two points or an edge leaves a closed
    connected manifold of dimension >= 2 connected.  So the first failure
    is the full test's.  ``subsets_scanned`` counts the subsets decided.

    Refuses more than 30 vertices unless ``allow_exponential`` is set.  The
    scan runs serially unless ``jobs`` > 1, which shards scans that visit
    2**14 or more subsets across min(jobs, cores) processes; the first
    failure in enumeration order wins, so results do not depend on the
    worker count.
    """
    t0 = time.perf_counter()
    n = x.num_vertices
    if n == 0:
        raise PreconditionError("tightness needs a nonempty complex")
    if n > BRUTE_FORCE_VERTEX_CAP and not allow_exponential:
        raise PreconditionError(
            f"{n} vertices means 2**{n} subsets; pass allow_exponential=True "
            "(CLI: --i-know-this-is-exponential) to scan anyway")
    if not x.is_connected():
        return TightnessReport(False, "brute", field, x.f_vector,
                               witness=(x.vertices, 0),
                               subsets_scanned=0,
                               elapsed=time.perf_counter() - t0)
    if _duality_applies(x, field):
        last, top = n // 2, x.dim - 2
    else:
        last, top = n - 1, x.dim - 1
    visits = sum(math.comb(n, size) for size in range(2, last + 1))
    masks = _subset_masks(n, last)
    if jobs > 1 and visits >= PARALLEL_MIN_SUBSETS:
        blocks = ((start, list(itertools.islice(masks, _CHUNK)))
                  for start in range(0, visits, _CHUNK))
    else:
        # in process, as one lazy block: a scan that stops builds no more masks
        jobs, blocks = 1, [(0, masks)]
    failure = _first_hit(partial(_first_failure, x, field, top), blocks, jobs)
    elapsed = time.perf_counter() - t0
    if failure is None:
        total = (1 << n) - n - 2 if n >= 2 else 0
        return TightnessReport(True, "brute", field, x.f_vector,
                               subsets_scanned=total, elapsed=elapsed)
    idx, w, degree = failure
    subset = tuple(v for i, v in enumerate(x.vertices) if w >> i & 1)
    return TightnessReport(False, "brute", field, x.f_vector,
                           witness=(subset, degree), subsets_scanned=idx + 1,
                           elapsed=elapsed)


def is_tight_fast_3manifold(x: Complex, field: FieldSpec) -> TightnessReport:
    """Polynomial-time tightness for closed 3-manifolds: orientable over the
    field and (f0-4)(f0-5) == 20*beta_1.  Validates its own precondition
    rather than trusting the caller; the criterion is false for
    non-manifolds."""
    t0 = time.perf_counter()
    _require_closed_manifold(x, 3, "the fast criterion applies to closed 3-manifolds only")
    b = betti(x, field)
    orientable = b[3] > 0
    f0 = x.f_vector[0]
    verdict = orientable and (f0 - 4) * (f0 - 5) == 20 * b[1]
    return TightnessReport(verdict, "fast-3manifold", field, x.f_vector,
                           orientable=orientable, beta1=b[1],
                           elapsed=time.perf_counter() - t0)


def is_tight_surface(x: Complex, field: FieldSpec) -> TightnessReport:
    """Closed-surface tightness: orientable over the field and neighbourly."""
    t0 = time.perf_counter()
    _require_closed_manifold(x, 2, "the surface criterion applies to closed 2-manifolds only")
    orientable = is_orientable(x, field)
    neigh = x.is_neighbourly()
    return TightnessReport(orientable and neigh, "surface", field, x.f_vector,
                           orientable=orientable, neighbourly=neigh,
                           elapsed=time.perf_counter() - t0)


@dataclass(frozen=True)
class CrossValidation:
    verdict: bool
    brute: TightnessReport
    fast: TightnessReport


def cross_validate(x: Complex, field: FieldSpec, *,
                   allow_exponential: bool = False,
                   jobs: int = 1) -> CrossValidation:
    """Run the definitional and the fast decider on a closed 3-manifold and
    demand identical verdicts.  A disagreement raises — it would mean a bug,
    never a mathematical possibility."""
    fast = is_tight_fast_3manifold(x, field)
    brute = is_tight_bruteforce(x, field, allow_exponential=allow_exponential, jobs=jobs)
    if fast.verdict != brute.verdict:
        raise InternalInconsistencyError(
            f"tightness deciders disagree: brute={brute.verdict} fast={fast.verdict}",
            brute, fast)
    return CrossValidation(brute.verdict, brute, fast)
