"""Inputs, items and output checks of the three benchmark workloads.

An *item* is one public call into ``tighttri`` whose answer is checked
before the next item starts.  Each item knows how to build a fresh copy of
its input, how to summarise the answer for the golden file, which
golden-free invariants the answer must satisfy, and, for traced runs, how to
re-drive its work through lower-level public calls.

Every pass runs the same items on the same inputs, so each item slot can
be timed over several passes.  Every repetition of an item gets its input
relabelled by ``v -> v + offset`` with an offset unique to that repetition
(a multiple of 4096).  The shift keeps every vertex order, so outputs map
back to the golden ones exactly, and keeps small-int set iteration order,
so nothing that depends on it changes.  Relabelled complexes are new values,
and ``flush_chain_cache`` runs before every pass, so no item finds its
ambient chain data in the library's cache from an earlier item or pass;
README.md lists what an item reuses from its own earlier calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, List, Optional

from tighttri import (AdmissibilityError, ChainData, Complex, HypothesisViolationError,
                      betti, catalog, chain_data, classify_topology, connected_sum,
                      cross_validate, decompose_ti, find_admissible_handle,
                      find_kuratowski_subdivision, handle_addition, induced_cycles,
                      induced_map_injective, is_isomorphic, is_locally_stacked,
                      is_stacked_sphere, is_tight_bruteforce, is_tight_fast_3manifold,
                      is_tight_surface, mod3_obstruction, search_tight, stacked_sphere,
                      verify_closed_manifold, verify_stacked_certificate)
from tighttri.cli import main as cli_main
from tighttri.linalg import GF2, QQ, FieldSpec

GF3 = FieldSpec.gf(3)
FIELDS = (GF2, GF3, QQ)
FIELD_TAG = {GF2: "gf2", GF3: "gfp", QQ: "q"}
CLI_FIELD = {GF2: "2", GF3: "3", QQ: "q"}

WORKLOADS = ("scan", "construct", "spheres")
# Recipe parameters repeat with the seed modulo this; goldens cover each set.
GOLDEN_SETS = 8
OFFSET_STEP = 4096
# Search seeds.  They do not depend on the workload seed, and every pass
# searches the same ones, so every run times the same searches.
BANK_SEEDS = (5000, 5001, 5002)   # set-up quotient bank, the same for every seed
GF2_SEARCH_SEEDS = tuple(range(6))
Q_SEARCH_SEEDS = (2_000_000, 2_000_001, 2_000_002, 2_000_003)
# The CLI items run in rounds spread through the pass, so that the metrics
# they alone feed on some workloads rest on calls made at several moments.
# On scan the workload's own items feed the subset rates, and fewer rounds
# keep its pass short enough for several passes per run.
CLI_ROUNDS = {"scan": 3, "construct": 6, "spheres": 6}
# Six CLI GF(2) searches per pass on every workload, seeds CLI_GF2_SEED0 to
# CLI_GF2_SEED0 + 5, shared out over the rounds.
CLI_GF2_SEED0 = 1000
CLI_GF2_SEARCHES = 6
CLI_Q_SEED0 = 3_000_000
Q_BUDGET = 20
CLI_Q_BUDGET = 10
STACKED_PER_SIZE = 3
BATTERY_SPHERES = 24
TI_POOL = 24
# More distinct complexes than the library's chain-data cache holds.
FLUSH_COMPLEXES = 1024
FLUSH_OFFSET = 1 << 40     # far above every item's labels
# Summands of the seeded T/I sums: at most one icosahedron, so that every
# seeded sum costs less than the 90th-percentile item of the spheres pass.
SEEDED_KINDS = ("TI", "IT", "TTI", "TIT", "ITT", "TTTI", "TT", "TTT", "TTTT", "TTTTT",
                "TTTTTT", "ITTTT", "TITTT", "TTITT", "TTTIT", "TTTTI")


# -- helpers -------------------------------------------------------------------

def relabel(x: Complex, off: int) -> Complex:
    return Complex.from_facets([[v + off for v in f] for f in x.facets])


def back(vs, off: int) -> list:
    return [v - off for v in vs]


def digest(summary) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scan_size(n: int) -> int:
    """Subsets the definitional decider visits on a full scan of n vertices."""
    return (1 << n) - n - 2


def skeleton2(n: int) -> Complex:
    return Complex.from_facets(itertools.combinations(range(n), 3))


def subdivide_first_facet(x: Complex) -> Complex:
    """Bistellar 0-move at the first facet (recipe of tests/conftest.py)."""
    w = max(x.vertex_set) + 1
    base = x.facets[0]
    facets = [f for f in x.facets if f != base]
    facets.extend(tuple(sorted(set(base) - {u} | {w})) for u in base)
    return Complex.from_facets(facets)


def random_ti_sum(rng: random.Random, max_summands: int):
    """Connected sum of T/I boundaries with its recipe (tests/conftest.py)."""
    kinds = [rng.choice("TI") for _ in range(rng.randint(1, max_summands))]
    return ti_sum(kinds, rng), Counter(kinds)


def ti_sum(kinds, rng: random.Random) -> Complex:
    """The connected sum of the given summands, glued at seeded facets."""
    pieces = {"T": catalog.boundary_simplex(3), "I": catalog.icosahedron()}
    x = pieces[kinds[0]]
    for kind in kinds[1:]:
        y = pieces[kind]
        fx = rng.choice(sorted(x.facets))
        fy = rng.choice(sorted(y.facets))
        perm = list(fx)
        rng.shuffle(perm)
        x = connected_sum(x, y, fx, fy, dict(zip(fy, perm)))
    return x


def flipped_violator(kinds, rng: random.Random) -> Complex:
    """A T/I sum after the first seeded edge flip that creates a chordless
    cycle of length = 1 (mod 3)."""
    while True:
        x = ti_sum(kinds, rng)
        edges = list(x.faces(1))
        rng.shuffle(edges)
        for a, b in edges:
            tris = [t for t in x.faces(2) if a in t and b in t]
            c, d = (next(v for v in t if v not in (a, b)) for t in tris)
            if x.has_face((c, d)):
                continue
            facets = [f for f in x.facets if f not in tris]
            facets += [tuple(sorted((a, c, d))), tuple(sorted((b, c, d)))]
            y = Complex.from_facets(facets)
            if not mod3_obstruction(y).ok:
                return y


# -- inputs --------------------------------------------------------------------

@dataclass
class Inputs:
    """Everything a workload needs before timing starts (counted in setup_s)."""

    g: int
    bank: list                       # [(seed, complex, certificate)]
    corpus: list = dc_field(default_factory=list)       # [(name, complex)]
    ti_pool: list = dc_field(default_factory=list)      # [(name, complex, Counter)]
    violators: list = dc_field(default_factory=list)    # [(name, complex)]
    graphs: list = dc_field(default_factory=list)       # [(name, complex, planar)]
    battery: list = dc_field(default_factory=list)      # [(vertices, sphere seed)]


def flush_chain_cache() -> None:
    """Fill the library's chain-data cache with throwaway entries through
    the public ``chain_data``, so that every pass starts from the same
    cache state and finds nothing an earlier pass left there."""
    base = catalog.boundary_simplex(2)
    for i in range(FLUSH_COMPLEXES):
        chain_data(relabel(base, FLUSH_OFFSET + 8 * i), GF2)


def build_inputs(workload: str, seed: int) -> Inputs:
    g = seed % GOLDEN_SETS
    bank = []
    for s in BANK_SEEDS if workload != "construct" else ():  # construct searches in its items
        m, cert = search_tight(1, GF2, budget=2000, seed=s, jobs=1)
        bank.append((s, m, cert))
    inp = Inputs(g, bank)
    if workload == "scan":
        corpus = [("boundary-delta4", catalog.boundary_simplex(4))]
        for n in range(5, 13):
            for j in range(STACKED_PER_SIZE):
                s = 4 * g + j
                corpus.append((f"stacked-{n}-s{s}", stacked_sphere(n, 3, seed=s)))
        for s, m, _ in bank:
            corpus.append((f"quotient-s{s}", m))
            corpus.append((f"quotient-s{s}-subdivided", subdivide_first_facet(m)))
        corpus.append(("susp-delta3", catalog.suspension(catalog.boundary_simplex(3))))
        corpus.append(("susp-octahedron",
                       catalog.suspension(catalog.suspension(catalog.cycle_complex(4)))))
        inp.corpus = corpus
    inp.ti_pool = _ti_pool(g, with_small=workload == "spheres")
    if workload == "spheres":
        inp.violators = [(f"susp-c{n}", catalog.suspension(catalog.cycle_complex(n)))
                         for n in range(4, 13)]
        rng = random.Random(f"flip:{g}")
        inp.violators += [(f"flip-g{g}-{kinds}", flipped_violator(kinds, rng))
                          for kinds in SEEDED_KINDS[:6]]
        graphs = [(f"stacked2-{n}-s{g}", stacked_sphere(n, 2, seed=g).one_skeleton(), True)
                  for n in (10, 14, 18, 22, 26, 30)]
        graphs += [("K5", catalog.complete_graph(5), False),
                   ("K33", catalog.complete_bipartite(3, 3), False),
                   ("subdivided-K33", catalog.subdivided_k33_graph(), False),
                   ("K6", catalog.complete_graph(6), False)]
        inp.graphs = graphs
    if workload == "construct":
        # The sizes are the same for every seed, so that the item costs are too.
        inp.battery = [(18 + j % 13, 100_000 + BATTERY_SPHERES * g + j)
                       for j in range(BATTERY_SPHERES)]
    return inp


def _ti_pool(g: int, with_small: bool) -> list:
    """The first TI_POOL sums of the acceptance-06 stream, the same for every
    seed because their cost is heavy-tailed, plus small sums of fixed
    summands glued at seeded facets."""
    rng = random.Random(20160108)
    pool = []
    for i in range(TI_POOL if with_small else 2):
        x, counts = random_ti_sum(rng, 6)
        pool.append((f"ti-{i}", x, counts))
    if with_small:
        rng = random.Random(f"ti:{g}")
        pool += [(f"ti-g{g}-{kinds}", ti_sum(kinds, rng), Counter(kinds)) for kinds in SEEDED_KINDS]
    return pool


# -- items ---------------------------------------------------------------------

@dataclass
class Item:
    """One checked public call.

    ``make(off)`` builds the arguments (untimed), or returns None when the
    item does not apply; ``call(*args)`` is timed; ``summary(args, result)``
    gives the golden summary at base labels (no summary: the item has only
    invariants); ``invariant(args, result)`` returns an error text or None;
    ``replay(tracer, item, args, result)`` re-drives the work in traced runs
    and returns an error text or None.  ``raises`` names the exception the
    call must raise, which then stands in for the result.  ``stats(args,
    result)`` feeds the metrics.
    """

    key: str
    kind: str
    make: Callable[[int], tuple]
    call: Callable[..., Any]
    summary: Optional[Callable] = None
    invariant: Optional[Callable] = None
    replay: Optional[Callable] = None
    raises: Optional[type] = None
    stats: Optional[Callable] = None
    field: Optional[FieldSpec] = None
    cli: bool = False


def _brute_summary(report, off: int) -> dict:
    w = None
    if report.witness is not None:
        w = [back(report.witness[0], off), report.witness[1]]
    return {"verdict": report.verdict, "witness": w, "subsets": report.subsets_scanned}


def decider_items(name: str, x: Complex, cv: bool = True, expect_tight: bool = False,
                  surface: bool = False, fields=FIELDS) -> List[Item]:
    out = []
    for F in fields:
        def make(off, x=x):
            return (relabel(x, off), off, x)

        def call(y, off, x, F=F):
            return cross_validate(y, F, jobs=1) if cv else is_tight_bruteforce(y, F, jobs=1)

        def summary(args, r):
            return _brute_summary(r.brute if cv else r, args[1])

        def stats(args, r):
            brute = r.brute if cv else r
            return {"subsets": brute.subsets_scanned, "total": scan_size(args[0].num_vertices),
                    "brute_s": brute.elapsed, "fast_s": r.fast.elapsed if cv else 0.0,
                    "witness": brute.witness}

        def invariant(args, r, F=F):
            brute = r.brute if cv else r
            if expect_tight and not brute.verdict:
                return "skeleton must be tight"
            if surface and is_tight_surface(args[0], F).verdict != brute.verdict:
                return "surface criterion disagrees with the scan"
            return None

        out.append(Item(f"{'cv' if cv else 'brute'}/{name}/{F}", "decider", make, call,
                        summary=summary, invariant=invariant, replay=replay_scan,
                        stats=stats, field=F))
    return out


def replay_scan(tracer, item: Item, args, result) -> Optional[str]:
    """Re-drive the definitional scan from outside on a fresh copy: cold
    chain data, then ``induced`` and ``induced_map_injective`` per subset
    in the documented order, up to the item's first failure, which must be
    the item's.  ``args`` is ``(input, offset, base complex)``."""
    st = item.stats(args, result)
    off, base, F = args[1], args[2], item.field
    want = None if st["witness"] is None else (back(st["witness"][0], off), st["witness"][1])
    x_off = tracer.fresh_offset()
    x = relabel(base, x_off)
    tracer.call("homology.chain_data", chain_data, x, F)
    if item.key.startswith("cv/"):
        tracer.call("tightness.fast", is_tight_fast_3manifold, x, F)
    visited = []
    got = None
    for size in range(2, x.num_vertices):
        for w in itertools.combinations(x.vertices, size):
            y = tracer.call("complexes.induced", x.induced, w, covers=False)
            v = tracer.call("homology.injective", induced_map_injective, x, w, F,
                            attrs={"field": FIELD_TAG[F]})
            visited.append(y)
            if not v.ok:
                tracer.last["fail_deg"] = v.witness[0]
                got = (back(w, x_off), v.witness[0])
                break
        if got is not None:
            break
    if got != want or len(visited) != st["subsets"]:
        return (f"replayed scan stopped at {got} after {len(visited)} subsets, "
                f"the item at {want} after {st['subsets']}")
    for y in visited:   # sibling replay: elimination on the subcomplex boundaries
        cd = ChainData(y, F)
        for k in range(1, y.dim + 1):
            b = cd.boundary(k)
            tracer.call("linalg.elim", b.left_nullspace, covers=False,
                        attrs={"field": FIELD_TAG[F], "rows": b.ncols})
            if k < y.dim:
                b1 = cd.boundary(k + 1)
                tracer.call("linalg.elim", b1.rank, covers=False,
                            attrs={"field": FIELD_TAG[F], "rows": b1.nrows})
    return None


# -- CLI items -----------------------------------------------------------------

def run_cli(argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def canonical(doc) -> str:
    """The CLI's documented JSON layout: sorted keys, two-space indent."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cli_doc(text: str, off: int, command: str) -> dict:
    """Parsed CLI output with ``wall_time_s`` dropped and labels mapped back."""
    doc = json.loads(text)
    doc.pop("wall_time_s", None)
    if isinstance(doc.get("report"), dict):
        doc["report"].pop("wall_time_s", None)
    wit = doc.get("witness")
    if command == "tight" and wit:
        wit["subset"] = back(wit["subset"], off)
    if command == "cycles" and wit:
        wit["vertices"] = back(wit["vertices"], off)
    if command == "decompose":
        for cut in doc.get("cuts", ()):
            cut["triangle"] = back(cut["triangle"], off)
            cut["sides"] = [back(side, off) for side in cut["sides"]]
    return doc


def write_complex(workdir: str, name: str, x: Complex) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": "in", "dim": x.dim, "facets": [list(f) for f in x.facets]}, fh)
    return path


def _cli_canonical(args, res) -> Optional[str]:
    code, text = res
    if not text or text != canonical(json.loads(text)):
        return "CLI output is not in canonical JSON layout"
    return None


def cli_round(inp: Inputs, workdir: str, r: int, rounds: int) -> List[Item]:
    """Round r of the in-process ``tighttri.cli.main`` items every workload
    runs.  An item's key names its round after ``#``; the golden is shared."""
    items = []
    for F in FIELDS:
        # Scans of a few hundredths of a second: Q eliminates about 30 times
        # slower than GF(2), GF(3) about 3 times.
        n = {GF2: 8, GF3: 7, QQ: 6}[F]
        skeleton = skeleton2(n)

        def make(off, F=F, skeleton=skeleton):
            path = write_complex(workdir, f"tight-{FIELD_TAG[F]}", relabel(skeleton, off))
            return (["check", "tight", path, "--field", CLI_FIELD[F], "--mode", "brute",
                     "--json", "--jobs", "1"], off, skeleton)

        def stats(args, res):
            # Stats follow a passed golden check: the skeleton is tight, the scan full.
            wall = json.loads(res[1])["wall_time_s"]
            n = scan_size(args[2].num_vertices)
            return {"subsets": n, "total": n, "brute_s": wall, "fast_s": 0.0, "lib_s": wall,
                    "witness": None}

        items.append(Item(f"cli/tight/skeleton2-delta{n - 1}/{F}#{r}", "decider", make,
                          lambda argv, off, base: run_cli(argv),
                          summary=lambda a, r: {"code": r[0], "doc": cli_doc(r[1], a[1], "tight")},
                          invariant=_cli_canonical, replay=replay_scan,
                          stats=stats, field=F, cli=True))

    per_round = CLI_GF2_SEARCHES // rounds
    for s in range(CLI_GF2_SEED0 + r * per_round, CLI_GF2_SEED0 + (r + 1) * per_round):
        items.append(Item(f"cli/search/gf2/{s}", "search",
                          lambda off, s=s: (["search", "tight", "--k", "1", "--field", "2",
                                             "--seed", str(s), "--budget", "2000", "--jobs", "1"],),
                          run_cli,
                          summary=lambda a, r: {"code": r[0], "doc": cli_doc(r[1], 0, "search")},
                          invariant=_cli_canonical, stats=_cli_search_stats, field=GF2, cli=True))

    s = CLI_Q_SEED0 + r
    expected_q = {"found": False, "k": 1, "field": "Q", "budget": CLI_Q_BUDGET, "seed": s}

    def q_invariant(args, res, expected=expected_q):
        if res[0] != 1 or cli_doc(res[1], 0, "search") != expected:
            return "Q search must report found=false after its whole budget"
        return _cli_canonical(args, res)

    items.append(Item(f"cli/search/q/{s}", "search",
                      lambda off, s=s: (["search", "tight", "--k", "1", "--field", "q", "--seed",
                                         str(s), "--budget", str(CLI_Q_BUDGET), "--jobs", "1"],),
                      run_cli, invariant=q_invariant, stats=_cli_search_stats, field=QQ, cli=True))
    if r:
        return items

    name, ti, _ = inp.ti_pool[1]
    ico = catalog.icosahedron()
    for command, base, lib in (("decompose", ti, decompose_ti), ("cycles", ico, mod3_obstruction)):
        def make(off, command=command, base=base):
            path = write_complex(workdir, command, relabel(base, off))
            argv = [command, path, "--json"] + (["--mod3"] if command == "cycles" else [])
            return (argv, off, base)

        def replay(tracer, item, args, res, lib=lib):
            x = relabel(args[2], tracer.fresh_offset())
            tracer.call("cli.library", lib, x)
            return None

        items.append(Item(f"cli/{command}/{'icosahedron' if command == 'cycles' else name}", "cli",
                          make, lambda argv, off, base: run_cli(argv),
                          summary=lambda a, r, c=command: {"code": r[0], "doc": cli_doc(r[1], a[1], c)},
                          invariant=_cli_canonical, replay=replay, cli=True))
    return items


def _cli_search_stats(args, res):
    doc = json.loads(res[1])
    budget = int(args[0][args[0].index("--budget") + 1])
    if doc["found"]:
        restarts = int(doc["certificate"]["rng_seed"].split(":")[1]) + 1
    else:
        restarts = budget
    return {"restarts": restarts, "found": int(doc["found"]), "lib_s": doc["wall_time_s"]}


# -- scan ----------------------------------------------------------------------

def scan_items(inp: Inputs) -> List[Item]:
    items = []
    for name, x in inp.corpus:
        items += decider_items(name, x)
    # Over Q only the smallest skeleton: the scans of Delta7 and Delta8 over Q
    # take 0.7 s and 4-6 s, and so few long calls made q_subsets_per_s swing.
    for n, fields in ((7, FIELDS), (8, (GF2, GF3)), (9, (GF2, GF3))):
        items += decider_items(f"skeleton2-delta{n - 1}", skeleton2(n), cv=False,
                               expect_tight=True, fields=fields)
    for name, x in (("rp2-6", catalog.projective_plane_6()), ("torus-7", catalog.torus_7())):
        items += decider_items(name, x, cv=False, surface=True)
    return items


# -- construct -----------------------------------------------------------------

def search_items(state: dict) -> List[Item]:
    """The GF(2) searches and the checks on each found quotient."""
    items = []
    seeds = GF2_SEARCH_SEEDS
    for s in seeds:
        def call(s=s):
            res = search_tight(1, GF2, budget=2000, seed=s, jobs=1)
            state[s] = res
            return res

        def summary(args, res):
            m, cert = res
            return {"rng_seed": cert.rng_seed, "facets": [list(f) for f in sorted(m.facets)]}

        def invariant(args, res):
            if res is None or res[0].f_vector != (9, 36, 54, 27):
                return "the k=1 GF(2) search must find a 9-vertex quotient"
            return None

        def stats(args, res):
            return {"restarts": int(res[1].rng_seed.split(":")[1]) + 1, "found": 1}

        items.append(Item(f"search/gf2/{s}", "search", lambda off: (), call,
                          summary=summary, invariant=invariant, replay=replay_confirm,
                          stats=stats, field=GF2))

    for s in seeds:
        def found(off, s=s):
            m, cert = state[s]
            return (relabel(m, off), cert, off)

        items.append(Item(f"cert/{s}", "cert", found,
                          lambda m, cert, off: verify_stacked_certificate(m, cert),
                          summary=lambda a, v: {"ok": v.ok, "detail": v.detail}))
        items.append(Item(f"classify/{s}", "classify", found,
                          lambda m, cert, off: classify_topology(m, cert),
                          summary=lambda a, t: {"kind": t.kind, "k": t.k}))
        items.append(Item(f"locstack/{s}", "locstack", found,
                          lambda m, cert, off: is_locally_stacked(m),
                          summary=lambda a, v: {"ok": v.ok, "witness": v.witness},
                          invariant=lambda a, v: None if v.ok else "a tight quotient is locally stacked"))

        def iso_make(off, s=s):
            m, _ = state[s]
            perm = list(m.vertices)
            random.Random(f"iso:{s}:{off}").shuffle(perm)
            image = {v: perm[i] + off for i, v in enumerate(m.vertices)}
            y = Complex.from_facets([[image[v] for v in f] for f in m.facets])
            return (relabel(m, off), y)

        def iso_invariant(args, mapping):
            x, y = args
            if mapping is None or {tuple(sorted(mapping[v] for v in f)) for f in x.facets} != set(y.facets):
                return "is_isomorphic must return a facet-preserving bijection"
            return None

        items.append(Item(f"iso/{s}", "iso", iso_make, is_isomorphic, invariant=iso_invariant))
    return items


def replay_confirm(tracer, item: Item, args, res) -> Optional[str]:
    """Sibling replay of the search's confirm scan on a fresh copy."""
    m = relabel(res[0], tracer.fresh_offset())
    tracer.call("construct.confirm", lambda: cross_validate(m, GF2, jobs=1), covers=False)
    return None


def q_search_items() -> List[Item]:
    items = []
    for s in Q_SEARCH_SEEDS:
        items.append(Item(f"search/q/{s}", "search", lambda off: (),
                          lambda s=s: search_tight(1, QQ, budget=Q_BUDGET, seed=s, jobs=1),
                          invariant=lambda a, r: None if r is None else "every k=1 quotient is Q-non-orientable",
                          stats=lambda a, r: {"restarts": Q_BUDGET, "found": 0}, field=QQ))
    return items


def battery_items(inp: Inputs, state: dict) -> List[Item]:
    """Acceptance 08's handle battery: one admissible site search per
    stacked 3-sphere, the handle addition where a site exists, and an
    intersecting and an adjacent request that must both be rejected."""
    items = []
    for n, s in inp.battery:
        base = stacked_sphere(n, 3, seed=s)

        def find_make(off, base=base, s=s):
            return (relabel(base, off), random.Random(s), off)

        def find_call(x, rng, off, s=s):
            res = find_admissible_handle(x, rng)
            state[("site", s)] = None if res is None else (back(res[0], off), back(res[1], off),
                                                           {v - off: w - off for v, w in res[2].items()})
            return res

        def find_summary(args, res):
            if res is None:
                return None
            off = args[2]
            return [back(res[0], off), back(res[1], off),
                    sorted([v - off, w - off] for v, w in res[2].items())]

        items.append(Item(f"find/{s}", "find", find_make, find_call, summary=find_summary,
                          stats=lambda a, r: {"none": r is None}))

        def add_make(off, base=base, s=s):
            site = state.get(("site", s))
            if site is None:
                return None
            f1, f2, bij = site
            return (relabel(base, off), [v + off for v in f1], [v + off for v in f2],
                    {v + off: w + off for v, w in bij.items()}, off)

        def add_invariant(args, y):
            x = args[0]
            if tuple(a - b for a, b in zip(x.f_vector, y.f_vector)) != (4, 6, 4, 2):
                return "a handle addition drops the f-vector by (4, 6, 4, 2)"
            if betti(y, GF2)[1] != betti(x, GF2)[1] + 1:
                return "a handle addition raises beta_1 by one"
            return None

        items.append(Item(f"handle/{s}", "handle", add_make,
                          lambda x, f1, f2, bij, off: handle_addition(x, f1, f2, bij),
                          summary=lambda a, y: [back(f, a[4]) for f in sorted(y.facets)],
                          invariant=add_invariant, replay=replay_handle))

        def reject_make(off, base=base, s=s):
            x = relabel(base, off)
            facets = sorted(x.facets)
            site = state.get(("site", s))
            f1 = facets[0] if site is None else tuple(v + off for v in site[0])
            g2 = next(g for g in facets if g != f1 and set(g) & set(f1))
            return (x, f1, g2, dict(zip(f1, g2)))

        def adjacent_make(off, base=base):
            x = relabel(base, off)
            facets = sorted(x.facets)
            for g1 in facets:
                for g2 in facets:
                    if set(g1) & set(g2):
                        continue
                    adj = [(v, w) for v in g1 for w in g2 if w in x.neighbors(v)]
                    if adj:
                        v, w = adj[0]
                        rest = zip([u for u in g1 if u != v], [u for u in g2 if u != w])
                        return (x, g1, g2, {v: w, **dict(rest)})
            raise RuntimeError("no disjoint facet pair joined by an edge")

        for tag, make in (("intersecting", reject_make), ("adjacent", adjacent_make)):
            items.append(Item(f"reject-{tag}/{s}", "reject", make, handle_addition,
                              raises=AdmissibilityError, replay=replay_handle))
    return items


def replay_handle(tracer, item: Item, args, res) -> Optional[str]:
    """handle_addition checks its input, and a result, as closed manifolds."""
    for x in (args[0],) if item.raises else (args[0], res):
        tracer.call("complexes.verify_closed_manifold", verify_closed_manifold,
                    relabel(x, tracer.fresh_offset()))
    return None


def construct_items(inp: Inputs, state: dict) -> List[Item]:
    """The GF(2) searches, then the battery with a Q search ahead of each
    equal share of it, so that the Q searches run at several moments."""
    items = search_items(state)
    battery = battery_items(inp, state)
    k = len(Q_SEARCH_SEEDS)
    for i, q in enumerate(q_search_items()):
        items += [q] + battery[i * len(battery) // k:(i + 1) * len(battery) // k]
    return items


# -- spheres -------------------------------------------------------------------

def spheres_items(inp: Inputs) -> List[Item]:
    items = []
    for name, x, counts in inp.ti_pool:
        def make(off, x=x):
            return (relabel(x, off), off)

        def dec_invariant(args, res, counts=counts):
            want = {"T": counts.get("T", 0), "I": counts.get("I", 0)}
            return None if res.as_dict() == want else f"summands {res.as_dict()} != recipe {want}"

        items.append(Item(f"decompose/{name}", "decompose", make,
                          lambda y, off: decompose_ti(y),
                          summary=lambda a, r: {"T": r.tetrahedra, "I": r.icosahedra,
                                                "cuts": [[back(t, a[1]), back(l, a[1]), back(rr, a[1])]
                                                         for t, (l, rr) in r.cuts]},
                          invariant=dec_invariant, replay=replay_decompose,
                          stats=lambda a, r: {"cuts": len(r.cuts)}))
        items.append(Item(f"stacked2/{name}", "stacked2", make,
                          lambda y, off: is_stacked_sphere(y, 2),
                          summary=lambda a, v: {"ok": v.ok, "witness": back(v.witness, a[1])},
                          invariant=lambda a, v, counts=counts: None if v.ok == (counts.get("I", 0) == 0)
                          else "a T/I sum is stacked exactly when it has no icosahedron"))
    for name, x in inp.violators:
        items.append(Item(f"violator/{name}", "decompose",
                          lambda off, x=x: (relabel(x, off), off),
                          lambda y, off: decompose_ti(y),
                          summary=lambda a, e: {"witness": back(e.witness.vertices, a[1])},
                          raises=HypothesisViolationError, replay=replay_decompose,
                          stats=lambda a, e: {"cuts": 0}))
    links = [(f"link-s{s}-v{v}", m.link(v)) for s, m, _ in inp.bank for v in m.vertices]
    links.append(("icosahedron", catalog.icosahedron()))
    for name, x in links:
        def make(off, x=x):
            return (relabel(x, off), off)

        items.append(Item(f"mod3/{name}", "mod3", make, lambda y, off: mod3_obstruction(y),
                          summary=lambda a, v: {"ok": v.ok},
                          invariant=lambda a, v: None if v.ok else
                          "links of tight complexes have no chordless cycle of length 1 mod 3"))
        items.append(Item(f"cycles/{name}", "cycles", make,
                          lambda y, off: induced_cycles(y.one_skeleton(), y.num_vertices),
                          summary=lambda a, cs: [back(c.vertices, a[1]) for c in cs],
                          stats=lambda a, cs: {"count": len(cs)}))
    for name, gr, planar in inp.graphs:
        def kur_summary(args, w):
            if w is None:
                return None
            off = args[1]
            branch = (back(w.branch_vertices, off) if w.pattern == "K5"
                      else [back(part, off) for part in w.branch_vertices])
            return {"pattern": w.pattern, "branch": branch, "paths": [back(q, off) for q in w.paths]}

        items.append(Item(f"kuratowski/{name}", "kuratowski",
                          lambda off, gr=gr: (relabel(gr, off), off),
                          lambda y, off: find_kuratowski_subdivision(y),
                          summary=kur_summary,
                          invariant=lambda a, w, planar=planar: None if (w is None) == planar
                          else "planarity verdict is wrong",
                          stats=lambda a, w: {"planar": w is None}))
    return items


def replay_decompose(tracer, item: Item, args, res) -> Optional[str]:
    """decompose_ti = manifold check + mod3 obstruction + cuts; re-drive the
    first two on a fresh copy, and count the chordless cycles the
    definitional enumeration visits."""
    x = relabel(args[0], tracer.fresh_offset() - args[1])
    tracer.call("complexes.verify_closed_manifold", verify_closed_manifold, x)
    tracer.call("stacked.mod3", mod3_obstruction, x)
    g = x.one_skeleton()
    cycles = tracer.call("stacked.cycles", induced_cycles, g, max(g.num_vertices, 3), covers=False)
    tracer.last["count"] = len(cycles)
    return None


# -- passes --------------------------------------------------------------------

def golden_key(item: Item) -> str:
    return item.key.split("#")[0]


def pass_items(workload: str, inp: Inputs, state: dict, workdir: str) -> List[Item]:
    """The items of one pass, in execution order; every pass has the same.
    Each round of CLI items follows an equal share of the workload's own."""
    if workload == "scan":
        items = scan_items(inp)
    elif workload == "construct":
        items = construct_items(inp, state)
    else:
        items = spheres_items(inp)
    out = []
    rounds = CLI_ROUNDS[workload]
    for r in range(rounds):
        out += items[r * len(items) // rounds:(r + 1) * len(items) // rounds]
        out += cli_round(inp, workdir, r, rounds)
    return out
