"""Command-line interface and file formats.

Exit codes: 0 when the queried property holds (or a generation command
succeeds), 1 when the property fails (a JSON witness goes to stdout), 2 for
usage or input errors (single-line diagnostic on stderr).

Complexes are read from JSON documents ``{"name", "dim", "facets"}``, from
plaintext (one facet per line, whitespace-separated labels, ``#`` comments),
or from ``builtin:<name>`` references.  Serialization is canonical: vertices
sorted within facets, facets sorted lexicographically.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional, Tuple

from . import catalog
from .complexes import Complex, MalformedComplexError, PreconditionError
from .complexes import _closed_surface_or_3_manifold, verify_closed_manifold
from .construct import (Certificate, admissible_k, classify_topology,
                        handle_addition, search_tight, stacked_sphere)
from .homology import betti
from .linalg import QQ, FieldSpec
from .stacked import (HypothesisViolationError, decompose_ti, induced_cycles,
                      is_locally_stacked, is_stacked_sphere, mod3_obstruction)
from .tightness import (TightnessReport, is_tight_bruteforce,
                        is_tight_fast_3manifold, is_tight_surface)

ENV_SEED = "TIGHTTRI_SEED"


class InputError(ValueError):
    """User-facing input problem (exit code 2)."""


def _int_at_least(low: int, what: str):
    """argparse type for an integer option with a lower bound."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {value}")
        return value
    return parse


# -- complex files -------------------------------------------------------------

def parse_field(text: str) -> FieldSpec:
    t = text.strip().lower()
    if t == "q":
        return QQ
    if t.startswith("p:"):
        t = t[2:]
    try:
        p = int(t)
    except ValueError:
        raise InputError(f"bad field {text!r}: expected q, 2, or p:<prime>") from None
    try:
        return FieldSpec.gf(p)
    except ValueError as e:
        raise InputError(f"bad field {text!r}: {e}") from None


def load_complex(ref: str) -> Tuple[str, Complex]:
    """Resolve a builtin reference or read a complex file (JSON or plaintext)."""
    if ref.startswith("builtin:"):
        name = ref[len("builtin:"):]
        try:
            return name, catalog.builtin(name)
        except MalformedComplexError as e:
            raise InputError(str(e)) from None
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {ref}: {e.strerror}") from None
    name = os.path.splitext(os.path.basename(ref))[0]
    return _parse_complex_text(text, name)


def _parse_complex_text(text: str, default_name: str) -> Tuple[str, Complex]:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:
            raise InputError(f"invalid JSON: {e}") from None
        if not isinstance(doc, dict) or "facets" not in doc:
            raise InputError("JSON complex documents need a 'facets' field")
        try:
            x = Complex.from_facets(doc["facets"])
        except (MalformedComplexError, TypeError) as e:
            raise InputError(f"bad facet list: {e}") from None
        if "dim" in doc and doc["dim"] != x.dim:
            raise InputError(f"document says dim={doc['dim']} but the facets give dim={x.dim}")
        return str(doc.get("name", default_name)), x
    facets = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            facets.append([int(tok) for tok in body.split()])
        except ValueError:
            raise InputError(f"line {lineno}: expected whitespace-separated integers") from None
    if not facets:
        raise InputError("no facets found in input")
    try:
        return default_name, Complex.from_facets(facets)
    except MalformedComplexError as e:
        raise InputError(f"bad facet list: {e}") from None


def complex_document(name: str, x: Complex) -> dict:
    return {
        "name": name,
        "dim": x.dim,
        "facets": [list(f) for f in sorted(x.facets)],
    }


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- report assembly -----------------------------------------------------------

def _tightness_json(name: str, x: Complex, report: TightnessReport,
                    seed=None) -> dict:
    witness = None
    if report.witness is not None:
        subset, degree = report.witness
        witness = {"subset": list(subset), "degree": degree}
    return {
        "name": name,
        "verdict": report.verdict,
        "method": report.method,
        "field": str(report.field),
        "f_vector": list(report.f_vector),
        "betti": list(betti(x, report.field)),
        "witness": witness,
        "wall_time_s": round(report.elapsed, 6),
        "seed": seed,
    }


def _output(args, doc, text: Optional[str]) -> int:
    """Write a handler's result and return its exit code: ``doc`` as JSON
    when there is no ``text``, under ``--json`` or when the document's
    ``verdict`` or ``found`` is false, else ``text``; 1 exactly when that
    ``verdict`` or ``found`` is false, else 0."""
    ok = not isinstance(doc, dict) or (doc.get("verdict", True) and doc.get("found", True))
    if text is None or getattr(args, "json", False) or not ok:
        sys.stdout.write(dumps(doc))
    else:
        print(text)
    return 0 if ok else 1


# -- subcommand handlers -------------------------------------------------------
# Each returns ``(document, text)`` for :func:`_output`; ``text`` is None
# where the command always prints its document.

def _cmd_check_tight(args):
    name, x = load_complex(args.complex)
    field = parse_field(args.field)
    mode = args.mode
    if mode != "brute":
        closed = _closed_surface_or_3_manifold(x)
        if mode == "fast" and not closed:
            raise InputError("fast mode needs a closed 2- or 3-manifold triangulation")
        mode = "fast" if closed else "brute"
    if mode == "fast":
        report = (is_tight_fast_3manifold if x.dim == 3 else is_tight_surface)(x, field)
    else:
        report = is_tight_bruteforce(x, field, allow_exponential=args.i_know_this_is_exponential,
                                     jobs=args.jobs)
    return (_tightness_json(name, x, report),
            f"{name}: {str(field)}-tight = {report.verdict} (method={report.method})")


def _cmd_check_manifold(args):
    name, x = load_complex(args.complex)
    if x.dim > 3:
        raise InputError(f"manifold verification supports dimension <= 3, got {x.dim}")
    v = verify_closed_manifold(x)
    doc = {"name": name, "verdict": v.ok, "dim": x.dim, "detail": v.detail,
           "witness": v.witness if not v.ok else None,
           "f_vector": list(x.f_vector)}
    return doc, f"{name}: closed {x.dim}-manifold = {v.ok}"


def _cmd_check_stacked_sphere(args):
    name, x = load_complex(args.complex)
    d = args.dim if args.dim is not None else x.dim
    v = is_stacked_sphere(x, d)
    doc = {"name": name, "verdict": v.ok, "dim": d,
           "removal_sequence": list(v.witness) if v.witness is not None else None,
           "detail": v.detail}
    return doc, f"{name}: stacked {d}-sphere = {v.ok}"


def _cmd_check_locally_stacked(args):
    name, x = load_complex(args.complex)
    v = is_locally_stacked(x)
    doc = {"name": name, "verdict": v.ok, "witness": v.witness, "detail": v.detail}
    return doc, f"{name}: locally stacked = {v.ok}"


def _cmd_homology(args):
    name, x = load_complex(args.complex)
    field = parse_field(args.field)
    doc = {"name": name, "field": str(field), "f_vector": list(x.f_vector),
           "betti": list(betti(x, field))}
    return doc, f"{name}: f-vector {tuple(x.f_vector)}, betti {tuple(doc['betti'])} over {field}"


def _cmd_decompose(args):
    name, x = load_complex(args.complex)
    try:
        summands = decompose_ti(x)
    except HypothesisViolationError as e:
        witness = getattr(e, "witness", None)
        return {"name": name, "verdict": False, "error": str(e),
                "witness": list(witness.vertices) if witness is not None else None}, None
    doc = {"name": name, "summands": summands.as_dict(),
           "cuts": [{"triangle": list(t), "sides": [list(a), list(b)]}
                    for t, (a, b) in summands.cuts]}
    return doc, (f"{name}: T^{summands.tetrahedra} # I^{summands.icosahedra} "
                 f"({len(summands.cuts)} cuts)")


def _cmd_cycles(args):
    name, x = load_complex(args.complex)
    g = x.one_skeleton()
    max_len = args.max_len if args.max_len is not None else g.num_vertices
    if args.mod3:
        v = mod3_obstruction(x)
        doc = {"name": name, "verdict": v.ok,
               "witness": (None if v.ok else {"vertices": list(v.witness.vertices),
                                              "length": v.witness.length})}
        return doc, f"{name}: no chordless cycle of length 1 mod 3 = {v.ok}"
    # the default bound, the vertex count, is below 3 only on graphs without cycles
    cycles = induced_cycles(g, max_len) if max_len >= 3 else []
    doc = {"name": name, "max_len": max_len,
           "cycles": [{"vertices": list(c.vertices), "length": c.length,
                       "residue": c.residue} for c in cycles]}
    lines = [f"{name}: {len(cycles)} chordless cycles up to length {max_len}"]
    lines += [f"  {c.vertices} length={c.length} residue={c.residue}" for c in cycles]
    return doc, "\n".join(lines)


def _cmd_gen_stacked_sphere(args):
    seed = args.seed if args.seed is not None else _env_seed()
    x = stacked_sphere(args.n, args.dim, seed=seed)
    return complex_document(f"stacked-{args.dim}-sphere-{args.n}-s{seed}", x), None


def _cmd_gen_handle(args):
    name, x = load_complex(args.complex)
    try:
        i, j = (int(t) for t in args.facets.split(","))
    except ValueError:
        raise InputError("--facets expects two comma-separated facet indexes") from None
    facets = sorted(x.facets)
    if not (0 <= i < len(facets) and 0 <= j < len(facets)):
        raise InputError(f"facet indexes must be in [0, {len(facets)})")
    bijection = {}
    try:
        for pair in args.bijection.split(","):
            a, b = pair.split(":")
            bijection[int(a)] = int(b)
    except ValueError:
        raise InputError("--bijection expects v:w pairs, comma-separated") from None
    out = handle_addition(x, facets[i], facets[j], bijection)
    return complex_document(f"{name}-handle", out), None


def _cmd_search_tight(args):
    field = parse_field(args.field)
    seed = args.seed if args.seed is not None else _env_seed()
    t0 = time.perf_counter()
    result = search_tight(args.k, field, budget=args.budget, seed=seed, jobs=args.jobs)
    elapsed = time.perf_counter() - t0
    if result is None:
        return {"found": False, "k": args.k, "field": str(field), "budget": args.budget,
                "seed": seed, "wall_time_s": round(elapsed, 6)}, None
    x, cert = result
    report = is_tight_fast_3manifold(x, field)
    return {
        "found": True,
        "k": args.k,
        "field": str(field),
        "seed": seed,
        "complex": complex_document(f"tight-k{args.k}", x),
        "certificate": cert.to_dict(),
        "report": _tightness_json(f"tight-k{args.k}", x, report, seed=seed),
        "wall_time_s": round(elapsed, 6),
    }, None


def _cmd_classify(args):
    name, x = load_complex(args.complex)
    try:
        with open(args.cert, "r", encoding="utf-8") as fh:
            cert_doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {args.cert}: {e.strerror}") from None
    except (json.JSONDecodeError, RecursionError) as e:
        raise InputError(f"invalid certificate JSON: {e}") from None
    if isinstance(cert_doc, dict) and "certificate" in cert_doc:  # a whole `search tight` output
        cert_doc = cert_doc["certificate"]
    try:
        cert = Certificate.from_dict(cert_doc)
        topo = classify_topology(x, cert)
    except (PreconditionError, KeyError, ValueError) as e:
        raise InputError(f"certificate does not verify: {e}") from None
    return {"name": name, "kind": topo.kind, "k": topo.k}, f"{name}: {topo}"


def _cmd_admissible_k(args):
    table = admissible_k(args.limit)
    return ([{"k": a.k, "f0": a.f0} for a in table],
            "\n".join(f"{a.k} {a.f0}" for a in table))


def _env_seed() -> int:
    try:
        return int(os.environ.get(ENV_SEED, "0"))
    except ValueError:
        raise InputError(f"{ENV_SEED} must be an integer") from None


# -- parser --------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors print the one line ``prog: error: message`` and exit 2;
    subparsers are of this class too."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process on first use and shared by
    every :func:`main` call; parsing reads it and nothing may change it."""
    parser = _Parser(
        prog="tighttri",
        description="Verify and construct tight triangulations of closed 3-manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decision procedures")
    check_sub = check.add_subparsers(dest="check_command", required=True)

    p = check_sub.add_parser("tight", help="tightness of a complex over a field")
    p.add_argument("complex")
    p.add_argument("--field", default="q")
    p.add_argument("--mode", choices=["auto", "fast", "brute"], default="brute")
    p.add_argument("--jobs", type=_int_at_least(1, "the worker count"), default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--i-know-this-is-exponential", action="store_true",
                   dest="i_know_this_is_exponential")
    p.set_defaults(func=_cmd_check_tight)

    p = check_sub.add_parser("manifold", help="closed-manifold verification")
    p.add_argument("complex")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_manifold)

    p = check_sub.add_parser("stacked-sphere", help="stacked-sphere recognition")
    p.add_argument("complex")
    p.add_argument("--dim", type=int, choices=[2, 3], default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_stacked_sphere)

    p = check_sub.add_parser("locally-stacked", help="all vertex links stacked")
    p.add_argument("complex")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_locally_stacked)

    p = sub.add_parser("homology", help="Betti numbers and f-vector")
    p.add_argument("complex")
    p.add_argument("--field", default="q")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("decompose", help="tetrahedron/icosahedron summands of a 2-sphere")
    p.add_argument("complex")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("cycles", help="chordless cycles of the 1-skeleton")
    p.add_argument("complex")
    p.add_argument("--max-len", type=_int_at_least(3, "a cycle length"), default=None)
    p.add_argument("--mod3", action="store_true",
                   help="only check the length-1-mod-3 obstruction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cycles)

    gen = sub.add_parser("gen", help="generators")
    gen_sub = gen.add_subparsers(dest="gen_command", required=True)

    p = gen_sub.add_parser("stacked-sphere", help="seeded stacked sphere")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, choices=[2, 3], required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_gen_stacked_sphere)

    p = gen_sub.add_parser("handle", help="elementary handle addition")
    p.add_argument("complex")
    p.add_argument("--facets", required=True, help="two indexes into the sorted facet list, e.g. 0,7")
    p.add_argument("--bijection", required=True, help="vertex identification v:w pairs, e.g. 0:9,1:10")
    p.set_defaults(func=_cmd_gen_handle)

    search = sub.add_parser("search", help="randomized searches")
    search_sub = search.add_subparsers(dest="search_command", required=True)

    p = search_sub.add_parser("tight", help="search for a tight handle quotient")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--field", default="2")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=_int_at_least(1, "the restart budget"), default=10_000)
    p.add_argument("--jobs", type=_int_at_least(1, "the worker count"), default=1)
    p.set_defaults(func=_cmd_search_tight)

    p = sub.add_parser("classify", help="homeomorphism type of a certified quotient")
    p.add_argument("complex")
    p.add_argument("--cert", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("admissible-k", help="handle counts admitting tight quotients")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_admissible_k)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _output(args, *args.func(args))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
