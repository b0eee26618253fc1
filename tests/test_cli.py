import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tighttri import catalog, stacked_sphere
from tighttri.cli import build_parser, complex_document, dumps, load_complex, main, parse_field
from tighttri.linalg import GF2, QQ

from corpus import subdivide_edges, ti_sum
from oracle import induced_cycles as reference_induced_cycles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestFileFormats:
    def test_parse_field(self):
        assert parse_field("q") == QQ
        assert parse_field("2") == GF2
        assert parse_field("p:7").char == 7
        from tighttri.cli import InputError
        for text in ("p:6", "0", "p:0", "1", "-3"):
            with pytest.raises(InputError):
                parse_field(text)
        with pytest.raises(InputError):
            parse_field("real")

    def test_builtin_references(self):
        for name in ("boundary-delta3", "boundary-delta4", "icosahedron",
                     "rp2-6", "moebius-5", "cycle:5", "complete:4",
                     "complete-bipartite:3,3"):
            _, x = load_complex(f"builtin:{name}")
            assert x.num_vertices > 0

    def test_plaintext_roundtrip(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# comment\n2 1 3\n\n3 4 1  # trailing\n")
        name, x = load_complex(str(p))
        assert name == "c"
        assert set(x.facets) == {(1, 2, 3), (1, 3, 4)}

    def test_json_roundtrip_is_canonical(self, tmp_path):
        ico = catalog.icosahedron()
        doc = complex_document("icosahedron", ico)
        p = tmp_path / "ico.json"
        p.write_text(dumps(doc))
        name, x = load_complex(str(p))
        assert x == ico
        # parse -> serialize -> parse is the identity, byte-stable the 2nd time
        text2 = dumps(complex_document(name, x))
        assert text2 == dumps(doc)
        _, x2 = load_complex(str(p))
        assert x2 == x

    def test_scrambled_input_canonicalizes(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"name": "s", "facets": [[3, 1, 2], [2, 4, 1]]}))
        name, x = load_complex(str(p))
        assert complex_document(name, x)["facets"] == [[1, 2, 3], [1, 2, 4]]

    def test_dim_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"name": "bad", "dim": 3, "facets": [[0, 1, 2]]}))
        from tighttri.cli import InputError
        with pytest.raises(InputError):
            load_complex(str(p))


class TestExitCodes:
    def test_property_holds(self, capsys):
        code, out, _ = run(capsys, "check", "tight", "builtin:boundary-delta4",
                           "--field", "q", "--mode", "brute")
        assert code == 0 and "True" in out

    def test_property_fails_with_witness_json(self, capsys):
        code, doc, _ = run_json(capsys, "check", "tight", "builtin:icosahedron",
                                "--field", "2")
        assert code == 1
        assert doc["witness"] == {"subset": [0, 6], "degree": 0}
        assert doc["method"] == "brute"

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "tight", "builtin:not-a-thing")
        assert code == 2 and "error:" in err

    def test_malformed_file(self, capsys, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("1 1 2\n")
        code, _, err = run(capsys, "check", "manifold", str(p))
        assert code == 2 and "duplicate" in err

    def test_unknown_flag(self, capsys):
        assert main(["check", "tight", "builtin:rp2-6", "--frobnicate"]) == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "homology", "/nonexistent/file.json")
        assert code == 2

    def test_bad_builtin_argument(self, capsys):
        code, out, err = run(capsys, "homology", "builtin:cycle:1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("cycles", "builtin:icosahedron", "--max-len", "-3"),
        ("search", "tight", "--budget", "-5"),
        ("search", "tight", "--jobs", "0"),
        ("check", "tight", "builtin:rp2-6", "--jobs", "0"),
    ])
    def test_out_of_range_option(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "error: argument" in err and "Traceback" not in err


class TestCheckCommands:
    def test_tight_fast_mode_on_3_manifold(self, capsys, tmp_path):
        sphere = stacked_sphere(8, 3, seed=0)
        p = tmp_path / "s.json"
        p.write_text(dumps(complex_document("s", sphere)))
        code, doc, _ = run_json(capsys, "check", "tight", str(p),
                                "--field", "2", "--mode", "fast", "--json")
        assert code == 1 and doc["method"] == "fast-3manifold"

    def test_tight_auto_picks_surface(self, capsys):
        code, doc, _ = run_json(capsys, "check", "tight", "builtin:rp2-6",
                                "--field", "2", "--mode", "auto", "--json")
        assert code == 0 and doc["method"] == "surface" and doc["verdict"]

    def test_tight_fast_mode_rejects_non_manifold(self, capsys):
        code, out, err = run(capsys, "check", "tight", "builtin:moebius-5",
                             "--field", "2", "--mode", "fast")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_tight_auto_falls_back_to_brute_on_non_manifold(self, capsys):
        code, doc, _ = run_json(capsys, "check", "tight", "builtin:moebius-5",
                                "--field", "2", "--mode", "auto", "--json")
        assert code == 0 and doc["verdict"] and doc["method"] == "brute"

    def test_tight_brute_on_rp2_over_q(self, capsys):
        code, doc, _ = run_json(capsys, "check", "tight", "builtin:rp2-6",
                                "--field", "q", "--mode", "brute")
        assert code == 1 and doc["witness"]["subset"] == [0, 1, 3]

    def test_manifold(self, capsys):
        code, _, _ = run(capsys, "check", "manifold", "builtin:icosahedron")
        assert code == 0
        code, doc, _ = run_json(capsys, "check", "manifold", "builtin:cycle:5",
                                "--json")
        assert code == 0 and doc["dim"] == 1

    def test_manifold_failure(self, capsys, tmp_path):
        p = tmp_path / "solid.txt"
        p.write_text("0 1 2 3\n1 2 3 4\n")
        code, doc, _ = run_json(capsys, "check", "manifold", str(p))
        assert code == 1 and doc["witness"] is not None

    def test_stacked_sphere(self, capsys, tmp_path):
        sphere = stacked_sphere(9, 3, seed=1)
        p = tmp_path / "s.json"
        p.write_text(dumps(complex_document("s", sphere)))
        code, doc, _ = run_json(capsys, "check", "stacked-sphere", str(p),
                                "--dim", "3", "--json")
        assert code == 0 and len(doc["removal_sequence"]) == 4
        code, _, _ = run(capsys, "check", "stacked-sphere", "builtin:icosahedron",
                         "--dim", "2")
        assert code == 1

    def test_locally_stacked(self, capsys):
        code, _, _ = run(capsys, "check", "locally-stacked", "builtin:boundary-delta4")
        assert code == 0
        code, _, err = run(capsys, "check", "locally-stacked", "builtin:rp2-6")
        assert code == 2  # not a 3-manifold


class TestInspectionCommands:
    def test_homology(self, capsys):
        code, doc, _ = run_json(capsys, "homology", "builtin:rp2-6",
                                "--field", "2", "--json")
        assert code == 0
        assert doc["betti"] == [1, 1, 1] and doc["f_vector"] == [6, 15, 10]

    def test_decompose_icosahedron(self, capsys):
        code, doc, _ = run_json(capsys, "decompose", "builtin:icosahedron", "--json")
        assert code == 0 and doc["summands"] == {"T": 0, "I": 1}

    def test_decompose_hypothesis_violation(self, capsys, tmp_path):
        octa = catalog.suspension(catalog.cycle_complex(4))
        p = tmp_path / "octa.json"
        p.write_text(dumps(complex_document("octa", octa)))
        code, doc, _ = run_json(capsys, "decompose", str(p))
        assert code == 1 and len(doc["witness"]) == 4

    def test_decompose_non_sphere(self, capsys):
        code, _, err = run(capsys, "decompose", "builtin:rp2-6")
        assert code == 2

    def test_cycles(self, capsys):
        code, doc, _ = run_json(capsys, "cycles", "builtin:icosahedron",
                                "--max-len", "5", "--json")
        assert code == 0
        fives = [c for c in doc["cycles"] if c["length"] == 5]
        assert [0, 2, 10, 9, 5] in [c["vertices"] for c in fives]

    def test_cycles_of_graph_below_three_vertices(self, capsys):
        code, doc, _ = run_json(capsys, "cycles", "builtin:complete:2", "--json")
        assert code == 0 and doc["max_len"] == 2 and doc["cycles"] == []

    def test_cycles_of_a_long_cycle(self, capsys, tmp_path):
        # more path vertices than the interpreter's default recursion limit
        p = tmp_path / "c1100.json"
        p.write_text(dumps(complex_document("c1100", catalog.cycle_complex(1100))))
        code, doc, _ = run_json(capsys, "cycles", str(p), "--json")
        assert code == 0 and [c["length"] for c in doc["cycles"]] == [1100]

    def test_cycles_mod3(self, capsys):
        code, _, _ = run(capsys, "cycles", "builtin:icosahedron", "--mod3")
        assert code == 0
        code, doc, _ = run_json(capsys, "cycles", "builtin:cycle:7", "--mod3")
        assert code == 1 and doc["witness"]["length"] == 7


class TestGeneratorCommands:
    def test_gen_stacked_sphere(self, capsys):
        code, doc, _ = run_json(capsys, "gen", "stacked-sphere",
                                "--n", "8", "--dim", "3", "--seed", "3")
        assert code == 0 and doc["dim"] == 3
        assert len({v for f in doc["facets"] for v in f}) == 8

    def test_gen_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TIGHTTRI_SEED", "17")
        _, doc1, _ = run_json(capsys, "gen", "stacked-sphere", "--n", "7", "--dim", "2")
        _, doc2, _ = run_json(capsys, "gen", "stacked-sphere", "--n", "7",
                              "--dim", "2", "--seed", "17")
        assert doc1["facets"] == doc2["facets"]

    def test_gen_handle(self, capsys, tmp_path):
        import random
        from tighttri import find_admissible_handle
        for seed in range(40):
            x = stacked_sphere(22 + seed % 9, 3, seed=seed)
            choice = find_admissible_handle(x, random.Random(seed))
            if choice:
                break
        else:
            pytest.fail("no admissible handle located")
        f1, f2, bijection = choice
        facets = sorted(x.facets)
        p = tmp_path / "x.json"
        p.write_text(dumps(complex_document("x", x)))
        code, doc, _ = run_json(
            capsys, "gen", "handle", str(p),
            "--facets", f"{facets.index(f1)},{facets.index(f2)}",
            "--bijection", ",".join(f"{v}:{w}" for v, w in sorted(bijection.items())))
        assert code == 0
        n_out = len({v for f in doc["facets"] for v in f})
        assert n_out == x.num_vertices - 4

    def test_gen_handle_rejects_bad_request(self, capsys, tmp_path):
        x = stacked_sphere(13, 3, seed=0)
        p = tmp_path / "x.json"
        p.write_text(dumps(complex_document("x", x)))
        code, _, err = run(capsys, "gen", "handle", str(p),
                           "--facets", "0,1", "--bijection", "0:1")
        assert code == 2


class TestSearchAndClassify:
    def test_search_classify_pipeline(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "search", "tight", "--k", "1",
                                "--field", "2", "--seed", "0", "--budget", "500")
        assert code == 0 and doc["found"]
        assert doc["report"]["f_vector"] == [9, 36, 54, 27]
        assert doc["report"]["verdict"] is True
        cpath = tmp_path / "m9.json"
        cpath.write_text(dumps(doc["complex"]))
        certpath = tmp_path / "cert.json"
        certpath.write_text(dumps(doc["certificate"]))
        code, out, _ = run(capsys, "classify", str(cpath), "--cert", str(certpath))
        assert code == 0 and "nonorientable-handle-sum(1)" in out

    def test_search_budget_exhausted(self, capsys):
        code, doc, _ = run_json(capsys, "search", "tight", "--k", "1",
                                "--field", "q", "--seed", "0", "--budget", "40")
        assert code == 1 and doc["found"] is False

    def test_search_inadmissible_k(self, capsys):
        code, _, err = run(capsys, "search", "tight", "--k", "2", "--budget", "5")
        assert code == 2 and "inadmissible" in err

    def test_classify_wrong_target(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "search", "tight", "--k", "1",
                                "--field", "2", "--seed", "1", "--budget", "500")
        certpath = tmp_path / "cert.json"
        certpath.write_text(dumps(doc["certificate"]))
        other = tmp_path / "other.json"
        other.write_text(dumps(complex_document("b4", catalog.boundary_simplex(4))))
        code, _, err = run(capsys, "classify", str(other), "--cert", str(certpath))
        assert code == 2

    @pytest.mark.parametrize("text", ["[]", '{"seed_facets": 5, "final_f_vector": [1]}'])
    def test_classify_wrongly_shaped_certificate(self, capsys, tmp_path, text):
        certpath = tmp_path / "cert.json"
        certpath.write_text(text)
        code, out, err = run(capsys, "classify", "builtin:boundary-delta4", "--cert", str(certpath))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


# Inputs for the branches of the CLI that no other test reaches.  Files
# are written to a temporary directory and named by placeholders; "{missing}"
# names a file that does not exist.
BRANCH_FILES = {
    "bad_json": '{"facets": [[0, 1]',
    "no_facets": '{"name": "x"}',
    "bad_token": "0 1 2\n0 1 x\n",
    "empty": "# nothing but a comment\n",
    "dim4": "0 1 2 3 4\n",
    "bad_cert": "{not json",
    "big_facet": " ".join(map(str, range(17))) + "\n",
    "no_faces": '{"facets": []}',
    "deep_json": '{"facets": ' + "[" * 100_000,
    "deep_cert": "[" * 100_000,
    "two_spheres": "0 1 2\n0 1 3\n0 2 3\n1 2 3\n4 5 6\n4 5 7\n4 6 7\n5 6 7\n",
}

# (argv, environment, the start of the one line on stderr): every one exits
# 2 with no output.
BRANCH_ERRORS = [
    (["search", "tight", "--budget", "ten"], {},
     "tighttri search tight: error: argument --budget: expected an integer, got 'ten'"),
    (["search", "tight", "--k", "-1"], {},
     "error: k=-1 is inadmissible: a handle count is at least 1"),
    (["search", "tight", "--k", "12"], {},
     "error: k=12 is outside the realized family: f0 = 20 is not 9 (mod 20)"),
    (["homology", "{bad_json}"], {}, "error: invalid JSON: "),
    (["homology", "{no_facets}"], {}, "error: JSON complex documents need a 'facets' field"),
    (["homology", "{bad_token}"], {}, "error: line 2: expected whitespace-separated integers"),
    (["homology", "{empty}"], {}, "error: no facets found in input"),
    (["homology", "{big_facet}"], {},
     "error: bad facet list: a facet has 17 vertices, more than the 16 supported"),
    (["homology", "{no_faces}"], {}, "error: Betti numbers need a nonempty complex"),
    (["check", "tight", "{no_faces}"], {}, "error: tightness needs a nonempty complex"),
    (["check", "tight", "{deep_json}"], {}, "error: invalid JSON: "),
    (["homology", "builtin:rp2-6", "--field", "0"], {}, "error: bad field '0': 0 is not prime"),
    (["homology", "builtin:rp2-6", "--field", "p:0"], {},
     "error: bad field 'p:0': 0 is not prime"),
    (["check", "manifold", "{dim4}"], {},
     "error: manifold verification supports dimension <= 3, got 4"),
    (["decompose", "{two_spheres}"], {}, "error: not a triangulated 2-sphere: disconnected"),
    (["check", "locally-stacked", "builtin:icosahedron"], {},
     "error: not a closed 3-manifold: dimension 2"),
    (["gen", "handle", "builtin:boundary-delta4", "--facets", "0", "--bijection", "0:1"], {},
     "error: --facets expects two comma-separated facet indexes"),
    (["gen", "handle", "builtin:boundary-delta4", "--facets", "0,1", "--bijection", "0-1"], {},
     "error: --bijection expects v:w pairs, comma-separated"),
    (["classify", "builtin:boundary-delta4", "--cert", "{missing}"], {}, "error: cannot read "),
    (["classify", "builtin:boundary-delta4", "--cert", "{bad_cert}"], {},
     "error: invalid certificate JSON: "),
    (["classify", "builtin:boundary-delta4", "--cert", "{deep_cert}"], {},
     "error: invalid certificate JSON: "),
    (["gen", "stacked-sphere", "--n", "6", "--dim", "2"], {"TIGHTTRI_SEED": "abc"},
     "error: TIGHTTRI_SEED must be an integer"),
    (["homology", "builtin:complete:0"], {}, "error: complete graphs need at least one vertex"),
    (["homology", "builtin:complete-bipartite:0,3"], {}, "error: both parts must be nonempty"),
    (["homology", "builtin:complete-bipartite:3"], {},
     "error: expected complete-bipartite:<m>,<n>, got 'complete-bipartite:3'"),
    (["homology", "builtin:cycle:x"], {}, "error: bad numeric argument in builtin 'cycle:x'"),
]

# (argv, stdout) for plain-text and JSON outputs, as printed before the
# handlers shared one output path.  "{sphere}" is a stacked 2-sphere,
# "{quotient}" and "{search}" the complex and the whole document of a
# `search tight` run.
BRANCH_OUTPUTS = [
    (["decompose", "{sphere}"], "s: T^4 # I^0 (3 cuts)\n"),
    (["decompose", "builtin:icosahedron"], "icosahedron: T^0 # I^1 (0 cuts)\n"),
    (["cycles", "builtin:boundary-delta3"],
     "boundary-delta3: 4 chordless cycles up to length 4\n"
     "  (0, 1, 2) length=3 residue=0\n  (0, 1, 3) length=3 residue=0\n"
     "  (0, 2, 3) length=3 residue=0\n  (1, 2, 3) length=3 residue=0\n"),
    (["cycles", "builtin:complete-bipartite:2,3"],
     "complete-bipartite:2,3: 3 chordless cycles up to length 5\n"
     "  (0, 2, 1, 3) length=4 residue=1\n  (0, 2, 1, 4) length=4 residue=1\n"
     "  (0, 3, 1, 4) length=4 residue=1\n"),
    (["cycles", "builtin:complete:2"], "complete:2: 0 chordless cycles up to length 2\n"),
    (["classify", "{quotient}", "--cert", "{search}"], "tight-k1: nonorientable-handle-sum(1)\n"),
    (["classify", "{quotient}", "--cert", "{search}", "--json"],
     '{\n  "k": 1,\n  "kind": "nonorientable-handle-sum",\n  "name": "tight-k1"\n}\n'),
]


class TestBranches:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("branches")
        out = {"missing": str(tmp / "missing.json")}
        for name, text in BRANCH_FILES.items():
            (tmp / name).write_text(text)
            out[name] = str(tmp / name)
        sphere = tmp / "s.json"
        sphere.write_text(dumps(complex_document("s", stacked_sphere(7, 2, seed=1))))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["search", "tight", "--k", "1", "--field", "2", "--seed", "0",
                         "--budget", "500"]) == 0
        (tmp / "search.json").write_text(buf.getvalue())
        (tmp / "m.json").write_text(dumps(json.loads(buf.getvalue())["complex"]))
        out.update(sphere=str(sphere), search=str(tmp / "search.json"),
                   quotient=str(tmp / "m.json"))
        return out

    @pytest.mark.parametrize("argv,env,message", BRANCH_ERRORS,
                             ids=[" ".join(a) for a, _, _ in BRANCH_ERRORS])
    def test_input_error(self, capsys, monkeypatch, paths, argv, env, message):
        monkeypatch.setenv("COLUMNS", "80")
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2 and out == "" and "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), err

    @pytest.mark.parametrize("argv,want", BRANCH_OUTPUTS,
                             ids=[" ".join(a) for a, _ in BRANCH_OUTPUTS])
    def test_output(self, capsys, paths, argv, want):
        assert run(capsys, *(a.format(**paths) for a in argv)) == (0, want, "")


class TestLargeSpheres:
    """``decompose`` and ``cycles --mod3`` on spheres where a search through
    every chordless cycle takes minutes: the icosahedron with each triangle
    split into four at its edge midpoints (42 vertices), that sphere split
    again (162 vertices), and a connected sum of 16 icosahedra."""

    WITNESS = {"s42": [0, 12, 17, 22, 23, 21, 14], "s162": [12, 102, 43, 44, 45, 46, 103]}

    @pytest.fixture(scope="class")
    def spheres(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("large")
        s42 = subdivide_edges(catalog.icosahedron())
        out = {}
        for name, x in (("s42", s42), ("s162", subdivide_edges(s42)),
                        ("i16", ti_sum("I" * 16, random.Random(0)))):
            (tmp / f"{name}.json").write_text(dumps(complex_document(name, x)))
            out[name] = (x, str(tmp / f"{name}.json"))
        return out

    def test_witnesses_are_the_least_cycles_of_length_4_or_7(self, spheres):
        for name, want in self.WITNESS.items():
            x, _ = spheres[name]
            cycles = reference_induced_cycles(x.one_skeleton(), 7)
            assert list(next(c for c in cycles if c.residue == 1).vertices) == want, name

    @staticmethod
    def timed(capsys, *argv):
        """``run``, which must take well under the minutes of a search
        through every cycle."""
        t0 = time.perf_counter()
        out = run(capsys, *argv)
        assert time.perf_counter() - t0 < 5, argv
        return out

    @pytest.mark.parametrize("name", ["s42", "s162"])
    def test_violations(self, capsys, spheres, name):
        path = spheres[name][1]
        code, out, err = self.timed(capsys, "decompose", path)
        assert (code, json.loads(out)["witness"], err) == (1, self.WITNESS[name], "")
        assert json.loads(out)["error"] == (
            f"sphere has a chordless cycle of length = 1 (mod 3): {tuple(self.WITNESS[name])}")
        code, out, err = self.timed(capsys, "cycles", path, "--mod3")
        assert (code, json.loads(out), err) == (1, {"name": name, "verdict": False, "witness": {
            "vertices": self.WITNESS[name], "length": 7}}, "")

    def test_icosahedron_sum(self, capsys, spheres):
        path = spheres["i16"][1]
        assert self.timed(capsys, "decompose", path) == (0, "i16: T^0 # I^16 (15 cuts)\n", "")
        code, out, _ = self.timed(capsys, "decompose", path, "--json")
        cuts = json.loads(out)["cuts"]
        assert code == 0 and len(cuts) == 15
        assert all(set(c["sides"][0]) & set(c["sides"][1]) == set(c["triangle"]) for c in cuts)
        assert self.timed(capsys, "cycles", path, "--mod3") == (
            0, "i16: no chordless cycle of length 1 mod 3 = True\n", "")


class TestAdmissibleK:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "admissible-k", "--limit", "600")
        assert code == 0
        rows = [tuple(int(t) for t in line.split()) for line in out.strip().splitlines()]
        assert rows == [(1, 9), (30, 29), (99, 49), (208, 69), (357, 89), (546, 109)]

    def test_json(self, capsys):
        code, doc, _ = run_json(capsys, "admissible-k", "--limit", "1", "--json")
        assert code == 0 and doc == [{"k": 1, "f0": 9}]


class TestDeterminism:
    def _strip(self, doc):
        doc = dict(doc)
        doc.pop("wall_time_s", None)
        return doc

    def test_json_reports_are_reproducible(self, capsys):
        _, doc1, _ = run_json(capsys, "check", "tight", "builtin:rp2-6",
                              "--field", "2", "--mode", "brute", "--json")
        _, doc2, _ = run_json(capsys, "check", "tight", "builtin:rp2-6",
                              "--field", "2", "--mode", "brute", "--json")
        assert self._strip(doc1) == self._strip(doc2)

    def test_jobs_do_not_change_output(self, capsys):
        _, doc1, _ = run_json(capsys, "check", "tight", "builtin:icosahedron",
                              "--field", "2", "--jobs", "1", "--json")
        _, doc2, _ = run_json(capsys, "check", "tight", "builtin:icosahedron",
                              "--field", "2", "--jobs", "4", "--json")
        assert self._strip(doc1) == self._strip(doc2)

    def test_search_reports_are_reproducible(self, capsys):
        _, d1, _ = run_json(capsys, "search", "tight", "--k", "1", "--field", "2",
                            "--seed", "3", "--budget", "500")
        _, d2, _ = run_json(capsys, "search", "tight", "--k", "1", "--field", "2",
                            "--seed", "3", "--budget", "500", "--jobs", "2")
        d1.pop("wall_time_s"); d2.pop("wall_time_s")
        d1["report"].pop("wall_time_s"); d2["report"].pop("wall_time_s")
        assert d1 == d2


class TestParserReuse:
    """Every ``main`` call in a process shares one parser; a fresh
    interpreter builds its own.  Both must print the same bytes."""

    ARGVS = [
        ["check", "tight"],                                        # usage error
        ["check", "tight", "builtin:rp2-6", "--mode", "sideways"],  # usage error
        ["--help"],
        ["check", "tight", "builtin:rp2-6", "--field", "q", "--mode", "brute", "--json"],
        ["check", "tight", "builtin:rp2-6", "--field", "2", "--mode", "auto", "--json"],
        ["check", "tight", "builtin:boundary-delta4", "--mode", "auto", "--json"],
        ["homology", "builtin:rp2-6", "--field", "2"],
        ["homology", "builtin:boundary-delta4", "--json"],
        ["search", "tight", "--k", "1", "--field", "2", "--seed", "3", "--budget", "500"],
    ]

    @staticmethod
    def _timeless(text: str) -> str:
        return re.sub(r'"wall_time_s": [-+.0-9e]+', '"wall_time_s": 0', text)

    def test_build_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_in_process_output_matches_a_fresh_interpreter(self, capsys, monkeypatch, argv):
        # help text wraps at the terminal width, so fix it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        fresh = subprocess.run([sys.executable, "-m", "tighttri.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=300)
        code, out, err = run(capsys, *argv)
        assert (code, self._timeless(out), err) == \
            (fresh.returncode, self._timeless(fresh.stdout), fresh.stderr)
        assert out or err


# Every subcommand that reads a complex, with the options each needs; the
# placeholders become the drawn file, a facet-index pair, a bijection and
# a certificate file.
FUZZ_COMMANDS = [
    ["check", "tight", "{x}", "--mode", "brute", "--field", "2"],
    ["check", "tight", "{x}", "--mode", "auto", "--field", "q"],
    ["check", "tight", "{x}", "--mode", "fast", "--field", "3", "--json"],
    ["check", "manifold", "{x}", "--json"],
    ["check", "stacked-sphere", "{x}"],
    ["check", "stacked-sphere", "{x}", "--dim", "2"],
    ["check", "locally-stacked", "{x}"],
    ["homology", "{x}", "--field", "q"],
    ["decompose", "{x}", "--json"],
    ["cycles", "{x}", "--json"],
    ["cycles", "{x}", "--mod3"],
    ["gen", "handle", "{x}", "--facets", "{facets}", "--bijection", "{bijection}"],
    ["classify", "{x}", "--cert", "{cert}"],
]

small_facets = st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=5),
                        min_size=1, max_size=12)

# Any small JSON value, with the certificate's own field names among the keys
# so that drawn objects reach the field checks.
CERT_FIELDS = ["certificate", "seed_facets", "steps", "facet1", "facet2", "bijection",
               "final_f_vector", "rng_seed", "seed_params"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(CERT_FIELDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=16)


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(facets=small_facets, as_json=st.booleans(),
           pair=st.tuples(st.integers(0, 9), st.integers(0, 9)),
           bijection=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                              min_size=1, max_size=4),
           drawn_cert=st.none() | st.tuples(json_values))
    def test_no_traceback_on_small_files(self, tight9, facets, as_json, pair, bijection,
                                         drawn_cert):
        """Exit 0, 1 or 2 on any small facet file and any certificate JSON
        value (the seed-0 certificate when none is drawn), never an exception."""
        _, cert = tight9
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.json" if as_json else "x.txt")
            with open(path, "w", encoding="utf-8") as fh:
                if as_json:
                    json.dump({"facets": facets}, fh)
                else:
                    fh.write("".join(" ".join(map(str, f)) + "\n" for f in facets))
            cert_path = os.path.join(tmp, "cert.json")
            with open(cert_path, "w", encoding="utf-8") as fh:
                json.dump(cert.to_dict() if drawn_cert is None else drawn_cert[0], fh)
            fill = {"x": path, "facets": f"{pair[0]},{pair[1]}", "cert": cert_path,
                    "bijection": ",".join(f"{a}:{b}" for a, b in bijection)}
            for command in FUZZ_COMMANDS:
                argv = [arg.format(**fill) for arg in command]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code in (0, 1, 2), argv
