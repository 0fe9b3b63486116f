"""End-to-end command-line checks: exit codes, deterministic JSON on stdout,
artifact files under --out.

Exit code contract: 0 success, 2 malformed input, 3 budget exceeded,
4 verified negative outcome.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import chabauty_lab
from chabauty_lab import specio, stallings
from chabauty_lab.budgets import current
from chabauty_lab.chabauty import clopen
from chabauty_lab.cli import _PAIRED_DEMO, main
from chabauty_lab.dynamics import make_task, multi_transitivity_move
from chabauty_lab.stallings import from_generators, hall_completion
from chabauty_lab.words import free_group, parse_word
from chabauty_lab.zdlattice import enumerate_by_index

F2_CTX = {"kind": "free", "rank": 2}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spec_file(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ── exit codes ───────────────────────────────────────────────────────────────


def test_success_is_zero_with_json_on_stdout(capsys, tmp_path):
    spec = spec_file(tmp_path, "h.json", {"context": F2_CTX, "generators": ["aa", "b", "abA"]})
    code, out, err = run(capsys, "stallings", spec)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "stallings"
    assert report["provenance"]["tool"] == "chabauty-lab"
    assert report["result"]["subgroup"]["index"] == 2
    assert "core graph" in err  # the human summary stays off stdout


def test_malformed_spec_is_two(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, out, err = run(capsys, "stallings", str(p))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_missing_file_is_two(capsys, tmp_path):
    code, _, _ = run(capsys, "stallings", str(tmp_path / "absent.json"))
    assert code == 2


_BIG_INT = b"1" * 5000  # past Python's 4,300-digit limit on int parsing


@pytest.mark.parametrize(
    "command, data",
    [
        ("stallings", b"\xff\xfe"),  # not UTF-8
        ("witness", b"\xff\xfe"),
        ("stallings", b"[" * 100_000),  # deeper than the parser recurses
        ("zd", b'{"context": {"kind": "lattice", "rank": 1}, "generators": [[' + _BIG_INT + b"]]}"),
        ("witness", b'{"context": {"kind": "lattice", "rank": 1}, "generators": [[' + _BIG_INT + b"]]}"),
    ],
    ids=["utf16-bom-stallings", "utf16-bom-witness", "deep", "bigint-zd", "bigint-witness"],
)
def test_undecodable_spec_bytes_are_two(capsys, tmp_path, command, data):
    spec = tmp_path / "raw.json"
    spec.write_bytes(data)
    code, out, err = run(capsys, command, str(spec))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "is not valid JSON" in err


@pytest.mark.parametrize("value", ["[" * 50_000, '{"vertex_cap": ' + "9" * 5000 + "}"],
                         ids=["deep", "bigint"])
def test_undecodable_env_budget_is_two(capsys, tmp_path, monkeypatch, value):
    spec = spec_file(tmp_path, "h.json", {"context": F2_CTX, "generators": ["a"]})
    monkeypatch.setenv("CHABAUTY_LAB_BUDGET", value)
    code, out, err = run(capsys, "stallings", spec)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "CHABAUTY_LAB_BUDGET is not valid JSON" in err


def test_spec_text_is_read_with_universal_newlines(capsys, tmp_path):
    """Spec bytes are decoded as a text-mode read decodes them, so a CRLF
    file has the input digest of the same file with LF line ends."""
    text = json.dumps({"context": F2_CTX, "generators": ["a"]}, indent=1)
    digests = []
    for name, newline in (("lf.json", "\n"), ("crlf.json", "\r\n")):
        spec = tmp_path / name
        spec.write_bytes(text.replace("\n", newline).encode("utf-8"))
        code, out, _ = run(capsys, "stallings", str(spec))
        assert code == 0
        digests.append(json.loads(out)["provenance"]["input_sha256"])
    assert digests[0] == digests[1] == specio.sha256_of(text)


@pytest.mark.parametrize(
    "target, images, accepted, code, message",
    [
        # not a subgroup of Z/10¹²: refused without listing the 10¹² residues
        ({"kind": "cyclic", "param": 10**12}, [1, 0], [0, 1], 2, "not a subgroup"),
        # a subgroup of index 5·10¹¹: its coset space answers to vertex_cap
        ({"kind": "cyclic", "param": 10**12}, [1, 0], [0, 5 * 10**11], 3, "graph vertices"),
        # an image of length 1 in Sym(10¹²): refused without listing 0..10¹² − 1
        ({"kind": "permutation", "param": 10**12}, [[0], [0]], [[0]], 2, "is not a permutation"),
    ],
    ids=["cyclic-not-a-subgroup", "cyclic-index", "permutation"],
)
def test_huge_finite_targets_are_checked_without_listing_them(
    capsys, tmp_path, target, images, accepted, code, message
):
    hom = {"target": target, "images": images, "accepted": accepted}
    spec = spec_file(tmp_path, "hom.json", {"context": F2_CTX, "hom": hom})
    got, out, err = run(capsys, "schreier", spec)
    assert (got, out) == (code, "")
    assert message in err


def test_free_rank_answers_to_the_vertex_cap(capsys, tmp_path):
    """A free context of rank 3,000,000 exits 3 naming vertex_cap before
    anything is allocated per generator: run under a 1.5 GB address-space
    limit, which the per-generator tables used to exceed (exit 1)."""
    spec = spec_file(
        tmp_path, "rank.json", {"context": {"kind": "free", "rank": 3_000_000}, "generators": ["a"]}
    )
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))\n"
        "from chabauty_lab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    for command in ("stallings", "witness", "schreier"):
        done = subprocess.run([sys.executable, "-c", script, command, spec],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 3, done.stderr
        assert "vertex_cap" in done.stderr and done.stdout == ""
    # the cap is the run's vertex_cap
    spec = spec_file(tmp_path, "rank3.json", {"context": {"kind": "free", "rank": 3}, "generators": ["a"]})
    code, out, err = run(capsys, "stallings", spec, "--budget-vertices", "2")
    assert (code, out) == (3, "")
    assert "free rank (vertex_cap): limit 2, reached 3" in err


_HUGE = 10**9
_HUGE_LATTICE = {"context": {"kind": "lattice", "rank": _HUGE}, "generators": []}


def _huge_hom(accepted):
    target = {"kind": "lattice", "param": _HUGE}
    return {"context": F2_CTX, "hom": {"target": target, "images": [[1], [0]], "accepted": accepted}}


@pytest.mark.parametrize(
    "argv, doc, what",
    [
        (["zd"], _HUGE_LATTICE, "lattice rank"),
        (["witness"], _HUGE_LATTICE, "lattice rank"),
        (["schreier", "--radius", "3"], _huge_hom({"generators": []}), "lattice target dimension"),
        # exited 2 on the image dimension before the target's was checked
        (["schreier", "--radius", "3"], _huge_hom("zero"), "lattice target dimension"),
    ],
    ids=["zd", "witness", "hom", "hom-zero"],
)
def test_huge_lattice_dimensions_answer_to_the_vertex_cap(tmp_path, argv, doc, what):
    """A lattice of dimension 10⁹ exits 3 naming vertex_cap before anything
    is allocated per coordinate; each of these ran until a timeout stopped
    it, and the subprocess timeout catches a return to that."""
    spec = spec_file(tmp_path, "dim.json", doc)
    done = subprocess.run(
        [sys.executable, "-m", "chabauty_lab.cli", argv[0], spec, *argv[1:]],
        env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (3, ""), done.stderr
    assert f"{what} (vertex_cap)" in done.stderr and f"reached {_HUGE}" in done.stderr


def test_lattice_rank_answers_to_the_runs_vertex_cap(capsys, tmp_path):
    spec = spec_file(tmp_path, "z3.json", {"context": {"kind": "lattice", "rank": 3}, "generators": []})
    code, out, err = run(capsys, "zd", spec, "--budget-vertices", "2")
    assert (code, out) == (3, "")
    assert "lattice rank (vertex_cap): limit 2, reached 3" in err
    assert run(capsys, "zd", spec, "--budget-vertices", "3")[0] == 0


def test_wrong_schema_is_two(capsys, tmp_path):
    spec = spec_file(tmp_path, "h.json", {"context": F2_CTX})
    code, _, err = run(capsys, "stallings", spec)
    assert code == 2
    assert "generators" in err


_A = {"context": F2_CTX, "generators": ["a"]}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["chabauty"], {"pair": [_A]}, "pair must hold exactly two subgroup documents"),
        (["chabauty"], {"sequence": [_A]}, "chabauty expects either 'pair' or 'sequence'+'limit'"),
        (["zd"], None, "zd needs a spec file or --enumerate DIM MAXINDEX"),
        (["transit"], None, "transit needs a spec file or --demo"),
        (["folner"], None, "folner needs a spec file or --demo"),
        (["folner"], {"subgroup": _A, "sets": [["a"]]}, "folner spec needs 'sets' and 'elements'"),
        (["suite", "--only", "2,x"], None, "--only wants comma-separated integers"),
        (["stallings"], {"context": {"kind": "free", "rank": 0}, "generators": []},
         "rank/dim must be a positive integer"),
        (["stallings"], {"context": {"kind": "torus", "rank": 0}, "generators": []},
         "unknown context kind 'torus'"),
    ],
    ids=["pair", "sequence", "zd", "transit", "folner", "folner-elements", "only",
         "context-rank", "context-kind"],
)
def test_refusals_exit_two_and_say_why(capsys, tmp_path, argv, doc, message):
    if doc is not None:
        argv = [argv[0], spec_file(tmp_path, "doc.json", doc), *argv[1:]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: {message}" in err


def test_budget_blowout_is_three(capsys, tmp_path):
    # two core graphs saturate, so radius 99 runs past the ball radius cap
    spec = spec_file(
        tmp_path,
        "pair.json",
        {"pair": [
            {"context": F2_CTX, "generators": ["a"]},
            {"context": F2_CTX, "generators": ["b"]},
        ]},
    )
    code, out, _ = run(capsys, "chabauty", spec, "--radius", "99")
    assert code == 0
    assert json.loads(out)["result"]["distance"]["witness"] == "a"
    # so does a lattice preimage, and a pair whose states outgrow vertex_cap
    # exits 3 at any radius
    spec = spec_file(
        tmp_path, "ker.json", {"pair": [_KER_Z, {"context": F2_CTX, "generators": ["a"]}]}
    )
    code, out, _ = run(capsys, "chabauty", spec, "--radius", "99")
    assert code == 0
    assert json.loads(out)["result"]["distance"]["witness"] == "a"
    spec = spec_file(tmp_path, "ff.json", {"pair": [_F2_COMMUTATOR, _F2_COMMUTATOR_SWAPPED]})
    code, out, err = run(capsys, "chabauty", spec, "--radius", "99", "--budget-vertices", "1000")
    assert code == 3
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize(
    "doc",
    [
        ["pair"],  # `"pair" in doc` holds for a list
        {"sequence": 5, "limit": {"context": F2_CTX, "generators": ["a"]}},
    ],
)
def test_malformed_chabauty_documents_are_two(capsys, tmp_path, doc):
    spec = spec_file(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "chabauty", spec)
    assert code == 2
    assert out == ""
    assert "error" in err


_FOLNER_H = {"context": F2_CTX, "generators": ["b"]}


@pytest.mark.parametrize(
    "doc",
    [
        ["subgroup"],  # `"subgroup" in doc` holds for a list
        {"subgroup": _FOLNER_H, "sets": 5, "elements": ["a"]},
        {"subgroup": _FOLNER_H, "sets": [["a"]], "elements": ["a"], "tolerances": [[1]]},
        {"subgroup": _FOLNER_H, "sets": [["a"]], "elements": ["a"], "tolerances": ["x"]},
    ],
)
def test_malformed_folner_documents_are_two(capsys, tmp_path, doc):
    spec = spec_file(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "folner", spec)
    assert code == 2
    assert out == ""
    assert "error" in err


_Z2_CTX = {"kind": "lattice", "rank": 2}


@pytest.mark.parametrize(
    "doc",
    [
        # its vectors were read as free words, and it exited 0 with "ok"
        {"subgroup": {"context": _Z2_CTX, "generators": [[2, 0]]}, "sets": [[[1, 1]]],
         "elements": []},
        {"subgroup": {"context": _Z2_CTX, "generators": [[2, 0]]}, "sets": [[[0, 1]]],
         "elements": [[1, 0]]},
        {"subgroup": {"context": _Z2_CTX, "generators": []}},
    ],
    ids=["was-ok", "zero-letter", "no-sets"],
)
def test_folner_refuses_lattice_subgroups_before_reading_the_sets(capsys, tmp_path, doc):
    spec = spec_file(tmp_path, "z2.json", doc)
    code, out, err = run(capsys, "folner", spec)
    assert (code, out) == (2, "")
    assert "free-group subgroup" in err


@pytest.mark.parametrize(
    "hom",
    [
        {"target": {"kind": "lattice", "param": 1}, "images": [1, 0], "accepted": "zero"},
        {"target": {"kind": "cyclic", "param": 2}, "images": [1, 0], "accepted": 0},
        {"target": {"kind": "lattice", "param": 1}, "images": [[1], [0]],
         "accepted": {"generators": 2}},
        {"target": {"kind": "cyclic", "param": 2}, "images": 3, "accepted": [0]},
        {"target": {"kind": "permutation", "param": 2}, "images": [[1, 0], [0, 1]],
         "accepted": [[0, 1], [5, 6]]},
        # JSON true is a Python int; it must not read as Z/1 or Z^1
        {"target": {"kind": "cyclic", "param": True}, "images": [0, 0], "accepted": [0]},
        {"target": {"kind": "lattice", "param": True}, "images": [[1], [0]],
         "accepted": "zero"},
    ],
)
def test_malformed_hom_documents_are_two(capsys, tmp_path, hom):
    spec = spec_file(tmp_path, "hom.json", {"context": F2_CTX, "hom": hom})
    code, out, err = run(capsys, "schreier", spec, "--radius", "2")
    assert code == 2
    assert out == ""
    assert "error" in err


def _hom_doc(kind, param, images, accepted):
    return {"context": F2_CTX, "hom": {"target": {"kind": kind, "param": param},
                                       "images": images, "accepted": accepted}}


# ker(F₂ → Z/2, a ↦ 1, b ↦ 0) written three ways, and the kernel of a ↦ 1 in Z/4
_EVEN_GENERATORS = {"context": F2_CTX, "generators": ["aa", "b", "abA"]}
_EVEN_CYCLIC = _hom_doc("cyclic", 2, [1, 0], [0])
_EVEN_SWAP = _hom_doc("permutation", 2, [[1, 0], [0, 1]], [[0, 1]])
_KERNEL_MOD_4 = _hom_doc("cyclic", 4, [1, 0], [0])


def _transit_with_witness(witness):
    return {"context": F2_CTX, "pairs": [{
        "source": {"ins": ["a"], "outs": ["b"]}, "target": {"ins": ["ab"], "outs": ["ba"]},
        "source_witness": witness, "target_witness": ["ab"],
    }]}


def _transit_with_source_ins(ins, rank=2):
    """One pair whose source "ins" is not a list; as lists these would be
    valid tasks: {"ins": ["ab"]} is solved by the identity, and ["b", "a"]
    in F₃ by a conjugator after 54 candidates."""
    ctx = {"kind": "free", "rank": rank}
    if rank == 3:
        return {"context": ctx, "pairs": [{
            "source": {"ins": ins, "outs": ["c"]}, "target": {"ins": ["c"], "outs": ["a"]},
            "source_witness": ["a", "b"], "target_witness": ["c"],
        }]}
    return {"context": ctx, "pairs": [{
        "source": {"ins": ins, "outs": ["ba"]}, "target": {"ins": ["ab"], "outs": ["ba"]},
        "source_witness": ["ab"], "target_witness": ["ab"],
    }]}


# clopen word lists given as a number, a string and an object: they raised a
# TypeError, were read as the letters b and a, and as the keys ["ab"]
_CLOPEN_INS_NOT_LISTS = [
    _transit_with_source_ins(5),
    _transit_with_source_ins("ba", rank=3),
    _transit_with_source_ins({"ab": 1}),
]


@pytest.mark.parametrize("doc", _CLOPEN_INS_NOT_LISTS, ids=["number", "string", "object"])
def test_clopen_word_lists_must_be_lists(capsys, tmp_path, doc):
    spec = spec_file(tmp_path, "task.json", doc)
    code, out, err = run(capsys, "transit", spec)
    assert (code, out) == (2, "")
    assert "clopen ins must be a list of words" in err
    outs_doc = json.loads(json.dumps(doc))
    source = outs_doc["pairs"][0]["source"]
    source["ins"], source["outs"] = source["outs"], source["ins"]
    spec = spec_file(tmp_path, "swapped.json", outs_doc)
    code, out, err = run(capsys, "transit", spec)
    assert (code, out) == (2, "")
    assert "clopen outs must be a list of words" in err


@pytest.mark.parametrize("hom", [_EVEN_CYCLIC, _EVEN_SWAP, _hom_doc("cyclic", 65, [1, 0], [0])],
                         ids=["cyclic", "permutation", "past-the-vertex-cap"])
@pytest.mark.parametrize("command, doc", [
    ("stallings", lambda hom: hom),
    ("stallings", lambda hom: {**_EVEN_GENERATORS, "intersect_with": hom}),
    ("witness", lambda hom: hom),
    ("transit", _transit_with_witness),
    ("zd", lambda hom: hom),
], ids=["stallings", "intersect_with", "witness", "transit-witness", "zd"])
def test_hom_documents_are_two_where_generators_are_required(capsys, tmp_path, hom,
                                                             command, doc):
    """A finite target parses to a Stallings graph, yet these places refuse
    every homomorphism document by its "hom" key, before any budget binds."""
    spec = spec_file(tmp_path, "doc.json", doc(hom))
    code, out, err = run(capsys, command, spec, "--budget-vertices", "64")
    assert code == 2
    assert out == ""
    assert "homomorphism" in err


@pytest.mark.parametrize("budget", [[], ["--budget-vertices", "64"]], ids=["default", "cap-64"])
def test_zd_refuses_hom_documents_whatever_the_budget(capsys, tmp_path, budget):
    """ker(F₂ → Z/65, a ↦ 1) exited 3 under a 64-vertex cap, because its
    covering was built before the kind check; now the "hom" key decides."""
    for hom in (_hom_doc("cyclic", 65, [1, 0], [0]), _hom_doc("lattice", 1, [[1], [0]], "zero")):
        spec = spec_file(tmp_path, "hom.json", hom)
        code, out, err = run(capsys, "zd", spec, *budget)
        assert (code, out) == (2, "")
        assert "generator-defined" in err


@pytest.mark.parametrize("limit", [_EVEN_CYCLIC, _EVEN_SWAP])
def test_equal_subgroups_from_other_documents_are_not_nontrivial(capsys, tmp_path, limit):
    """The term ⟨aa, b, abA⟩ is the limit's subgroup: `nontrivial` is false."""
    spec = spec_file(tmp_path, "seq.json", {"sequence": [_EVEN_GENERATORS], "limit": limit})
    code, out, _ = run(capsys, "chabauty", spec, "--radius", "6")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["certification"]["kind"] == "certified"
    assert result["certification"]["n0"] == 1
    assert result["terms"] == [{"n": 1, "distance_exponent": 7, "nontrivial": False}]
    subgroups = [specio.subgroup_from_json(d) for d in (_EVEN_GENERATORS, _EVEN_CYCLIC, _EVEN_SWAP)]
    assert len(set(subgroups)) == 1 and subgroups[0] == subgroups[1] == subgroups[2]


def test_finite_coset_space_past_the_vertex_cap_is_three(capsys, tmp_path):
    z64, z65 = (_hom_doc("cyclic", m, [1, 0], [0]) for m in (64, 65))
    runs = {
        "chabauty": lambda H: {"pair": [H, _EVEN_GENERATORS]},
        "schreier": lambda H: H,
        "folner": lambda H: {"subgroup": H, "sets": [["", "a"]], "elements": ["a"]},
    }
    for command, doc in runs.items():
        spec = spec_file(tmp_path, "z65.json", doc(z65))
        code, out, err = run(capsys, command, spec, "--budget-vertices", "64")
        assert (code, out) == (3, ""), command
        assert "graph vertices: limit 64" in err
        spec = spec_file(tmp_path, "z64.json", doc(z64))
        code, out, _ = run(capsys, command, spec, "--budget-vertices", "64")
        assert code == 0 and out, command


def test_fibers_of_coverings_from_two_documents(capsys, tmp_path):
    """ker(a ↦ 1 in Z/4) over ker(a ↦ 1 in Z/2): containment is checked on
    the basis of the first covering."""
    spec = spec_file(tmp_path, "fib.json", {"subgroup": _KERNEL_MOD_4, "over": _EVEN_CYCLIC})
    code, out, _ = run(capsys, "schreier", spec, "--radius", "4")
    assert code == 0
    fibers = json.loads(out)["result"]["fibers"]
    assert [(f["representative"], f["size"], f["diameter"]) for f in fibers] == [
        ("", 2, 2), ("a", 2, 2),
    ]
    # the other way round, the basis word aa is not in the Z/4 kernel
    spec = spec_file(tmp_path, "fib.json", {"subgroup": _EVEN_CYCLIC, "over": _KERNEL_MOD_4})
    code, out, err = run(capsys, "schreier", spec, "--radius", "4")
    assert (code, out) == (2, "")
    assert "not contained" in err


def test_boolean_lattice_vector_is_two(capsys, tmp_path):
    # JSON true is a Python int; a vector [true, 0] must not read as (1, 0)
    spec = spec_file(
        tmp_path, "lat.json", {"context": {"kind": "lattice", "dim": 2}, "generators": [[True, 0]]}
    )
    code, out, err = run(capsys, "zd", spec)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_enumerate_rejects_bad_dimension_before_budgets(capsys):
    # index 100000 is over the index cap, but dimension 0 is malformed first
    code, out, err = run(capsys, "zd", "--enumerate", "0", "100000")
    assert code == 2
    assert out == ""
    assert "error" in err
    code, out, _ = run(capsys, "zd", "--enumerate", "2", "0")
    assert code == 2 and out == ""


def test_stallings_vertex_blowout_is_three(capsys, tmp_path):
    # the loops create 1 + 3 + 1 = 5 vertices before folding leaves 2
    spec = spec_file(tmp_path, "h.json", {"context": F2_CTX, "generators": ["aaaa", "aa"]})
    code, out, err = run(capsys, "stallings", spec, "--budget-vertices", "4")
    assert code == 3
    assert out == ""
    assert "budget" in err
    code, out, _ = run(capsys, "stallings", spec, "--budget-vertices", "5")
    assert code == 0
    assert json.loads(out)["result"]["subgroup"]["vertices"] == 2


def test_stallings_prints_the_canonical_completion(capsys, tmp_path):
    """⟨ba⟩'s completion at radius 2 is built in another numbering than the
    canonical one; the report prints the canonical graph."""
    H = from_generators(free_group(2), [parse_word("ba", free_group(2))])
    built, as_built = stallings._completion(H, 2, current())
    canonical = hall_completion(H, 2)
    assert as_built and built.edges != canonical.edges
    spec = spec_file(tmp_path, "h.json", {"context": F2_CTX, "generators": ["ba"],
                                          "completion_radius": 2})
    code, out, _ = run(capsys, "stallings", spec)
    assert code == 0
    completion = json.loads(out)["result"]["completion"]
    assert completion.pop("agreement_radius") == 2
    assert completion == json.loads(specio.canonical_json(specio.json_of_graph(canonical)))


def test_equal_pair_at_radius_12_and_13(capsys, tmp_path):
    H = {"context": F2_CTX, "generators": ["ab", "bbA", "aBaB"]}
    spec = spec_file(tmp_path, "pair.json", {"pair": [H, H]})
    code, out, _ = run(capsys, "chabauty", spec, "--radius", "12")
    assert code == 0
    assert json.loads(out)["result"]["distance"]["kind"] == "at_most"
    # past the default ball_radius_cap, two core graphs still saturate
    code, out, _ = run(capsys, "chabauty", spec, "--radius", "13")
    assert code == 0
    distance = json.loads(out)["result"]["distance"]
    assert (distance["kind"], distance["exponent"]) == ("at_most", 14)
    # and so does a lattice preimage
    spec = spec_file(tmp_path, "ker.json", {"pair": [_KER_Z, _KER_Z]})
    code, _, _ = run(capsys, "chabauty", spec, "--radius", "12")
    assert code == 0
    code, out, _ = run(capsys, "chabauty", spec, "--radius", "13")
    assert code == 0
    distance = json.loads(out)["result"]["distance"]
    assert (distance["kind"], distance["exponent"]) == ("at_most", 14)


def test_radius_whose_distance_cannot_print_is_two(capsys, tmp_path):
    """2^-(radius + 1) is printed as a fraction, whose denominator may have
    at most `sys.get_int_max_str_digits()` digits: 4,300 by default, which
    2^14284 has and 2^14285 passes. The larger radius used to end in a
    traceback (exit 1) after the whole search."""
    H = {"context": F2_CTX, "generators": ["a"]}
    spec = spec_file(tmp_path, "pair.json", {"pair": [H, H]})
    assert sys.get_int_max_str_digits() == 4300
    done = [
        subprocess.run(
            [sys.executable, "-m", "chabauty_lab.cli", "chabauty", spec, "--radius", radius],
            env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True, text=True, timeout=60,
        )
        for radius in ("14283", "14284")
    ]
    assert done[0].returncode == 0, done[0].stderr
    assert json.loads(done[0].stdout)["result"]["distance"]["exponent"] == 14284
    assert done[1].returncode == 2 and done[1].stdout == ""
    assert done[1].stderr.startswith("error: radius 14284 is too large")
    assert "Traceback" not in done[1].stderr
    # the limit is read when the command runs, not fixed
    sys.set_int_max_str_digits(640)  # 2^2126 has 641 digits
    try:
        assert run(capsys, "chabauty", spec, "--radius", "2125")[0] == 0
        code, out, err = run(capsys, "chabauty", spec, "--radius", "2126")
        assert (code, out) == (2, "") and "more than 640 digits" in err
    finally:
        sys.set_int_max_str_digits(4300)  # the default, checked above


def _diagonal_lattice(a, b):
    return {"context": {"kind": "lattice", "rank": 2}, "generators": [[a, 0], [0, b]]}


def test_lattice_whose_index_cannot_print_is_two(capsys, tmp_path):
    """`zd` prints the HNF rows and the index, which may have at most
    `sys.get_int_max_str_digits()` digits: 10^4299 has 4,300 and 10^4300
    one more. Every input integer has 2,151 digits. The larger index used
    to end in a traceback (exit 1) at the summary line."""
    assert sys.get_int_max_str_digits() == 4300
    at_limit = spec_file(tmp_path, "at.json", _diagonal_lattice(10**2150, 10**2149))
    past = spec_file(tmp_path, "past.json", _diagonal_lattice(10**2150, 10**2150))
    code, out, _ = run(capsys, "zd", at_limit)
    assert code == 0 and json.loads(out)["result"]["index"] == 10**4299
    code, out, err = run(capsys, "zd", past)
    assert (code, out) == (2, "")
    assert err.startswith("error: the lattice is too large to print")
    # the limit is read when the command runs, not fixed
    at_limit = spec_file(tmp_path, "at640.json", _diagonal_lattice(10**320, 10**319))
    past = spec_file(tmp_path, "past640.json", _diagonal_lattice(10**320, 10**320))
    sys.set_int_max_str_digits(640)
    try:
        assert run(capsys, "zd", at_limit)[0] == 0
        code, out, err = run(capsys, "zd", past)
        assert (code, out) == (2, "") and "more than 640 digits" in err
    finally:
        sys.set_int_max_str_digits(4300)


def test_lattice_witness_whose_rows_cannot_print_is_two(capsys, tmp_path):
    """`witness` on a lattice prints the HNF rows of H and of every term,
    which may have at most `sys.get_int_max_str_digits()` digits. Two
    generators in Z³ with 3,000-digit entries have an HNF entry of 5,999
    digits; this used to end in a traceback (exit 1) in the report's
    encoder, where `zd` refused it. The index is not printed, so terms of
    index 10^4400 whose rows fit are printed."""
    assert sys.get_int_max_str_digits() == 4300
    a, big = 10**2999 + 7, 10**2999
    doc = {"context": {"kind": "lattice", "rank": 3},
           "generators": [[a, big, 1], [a + 2, 3 * big, 1]]}
    past = spec_file(tmp_path, "past.json", doc)
    assert run(capsys, "zd", past)[0] == 2
    code, out, err = run(capsys, "witness", past, "--radius", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: the lattice is too large to print")
    wide = {"context": {"kind": "lattice", "rank": 3},
            "generators": [[10**2200, 0, 0], [0, 10**2200, 0]]}
    code, out, _ = run(capsys, "witness", spec_file(tmp_path, "wide.json", wide),
                       "--radius", "2")
    assert code == 0 and json.loads(out)["result"]["witness"]["subgroup"][0][0] == 10**2200


@pytest.mark.parametrize(
    "tolerance, code",
    [
        ("1e4299", 0),  # 4,300 digits
        ("1e-4299", 4),  # printed, and exceeded
        ("1e4300", 2),  # 4,301 digits
        ("1e-4300", 2),
        ("1e5000", 2),
        ("1e-5000", 2),
        ("0." + "0" * 4299 + "1", 2),  # no exponent: the denominator is 10^4300
        ("0e12900", 4),  # the exponent is read, and the power built, up to 3 × 4,300
        ("0e12901", 2),  # past it, a zero is refused too
        ("-1E+12_901", 2),
    ],
)
def test_folner_tolerance_that_cannot_print_is_two(capsys, tmp_path, tolerance, code):
    """A tolerance is printed as a fraction, whose numerator and denominator
    may have at most `sys.get_int_max_str_digits()` digits. "1e5000" and
    "1e-5000" used to end in a traceback (exit 1) when the report was
    written."""
    doc = {"subgroup": _KER_Z, "sets": [["", "a", "A"]], "elements": ["a"],
           "tolerances": [tolerance]}
    got, out, err = run(capsys, "folner", spec_file(tmp_path, "f.json", doc))
    assert got == code
    if code == 2:
        assert out == "" and err.startswith("error: tolerances: item 1 ")


def test_folner_tolerance_with_a_huge_exponent_is_refused_before_its_power():
    """`Fraction("1e1000000000")` would build 10^(10^9); the exponent is
    refused first. Run under a 1 GiB address-space limit and a timeout, so
    that building the power fails fast instead of filling the machine."""
    resource = pytest.importorskip("resource")
    limit = 2**30
    doc = {"subgroup": _KER_Z, "sets": [["", "a", "A"]], "elements": ["a"],
           "tolerances": ["1e1000000000"]}
    done = _cli_in_subprocess(
        ["folner"], doc, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 2 and done.stdout == "", done.stderr
    assert done.stderr == "error: tolerances: item 1 has an exponent larger than 12900\n"


def _cli_in_subprocess(argv, doc, timeout, preexec_fn=None):
    """Run the CLI on `doc` in a fresh interpreter; the finished process."""
    with tempfile.TemporaryDirectory() as work:
        spec = os.path.join(work, "doc.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return subprocess.run(
            [sys.executable, "-m", "chabauty_lab.cli", argv[0], spec, *argv[1:]],
            env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True, text=True,
            timeout=timeout, preexec_fn=preexec_fn,
        )


def test_schreier_ball_memory_follows_its_vertex_count():
    """The ball of ⟨⟩ ≤ F₁ at radius 50,000 is a path of 100,001 vertices.
    Kept as one word per vertex, its 2.5·10⁹ letters need tens of GB; kept
    as a tree, it fits well inside a 1 GiB address-space limit."""
    resource = pytest.importorskip("resource")
    limit = 2**30
    done = _cli_in_subprocess(
        ["schreier", "--radius", "50000"], {"context": {"kind": "free", "rank": 1}, "generators": []},
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 0, done.stderr
    graph = json.loads(done.stdout)["result"]["graph"]
    assert (graph["vertices"], graph["frontier"]) == (100_001, 2)


def test_complete_schreier_ball_work_follows_its_depth():
    """ker(F₂ → Z/5) has 5 cosets, 2 letters deep. Its ends profile stops
    at that depth, so radius 10⁸ costs no more than radius 3; one edge
    bucket per radius needed gigabytes."""
    resource = pytest.importorskip("resource")
    limit = 2**30
    z5 = {"context": F2_CTX,
          "hom": {"target": {"kind": "cyclic", "param": 5}, "images": [1, 0], "accepted": [0]}}
    done = _cli_in_subprocess(
        ["schreier", "--radius", "100000000"], z5,
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)["result"]
    assert result["graph"]["vertices"] == 5 and result["graph"]["complete"]
    assert result["ends"] == [[r, 0] for r in range(1, 7)]


def test_folner_walks_a_long_word_in_linear_time():
    """b²⁰⁰⁰⁰⁰ leaves the core of ⟨a⟩ at once; a state that copied the word's
    hanging suffix at each letter took time quadratic in its length."""
    doc = {"subgroup": {"context": F2_CTX, "generators": ["a"]},
           "sets": [["b" * 200_000]], "elements": ["a"]}
    done = _cli_in_subprocess(["folner"], doc, timeout=30)
    assert done.returncode == 0, done.stderr
    folner = json.loads(done.stdout)["result"]["folner"]
    assert folner["ok"] and folner["sets"][0]["ratios"] == [{"element": "a", "ratio": "0"}]


def _lattice_kernel(images):
    """ker(F_r → Z^k) for the images of the r generators."""
    hom = {"target": {"kind": "lattice", "param": len(images[0])}, "images": images,
           "accepted": "zero"}
    return {"context": {"kind": "free", "rank": len(images)}, "hom": hom}


# [F₂, F₂] as the kernel of F₂ → Z², described twice with the images swapped
_F2_COMMUTATOR = _lattice_kernel([[1, 0], [0, 1]])
_F2_COMMUTATOR_SWAPPED = _lattice_kernel([[0, 1], [1, 0]])


def test_lattice_pairs_answer_past_the_radius_cap(capsys, tmp_path):
    spec = spec_file(tmp_path, "ff.json", {"pair": [_F2_COMMUTATOR, _F2_COMMUTATOR_SWAPPED]})
    code, out, _ = run(capsys, "chabauty", spec, "--radius", "48")
    assert code == 0
    distance = json.loads(out)["result"]["distance"]
    assert (distance["kind"], distance["exponent"]) == ("at_most", 49)


def test_lattice_pair_holding_too_many_states_is_three(capsys, tmp_path):
    """ker(F₆ → Z⁶) against itself with e₁ and e₂ swapped: equal, with
    images in Z⁶ as states, so the search outgrows any vertex_cap well inside
    the default radius cap (at the default cap, in a few seconds)."""
    e = [[int(i == j) for j in range(6)] for i in range(6)]
    pair = [_lattice_kernel(e), _lattice_kernel([e[1], e[0]] + e[2:])]
    spec = spec_file(tmp_path, "f6.json", {"pair": pair})
    code, out, err = run(capsys, "chabauty", spec, "--radius", "12", "--budget-vertices", "2000")
    assert code == 3
    assert out == ""
    assert "graph vertices: limit 2000" in err


def test_coprime_cyclic_kernels_answer_to_the_vertex_cap(capsys, tmp_path):
    def ker(m):
        hom = {"target": {"kind": "cyclic", "param": m}, "images": [1, 0], "accepted": [0]}
        return {"context": F2_CTX, "hom": hom}

    spec = spec_file(tmp_path, "pair.json", {"pair": [ker(60), ker(61)]})
    code, out, _ = run(capsys, "chabauty", spec, "--radius", "100")
    assert code == 0
    distance = json.loads(out)["result"]["distance"]
    assert (distance["kind"], distance["witness"]) == ("exact", "a" * 60)
    code, out, err = run(capsys, "chabauty", spec, "--radius", "100", "--budget-vertices", "100")
    assert code == 3
    assert out == ""
    assert "graph vertices" in err


def test_schreier_of_a_kernel_over_the_whole_group_is_zero(capsys, tmp_path):
    """ker(F₂ → Z) over ⟨a, b⟩ is decided, [F₂ : K] = [Z² : ab(K)] = 1 (it
    exited 2 while containment needed a shared φ): one fiber, the ball."""
    doc = {"subgroup": _lattice_kernel([[1], [0]]),
           "over": {"context": F2_CTX, "generators": ["a", "b"]}}
    code, out, _ = run(capsys, "schreier", spec_file(tmp_path, "k.json", doc), "--radius", "4")
    assert code == 0
    fibers = json.loads(out)["result"]["fibers"]
    assert [(f["representative"], f["size"]) for f in fibers] == [("", 9)]


@pytest.mark.parametrize(
    "over, why",
    [
        (_lattice_kernel([[0], [1]]), "ab(H) holds [0, 1], which ab(K) does not"),
        ({"context": F2_CTX, "generators": ["a", "bab"]}, "K has infinite index, and H contains [F, F]"),
        ({"context": F2_CTX, "hom": {"target": {"kind": "permutation", "param": 3},
                                     "images": [[1, 0, 2], [0, 2, 1]], "accepted": [[0, 1, 2]]}},
         "K does not contain [F, F], and H does"),
    ],
    ids=["lattice", "infinite-index", "sym3"],
)
def test_schreier_over_a_subgroup_not_containing_the_kernel_names_why(capsys, tmp_path, over, why):
    doc = {"subgroup": _lattice_kernel([[1], [0]]), "over": over}
    code, out, err = run(capsys, "schreier", spec_file(tmp_path, "k.json", doc), "--radius", "4")
    assert (code, out) == (2, "")
    assert err == f"error: H is not contained in K ({why})\n"


def test_kernels_of_phi_and_minus_phi_are_one_subgroup(capsys, tmp_path):
    """ker φ and ker(−φ) are one subgroup, so neither term differs from the
    limit ker φ: `nontrivial` is false for both."""
    doc = {"sequence": [_lattice_kernel([[2, 1], [3, 0]]), _lattice_kernel([[-2, -1], [-3, 0]])],
           "limit": _lattice_kernel([[2, 1], [3, 0]])}
    code, out, _ = run(capsys, "chabauty", spec_file(tmp_path, "s.json", doc), "--radius", "6")
    assert code == 0
    assert [t["nontrivial"] for t in json.loads(out)["result"]["terms"]] == [False, False]


def test_lattice_preimages_answer_to_the_vertex_cap(capsys, tmp_path):
    """The HNF of L charges r·(k + r) entries of vertex_cap first: F₄₀₀ → Z
    (160,400 > 100,000) exits 3, where it answered, and F₃₀₀ → Z answers. A
    finite-index preimage with more cosets than vertex_cap exits 3, as a
    cyclic one does."""
    def free_to_z(r):
        hom = {"target": {"kind": "lattice", "param": 1}, "images": [[1]] * r, "accepted": "zero"}
        return spec_file(tmp_path, f"f{r}.json", {"context": {"kind": "free", "rank": r}, "hom": hom})

    code, out, err = run(capsys, "schreier", free_to_z(400), "--radius", "1")
    assert (code, out) == (3, "")
    assert "preimage lattice entries: limit 100000, reached 160400" in err
    assert run(capsys, "schreier", free_to_z(300), "--radius", "1")[0] == 0

    def mod(n):
        hom = {"target": {"kind": "lattice", "param": 1}, "images": [[1], [0]],
               "accepted": {"generators": [[n]]}}
        return spec_file(tmp_path, f"m{n}.json", {"context": F2_CTX, "hom": hom})

    assert run(capsys, "schreier", mod(64), "--radius", "2", "--budget-vertices", "64")[0] == 0
    code, out, err = run(capsys, "schreier", mod(65), "--radius", "2", "--budget-vertices", "64")
    assert (code, out) == (3, "")
    assert "graph vertices: limit 64" in err


def test_lattice_witness_sequence_answers_to_the_vertex_cap(capsys, tmp_path):
    # the trivial subgroup of Z at radius 8: terms mZ for m = 1..2·8 + 2 = 18;
    # the largest ball listed, Z's, holds 17 points, so a vertex cap of 17
    # binds on the sequence length alone
    spec = spec_file(tmp_path, "z.json", {"context": {"kind": "lattice", "rank": 1},
                                          "generators": []})
    code, out, _ = run(capsys, "witness", spec, "--radius", "8", "--budget-vertices", "18")
    assert code == 0
    assert len(json.loads(out)["result"]["terms"]) == 18
    code, out, err = run(capsys, "witness", spec, "--radius", "8", "--budget-vertices", "17")
    assert code == 3
    assert out == ""
    assert "witness sequence length" in err
    # 2·250 + 2 = 502 terms, well inside the default vertex_cap
    code, out, _ = run(capsys, "witness", spec, "--radius", "250")
    assert code == 0
    assert len(json.loads(out)["result"]["terms"]) == 502


def test_obstruction_demo_is_four(capsys):
    code, out, _ = run(capsys, "transit", "--demo", "obstruction")
    assert code == 4
    report = json.loads(out)
    progress = report["result"]["failure"]["progress"]
    assert progress["candidates_tried"] == 193
    assert progress["best_checks_passed"] == 4


def test_failing_folner_tolerance_is_four(capsys, tmp_path):
    spec = spec_file(
        tmp_path,
        "folner.json",
        {
            "subgroup": {
                "context": F2_CTX,
                "hom": {
                    "target": {"kind": "lattice", "param": 1},
                    "images": [[1], [0]],
                    "accepted": "zero",
                },
            },
            "sets": [["", "a", "A"]],
            "elements": ["a"],
            "tolerances": ["1/100"],
        },
    )
    code, out, _ = run(capsys, "folner", spec)
    assert code == 4
    report = json.loads(out)
    assert report["result"]["folner"]["ok"] is False


# ── determinism ──────────────────────────────────────────────────────────────


def test_stdout_is_byte_identical_across_reruns(capsys, tmp_path):
    spec = spec_file(tmp_path, "h.json", {"context": F2_CTX, "generators": ["ab", "ba"]})
    _, out1, _ = run(capsys, "stallings", spec)
    _, out2, _ = run(capsys, "stallings", spec)
    assert out1 == out2
    assert out1.endswith("}\n")


# ── worked examples ──────────────────────────────────────────────────────────


def test_enumerate_counts_match_divisor_sums(capsys, tmp_path):
    out_dir = tmp_path / "zd"
    code, out, _ = run(capsys, "zd", "--enumerate", "2", "12", "--out", str(out_dir))
    assert code == 0
    counts = json.loads(out)["result"]["counts"]
    sigma = lambda n: sum(d for d in range(1, n + 1) if n % d == 0)
    assert {int(k): v for k, v in counts.items()} == {n: sigma(n) for n in range(1, 13)}
    csv_lines = (out_dir / "counts.csv").read_text().splitlines()
    assert csv_lines[0] == "index,count,divisor_sum"
    assert all(line.split(",")[1] == line.split(",")[2] for line in csv_lines[1:])


def test_enumerate_in_z4_counts_without_building(capsys):
    code, out, _ = run(capsys, "zd", "--enumerate", "4", "40")
    assert code == 0
    assert json.loads(out)["result"]["total"] == 1_460_652


@pytest.mark.parametrize("n", [1, 2, 12, 97, 120, 200])
def test_enumerate_counts_csv_matches_the_catalogue_and_trial_division(capsys, tmp_path, n):
    """counts.csv for Z² is byte-equal to the one built from the catalogue's
    sizes and σ(n) by trial division."""
    out_dir = tmp_path / "zd"
    code, _, _ = run(capsys, "zd", "--enumerate", "2", str(n), "--out", str(out_dir))
    assert code == 0
    rows = [
        (k, len(subs), sum(a for a in range(1, k + 1) if k % a == 0))
        for k, subs in sorted(enumerate_by_index(2, n).items())
    ]
    expected = specio.csv_text(["index", "count", "divisor_sum"], rows)
    assert (out_dir / "counts.csv").read_text() == expected


def test_lattice_ball_past_the_vertex_cap_is_three(capsys, tmp_path):
    # the radius-60 ball of Z⁴ holds ~8.9 million points
    ctx = {"kind": "lattice", "dim": 4}
    basis = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    pair = [{"context": ctx, "generators": basis},
            {"context": ctx, "generators": basis[:3] + [[0, 0, 0, 2]]}]
    spec = spec_file(tmp_path, "pair.json", {"pair": pair})
    code, out, err = run(capsys, "chabauty", spec, "--radius", "60")
    assert code == 3
    assert out == ""
    assert "lattice ball points" in err


def test_witness_on_cyclic_subgroup_all_rows_nontrivial(capsys, tmp_path):
    spec = spec_file(tmp_path, "a.json", {"context": F2_CTX, "generators": ["a"]})
    out_dir = tmp_path / "wit"
    code, out, _ = run(capsys, "witness", spec, "--radius", "8", "--out", str(out_dir))
    assert code == 0
    report = json.loads(out)["result"]
    assert report["certification"]["kind"] == "certified"
    assert all(row["nontrivial"] for row in report["terms"])
    csv_lines = (out_dir / "convergence.csv").read_text().splitlines()
    assert csv_lines[0] == "n,distance_exponent,nontrivial"
    assert len(csv_lines) == 9  # header + one row per radius step


def test_witness_in_rank_one_is_two(capsys, tmp_path):
    """In F₁ = Z every subgroup but {1} has finite index, so no budget could
    find an infinite-index term: the document is refused, not the budget."""
    spec = spec_file(tmp_path, "z.json", {"context": {"kind": "free", "rank": 1},
                                          "generators": []})
    code, out, err = run(capsys, "witness", spec, "--radius", "2")
    assert (code, out) == (2, "")
    assert "rank >= 2" in err and "budget" not in err


def test_containment_failure_prints_the_word_as_text(capsys, tmp_path):
    spec = spec_file(tmp_path, "fib.json", {
        "subgroup": {"context": F2_CTX, "generators": ["a"]}, "over": _KER_Z,
    })
    code, out, err = run(capsys, "schreier", spec, "--radius", "2")
    assert (code, out) == (2, "")
    assert err == "error: H is not contained in K (basis word a not accepted)\n"


def test_witness_on_lattice_subgroup(capsys, tmp_path):
    spec = spec_file(
        tmp_path, "lat.json", {"context": {"kind": "lattice", "dim": 2}, "generators": [[1, 3]]}
    )
    code, out, _ = run(capsys, "witness", spec, "--radius", "8")
    assert code == 0
    report = json.loads(out)["result"]
    assert len(report["terms"]) == 18
    assert report["certification"]["kind"] == "certified"


LATTICE_2 = {"kind": "lattice", "dim": 2}


def test_lattice_entries_past_int64_are_exact(capsys, tmp_path):
    # ⟨(1, 2⁶²)⟩ meets the radius-4 ball only in 0, so it agrees with ⟨⟩ there
    trivial = {"context": LATTICE_2, "generators": []}
    for big in ([1, 4611686018427387904], [1180591620717411303424, 1]):
        H = {"context": LATTICE_2, "generators": [big]}
        spec = spec_file(tmp_path, "pair.json", {"pair": [H, trivial]})
        code, out, _ = run(capsys, "chabauty", spec, "--radius", "4")
        assert code == 0
        distance = json.loads(out)["result"]["distance"]
        assert distance["kind"] == "at_most"
        assert distance["exponent"] == 5


def test_witness_on_lattice_entries_past_int64(capsys, tmp_path):
    spec = spec_file(
        tmp_path, "lat.json", {"context": LATTICE_2, "generators": [[1, 4611686018427387904]]}
    )
    code, out, _ = run(capsys, "witness", spec, "--radius", "4")
    assert code == 0
    assert json.loads(out)["result"]["certification"]["kind"] == "certified"


def test_lattice_ops_need_only_the_standard_library(tmp_path):
    """The package has no runtime dependency: a lattice distance runs in a
    fresh interpreter without site-packages (`-S`) and loads no module from
    outside the standard library."""
    H = {"context": LATTICE_2, "generators": [[1, 3]]}
    K = {"context": LATTICE_2, "generators": [[2, 0]]}
    spec = spec_file(tmp_path, "pair.json", {"pair": [H, K]})
    src = os.path.dirname(os.path.dirname(chabauty_lab.__file__))
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import chabauty_lab.cli\n"
        f"code = chabauty_lab.cli.main(['chabauty', {spec!r}, '--radius', '4'])\n"
        "loaded = {m.split('.')[0] for m in sys.modules}\n"
        "print(code, sorted(loaded - set(sys.stdlib_module_names) - {'__main__', 'chabauty_lab'}))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_paired_transit_demo(capsys):
    code, out, _ = run(capsys, "transit", "--demo", "paired")
    assert code == 0
    cert = json.loads(out)["result"]["certificate"]
    assert cert["candidate"] == "aB"
    assert cert["conjugator"] == "bA"
    assert cert["candidates_tried"] == 35
    assert cert["reverified"] is True


def _hand_built_paired_task(budget):
    """The paired demo as it was first built, set by set and fold by fold."""
    F2 = free_group(2)
    w = lambda s: parse_word(s, F2)
    pairs = [
        (clopen([w("a")], [w("b")]), clopen([w("ab")], [w("ba")]),
         from_generators(F2, [w("a")]), from_generators(F2, [w("ab")])),
        (clopen([w("b")], [w("a")]), clopen([w("ba")], [w("ab")]),
         from_generators(F2, [w("b")]), from_generators(F2, [w("ba")])),
    ]
    return make_task(F2, pairs, budget)


def test_paired_demo_document_is_the_hand_built_task(capsys, monkeypatch):
    monkeypatch.delenv("CHABAUTY_LAB_BUDGET", raising=False)
    budget = current()
    task = specio.task_from_json(_PAIRED_DEMO, budget)
    old = _hand_built_paired_task(budget)
    assert task == old
    assert specio.json_of_task(task) == specio.json_of_task(old)
    assert specio.json_of_move(multi_transitivity_move(task), task.ctx) == specio.json_of_move(
        multi_transitivity_move(old), old.ctx
    )
    # the demo's witnesses are folded under the run's budget, so the flag
    # overrides the environment's vertex cap for them as for the search
    code, expected, _ = run(capsys, "transit", "--demo", "paired", "--budget-vertices", "100")
    assert code == 0
    monkeypatch.setenv("CHABAUTY_LAB_BUDGET", '{"vertex_cap": 1}')
    code, out, _ = run(capsys, "transit", "--demo", "paired", "--budget-vertices", "100")
    assert (code, out) == (0, expected)


def test_fibers_over_a_lattice_subgroup_are_two(capsys, tmp_path):
    # the trivial subgroup has no basis word to test, so only the kind of K
    # can reject the document
    spec = spec_file(tmp_path, "fib.json", {
        "subgroup": {"context": F2_CTX, "generators": []},
        "over": {"context": {"kind": "lattice", "dim": 2}, "generators": [[1, 0]]},
    })
    code, out, err = run(capsys, "schreier", spec, "--radius", "2")
    assert code == 2
    assert out == ""
    assert "error" in err


_FIBERS_ACROSS_CONTEXTS = {
    "subgroup": {"context": {"kind": "free", "rank": 3}, "generators": ["c"]},
    "over": {"context": {"kind": "free", "rank": 2}, "generators": ["a"]},
}


@pytest.mark.parametrize("doc", [
    # K's tables have no edge for c: without the context check, the
    # containment walk raised IndexError
    _FIBERS_ACROSS_CONTEXTS,
    # H's basis walks in K's tables, yet a subgroup of F₂ lies in no subgroup of F₃
    {"subgroup": {"context": F2_CTX, "generators": ["a"]},
     "over": {"context": {"kind": "free", "rank": 3}, "generators": ["a", "c"]}},
])
def test_fibers_over_another_free_context_are_two(capsys, tmp_path, doc):
    spec = spec_file(tmp_path, "fib.json", doc)
    code, out, err = run(capsys, "schreier", spec, "--radius", "2")
    assert code == 2
    assert out == ""
    assert "contexts differ" in err


def test_schreier_line_probe(capsys, tmp_path):
    spec = spec_file(
        tmp_path,
        "ker.json",
        {
            "context": F2_CTX,
            "hom": {
                "target": {"kind": "lattice", "param": 1},
                "images": [[1], [0]],
                "accepted": "zero",
            },
        },
    )
    out_dir = tmp_path / "sch"
    code, out, _ = run(capsys, "schreier", spec, "--radius", "10", "--out", str(out_dir))
    assert code == 0
    report = json.loads(out)["result"]
    assert report["graph"]["vertices"] == 21
    assert report["line_probe"]["verdict"] == "Z"
    assert (out_dir / "schreier.dot").exists()
    assert (out_dir / "spheres.csv").exists()


def test_suite_subset(capsys, tmp_path):
    out_dir = tmp_path / "suite"
    code, out, err = run(capsys, "suite", "--only", "2,8", "--out", str(out_dir))
    assert code == 0
    report = json.loads(out)["result"]
    assert report["passed"] == 2 and report["failed"] == 0
    assert "criterion  2 [PASS]" in err
    matrix = (out_dir / "matrix.csv").read_text()
    assert matrix.startswith("criterion,status,title,detail")


def test_out_dir_always_gets_report_and_summary(capsys, tmp_path):
    spec = spec_file(tmp_path, "h.json", {"context": F2_CTX, "generators": ["a"]})
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(capsys, "stallings", spec, "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "report.json").read_text() == out
    assert (out_dir / "summary.md").read_text().startswith("# ")
    assert (out_dir / "core.dot").read_text().startswith("digraph")


@pytest.mark.parametrize("where", ["file", "file/sub"])
def test_unusable_out_path_is_two_before_anything_runs(capsys, tmp_path, where):
    """An --out path that is a file, or lies under one, is refused with one
    error line before the command computes or prints anything."""
    (tmp_path / "file").write_text("kept")
    spec = spec_file(tmp_path, "h.json", {"context": F2_CTX, "generators": ["a"]})
    code, out, err = run(capsys, "stallings", spec, "--out", str(tmp_path / where))
    assert (code, out) == (2, "")
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == "kept"


def test_failing_artifact_write_is_two(capsys, tmp_path):
    """A write that fails once the report is out (here report.json is a
    directory) exits 2 with one error line, not a traceback."""
    spec = spec_file(tmp_path, "h.json", {"context": F2_CTX, "generators": ["a"]})
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    code, out, err = run(capsys, "stallings", spec, "--out", str(tmp_path / "out"))
    assert code == 2 and json.loads(out)["command"] == "stallings"
    assert err.splitlines()[-1].startswith("error: cannot write --out ")


def test_missing_out_directories_are_created(capsys, tmp_path):
    spec = spec_file(tmp_path, "h.json", {"context": F2_CTX, "generators": ["a"]})
    out_dir = tmp_path / "new" / "deeper"
    code, out, _ = run(capsys, "stallings", spec, "--out", str(out_dir))
    assert code == 0 and (out_dir / "report.json").read_text() == out


def test_schreier_artifacts_past_26_generators_are_written(capsys, tmp_path):
    """Edge labels past z are spelled x27; the vertices go by their numbers,
    so X27's vertex is the one its x27 edge leaves. This used to exit 1
    after stdout was written."""
    doc = {"context": {"kind": "free", "rank": 27}, "generators": []}
    spec = spec_file(tmp_path, "f27.json", doc)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "schreier", spec, "--radius", "1", "--out", str(out_dir))
    assert code == 0 and (out_dir / "report.json").read_text() == out
    dot = (out_dir / "schreier.dot").read_text()
    assert '  53 [shape=circle, color=gray];' in dot
    assert '  54 [shape=circle, color=gray];' in dot and "label=\"X" not in dot
    assert '  0 -> 53 [label="x27"];' in dot and '  54 -> 0 [label="x27"];' in dot


def test_membership_summary_counts_each_query(capsys, tmp_path):
    # "a" twice and "aA" (the empty word) are 3 of the 4 queries in ⟨a⟩,
    # though the report's membership object has only 3 keys
    doc = {"context": F2_CTX, "generators": ["a"], "queries": ["a", "a", "aA", "b"]}
    spec = spec_file(tmp_path, "h.json", doc)
    out_dir = tmp_path / "artifacts"
    code, out, err = run(capsys, "stallings", spec, "--out", str(out_dir))
    assert code == 0
    assert json.loads(out)["result"]["membership"] == {"a": True, "": True, "b": False}
    assert "membership: 3/4 queried words inside" in err
    assert "- membership: 3/4 queried words inside\n" in (out_dir / "summary.md").read_text()


# ── budget flags and environment ─────────────────────────────────────────────


def test_budget_flags_enter_provenance_and_bind(capsys, tmp_path):
    spec = spec_file(
        tmp_path,
        "task.json",
        {
            "context": F2_CTX,
            "pairs": [
                {
                    "source": {"ins": ["abab"], "outs": []},
                    "target": {"ins": ["BABA"], "outs": []},
                    "source_witness": ["abab"],
                    "target_witness": ["BABA"],
                }
            ],
        },
    )
    code, out, _ = run(capsys, "transit", spec, "--budget-length", "1")
    assert code == 0
    report = json.loads(out)
    assert report["provenance"]["budget"]["conjugator_len_cap"] == 1
    assert report["result"]["task"]["budget"]["conjugator_len_cap"] == 1


def test_env_budget_binds_the_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CHABAUTY_LAB_BUDGET", '{"ball_radius_cap": 4}')
    spec = spec_file(
        tmp_path,
        "pair.json",
        {"pair": [
            {"context": F2_CTX, "generators": ["a"]},
            {"context": F2_CTX, "generators": ["b"]},
        ]},
    )
    # the free pair searches on past the radius cap of 4...
    code, out, _ = run(capsys, "chabauty", spec, "--radius", "8")
    assert code == 0
    assert json.loads(out)["result"]["distance"]["witness"] == "a"
    # ...and so does a lattice pair, whose states answer to the vertex_cap
    # that the variable sets, where the default would let radius 8 run
    spec = spec_file(tmp_path, "ker.json", {"pair": [_KER_Z, _KER_Z]})
    code, _, _ = run(capsys, "chabauty", spec, "--radius", "8")
    assert code == 0
    monkeypatch.setenv("CHABAUTY_LAB_BUDGET", '{"vertex_cap": 20}')
    code, _, err = run(capsys, "chabauty", spec, "--radius", "8")
    assert code == 3
    assert "budget" in err
    monkeypatch.delenv("CHABAUTY_LAB_BUDGET")
    code, _, _ = run(capsys, "chabauty", spec, "--radius", "8")
    assert code == 0


def _paired_task(budget):
    return {
        "context": F2_CTX,
        "pairs": [
            {
                "source": {"ins": ["abab"], "outs": []},
                "target": {"ins": ["BABA"], "outs": []},
                "source_witness": ["abab"],
                "target_witness": ["BABA"],
            }
        ],
        "budget": budget,
    }


def test_a_task_budget_binds_its_witnesses(capsys, tmp_path, monkeypatch):
    """The witnesses are folded under the budget the task runs under: its own
    "budget" object when it has one, else the caller's. ⟨a⁶³⟩ charges 63
    vertices, so an environment cap of 60 must not bind it when the task's
    own cap of 100,000 holds it."""
    a63 = "a" * 63
    doc = {"context": F2_CTX, "pairs": [{
        "source": {"ins": [a63], "outs": []}, "target": {"ins": [a63], "outs": []},
        "source_witness": [a63], "target_witness": {"context": F2_CTX, "generators": [a63]},
    }]}
    spec = spec_file(tmp_path, "own.json", {**doc, "budget": {"vertex_cap": 100_000}})
    code, out, _ = run(capsys, "transit", spec)
    assert code == 0
    result = json.loads(out)["result"]  # the provenance records the caller's budget
    monkeypatch.setenv("CHABAUTY_LAB_BUDGET", '{"vertex_cap": 60}')
    code, out, _ = run(capsys, "transit", spec)
    assert code == 0 and json.loads(out)["result"] == result
    monkeypatch.delenv("CHABAUTY_LAB_BUDGET")
    code, out, _ = run(capsys, "transit", spec, "--budget-vertices", "30")
    assert code == 0 and json.loads(out)["result"] == result
    # without its own budget, the task and its witnesses answer to the caller's
    spec = spec_file(tmp_path, "ambient.json", doc)
    code, out, err = run(capsys, "transit", spec, "--budget-vertices", "62")
    assert (code, out) == (3, "")
    assert "limit 62" in err


def test_json_true_is_not_a_budget_or_a_radius(capsys, tmp_path, monkeypatch):
    """JSON `true` is a Python bool, and so an int: a budget field, the
    budget environment variable and a completion radius all refuse it with
    exit 2 instead of reading it as 1."""
    spec = spec_file(tmp_path, "task.json", _paired_task({"u_len_cap": True}))
    code, out, err = run(capsys, "transit", spec)
    assert (code, out) == (2, "")
    assert "u_len_cap" in err
    spec = spec_file(tmp_path, "task1.json", _paired_task({"u_len_cap": 1}))
    assert run(capsys, "transit", spec)[0] == 0
    monkeypatch.setenv("CHABAUTY_LAB_BUDGET", '{"u_len_cap": true}')
    code, out, _ = run(capsys, "transit", spec)
    assert (code, out) == (2, "")
    monkeypatch.delenv("CHABAUTY_LAB_BUDGET")
    for radius, expected in ((True, 2), (1, 0)):
        spec = spec_file(
            tmp_path, "h.json",
            {"context": F2_CTX, "generators": ["a"], "completion_radius": radius},
        )
        code, out, _ = run(capsys, "stallings", spec)
        assert code == expected
        if expected == 0:
            assert json.loads(out)["result"]["completion"]["agreement_radius"] == 1


# ── one parser per process ───────────────────────────────────────────────────

_SRC = os.path.dirname(os.path.dirname(chabauty_lab.__file__))
_KER_Z = {
    "context": F2_CTX,
    "hom": {"target": {"kind": "lattice", "param": 1}, "images": [[1], [0]], "accepted": "zero"},
}
_REUSE_DOCS = {
    "even.json": {"context": F2_CTX, "generators": ["aa", "b", "abA"],
                  "queries": ["a", "aa", "bab"], "completion_radius": 3},
    "pair.json": {"pair": [{"context": F2_CTX, "generators": ["a"]},
                           {"context": F2_CTX, "generators": ["a", "bbaBB"]}]},
    "ker.json": _KER_Z,
    "a.json": {"context": F2_CTX, "generators": ["a"]},
    "folner.json": {"subgroup": _KER_Z, "sets": [["", "a", "A"]], "elements": ["a"],
                    "tolerances": ["1/100"]},
}
# Every subcommand, each flag, an argparse error and --version, with flags
# that should not outlive their call followed by calls without them.
_REUSE_RUNS = [
    ["stallings", "even.json", "--out", "out-stallings"],
    ["stallings", "even.json", "--budget-vertices", "3"],
    ["stallings", "even.json"],
    ["chabauty", "pair.json", "--radius", "5"],
    ["chabauty", "pair.json"],
    ["zd", "--enumerate", "2", "12", "--out", "out-zd"],
    ["zd", "--enumerate", "2"],
    ["schreier", "ker.json", "--radius", "10", "--budget-vertices", "15", "--out", "out-sch"],
    ["schreier", "ker.json", "--radius", "10", "--out", "out-schreier"],
    ["witness", "a.json", "--radius", "4", "--out", "out-witness"],
    ["transit", "--demo", "paired", "--budget-length", "1"],
    ["transit", "--demo", "paired"],
    ["folner", "folner.json", "--out", "out-folner"],
    ["folner", "--demo"],
    ["suite", "--only", "3", "--out", "out-suite"],
    ["--version"],
    ["stallings", "even.json", "--bogus"],
    ["witness", "a.json"],
]


def _tree(directory):
    return {
        os.path.relpath(os.path.join(root, name), directory):
            open(os.path.join(root, name), encoding="utf-8").read()
        for root, _, names in os.walk(directory)
        for name in names
    }


def test_parser_reuse_leaves_no_state_between_calls(capsys, tmp_path, monkeypatch):
    """A sequence of calls in one process gives, call by call, the exit code,
    stdout and files of the same argv in a fresh interpreter."""
    monkeypatch.delenv("CHABAUTY_LAB_BUDGET", raising=False)
    env = dict(os.environ, PYTHONPATH=_SRC)
    inproc, fresh = tmp_path / "inproc", tmp_path / "fresh"
    for directory in (inproc, fresh):
        directory.mkdir()
        for name, doc in _REUSE_DOCS.items():
            (directory / name).write_text(json.dumps(doc))
    monkeypatch.chdir(inproc)
    codes = []
    for argv in _REUSE_RUNS:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        done = subprocess.run(
            [sys.executable, "-m", "chabauty_lab.cli", *argv],
            cwd=fresh, env=env, capture_output=True, text=True,
        )
        assert (code, out) == (done.returncode, done.stdout), argv
        codes.append(code)
    assert _tree(inproc) == _tree(fresh)
    # only runs that print a report write files, and only under their --out
    out_dirs = {
        argv[argv.index("--out") + 1]
        for argv, code in zip(_REUSE_RUNS, codes)
        if "--out" in argv and code in (0, 4)
    }
    assert {path.split(os.sep)[0] for path in _tree(inproc)} == set(_REUSE_DOCS) | out_dirs
    assert {0, 2, 3, 4} <= set(codes)


# ── exit-code fuzzing ────────────────────────────────────────────────────────

_FUZZ_KEYS = [
    "context", "kind", "rank", "dim", "generators", "hom", "target", "param", "images",
    "accepted", "queries", "intersect_with", "conjugate_by", "completion_radius", "pair",
    "sequence", "limit", "subgroup", "over", "sets", "elements", "tolerances", "pairs",
    "source", "source_witness", "target_witness", "ins", "outs", "budget",
]
# integers of sys.get_int_max_str_digits() = 4,300 digits, and of one more,
# which the decoder refuses: a document holds _FUZZ_PAST_LIMIT as a string,
# and the test writes it bare
_FUZZ_PAST_LIMIT = "<integer past the digit limit>"
_fuzz_big = st.sampled_from([2**64 + 1, -(10**40), 10**4299, -(10**4299), _FUZZ_PAST_LIMIT])
_fuzz_atoms = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=4)
    | _fuzz_big
    | st.sampled_from(["free", "lattice", "cyclic", "permutation", "zero", "", "a", "abA",
                       "bB", "c", "1/2", "x"])
)
_fuzz_words = st.text(alphabet="abcAB", max_size=4)
_fuzz_word_lists = st.lists(_fuzz_words, max_size=3)
_fuzz_vectors = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3)
# ranks and dimensions small, or at the fuzz run's vertex_cap of 64 and on
# either side of it
_fuzz_contexts = st.fixed_dictionaries({
    "kind": st.sampled_from(["free", "lattice"]),
    "rank": st.sampled_from([1, 2, 3, 63, 64, 65]),
})


def _fuzz_generated(**optional):
    free = st.fixed_dictionaries({
        "context": st.sampled_from([F2_CTX, {"kind": "free", "rank": 3}]),
        "generators": _fuzz_word_lists,
    }, optional=optional)
    z2 = st.fixed_dictionaries({
        "context": st.just(LATTICE_2),
        "generators": st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), max_size=3),
    }, optional=optional)
    anything = st.fixed_dictionaries({
        "context": _fuzz_contexts,
        "generators": st.lists(_fuzz_words | _fuzz_vectors, max_size=3),
    }, optional=optional)
    return free | z2 | anything


# a vector entry is huge one time in ten
_fuzz_entries = st.integers(0, 9).flatmap(lambda i: _fuzz_big if i == 0 else st.integers(-3, 3))


def _fuzz_lattice_hom(k):
    """A hom document from F_r, 2 ≤ r ≤ 8, to Z^k, with small or huge
    entries, A given as "zero" or by generators. The r·(k + r) entries that
    `preimage` charges to vertex_cap fall on both sides of the fuzz run's
    64: 63 at r = 7 and k = 2, 64 at r = 2 and k = 30, and 66 at r = 2
    and k = 31."""
    vector = st.lists(_fuzz_entries, min_size=k, max_size=k)
    return st.integers(min_value=2, max_value=8).flatmap(lambda r: st.fixed_dictionaries({
        "context": st.just({"kind": "free", "rank": r}),
        "hom": st.fixed_dictionaries({
            "target": st.just({"kind": "lattice", "param": k}),
            "images": st.lists(vector, min_size=r, max_size=r),
            "accepted": st.just("zero")
            | st.fixed_dictionaries({"generators": st.lists(vector, max_size=3)}),
        }),
    }))


_fuzz_subgroups = _fuzz_generated() | st.fixed_dictionaries({
    "context": st.just(F2_CTX),
    "hom": st.fixed_dictionaries({
        "target": st.fixed_dictionaries({
            "kind": st.just("cyclic"),
            "param": st.integers(1, 9).flatmap(lambda m: _fuzz_big if m > 4 else st.just(m)),
        }),
        "images": st.lists(_fuzz_entries, min_size=2, max_size=2),
        "accepted": st.lists(_fuzz_entries, max_size=2),
    }),
}) | st.sampled_from([1, 2, 3, 30, 31]).flatmap(_fuzz_lattice_hom)
_fuzz_clopens = st.fixed_dictionaries({"ins": _fuzz_word_lists, "outs": _fuzz_word_lists})
# per subcommand, documents of the shape it reads with small random contents
_FUZZ_SHAPED = {
    "stallings": _fuzz_generated(
        queries=_fuzz_word_lists, intersect_with=_fuzz_subgroups, conjugate_by=_fuzz_words,
        completion_radius=st.integers(min_value=-1, max_value=3),
    ),
    "chabauty": st.fixed_dictionaries({"pair": st.lists(_fuzz_subgroups, min_size=2, max_size=2)})
    | st.fixed_dictionaries({"sequence": st.lists(_fuzz_subgroups, max_size=3),
                             "limit": _fuzz_subgroups}),
    "zd": _fuzz_generated(queries=st.lists(_fuzz_vectors, max_size=2)),
    "schreier": _fuzz_subgroups
    | st.fixed_dictionaries({"subgroup": _fuzz_subgroups, "over": _fuzz_subgroups}),
    "witness": _fuzz_subgroups,
    "transit": st.fixed_dictionaries({"context": st.just(F2_CTX), "pairs": st.lists(
        st.fixed_dictionaries({
            "source": _fuzz_clopens, "target": _fuzz_clopens,
            "source_witness": _fuzz_word_lists, "target_witness": _fuzz_word_lists,
        }), max_size=2)}),
    "folner": st.fixed_dictionaries(
        {"subgroup": _fuzz_subgroups, "sets": st.lists(_fuzz_word_lists, max_size=2),
         "elements": _fuzz_word_lists},
        optional={"tolerances": st.lists(st.sampled_from(["1/2", "1", "0", "x", 1]), max_size=2)},
    ),
}
_fuzz_docs = st.recursive(
    _fuzz_atoms | st.one_of(list(_FUZZ_SHAPED.values())),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS), children, max_size=4),
    max_leaves=10,
)
_fuzz_runs = st.one_of(
    [st.tuples(st.just(command), shaped) for command, shaped in _FUZZ_SHAPED.items()]
) | st.tuples(st.sampled_from(sorted(_FUZZ_SHAPED)), _fuzz_docs)


@given(_fuzz_runs, st.sampled_from(["1", "3", "8", "13"]))
@example(("schreier", _FIBERS_ACROSS_CONTEXTS), "2")
@example(("transit", _CLOPEN_INS_NOT_LISTS[0]), "1")
@example(("transit", _CLOPEN_INS_NOT_LISTS[1]), "1")
@example(("transit", _CLOPEN_INS_NOT_LISTS[2]), "1")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_document_exits_with_a_contract_code(command_and_doc, radius):
    command, doc = command_and_doc
    with tempfile.TemporaryDirectory() as directory:
        spec = os.path.join(directory, "doc.json")
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc).replace(json.dumps(_FUZZ_PAST_LIMIT), "7" * 4301))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, spec, "--radius", radius,
                         "--budget-vertices", "64", "--budget-length", "2"])
    assert code in (0, 2, 3, 4)
    if code not in (0, 4):
        assert out.getvalue() == ""
