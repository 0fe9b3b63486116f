"""End-to-end command-line checks: exit codes, deterministic JSON on stdout,
artifact files under --out.

Exit code contract: 0 success, 2 malformed input, 3 budget exceeded,
4 verified negative outcome.
"""

import json
import os

import pytest

from chabauty_lab.cli import main

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


def test_wrong_schema_is_two(capsys, tmp_path):
    spec = spec_file(tmp_path, "h.json", {"context": F2_CTX})
    code, _, err = run(capsys, "stallings", spec)
    assert code == 2
    assert "generators" in err


def test_budget_blowout_is_three(capsys, tmp_path):
    spec = spec_file(
        tmp_path,
        "pair.json",
        {"pair": [
            {"context": F2_CTX, "generators": ["a"]},
            {"context": F2_CTX, "generators": ["b"]},
        ]},
    )
    code, _, err = run(capsys, "chabauty", spec, "--radius", "99")
    assert code == 3
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
    ],
)
def test_malformed_hom_documents_are_two(capsys, tmp_path, hom):
    spec = spec_file(tmp_path, "hom.json", {"context": F2_CTX, "hom": hom})
    code, out, err = run(capsys, "schreier", spec, "--radius", "2")
    assert code == 2
    assert out == ""
    assert "error" in err


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


def test_equal_pair_at_radius_12_and_13(capsys, tmp_path):
    H = {"context": F2_CTX, "generators": ["ab", "bbA", "aBaB"]}
    spec = spec_file(tmp_path, "pair.json", {"pair": [H, H]})
    code, out, _ = run(capsys, "chabauty", spec, "--radius", "12")
    assert code == 0
    assert json.loads(out)["result"]["distance"]["kind"] == "at_most"
    code, out, _ = run(capsys, "chabauty", spec, "--radius", "13")
    assert code == 3  # past the default ball_radius_cap
    assert out == ""


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


def test_witness_on_lattice_subgroup(capsys, tmp_path):
    spec = spec_file(
        tmp_path, "lat.json", {"context": {"kind": "lattice", "dim": 2}, "generators": [[1, 3]]}
    )
    code, out, _ = run(capsys, "witness", spec, "--radius", "8")
    assert code == 0
    report = json.loads(out)["result"]
    assert len(report["terms"]) == 18
    assert report["certification"]["kind"] == "certified"


def test_paired_transit_demo(capsys):
    code, out, _ = run(capsys, "transit", "--demo", "paired")
    assert code == 0
    cert = json.loads(out)["result"]["certificate"]
    assert cert["candidate"] == "aB"
    assert cert["conjugator"] == "bA"
    assert cert["candidates_tried"] == 35
    assert cert["reverified"] is True


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
    code, _, err = run(capsys, "chabauty", spec, "--radius", "8")
    assert code == 3
    assert "budget" in err
