import csv
import json

import pytest

from bottleneck_trees.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["gen", "--kind", "euclidean", "--n", "10", "--dim", "2",
            "--partition", "tuples", "--k", "2", "--seed", "42"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_dbst_end_to_end(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "euclidean", "--n", "8", "--partition", "tuples",
                 "--k", "2", "--seed", "1", "-o", str(inst)]) == 0
    code, out, _ = _run(capsys, "dbst", "--input", str(inst), "--exact", "--tours")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"trees", "bottleneck", "mst_bottleneck", "labels", "optimal", "ratio", "tours", "tour_bottleneck"}
    assert doc["ratio"] <= 4 + 1e-9
    assert len(doc["trees"]) == 2


def test_dbst_separated_line_k3_is_optimal(tmp_path, capsys):
    # Three clusters 100 apart, each holding one point of both tuples: the
    # MST is cut between the clusters and each cluster's pair is a tree.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "k": 3,
        "points": {"coordinates": [[0.0], [100.0], [200.0], [1.0], [101.0], [201.0]]},
        "tuples": [[0, 1, 2], [3, 4, 5]],
    }))
    code, out, _ = _run(capsys, "dbst", "--input", str(inst), "--exact")
    assert code == 0
    doc = json.loads(out)
    assert (doc["bottleneck"], doc["optimal"], doc["ratio"]) == (1.0, 1.0, 1.0)
    assert doc["labels"] == [2, 1, 0, 2, 1, 0]


def test_gbst_end_to_end(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "euclidean", "--n", "9", "--partition", "clusters",
                 "--seed", "2", "-o", str(inst)]) == 0
    code, out, _ = _run(capsys, "gbst", "--input", str(inst), "--exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] <= 3 + 1e-9
    assert doc["selected"]


def test_pbst_end_to_end(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "euclidean", "--n", "8", "--seed", "3", "-o", str(inst)]) == 0
    code, out, _ = _run(capsys, "pbst", "--input", str(inst), "--k", "2", "--exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] <= 2 + 1e-9


def test_oracle_tour(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "euclidean", "--n", "6", "--seed", "4", "-o", str(inst)]) == 0
    code, out, _ = _run(capsys, "oracle", "tour", "--input", str(inst), "--subset", "0,1,2,3")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["tour"]) == [0, 1, 2, 3]


def test_oracle_tour_bad_subset_exits_two(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "euclidean", "--n", "6", "--seed", "4", "-o", str(inst)]) == 0
    code, _, err = _run(capsys, "oracle", "tour", "--input", str(inst), "--subset", "0,x")
    assert code == 2
    assert "--subset" in err


def test_fixture_generators(tmp_path, capsys):
    for kind, extra in (
        ("fixture-gbst-path8", []),
        ("fixture-star", ["--leaves", "3"]),
        ("fixture-spider", ["--k", "4"]),
    ):
        code, out, _ = _run(capsys, "gen", "--kind", kind, *extra)
        assert code == 0
        json.loads(out)


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "dbst", "--input", str(bad))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command, flag", [("dbst", "--input"), ("batch", "--config")])
def test_non_utf8_input_exits_two(tmp_path, capsys, command, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00bad")
    code, _, err = _run(capsys, command, flag, str(bad))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv", [("dbst", "--exact", "--tours"), ("pbst", "--k", "2")], ids=["dbst", "pbst"]
)
def test_overflowing_distances_exit_two(tmp_path, capsys, argv):
    # every coordinate is finite, but the distance from 1e308 to -1e308 is not
    doc = tmp_path / "far.json"
    doc.write_text(json.dumps({
        "k": 2,
        "points": {"coordinates": [[1e308], [-1e308], [0.0], [1.0], [2.0], [3.0]]},
        "tuples": [[0, 2], [1, 3], [4, 5]],
    }))
    code, out, err = _run(capsys, *argv, "--input", str(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflow" in err


@pytest.mark.parametrize("command, flag", [("dbst", "--input"), ("batch", "--config")])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command, flag):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000)
    code, _, err = _run(capsys, command, flag, str(bad))
    assert code == 2
    assert err.startswith("error:") and "nested too deeply" in err


def test_missing_partition_exits_two(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "euclidean", "--n", "6", "--seed", "0", "-o", str(inst)]) == 0
    code, _, err = _run(capsys, "dbst", "--input", str(inst))
    assert code == 2
    assert "tuples" in err


def test_solver_output_is_deterministic(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "random-metric", "--n", "8", "--partition", "tuples",
                 "--k", "2", "--seed", "9", "-o", str(inst)]) == 0
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["dbst", "--input", str(inst), "--exact", "-o", str(out1)]) == 0
    assert main(["dbst", "--input", str(inst), "--exact", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_batch_csv(tmp_path):
    config = tmp_path / "batch.json"
    config.write_text(json.dumps({
        "seeds": 5,
        "jobs": [
            {"problem": "dbst", "exact": True,
             "generator": {"kind": "euclidean", "n": 8, "dim": 2, "partition": "tuples", "k": 2}},
            {"problem": "gbst", "exact": True,
             "generator": {"kind": "random-metric", "n": 9, "partition": "clusters"}},
            {"problem": "pbst", "k": 2, "exact": True,
             "generator": {"kind": "euclidean", "n": 8, "dim": 2}},
        ],
    }))
    out = tmp_path / "out.csv"
    assert main(["batch", "--config", str(config), "-o", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 15
    bounds = {"dbst": 4.0, "gbst": 3.0, "pbst": 2.0}
    for row in rows:
        assert set(row) == {"generator", "seed", "problem", "k", "n",
                            "achieved", "optimal", "ratio", "millis"}
        ratio = float(row["ratio"])
        assert 1 - 1e-9 <= ratio <= bounds[row["problem"]] + 1e-9
    keys = [(r["generator"], r["problem"], r["k"], r["n"], int(r["seed"])) for r in rows]
    assert keys == sorted(keys)


_GEN = {"kind": "euclidean", "n": 6, "dim": 2}


@pytest.mark.parametrize(
    "config, named",
    [
        ({"seeds": 1}, "'jobs'"),
        ({"seeds": 1, "jobs": {"problem": "pbst"}}, "'jobs'"),
        ({"seeds": 1, "jobs": [{"k": 2, "generator": _GEN}]}, "'problem'"),
        ({"seeds": 1, "jobs": [{"problem": "pbst", "k": 2}]}, "'generator'"),
        ({"seeds": 1, "jobs": [{"problem": "pbst", "generator": _GEN}]}, "'k'"),
        ({"seeds": 1, "jobs": [{"problem": "pbst", "k": 2, "generator": {"n": 6}}]}, "'kind'"),
        ({"seeds": 1, "jobs": [{"problem": "pbst", "k": "two", "generator": _GEN}]}, "'k'"),
        ({"seeds": 1, "jobs": [{"problem": "pbst", "k": 2.5, "generator": _GEN}]}, "'k'"),
        ({"seeds": 1, "jobs": [{"problem": "pbst", "k": True, "generator": _GEN}]}, "'k'"),
        ({"seeds": 1, "jobs": [{"problem": "pbst", "k": 2,
                                "generator": {"kind": "euclidean", "n": "x"}}]}, "'n'"),
        ({"seeds": 1, "jobs": [{"problem": "gbst",
                                "generator": {"kind": "euclidean", "n": 6, "partition": "clusters",
                                              "singletons": "z"}}]}, "'singletons'"),
        ({"seeds": 2.5, "jobs": [{"problem": "pbst", "k": 2, "generator": _GEN}]}, "'seeds'"),
        ({"seeds": "ab", "jobs": [{"problem": "pbst", "k": 2, "generator": _GEN}]}, "'seeds'"),
        ({"seeds": [0, "1"], "jobs": [{"problem": "pbst", "k": 2, "generator": _GEN}]}, "'seeds'"),
        ({"seeds": True, "jobs": [{"problem": "pbst", "k": 2, "generator": _GEN}]}, "'seeds'"),
        ({"seeds": 1, "jobs": [{"problem": "pbst", "k": 2, "exact": "no",
                                "generator": _GEN}]}, "'exact'"),
        ({"seeds": 1, "jobs": [{"problem": "dbst",
                                "generator": {"kind": "euclidean", "n": 4, "partition": "tuples",
                                              "k": 0}}]}, "tuples of size 0"),
    ],
    ids=["no-jobs", "jobs-not-list", "no-problem", "no-generator", "no-k",
         "no-kind", "k-string", "k-float", "k-bool", "n-string", "singletons-string",
         "seeds-float", "seeds-string", "seeds-list-of-strings", "seeds-bool", "exact-string",
         "tuples-k-zero"],
)
def test_malformed_batch_config_exits_two(tmp_path, capsys, config, named):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(config))
    code, _, err = _run(capsys, "batch", "--config", str(path))
    assert code == 2
    assert err.startswith("error:") and named in err
