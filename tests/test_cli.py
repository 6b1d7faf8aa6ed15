import json

import pytest

from joinfd.cli import main


@pytest.fixture
def tables(tmp_path):
    left = tmp_path / "patients.csv"
    left.write_text("pid,flag,date\np1,0,d1\np2,0,d1\np3,1,d2\np4,1,d2\np5,1,dX\n")
    right = tmp_path / "visits.csv"
    right.write_text("pid,ward\np1,w1\np2,w1\np3,w2\np4,w2\n")
    return left, right


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_discover_single_table(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("k,a\n1,x\n2,y\n")
    code, doc = _run(capsys, ["discover", str(csv)])
    assert code == 0
    assert set(doc) == {"table", "rows", "attributes", "fds"}
    assert doc["rows"] == 2
    assert {"lhs": ["k"], "rhs": "a"} in doc["fds"]


def test_discover_with_epsilon(tables, capsys):
    # discovery is exact only: an error budget is an unknown argument
    left, _ = tables
    with pytest.raises(SystemExit) as exc:
        main(["discover", str(left), "--epsilon", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err


def test_join_discover_selective(tables, capsys):
    left, right = tables
    code, doc = _run(
        capsys,
        [
            "join-discover",
            "--left", str(left),
            "--right", str(right),
            "--on", "pid=pid",
            "--strategy", "selective",
        ],
    )
    assert code == 0
    assert doc["strategy"] == "selective"
    assert doc["counters"]["full_join_rows"] == 0
    # the upstaged flag->date rule is in the cover's closure
    from joinfd.fds import FunctionalDependency, fd, implies

    reported = [
        FunctionalDependency(frozenset(d["lhs"]), d["rhs"]) for d in doc["fds"]
    ]
    assert implies(reported, fd(["patients.flag"], "patients.date"))


def test_join_discover_natural_exits_0(tmp_path, capsys):
    left = tmp_path / "l.csv"
    left.write_text("k,a\n1,x\n2,y\n")
    right = tmp_path / "r.csv"
    right.write_text("k,b\n1,p\n2,q\n2,r\n")
    code, doc = _run(
        capsys,
        [
            "join-discover",
            "--left", str(left),
            "--right", str(right),
            "--on", "k=k",
            "--natural",
        ],
    )
    assert code == 0
    assert doc["strategy"] == "selective"


def test_join_discover_oracle_and_compare(tables, tmp_path, capsys):
    left, right = tables
    args = ["--left", str(left), "--right", str(right), "--on", "pid=pid"]
    code, truth = _run(capsys, ["join-discover", *args, "--strategy", "oracle"])
    assert code == 0 and truth["counters"]["full_join_rows"] > 0
    code, run = _run(capsys, ["join-discover", *args, "--strategy", "sampling"])
    assert code == 0
    truth_file = tmp_path / "truth.json"
    run_file = tmp_path / "run.json"
    truth_file.write_text(json.dumps(truth))
    run_file.write_text(json.dumps(run))
    code, cmp_doc = _run(
        capsys,
        ["compare", "--truth", str(truth_file), "--candidate", str(run_file)],
    )
    assert code == 0
    assert 0.0 <= cmp_doc["precision"] <= 1.0
    assert cmp_doc["recall"] == 1.0


def test_afds_option_is_gone(tables, tmp_path):
    # the pipeline mines every input dependency set it needs itself
    left, right = tables
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    argv = [
        "join-discover",
        "--left", str(left),
        "--right", str(right),
        "--on", "pid=pid",
        "--afds", f"{empty},{empty}",
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_coverage_command(tables, capsys):
    left, right = tables
    code, doc = _run(
        capsys,
        ["coverage", "--left", str(left), "--right", str(right), "--on", "pid=pid"],
    )
    assert code == 0
    assert doc["left"]["exact"] == "4/5"  # p5 has no visits
    assert doc["exact"] == "9/10"


def test_fixture_command_round_trips(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(
        json.dumps({"left_rows": 8, "right_rows": 8, "dangling_fraction": 0.25})
    )
    out_dir = tmp_path / "fx"
    code, doc = _run(
        capsys,
        ["fixture", "--profile", str(profile), "--seed", "5", "--out-dir", str(out_dir)],
    )
    assert code == 0
    code2, report = _run(
        capsys,
        [
            "join-discover",
            "--left", doc["left"],
            "--right", doc["right"],
            "--on", doc["on"],
            "--op", doc["op"],
        ],
    )
    assert code2 == 0
    assert report["fd_count"] > 0


def test_missing_file_exits_2(capsys):
    code = main(["discover", "/no/such/file.csv"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_on_syntax_exits_2(tables, capsys):
    left, right = tables
    code = main(
        ["join-discover", "--left", str(left), "--right", str(right), "--on", "pid"]
    )
    assert code == 2


def test_row_guard_exits_3(tables, capsys, monkeypatch):
    monkeypatch.setenv("JOINFD_MAX_JOIN_ROWS", "1")
    left, right = tables
    code = main(
        [
            "join-discover",
            "--left", str(left),
            "--right", str(right),
            "--on", "pid=pid",
            "--strategy", "oracle",
        ]
    )
    assert code == 3


def test_null_token_flag(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("a,b\nNA,x\n1,y\n")
    code, doc = _run(
        capsys, ["discover", str(csv), "--null-token", "NA"]
    )
    assert code == 0
    assert doc["rows"] == 2


@pytest.mark.parametrize(
    "entry",
    [
        {"lhs": ["pid"], "rhs": "pid"},
        {"lhs": ["flag"], "rhs": "date", "error": 2},
        {"rhs": "date"},
        {"lhs": ["flag"], "rhs": "date", "error": 0.2},
    ],
    ids=["compare-trivial", "compare-error-above-1", "compare-no-lhs",
         "compare-nonzero-error"],
)
def test_malformed_fd_file_entry_exits_2(tmp_path, capsys, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([entry]))
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    argv = ["compare", "--truth", str(empty), "--candidate", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and entry["rhs"] in err


def test_fd_file_object_without_fds_exits_2(tmp_path, capsys):
    # an object is read as a report, whose dependencies are its "fds" list
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"deps": [{"lhs": ["flag"], "rhs": "date"}]}))
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["compare", "--truth", str(empty), "--candidate", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, named",
    [({"left_rows": 8, "rows": 8}, "rows"), ({"left_rows": "ten"}, "left_rows")],
    ids=["unknown-field", "wrong-type"],
)
def test_bad_fixture_profile_exits_2(tmp_path, capsys, fields, named):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(fields))
    code = main(["fixture", "--profile", str(profile), "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err


def test_non_integer_row_limit_exits_2(tables, capsys, monkeypatch):
    monkeypatch.setenv("JOINFD_MAX_JOIN_ROWS", "abc")
    left, right = tables
    code = main(
        [
            "join-discover",
            "--left", str(left),
            "--right", str(right),
            "--on", "pid=pid",
            "--strategy", "oracle",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "JOINFD_MAX_JOIN_ROWS" in err


# odd inputs: per case, the left and right file contents and the extra
# join-discover arguments
ODD_INPUTS = {
    "empty-file": ("", "k,b\n1,p\n", ["--on", "k=k"]),
    "header-only": ("k,a\n", "k,b\n1,p\n", ["--on", "k=k"]),
    "duplicate-columns": ("k,a,a\n1,x,y\n", "k,b\n1,p\n", ["--on", "k=k"]),
    "dotted-columns": ("k,a.b\n1,x\n2,y\n", "k,b.c\n1,p\n2,q\n", ["--on", "k=k"]),
    "ragged-rows": ("k,a\n1,x\n2\n", "k,b\n1,p\n", ["--on", "k=k"]),
    "natural-keys-named-apart": (
        "k,a\n1,x\n2,y\n", "j,b\n1,p\n2,q\n", ["--on", "k=j", "--natural"]
    ),
    "nb-zero": ("k,a\n1,x\n2,y\n", "k,b\n1,p\n2,q\n", ["--on", "k=k", "--nb", "0"]),
    "repeated-key-column": (
        "k,a\n1,x\n2,y\n2,z\n", "k,b\n1,p\n2,q\n", ["--on", "k,k=k,k"]
    ),
}


@pytest.mark.parametrize("strategy", ["selective", "sampling", "oracle"])
@pytest.mark.parametrize("case", sorted(ODD_INPUTS))
def test_odd_join_inputs_exit_0_or_2(tmp_path, capsys, case, strategy):
    # a normal input never exits 4 or raises; a refusal is one error line
    left_text, right_text, extra = ODD_INPUTS[case]
    left, right = tmp_path / "l.csv", tmp_path / "r.csv"
    left.write_text(left_text)
    right.write_text(right_text)
    argv = ["join-discover", "--left", str(left), "--right", str(right), *extra]
    code = main([*argv, "--strategy", strategy])
    out, err = capsys.readouterr()
    assert code in (0, 2), (code, err)
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error:"), err
    else:
        assert json.loads(out)["strategy"] == strategy


@pytest.mark.parametrize("strategy", ["selective", "sampling", "oracle"])
def test_colliding_join_names_exit_2(tmp_path, capsys, strategy):
    # two files with one stem make two tables named t, so t.k would name
    # both key columns in the join
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    left, right = tmp_path / "a" / "t.csv", tmp_path / "b" / "t.csv"
    left.write_text("k,a\n1,x\n2,y\n")
    right.write_text("k,b\n1,p\n2,q\n")
    argv = ["join-discover", "--left", str(left), "--right", str(right), "--on", "k=k"]
    code = main([*argv, "--strategy", strategy])
    out, err = capsys.readouterr()
    assert code == 2 and not out, (code, out)
    assert err.count("\n") == 1 and err.startswith("error:"), err
