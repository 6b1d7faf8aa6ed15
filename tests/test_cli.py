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
    assert doc["rows"] == 2
    assert {"lhs": ["k"], "rhs": "a", "error": 0.0} in doc["fds"]


def test_discover_with_epsilon(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("flag,date\n1,d1\n1,d1\n0,d7\n0,d7\n0,d9\n")
    code, doc = _run(capsys, ["discover", str(csv), "--epsilon", "0.2"])
    assert code == 0
    assert any(a["lhs"] == ["flag"] and a["degree"] == 1 for a in doc["afds"])


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
@pytest.mark.parametrize("command", ["discover"])
def test_out_of_range_epsilon_exits_2(tables, capsys, command, value):
    left, _ = tables
    with pytest.raises(SystemExit) as exc:
        main([command, str(left), "--epsilon", value])
    assert exc.value.code == 2
    assert "expects a number in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "1"])
def test_epsilon_bounds_are_accepted(tables, capsys, value):
    left, _ = tables
    code, doc = _run(capsys, ["discover", str(left), "--epsilon", value])
    assert code == 0
    assert bool(doc["afds"]) == (value == "1")


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


def test_join_discover_with_injected_afds(tables, tmp_path, capsys):
    left, right = tables
    fd_doc = [
        {"lhs": ["flag"], "rhs": "date", "error": 0.2, "degree": 1},
    ]
    lpath = tmp_path / "l.json"
    lpath.write_text(json.dumps(fd_doc))
    rpath = tmp_path / "r.json"
    rpath.write_text(json.dumps([]))
    code, doc = _run(
        capsys,
        [
            "join-discover",
            "--left", str(left),
            "--right", str(right),
            "--on", "pid=pid",
            "--afds", f"{lpath},{rpath}",
        ],
    )
    assert code == 0
    # the approximate entry is not read; the join's rows upstage it, and the
    # cover may represent it through visits.ward
    from joinfd.fds import FunctionalDependency, fd, implies

    reported = [
        FunctionalDependency(frozenset(d["lhs"]), d["rhs"]) for d in doc["fds"]
    ]
    assert implies(reported, fd(["patients.flag"], "patients.date"))


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


@pytest.mark.parametrize("strategy", ["selective", "sampling", "oracle"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_fd_file_dependency_that_does_not_hold_exits_2(
    tables, tmp_path, capsys, strategy, side
):
    left, right = tables
    wrong = {
        "left": {"lhs": ["flag"], "rhs": "date"},
        "right": {"lhs": [], "rhs": "ward"},
    }
    files = []
    for name in ("left", "right"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps([wrong[name]] if name == side else []))
        files.append(str(path))
    argv = [
        "join-discover",
        "--left", str(left),
        "--right", str(right),
        "--on", "pid=pid",
        "--strategy", strategy,
        "--afds", ",".join(files),
    ]
    assert main(argv) == 2
    assert "does not hold" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        {"lhs": ["pid"], "rhs": "pid"},
        {"lhs": ["flag"], "rhs": "date", "error": 2},
        {"rhs": "date"},
    ],
    ids=["trivial", "error-above-1", "no-lhs"],
)
@pytest.mark.parametrize("command", ["join-discover", "compare"])
def test_malformed_fd_file_entry_exits_2(tables, tmp_path, capsys, entry, command):
    left, right = tables
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([entry]))
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    if command == "compare":
        argv = ["compare", "--truth", str(empty), "--candidate", str(bad)]
    else:
        argv = [
            "join-discover",
            "--left", str(left),
            "--right", str(right),
            "--on", "pid=pid",
            "--afds", f"{bad},{empty}",
        ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and entry["rhs"] in err


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
