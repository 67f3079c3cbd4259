"""Command line interface: subcommands, files, exit codes."""

import csv
import json
from decimal import Decimal

import pytest

from fsspack import cli
from fsspack.cli import main
from fsspack.engine import EngineError
from fsspack.geometry import load_layout, verify_layout
from fsspack.instances import builtin_instance, save_instance

BUDGET = ["--iterations", "2", "--replications", "2"]


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def test_run_writes_layouts_and_tables(tmp_path, capsys):
    out = tmp_path / "res"
    code = run_cli("run", "--problem", "2", "--n", "2", "--seed", "5", "--out", str(out), *BUDGET)
    assert code == 0
    layout_path = out / "problem2-n2.json"
    assert layout_path.exists()
    layout, name = load_layout(layout_path)
    assert name == "problem2"
    assert verify_layout(layout, builtin_instance(2), 0.0).feasible
    assert "problem2 n=2: best radius" in capsys.readouterr().out

    with open(out / "results.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "problem", "f_count", "n", "best_radius", "total_time_s",
        "replication_of_best", "seed",
    ]
    assert len(rows) == 2
    assert rows[1][0] == "2" and rows[1][1] == "" and rows[1][2] == "2"
    assert rows[1][6] == "5"

    table = read_json(out / "results.json")
    assert len(table) == 1
    # The CSV radius is the truncated 8-place rendering of the JSON one.
    json_radius = Decimal(repr(table[0]["best_radius"]))
    assert Decimal(rows[1][3]) <= json_radius < Decimal(rows[1][3]) + Decimal("1e-8")
    assert table[0]["f_count"] is None


def test_run_multiple_sizes(tmp_path):
    out = tmp_path / "res"
    code = run_cli("run", "--problem", "6", "--n", "1,2", "--out", str(out), *BUDGET)
    assert code == 0
    assert (out / "problem6-n1.json").exists()
    assert (out / "problem6-n2.json").exists()
    table = read_json(out / "results.json")
    assert [row["n"] for row in table] == [1, 2]


def test_run_union_instance_reports_fcount(tmp_path):
    out = tmp_path / "res"
    code = run_cli(
        "run", "--problem", "1", "--fcount", "5", "--n", "1",
        "--out", str(out), *BUDGET,
    )
    assert code == 0
    assert (out / "problem1-f5-n1.json").exists()
    assert read_json(out / "results.json")[0]["f_count"] == 5


def test_run_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("run", "--problem", "3", "--n", "2", "--seed", "7", "--out", str(out), *BUDGET) == 0
    doc_a = read_json(out_a / "results.json")
    doc_b = read_json(out_b / "results.json")
    for row in doc_a + doc_b:
        row.pop("total_time_s")
    assert doc_a == doc_b
    assert (out_a / "problem3-n2.json").read_bytes() == (out_b / "problem3-n2.json").read_bytes()


def test_run_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "res")
    assert run_cli("run", "--problem", "9", "--n", "2", "--out", out, *BUDGET) == 2
    assert run_cli("run", "--problem", "2", "--fcount", "5", "--n", "2", "--out", out, *BUDGET) == 2
    assert run_cli("run", "--problem", "2", "--n", "0", "--out", out, *BUDGET) == 2
    assert run_cli("run", "--problem", "2", "--n", "2,x", "--out", out, *BUDGET) == 2
    # '²'.isdigit() holds, but int('²') raises: both must be usage errors.
    assert run_cli("run", "--problem", "2", "--n", "²", "--out", out, *BUDGET) == 2
    assert run_cli("run", "--problem", "²", "--n", "2", "--out", out, *BUDGET) == 2
    assert run_cli("run", "--problem", str(tmp_path / "nope.json"), "--n", "2", "--out", out, *BUDGET) == 2
    assert run_cli("run", "--problem", str(tmp_path), "--n", "2", "--out", out, *BUDGET) == 2
    capsys.readouterr()
    # Budget and worker counts below 1 are usage errors, reported on one line.
    for flag, value in (
        ("--iterations", "0"),
        ("--replications", "-1"),
        ("--workers", "0"),
        ("--workers", "-3"),
    ):
        argv = ["run", "--problem", "2", "--n", "2", "--out", out, *BUDGET, flag, value]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be at least 1, got {value}\n"
    # A seed outside [0, 2**64) would run as another seed and be recorded as given.
    for value in ("-1", str(2**64)):
        argv = ["run", "--problem", "2", "--n", "2", "--out", out, *BUDGET, "--seed", value]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: --seed must be in [0, 2**64), got {value}\n"
    assert not (tmp_path / "res" / "results.json").exists()
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--problem", "2")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


COVERED = '{"name": "covered", "prohibited": [{"x": "0", "y": "0", "r": "1.5"}]}'


def test_run_without_a_positive_radius_exits_1(tmp_path, capsys):
    # A disk covering the container leaves no room: one error line, no
    # layout, and the run's exit code, not a traceback.
    problem = tmp_path / "covered.json"
    problem.write_text(COVERED)
    out = tmp_path / "res"
    assert run_cli("run", "--problem", str(problem), "--n", "2", "--out", str(out), *BUDGET) == 1
    err = capsys.readouterr().err
    assert err == "error: covered n=2: no replication reached a positive radius\n"
    assert not (out / "covered-n2.json").exists()
    assert read_json(out / "results.json") == []


def test_a_failed_size_leaves_the_others_written(tmp_path, capsys, monkeypatch):
    def run_but_lose_n2(instance, config, workers=1):
        if config.n == 2:
            raise EngineError("a worker process died; replications 0, 1 did not finish")
        return real_run(instance, config, workers=workers)

    real_run = cli.run
    monkeypatch.setattr(cli, "run", run_but_lose_n2)
    out = tmp_path / "res"
    assert run_cli("run", "--problem", "2", "--n", "2,3", "--out", str(out), *BUDGET) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: problem2 n=2: a worker process died; replications 0, 1 did not finish\n"
    )
    assert not (out / "problem2-n2.json").exists()
    layout, _ = load_layout(out / "problem2-n3.json")
    assert verify_layout(layout, builtin_instance(2), 0.0).feasible
    assert [row["n"] for row in read_json(out / "results.json")] == [3]
    with open(out / "results.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert [row[2] for row in rows[1:]] == ["3"]


def layout_fixture(tmp_path):
    out = tmp_path / "res"
    code = run_cli("run", "--problem", "2", "--n", "2", "--out", str(out), *BUDGET)
    assert code == 0
    return out / "problem2-n2.json"


def test_verify_feasible_layout(tmp_path, capsys):
    layout_path = layout_fixture(tmp_path)
    assert run_cli("verify", str(layout_path)) == 0
    out = capsys.readouterr().out
    assert "feasible" in out
    report_path = layout_path.parent / (layout_path.name + ".verify.json")
    assert report_path.exists()
    assert read_json(report_path)["feasible"] is True


def test_verify_catches_inflated_radius(tmp_path, capsys):
    layout_path = layout_fixture(tmp_path)
    doc = read_json(layout_path)
    doc["radius"] = str(Decimal(doc["radius"]) + Decimal("0.01"))
    layout_path.write_text(json.dumps(doc))
    assert run_cli("verify", str(layout_path), "--tol", "1e-9") == 1
    out = capsys.readouterr().out
    assert "INFEASIBLE" in out
    assert "worst:" in out


def test_verify_usage_errors(tmp_path):
    layout_path = layout_fixture(tmp_path)
    assert run_cli("verify", str(layout_path), "--tol", "-1") == 2
    assert run_cli("verify", str(layout_path), "--tol", "nan") == 2
    assert run_cli("verify", str(tmp_path / "missing.json")) == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{\"instance\": \"problem2\"}")
    assert run_cli("verify", str(bad)) == 2
    # JSON true is a Python int, equal to 1; it must not reach numpy as
    # the size of a one-circle layout.
    doc = read_json(layout_path)
    doc["n"], doc["centers"] = True, doc["centers"][:1]
    bad.write_text(json.dumps(doc))
    assert run_cli("verify", str(bad)) == 2
    # A radius no double holds, which float() or json.loads refuses.
    doc = read_json(layout_path)
    doc["radius"] = "RADIUS"
    for digits in (400, 5000):
        bad.write_text(json.dumps(doc).replace('"RADIUS"', "1" + "0" * digits))
        assert run_cli("verify", str(bad)) == 2


@pytest.mark.parametrize("command", ["verify", "render"])
def test_unreadable_files_are_usage_errors(tmp_path, capsys, command):
    # Exit 1 means infeasible, so a file that cannot be read must not give it.
    layout_path = layout_fixture(tmp_path)
    extra = ["--svg", str(tmp_path / "out.svg")] if command == "render" else []
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"instance": "probl\xe8me2"}')
    capsys.readouterr()
    for argv, message in (
        ([str(latin1)], f"{latin1} is not UTF-8 text"),
        ([str(tmp_path)], f"cannot read layout file {tmp_path}"),
        ([str(layout_path), "--instance", str(latin1)], f"{latin1} is not UTF-8 text"),
        ([str(layout_path), "--instance", str(tmp_path)], f"cannot read instance file {tmp_path}"),
    ):
        assert run_cli(command, *argv, *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["run", "verify", "render"])
def test_unwritable_outputs_are_usage_errors(tmp_path, capsys, command):
    # A path that cannot be written is a usage error naming the path, not
    # a traceback with the INFEASIBLE exit code.
    layout_path = layout_fixture(tmp_path)
    missing = tmp_path / "no" / "such" / "dir"
    argv = {
        # An existing file where the output directory should go.
        "run": ["run", "--problem", "2", "--n", "2", *BUDGET, "--out", str(layout_path)],
        "verify": ["verify", str(layout_path), "--report", str(missing / "r.json")],
        "render": ["render", str(layout_path), "--svg", str(missing / "x.svg")],
    }[command]
    bad = argv[-1]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and bad in err
    assert err.count("\n") == 1


COLD_START = """
import sys
from fsspack import cli
from fsspack.cli import main
from fsspack.engine import EngineError

layout, out = sys.argv[1:]
assert main(["verify", layout, "--report", out + "/report.json"]) == 0
assert main(["render", layout, "--svg", out + "/layout.svg"]) == 0
print("optimiser loaded:", "scipy.optimize" in sys.modules)
argv = ["run", "--problem", "2", "--n", "2", "--iterations", "1", "--replications", "1"]
assert main(argv + ["--out", out]) == 0
print("optimiser loaded:", "scipy.optimize" in sys.modules)
"""


def test_verify_and_render_never_load_the_optimiser(tmp_path, fresh_python):
    layout_path = layout_fixture(tmp_path)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    out = fresh_python(COLD_START, str(layout_path), str(fresh))
    loaded = [line for line in out.splitlines() if line.startswith("optimiser loaded:")]
    assert loaded == ["optimiser loaded: False", "optimiser loaded: True"]


def test_verify_custom_instance_resolution(tmp_path):
    layout_path = layout_fixture(tmp_path)
    doc = read_json(layout_path)
    doc["instance"] = "made-up-name"
    layout_path.write_text(json.dumps(doc))
    # Unknown catalogue name: refuse without --instance, accept with it.
    assert run_cli("verify", str(layout_path)) == 2
    inst_path = tmp_path / "inst.json"
    save_instance(builtin_instance(2), inst_path)
    assert run_cli("verify", str(layout_path), "--instance", str(inst_path)) == 0


def test_render_is_deterministic(tmp_path, capsys):
    layout_path = layout_fixture(tmp_path)
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    assert run_cli("render", str(layout_path), "--svg", str(svg_a)) == 0
    assert run_cli("render", str(layout_path), "--svg", str(svg_b)) == 0
    body = svg_a.read_bytes()
    assert body == svg_b.read_bytes()
    text = body.decode()
    assert text.startswith("<svg")
    # One outline per packed circle plus the container and the disk.
    assert text.count("<circle") == 2 + 1 + 1
    assert "wrote" in capsys.readouterr().out
