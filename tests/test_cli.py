"""Command line behavior: commands, exit codes, determinism."""

import json

import pytest

from headorder.cli import main
from headorder.serialize import dumps
from headorder.exponent import scaled_hereditary, standard_hereditary
from headorder.circulant import CirculantState


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, value, name="doc.json"):
    path = tmp_path / name
    path.write_text(dumps(value))
    return str(path)


def test_check_exponent(tmp_path, capsys):
    path = write_doc(tmp_path, standard_hereditary((1, 1, 1)))
    code, out, _ = run(capsys, ["--command", "check", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["reduced"] is True
    assert report["hereditary"]["blocks"] == 3


def test_radical_command(tmp_path, capsys):
    path = write_doc(tmp_path, standard_hereditary((1, 1)))
    code, out, _ = run(capsys, ["--command", "radical", "--input", path])
    assert code == 0
    assert json.loads(out)["radical"] == [[1, 1], [0, 1]]


def test_chain_trace_tags(tmp_path, capsys):
    st = CirculantState((1, 1, 1), (0, 4, 4), f=4)
    path = write_doc(tmp_path, st)
    code, out, _ = run(capsys, ["--command", "chain", "--input", path])
    assert code == 0
    report = json.loads(out)
    tags = {s["step"]: s.get("matches") for s in report["steps"]}
    # the reduced checkpoint sits exactly at step z*n = 3
    assert tags[3] == "reduced-start"
    assert report["steps"][-1]["hereditary"] is not None
    assert all("depth" in s and "matrix" in s for s in report["steps"])


def test_head_command(tmp_path, capsys):
    path = write_doc(tmp_path, scaled_hereditary((1, 1, 1), 4))
    code, out, _ = run(capsys, ["--command", "head", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["hereditary"] is not None
    assert report["steps"] >= 1


def test_closed_form_command(tmp_path, capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["--command", "closed-form", "--input", "-"],
        stdin='{"n": 5, "a": 3}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    report = json.loads(out)
    assert report["b"] == 3
    assert report["head_matrix"] is not None
    assert report["head_v"] == [0, 1, 2, 2, 3]


def test_verify_agrees(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["--command", "verify", "--input", "-"],
        stdin='{"n": 4, "a": 7}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_verify_with_oracle(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["--command", "verify", "--input", "-", "--oracle", "on"],
        stdin='{"n": 3, "a": 2}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert report["oracle_first_step_agrees"] is True


def test_verify_reports_oracle_outside_its_range(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["--command", "verify", "--input", "-", "--oracle", "on"],
        stdin='{"n": 4, "a": 7}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["ran"] is False
    assert "n <= 3" in report["oracle"]["reason"]
    _, out_off, _ = run(
        capsys,
        ["--command", "verify", "--input", "-"],
        stdin='{"n": 4, "a": 7}',
        monkeypatch=monkeypatch,
    )
    report.pop("oracle")
    assert json.loads(out_off) == report


def test_sweep_grid(capsys):
    code, out, _ = run(
        capsys, ["--command", "sweep", "--grid", "n=2..4,a=1..5"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["cells"] == 15
    assert report["disagreements"] == []


def test_sweep_requires_grid(capsys):
    code, _, err = run(capsys, ["--command", "sweep"])
    assert code == 2
    assert "grid" in err


def test_bad_grid_spec(capsys):
    code, _, _ = run(capsys, ["--command", "sweep", "--grid", "n=1-2"])
    assert code == 2


def test_tree_command(tmp_path, capsys):
    from headorder.brauer import PlanarBrauerTree

    tree = PlanarBrauerTree(
        exceptional=0,
        edges=((0, 1), (0, 2)),
        dims=(1, 1),
        rotations=((0, 1), (0,), (1,)),
        p=3,
        a=1,
    )
    path = write_doc(tmp_path, tree)
    code, out, _ = run(capsys, ["--command", "tree", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert len(report["components"]) == 3


def test_input_error_exit_2(capsys, monkeypatch):
    code, _, err = run(
        capsys,
        ["--command", "check", "--input", "-"],
        stdin="not json",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "error" in err


TREE_DOC = {
    "schema_version": 1,
    "type": "tree",
    "exceptional": 0,
    "edges": [[0, 1]],
    "dims": [1],
    "rotations": [[0], [0]],
    "p": 3,
    "a": 1,
}
CIRCULANT_DOC = {
    "schema_version": 1,
    "type": "circulant",
    "n": 3,
    "dims": [1, 1, 1],
    "v": [0, 2, 2],
    "depth": 2,
}


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("check", {**TREE_DOC, "p": "3"}, "$.p"),
        ("tree", {**TREE_DOC, "a": "1"}, "$.a"),
        ("chain", {**CIRCULANT_DOC, "depth": "x"}, "$.depth"),
        ("closed-form", {"n": 3, "a": 2, "dims": [1, 1]}, "$.dims"),
        ("closed-form", {"n": 3, "a": 4, "dims": [1, 1]}, "$.dims"),
        ("closed-form", {"n": 3, "a": 4, "dims": [1, 0, 1]}, "$.dims"),
        ("verify", {"n": 3, "a": 4, "dims": "111"}, "$.dims"),
    ],
    ids=["tree-p", "tree-a", "circulant-depth", "dims-short", "dims-short-accepted",
         "dims-zero", "dims-string"],
)
def test_malformed_field_exit_2(capsys, monkeypatch, command, doc, field):
    code, out, err = run(
        capsys,
        ["--command", command, "--input", "-"],
        stdin=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"].startswith(f"{field}:")


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, ["--command", "check", "--input", "/nope.json"])
    assert code == 2


def test_deterministic_output(tmp_path, capsys):
    path = write_doc(tmp_path, scaled_hereditary((1, 1, 1), 3))
    _, out1, _ = run(capsys, ["--command", "chain", "--input", path])
    _, out2, _ = run(capsys, ["--command", "chain", "--input", path])
    assert out1 == out2


def test_pretty_format(tmp_path, capsys):
    path = write_doc(tmp_path, standard_hereditary((1, 1)))
    code, out, _ = run(
        capsys, ["--command", "check", "--input", path, "--format", "pretty"]
    )
    assert code == 0
    assert "valid: true" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_max_steps_flag(tmp_path, capsys):
    path = write_doc(tmp_path, scaled_hereditary((1, 1, 1), 9))
    code, _, err = run(
        capsys, ["--command", "chain", "--input", path, "--max-steps", "1"]
    )
    assert code == 2
    assert "error" in err
