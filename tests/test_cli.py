"""Command line behavior: commands, exit codes, determinism."""

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import headorder
from headorder.cli import main
from headorder.serialize import dumps
from headorder.exponent import (
    diag_key,
    glued_chain,
    scaled_hereditary,
    standard_hereditary,
    validate_order,
)
from headorder.circulant import CirculantState, chain_checkpoints, expand


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
    early = [f"early-form(m={m})" for m in range(5)]
    cases = [
        # the reduced checkpoint sits exactly at step z*n = 3
        ((0, 4, 4), 4, [None] * 3 + ["reduced-start", "early-form(m=0)"]),
        # (7, 10): the last early form is also the first plateau, the
        # midway form and the head, and the first match names it
        ((0,) + (10,) * 6, 10, [None] * 7 + ["reduced-start"] + early),
    ]
    for v, f, want in cases:
        path = write_doc(tmp_path, CirculantState((1,) * len(v), v, f=f))
        code, out, _ = run(capsys, ["--command", "chain", "--input", path])
        assert code == 0
        report = json.loads(out)
        assert [s.get("matches") for s in report["steps"]] == want
        assert report["steps"][-1]["hereditary"] is not None
        assert all("depth" in s and "matrix" in s for s in report["steps"])


def reference_chain_tags(n, a):
    """The chain tags of the start (0, a^(n-1)) at depth a from the diag_key
    index of the checkpoint matrices, the matching that state keys replaced."""
    index = {}
    for cp in chain_checkpoints(n, a):
        index.setdefault(diag_key(expand(CirculantState((1,) * n, cp.v)).M), []).append(cp)
    tags = []
    for order, depth in glued_chain(scaled_hereditary((1,) * n, a), a):
        candidates = index.get(diag_key(order.M), ())
        tags.append(next((cp.tag for cp in candidates if cp.depth in (None, depth)), None))
    return tags


def test_chain_tags_match_the_diag_key_index(tmp_path, capsys):
    path = tmp_path / "start.json"
    tagged = 0
    for n in range(2, 11):
        for a in range(1, 31):
            path.write_text(dumps(CirculantState((1,) * n, (0,) + (a,) * (n - 1), f=a)))
            code, out, _ = run(capsys, ["--command", "chain", "--input", str(path)])
            assert code == 0
            got = [s.get("matches") for s in json.loads(out)["steps"]]
            assert got == reference_chain_tags(n, a), (n, a)
            tagged += len(got) - got.count(None)
    assert tagged == 1228


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
    assert report["oracle"] == {"ran": True, "first_disagreement": None}


def _kernel_defect(monkeypatch):
    """Make the row kernel take every miss as u_j (the radical's fast path
    never lowers an entry to u_j - 1), and make certify_cell pass every
    chain, so that only the oracle can see the defect."""
    import headorder.cli as cli
    from headorder import exponent

    real = exponent._idealizer_row

    def every_miss_is_u(N, sigma, f, u):
        row = real(N, sigma, f, u)
        if u[0] == 0 and N == exponent._radical_row(u, sigma):
            return tuple(map(max, row, u))
        return row

    monkeypatch.setattr(exponent, "_idealizer_row", every_miss_is_u)
    monkeypatch.setattr(cli, "certify_cell", lambda n, a, chain: True)


def test_verify_oracle_catches_a_kernel_defect(capsys, monkeypatch):
    # the defective chain never moves its start; at both cells the true
    # glued first step leaves the start unchanged too, the second moves it
    _kernel_defect(monkeypatch)
    for cell in ('{"n": 3, "a": 2}', '{"n": 7, "a": 10}'):
        code, out, _ = run(
            capsys,
            ["--command", "verify", "--input", "-", "--oracle", "on"],
            stdin=cell,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        report = json.loads(out)
        assert report["agree"] is False
        assert report["oracle"] == {"ran": True, "first_disagreement": 1}


def test_verify_oracle_certifies_the_cell_amalgam_chain(monkeypatch):
    # the blocks verify certifies are the amalgam chain of a * H_n with
    # H_1 glued at each block at depth a, here beyond the cap as well
    import headorder.cli as cli
    from headorder import oracle
    from headorder.amalgam import GluingConstraint, amalgam_chain, validate_amalgam

    certified = []
    # the stand-in records each chain and returns None: every chain passes
    monkeypatch.setattr(oracle, "certify_chain", lambda chain, p: certified.append(chain))
    monkeypatch.setattr(cli, "ORACLE_CAP", (8, 16))
    one = standard_hereditary((1,))
    for n in range(2, 9):
        for a in range(1, 17):
            ok, chain, detail = cli._verify_cell(n, a, True, None)
            assert ok and detail["oracle"] == {"ran": True, "first_disagreement": None}
            gluings = [GluingConstraint((0, q), (1 + q, 0), a) for q in range(n)]
            block = validate_amalgam([scaled_hereditary((1,) * n, a)] + [one] * n, gluings)
            assert certified.pop() == list(amalgam_chain(block)), (n, a)


def test_verify_reports_oracle_outside_its_range(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["--command", "verify", "--input", "-", "--oracle", "on"],
        stdin='{"n": 8, "a": 3}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["ran"] is False
    assert "n <= 7 and a <= 20" in report["oracle"]["reason"]
    _, out_off, _ = run(
        capsys,
        ["--command", "verify", "--input", "-"],
        stdin='{"n": 8, "a": 3}',
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


def test_sweep_disagreement_exit_1(capsys, monkeypatch):
    import headorder.cli as cli

    certify = cli.certify_cell
    monkeypatch.setattr(
        cli, "certify_cell", lambda n, a, chain: (n, a) != (3, 2) and certify(n, a, chain)
    )
    code, out, _ = run(capsys, ["--command", "sweep", "--grid", "n=2..4,a=1..3"])
    assert code == 1
    report = json.loads(out)
    assert report["disagreements"] == [{"n": 3, "a": 2}]
    assert (report["cells"], report["agree"]) == (9, False)


def test_sweep_with_oracle(capsys, monkeypatch):
    argv = ["--command", "sweep", "--grid", "n=2..4,a=1..4"]
    code_off, out_off, _ = run(capsys, argv)
    code, out, _ = run(capsys, argv + ["--oracle", "on"])
    assert code == code_off == 0 and out == out_off
    # a kernel defect only the oracle sees: every cell whose chain moves
    _kernel_defect(monkeypatch)
    code, out, _ = run(capsys, argv + ["--oracle", "on"])
    assert code == 1
    report = json.loads(out)
    assert report["disagreements"] == [
        {"n": n, "a": a} for n in range(2, 5) for a in range(2, 5)
    ]


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


@pytest.mark.parametrize("command", ["closed-form", "verify"])
def test_invalid_json_names_root(capsys, monkeypatch, command):
    code, out, err = run(
        capsys,
        ["--command", command, "--input", "-"],
        stdin="not json",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"].startswith("$: invalid JSON:")


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
COMPONENT_DOC = {
    "schema_version": 1,
    "type": "exponent",
    "dims": [1, 1],
    "matrix": [[0, 2], [0, 0]],
}
H2_DOC = {**COMPONENT_DOC, "matrix": [[0, 1], [0, 0]]}
GLUING = {"left": [0, 0], "right": [1, 0], "depth": 2, "kinds": ["diagonal", "diagonal"]}
AMALGAM_DOC = {
    "schema_version": 1,
    "type": "amalgam",
    "components": [COMPONENT_DOC, COMPONENT_DOC],
    "gluings": [GLUING],
    "params": [3, 1, 2],
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
        ("check", {**AMALGAM_DOC, "components": 5}, "$.components"),
        ("check", {**AMALGAM_DOC, "components": [], "gluings": []}, "$"),
        ("check", {**AMALGAM_DOC, "components": [CIRCULANT_DOC]}, "$.components[0]"),
        ("chain", {**AMALGAM_DOC, "gluings": GLUING}, "$.gluings"),
        ("check", {**AMALGAM_DOC, "gluings": [3]}, "$.gluings[0]"),
        ("head", {**AMALGAM_DOC, "gluings": [{**GLUING, "left": [0, 0, 1]}]},
         "$.gluings[0].left"),
        ("chain", {**AMALGAM_DOC, "gluings": [{**GLUING, "right": [1]}]},
         "$.gluings[0].right"),
        ("check", {**AMALGAM_DOC, "gluings": [{**GLUING, "kinds": 5}]},
         "$.gluings[0].kinds"),
        # JSON booleans are not integers, although bool subclasses int
        ("chain", {**CIRCULANT_DOC, "depth": True}, "$.depth"),
        ("tree", {**TREE_DOC, "p": True}, "$.p"),
        ("tree", {**TREE_DOC, "e": True}, "$.e"),
        ("check", {**TREE_DOC, "schema_version": True}, "$.schema_version"),
        ("check", {**COMPONENT_DOC, "dims": [1, True]}, "$.dims"),
        ("closed-form", {"n": 3, "a": True}, "$"),
        ("closed-form", {"n": 3, "a": 2, "dims": [1, True, 1]}, "$.dims"),
        # values that pass the type checks but name no order or tree
        ("tree", {**TREE_DOC, "m": 0, "r": 1}, "$"),
        ("tree", {**TREE_DOC, "m": -3, "r": 2}, "$"),
        ("head", {**CIRCULANT_DOC, "n": 2, "dims": [0, -1], "v": [0, 1], "depth": 0}, "$"),
        ("check", {**COMPONENT_DOC, "ram": -5}, "$"),
        ("check", {**CIRCULANT_DOC, "ram": 0}, "$"),
        ("check", {**CIRCULANT_DOC, "n": 0, "dims": [], "v": [], "depth": 0}, "$"),
        ("tree", {**TREE_DOC, "edges": [[0, 1, 2]]}, "$.edges[0]"),
        ("tree", {**TREE_DOC, "edges": [[0]]}, "$.edges[0]"),
        # Lambda(v) is not an order: v_1 + v_1 < v_2, or v_2 + v_1 < v_0 + v_2
        ("check", {**CIRCULANT_DOC, "v": [0, 0, 5], "depth": 0}, "$"),
        ("chain", {**CIRCULANT_DOC, "v": [0, 0, 1], "depth": 1}, "$"),
        # p must be prime, even where e divides p - 1
        ("tree", {**TREE_DOC, "edges": [[0, 1], [1, 2], [2, 3]], "dims": [1, 1, 1],
                  "rotations": [[0], [0, 1], [1, 2], [2]], "p": 4}, "$"),
        ("tree", {**TREE_DOC, "p": 9, "a": 2}, "$"),
        # a gluing of a block to itself constrains nothing
        ("head", {**AMALGAM_DOC, "gluings": [{**GLUING, "right": [0, 0]}]}, "$"),
        ("chain", {**AMALGAM_DOC, "components": [H2_DOC], "gluings": [
            {"left": [0, -1], "right": [0, -1], "depth": 3, "kinds": ["matrix", "matrix"]}
        ]}, "$"),
        ("check", {**AMALGAM_DOC, "gluings": [{**GLUING, "depth": -1}]}, "$"),
        ("check", {**AMALGAM_DOC, "gluings": [{**GLUING, "kinds": ["diagonal", "x"]}]}, "$"),
        ("tree", {**TREE_DOC, "exceptional": 2}, "$"),
        ("tree", {**TREE_DOC, "a": 0}, "$"),
        # p at or above psi_12 passes Miller-Rabin to every base 2..37
        ("tree", {**TREE_DOC, "p": 318_665_857_834_031_151_167_461}, "$"),
        # a well-formed document of a type the command does not take
        ("chain", TREE_DOC, "$"),
        ("radical", AMALGAM_DOC, "$"),
        ("tree", COMPONENT_DOC, "$"),
        # None: the command is run without --input
        ("check", None, "$"),
        # a flag after the command name: a negative step budget
        ("head --max-steps -1", H2_DOC, "--max-steps"),
        # a verify or sweep cell over its budget; tree takes none
        ("verify --max-steps 0", {"n": 7, "a": 10}, "--max-steps"),
        ("tree --max-steps 0", TREE_DOC, "--max-steps"),
        ("sweep --grid n=2..3,a=1..2 --max-steps 0", None, "--max-steps"),
        # an empty range, an unknown key and a repeated key
        ("sweep --grid n=5..2,a=1..3", None, "--grid"),
        ("sweep --grid n=2..3,a=1..2,x=7", None, "--grid"),
        ("sweep --grid n=2..3,a=1..2,n=4..5", None, "--grid"),
    ],
    ids=["tree-p", "tree-a", "circulant-depth", "dims-short", "dims-short-accepted",
         "dims-zero", "dims-string", "amalgam-components", "amalgam-no-components",
         "amalgam-component-type", "amalgam-gluings", "amalgam-gluing", "gluing-left",
         "gluing-right", "gluing-kinds", "circulant-depth-bool", "tree-p-bool", "tree-e-bool",
         "schema-version-bool", "exponent-dims-bool", "closed-form-a-bool",
         "closed-form-dims-bool", "tree-m-zero", "tree-m-negative",
         "circulant-dims-nonpositive", "exponent-ram-negative", "circulant-ram-zero",
         "circulant-empty", "tree-edge-triple", "tree-edge-single",
         "circulant-not-an-order", "circulant-not-an-order-chain", "tree-p-composite-path",
         "tree-p-prime-power", "gluing-self-diagonal",
         "gluing-self-whole", "gluing-depth-negative", "gluing-kind-unknown",
         "tree-exceptional-range", "tree-a-zero", "tree-p-psi12", "chain-on-tree",
         "radical-on-amalgam", "tree-on-exponent", "no-input", "max-steps-negative",
         "max-steps-verify", "max-steps-tree", "max-steps-sweep", "grid-empty-range",
         "grid-unknown-key", "grid-repeated-key"],
)
def test_malformed_field_exit_2(capsys, monkeypatch, command, doc, field):
    code, out, err = run(
        capsys,
        ["--command", *command.split()] + ([] if doc is None else ["--input", "-"]),
        stdin=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"].startswith(f"{field}:")


@pytest.mark.parametrize(
    "command, data",
    [
        ("closed-form", b'\xff\xfe{"n": 3}'),
        ("check", b"[" * 100_000 + b"]" * 100_000),
        ("closed-form", b'{"n": 3, "a": ' + b"9" * 4301 + b"}"),
    ],
    ids=["not-utf-8", "nested-too-deeply", "int-over-digit-limit"],
)
def test_malformed_text_exit_2(tmp_path, capsys, command, data):
    # input text that no JSON value can come from, read from a file
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    code, out, err = run(capsys, ["--command", command, "--input", str(path)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"].startswith("$:")


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, ["--command", "check", "--input", "/nope.json"])
    assert code == 2


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_quietly(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, scaled_hereditary((1,) * 20, 60))
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        code = main(["--command", "chain", "--input", path])
        # stdout now discards what the interpreter flushes at exit
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert code == 141
    assert capsys.readouterr().err == ""


def test_closed_pipe_end_to_end(tmp_path):
    # headorder --command chain ... | head -2 on a 238 KB report
    path = write_doc(tmp_path, scaled_hereditary((1,) * 20, 60))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(headorder.__file__)))
    with subprocess.Popen(
        [sys.executable, "-m", "headorder.cli", "--command", "chain", "--input", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


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


PRETTY_TREE = """\
chain_length: 1
components:
  -
    blocks: 1
    component: 0
    exceptional: true
    grouped_dims: [1]
  -
    blocks: 2
    component: 1
    exceptional: false
    grouped_dims: [1, 2]
    predicted_blocks: 2
    predicted_dims: [1, 2]
    simple_fibers:
      0: [0]
      1: [1]
  -
    blocks: 1
    component: 2
    exceptional: false
    grouped_dims: [2]
    predicted_blocks: 1
    predicted_dims: [2]
    simple_fibers:
      0: [0]
hasse:
  m: 2
  t: 1
"""
PRETTY_CLOSED_FORM = """\
a: 2
b: 2
head_matrix:
  - [0, 1, 2]
  - [0, 0, 1]
  - [-1, 0, 0]
head_v: [0, 1, 2]
n: 3
simple_fibers:
  0: [0]
  1: [2]
  2: [1]
"""


@pytest.mark.parametrize(
    "command, doc, want",
    [
        # a list of dicts, dicts nested in those, and a top-level dict
        ("tree", {**TREE_DOC, "edges": [[0, 1], [1, 2]], "dims": [1, 2],
                  "rotations": [[0], [0, 1], [1]], "m": 2}, PRETTY_TREE),
        # a list of lists
        ("closed-form", {"n": 3, "a": 2}, PRETTY_CLOSED_FORM),
        ("closed-form", {"n": 3, "a": 6}, 'a: 6\nb: 0\nhead_matrix: null\nn: 3\n'
         'note: "a is a multiple of n: the head order is maximal"\n'),
        ("closed-form", {"n": 3, "a": 4, "dims": [1, 2, 3]}, "a: 4\nb: 1\nhead_matrix:\n"
         "  - [0, 1, 1]\n  - [0, 0, 1]\n  - [0, 0, 0]\nn: 3\nsimple_fibers:\n"
         "  0: [0]\n  1: [1]\n  2: [2]\n"),
        ("check", CIRCULANT_DOC, 'hereditary: null\ninput_type: "CirculantState"\n'
         "reduced: true\nvalid: true\n"),
    ],
    ids=["tree", "closed-form", "closed-form-maximal", "closed-form-dims", "check-circulant"],
)
def test_pretty_nested_reports(capsys, monkeypatch, command, doc, want):
    code, out, err = run(
        capsys,
        ["--command", command, "--input", "-", "--format", "pretty"],
        stdin=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert (code, out, err) == (0, want, "")


def test_max_steps_flag(tmp_path, capsys):
    path = write_doc(tmp_path, scaled_hereditary((1, 1, 1), 9))
    code, _, err = run(
        capsys, ["--command", "chain", "--input", path, "--max-steps", "1"]
    )
    assert code == 2
    assert "error" in err


def test_max_steps_counts_moves(tmp_path, capsys):
    path = write_doc(tmp_path, scaled_hereditary((1, 1, 1), 9))
    _, out, _ = run(capsys, ["--command", "chain", "--input", path])
    length = json.loads(out)["length"]
    code, _, _ = run(capsys, ["--command", "chain", "--input", path, "--max-steps", str(length)])
    assert code == 0
    code, _, err = run(
        capsys, ["--command", "chain", "--input", path, "--max-steps", str(length - 1)]
    )
    assert code == 2
    assert json.loads(err)["error"] == f"no idealizer fixed point within {length - 1} steps"
    # an order that already is its head takes no move
    path = write_doc(tmp_path, validate_order([[0, 1], [0, 0]], (1, 1)))
    code, out, _ = run(capsys, ["--command", "head", "--input", path, "--max-steps", "0"])
    assert code == 0
    assert json.loads(out)["steps"] == 0


def test_max_steps_bounds_each_cell(capsys, monkeypatch):
    # verify and sweep pass the budget to every cell's chain; within it the
    # report is the one without the flag
    cell = json.dumps({"n": 7, "a": 10})
    _, plain, _ = run(capsys, ["--command", "verify", "--input", "-"], cell, monkeypatch)
    steps = json.loads(plain)["steps"]
    argv = ["--command", "verify", "--input", "-", "--max-steps"]
    assert run(capsys, argv + [str(steps)], cell, monkeypatch) == (0, plain, "")
    code, out, err = run(capsys, argv + [str(steps - 1)], cell, monkeypatch)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (
        f"--max-steps: cell n = 7, a = 10: no idealizer fixed point within {steps - 1} steps"
    )
    # a in the thousands stops at the budget instead of running every move
    huge = json.dumps({"n": 3, "a": 10_000})
    assert run(capsys, argv + ["5"], huge, monkeypatch)[0] == 2

    grid = ["--command", "sweep", "--grid", "n=2..4,a=1..9"]
    _, plain, _ = run(capsys, grid)
    longest = max(
        len(glued_chain(scaled_hereditary((1,) * n, a), a)) - 1
        for n in range(2, 5)
        for a in range(1, 10)
    )
    assert run(capsys, grid + ["--max-steps", str(longest)]) == (0, plain, "")
    code, out, err = run(capsys, grid + ["--max-steps", str(longest - 1)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith("--max-steps: cell n = ")


def test_closed_form_bytes_pinned():
    # sha256 of exit code and stdout, request by request, for closed-form
    # (without and with dims) and verify on n = 2..12, a = 1..24, and for
    # one sweep: the head_v and head_f paths print the same bytes
    digests = {}
    for command in ("closed-form", "verify"):
        h = hashlib.sha256()
        for n in range(2, 13):
            for a in range(1, 25):
                docs = [{"n": n, "a": a}]
                if command == "closed-form":
                    docs.append({"n": n, "a": a, "dims": [1 + i * a % 3 for i in range(n)]})
                for doc in docs:
                    code, out, _ = _run_cli(["--command", command, "--input", "-"], json.dumps(doc))
                    h.update(f"{code}\n{out}".encode())
        digests[command] = h.hexdigest()
    code, out, _ = _run_cli(["--command", "sweep", "--grid", "n=2..10,a=1..30"], "")
    digests["sweep"] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digests == {
        "closed-form": "3e07e824b14a30f2600220b75d6e742025790a96533ae9e521654dcf54c87414",
        "verify": "2ac8c56f5e6172a83a1af281e6737a459df1d8152c7ded15af5f8cd957aefbe4",
        "sweep": "ca14c258cacf77634bcbeddda61e5ff704f4b3c216fac7d1390b2f55ef1d34b1",
    }


def test_chain_tag_bytes_pinned():
    # sha256 of exit code and stdout, request by request, for chain from
    # (0, a^(n-1)) at depth a on n = 2..12, a = 1..24: every matrix, depth
    # and checkpoint tag of those chains
    h = hashlib.sha256()
    for n in range(2, 13):
        for a in range(1, 25):
            doc = {**CIRCULANT_DOC, "n": n, "dims": [1] * n, "v": [0] + [a] * (n - 1),
                   "depth": a}
            code, out, _ = _run_cli(["--command", "chain", "--input", "-"], json.dumps(doc))
            h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == "f9b9de4a8d7a5bd64ab2187dbeb800c448edac31761266d7dcdb7c8ce8e2f137"


@pytest.mark.parametrize(
    "n, a, digest",
    [
        (24, 72, "faf45361a8690db3debfe4ed83a05bc9b7c0f0370e56f84595346315e8efcd77"),
        (64, 200, "82becf0718c5533b6fe1ee0d3eeb19f6bb35f525809bc7b00df7b13fb0a1d4c4"),
    ],
)
def test_long_chain_bytes_pinned(n, a, digest):
    # sha256 of exit code and stdout for chain from (0, a^(n-1)) at depth a;
    # n = 64, a = 200 is the long chain: 250 states, 58 tags, 10 MB
    doc = {**CIRCULANT_DOC, "n": n, "dims": [1] * n, "v": [0] + [a] * (n - 1), "depth": a}
    code, out, _ = _run_cli(["--command", "chain", "--input", "-"], json.dumps(doc))
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest


def test_tree_bytes_pinned():
    # sha256 of exit code and stdout, request by request, for tree on every
    # criterion-6 tree with a = 1, 2, then for chain and head on the amalgam
    # documents of the first a = 2 block of each edge count with the
    # exceptional vertex at a leaf and at an inner vertex: every chain
    # length, head type and amalgam state of those runs
    from headorder.brauer import build_block
    from test_acceptance import c6_trees

    trees = list(c6_trees((1, 2)))
    h = hashlib.sha256()
    for tree in trees:
        code, out, _ = _run_cli(["--command", "tree", "--input", "-"], dumps(tree))
        h.update(f"{code}\n{out}".encode())
    firsts = {
        (t.e, len(t.rotations[t.exceptional]) == 1): t
        for t in reversed(trees)
        if t.a == 2
    }
    for key in sorted(firsts):
        doc = dumps(build_block(firsts[key]))
        for command in ("chain", "head"):
            code, out, _ = _run_cli(["--command", command, "--input", "-"], doc)
            h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == "05d23bc13a9e4df39f7bab677a330eb121ac7d8625091fae8ef15995fccf0a02"


def test_amalgam_bytes_pinned():
    # sha256 of exit code and stdout, document by document, for chain and
    # head on the distinct build_block documents of every criterion-6 tree
    # with a = 1, 2, 3, one non-unit-dims variant per planar shape and the
    # hand-built amalgams, some with unequal depths on one component
    from test_amalgam import _equivalence_blocks

    h = hashlib.sha256()
    for block in _equivalence_blocks():
        doc = dumps(block)
        for command in ("chain", "head"):
            code, out, _ = _run_cli(["--command", command, "--input", "-"], doc)
            h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == "2a4893f9950f09934c934cbdf5429c858a94167e7e792caad418fd6499a3424c"


def test_exponent_bytes_pinned():
    # sha256 of exit code and stdout, document by document, for chain, head
    # and radical on exponent documents: the asymmetric start and random
    # orders and circulant orders, conjugated, n = 1..8; 43 of the 161 have
    # no rotation symmetry and 106 are unreduced, so both idealizer kernels
    # and both radicals are pinned
    import random

    from test_exponent import _ASYMMETRIC, _random_circulant_order, _random_order

    rng = random.Random(25)
    orders = [_ASYMMETRIC]
    for n in range(1, 9):
        orders += [_random_order(rng, n) for _ in range(10)]
        orders += [_random_circulant_order(rng, n) for _ in range(10)]
    h = hashlib.sha256()
    for order in orders:
        doc = dumps(order)
        for command in ("chain", "head", "radical"):
            code, out, _ = _run_cli(["--command", command, "--input", "-"], doc)
            h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == "cba38fdea9c717d12b402ddbdb4c05055ada512f9ea8298178426659252b25b5"


# ---------------------------------------------------------------------------
# fuzzing the CLI boundary with mutated documents

EXPONENT_DOC = {
    "schema_version": 1,
    "type": "exponent",
    "dims": [1, 1, 1],
    "matrix": [[0, 3, 3], [0, 0, 3], [0, 0, 0]],
    "ram": 1,
}
FUZZ_BASES = {
    "exponent": (EXPONENT_DOC, ("check", "radical", "chain", "head")),
    "circulant": (CIRCULANT_DOC, ("check", "radical", "chain", "head")),
    "tree": (TREE_DOC, ("check", "tree")),
    "amalgam": (AMALGAM_DOC, ("check", "chain", "head")),
    "params": ({"n": 3, "a": 4, "dims": [1, 1, 1]}, ("closed-form", "verify")),
}
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(-2, 6),
    st.text(max_size=3),
    st.lists(st.integers(-2, 6), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 6), max_size=2),
)


def _nodes(doc):
    """(path, value) of every node below the root of a JSON value."""
    found, stack = [], [((), doc)]
    while stack:
        at, value = stack.pop()
        if isinstance(value, dict):
            children = sorted(value.items())
        elif isinstance(value, list):
            children = enumerate(value)
        else:
            children = ()
        for key, child in children:
            found.append((at + (key,), child))
            stack.append((at + (key,), child))
    return found


def _mutate(data, doc):
    """Replace, delete, shorten or lengthen a node of doc, 1-3 times.

    The first mutation hits a list or object, where shape errors live.
    """
    doc = json.loads(json.dumps(doc))  # a copy that shares no nodes
    for k in range(data.draw(st.integers(1, 3))):
        nodes = [(p, v) for p, v in _nodes(doc) if k or isinstance(v, (dict, list))]
        if not nodes:
            break
        path, node = data.draw(st.sampled_from(nodes))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = data.draw(st.sampled_from(("replace", "delete", "shorten", "lengthen")))
        if op == "delete":
            del parent[key]
        elif op == "shorten" and isinstance(node, list) and node:
            node.pop()
        elif op == "lengthen" and isinstance(node, list):
            node.append(copy.deepcopy(node[-1]) if node else data.draw(JUNK))
        else:
            parent[key] = data.draw(JUNK)
    return doc


def _run_cli(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzz_mutated_documents(data):
    base, commands = FUZZ_BASES[data.draw(st.sampled_from(sorted(FUZZ_BASES)))]
    command = data.draw(st.sampled_from(commands))
    doc = _mutate(data, base)
    code, out, err = _run_cli(["--command", command, "--input", "-"], json.dumps(doc))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert command == "verify"
    if code == 2:
        assert out == "" and "error" in json.loads(err)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
       a=st.tuples(st.integers(-1, 4), st.integers(-1, 4)))
def test_fuzz_sweep_grid(n, a):
    code, out, err = _run_cli(
        ["--command", "sweep", "--grid", f"n={n[0]}..{n[1]},a={a[0]}..{a[1]}"], ""
    )
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and json.loads(err)["error"].startswith("--grid:")
