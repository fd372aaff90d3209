import contextlib
import copy
import hashlib
import io
import itertools
import json
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from strongatoms import zsm
from strongatoms.abgroup import FinGenAbelianGroup
from strongatoms.cli import EXIT_INTERNAL, _display, build_parser, main, parse_sequence
from strongatoms.specfile import SpecFileError, load_spec, parse_spec_dict, spec_to_dict

from conftest import B_ZN_FACTOR_TARGETS
from factorization_search import next_index_vector_factorizations

CYCLIC3_SPEC = """{
  "group": {"free_rank": 0, "torsion": [3]},
  "classes": [[1], [2]],
  "labels": ["g", "2g"],
  "mult": [1, 1]
}
"""

SIGNED_BASIS_SPEC = """{
  "group": {"free_rank": 2, "torsion": []},
  "classes": [[1,0], [0,1], [-1,0], [0,-1], [1,1], [-1,-1]],
  "labels": ["e1", "e2", "-e1", "-e2", "f", "-f"],
  "mult": [1, 1, 1, 1, 1, 1]
}
"""

GOLDEN_ATOMS_REPORT_V2 = (
    '{"command":"atoms","inputs":{"options":{"budget":10000000},'
    '"spec":{"classes":[[1],[2]],"group":{"free_rank":0,"torsion":[3]},'
    '"labels":["g","2g"],"mult":[1,1]}},"report_version":2,'
    '"results":{"atoms":['
    '{"absolutely_irreducible":true,"display":"2g^3","exponents":[0,3],"length":3,'
    '"support":["2g"]},'
    '{"absolutely_irreducible":false,"display":"g 2g","exponents":[1,1],"length":2,'
    '"support":["g","2g"]},'
    '{"absolutely_irreducible":true,"display":"g^3","exponents":[3,0],"length":3,'
    '"support":["g"]}],'
    '"certificate":{"columns":2,"group_order":3,"method":"zero-sum-free-search",'
    '"node_budget":10000000},"count":3},"status":"ok"}\n'
)

GOLDEN_FACTOR_REPORT_V2 = (
    '{"command":"factor","inputs":{"options":{"budget":10000000,"sequence":[3,3]},'
    '"spec":{"classes":[[1],[2]],"group":{"free_rank":0,"torsion":[3]},'
    '"labels":["g","2g"],"mult":[1,1]}},"report_version":2,'
    '"results":{"atoms":['
    '{"display":"2g^3","exponents":[0,3],"length":3,"support":["2g"]},'
    '{"display":"g 2g","exponents":[1,1],"length":2,"support":["g","2g"]},'
    '{"display":"g^3","exponents":[3,0],"length":3,"support":["g"]}],'
    '"count":2,"elasticity":"3/2",'
    '"factorizations":[{"atom_indices":[0,2]},{"atom_indices":[1,1,1]}],'
    '"lengths":[2,3],'
    '"sequence":{"display":"g^3 2g^3","exponents":[3,3],"length":6,"support":["g","2g"]}},'
    '"status":"ok"}\n'
)

GOLDEN_LENGTHS_REPORT_V2 = (
    '{"command":"lengths","inputs":{"options":{"budget":10000000,"sequence":[3,3]},'
    '"spec":{"classes":[[1],[2]],"group":{"free_rank":0,"torsion":[3]},'
    '"labels":["g","2g"],"mult":[1,1]}},"report_version":2,'
    '"results":{"elasticity":"3/2","lengths":[2,3],'
    '"sequence":{"display":"g^3 2g^3","exponents":[3,3],"length":6,"support":["g","2g"]}},'
    '"status":"ok"}\n'
)

GOLDEN_ABSIRRED_REPORT_V2 = (
    '{"command":"absirred","inputs":{"options":{"budget":10000000,"nmax":3},'
    '"spec":{"classes":[[1],[2]],"group":{"free_rank":0,"torsion":[3]},'
    '"labels":["g","2g"],"mult":[1,1]}},"report_version":2,'
    '"results":{"atoms":[{"brute_force_up_to_nmax":false,"display":"g 2g",'
    '"exponents":[1,1],"kernel_criterion":false,"length":2,"support":["g","2g"],'
    '"support_criterion":false,'
    '"witness":{"different":[0,2],"n":3,"standard":[1,1,1]}}]},"status":"ok"}\n'
)

# Version 3: every sequence row carries its exponents and verdicts only.
GOLDEN_ATOMS_REPORT = (
    '{"command":"atoms","inputs":{"options":{"budget":10000000},'
    '"spec":{"classes":[[1],[2]],"group":{"free_rank":0,"torsion":[3]},'
    '"labels":["g","2g"],"mult":[1,1]}},"report_version":3,'
    '"results":{"atoms":['
    '{"absolutely_irreducible":true,"exponents":[0,3]},'
    '{"absolutely_irreducible":false,"exponents":[1,1]},'
    '{"absolutely_irreducible":true,"exponents":[3,0]}],'
    '"certificate":{"columns":2,"group_order":3,"method":"zero-sum-free-search",'
    '"node_budget":10000000},"count":3},"status":"ok"}\n'
)

GOLDEN_FACTOR_REPORT = (
    '{"command":"factor","inputs":{"options":{"budget":10000000,"sequence":[3,3]},'
    '"spec":{"classes":[[1],[2]],"group":{"free_rank":0,"torsion":[3]},'
    '"labels":["g","2g"],"mult":[1,1]}},"report_version":3,'
    '"results":{"atoms":[{"exponents":[0,3]},{"exponents":[1,1]},{"exponents":[3,0]}],'
    '"count":2,"elasticity":"3/2",'
    '"factorizations":[{"atom_indices":[0,2]},{"atom_indices":[1,1,1]}],'
    '"lengths":[2,3],"sequence":{"exponents":[3,3]}},"status":"ok"}\n'
)

GOLDEN_LENGTHS_REPORT = (
    '{"command":"lengths","inputs":{"options":{"budget":10000000,"sequence":[3,3]},'
    '"spec":{"classes":[[1],[2]],"group":{"free_rank":0,"torsion":[3]},'
    '"labels":["g","2g"],"mult":[1,1]}},"report_version":3,'
    '"results":{"elasticity":"3/2","lengths":[2,3],"sequence":{"exponents":[3,3]}},'
    '"status":"ok"}\n'
)

GOLDEN_ABSIRRED_REPORT = (
    '{"command":"absirred","inputs":{"options":{"budget":10000000,"nmax":3},'
    '"spec":{"classes":[[1],[2]],"group":{"free_rank":0,"torsion":[3]},'
    '"labels":["g","2g"],"mult":[1,1]}},"report_version":3,'
    '"results":{"atoms":[{"brute_force_up_to_nmax":false,"exponents":[1,1],'
    '"kernel_criterion":false,"support_criterion":false,'
    '"witness":{"different":[0,2],"n":3,"standard":[1,1,1]}}]},"status":"ok"}\n'
)

# The same atoms report in report version 1 (indented), for the content check.
GOLDEN_ATOMS_REPORT_V1 = """{
  "command": "atoms",
  "inputs": {
    "options": {
      "budget": 10000000
    },
    "spec": {
      "classes": [
        [
          1
        ],
        [
          2
        ]
      ],
      "group": {
        "free_rank": 0,
        "torsion": [
          3
        ]
      },
      "labels": [
        "g",
        "2g"
      ],
      "mult": [
        1,
        1
      ]
    }
  },
  "report_version": 1,
  "results": {
    "atoms": [
      {
        "absolutely_irreducible": true,
        "display": "2g^3",
        "exponents": [
          0,
          3
        ],
        "length": 3,
        "support": [
          "2g"
        ]
      },
      {
        "absolutely_irreducible": false,
        "display": "g 2g",
        "exponents": [
          1,
          1
        ],
        "length": 2,
        "support": [
          "g",
          "2g"
        ]
      },
      {
        "absolutely_irreducible": true,
        "display": "g^3",
        "exponents": [
          3,
          0
        ],
        "length": 3,
        "support": [
          "g"
        ]
      }
    ],
    "certificate": {
      "columns": 2,
      "group_order": 3,
      "method": "zero-sum-free-search",
      "node_budget": 10000000
    },
    "count": 3
  },
  "status": "ok"
}
"""


SPECS_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


@pytest.fixture
def cyclic3(tmp_path):
    path = tmp_path / "cyclic3.json"
    path.write_text(CYCLIC3_SPEC)
    return str(path)


@pytest.fixture
def signed_basis(tmp_path):
    path = tmp_path / "signed_basis.json"
    path.write_text(SIGNED_BASIS_SPEC)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_redirected(*argv):
    """``run_cli`` without a pytest fixture, for property tests."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def v3_of_v2(report: dict) -> dict:
    """A version-2 report as version 3: each sequence row (``results["atoms"]``
    and ``results["sequence"]``) less its ``length``, ``support`` and
    ``display``, which version 2 carried on every row."""
    report = copy.deepcopy(report)
    report["report_version"] = 3
    results = report["results"]
    rows = list(results.get("atoms", []))
    if "sequence" in results:
        rows.append(results["sequence"])
    for row in rows:
        for key in ("length", "support", "display"):
            del row[key]
    return report


def assert_golden(out, v2, v3):
    assert out == v3
    assert json.loads(v3) == v3_of_v2(json.loads(v2))


def test_atoms_machine_golden(cyclic3, capsys):
    code, out = run_cli(capsys, "atoms", "--spec", cyclic3, "--machine")
    assert code == 0
    assert_golden(out, GOLDEN_ATOMS_REPORT_V2, GOLDEN_ATOMS_REPORT)
    # version 2 changed the encoding of this report, not its content
    v1 = json.loads(GOLDEN_ATOMS_REPORT_V1)
    v2 = json.loads(GOLDEN_ATOMS_REPORT_V2)
    assert (v1.pop("report_version"), v2.pop("report_version")) == (1, 2)
    assert v1 == v2


def test_factor_machine_golden(cyclic3, capsys):
    code, out = run_cli(capsys, "factor", "--spec", cyclic3, "--sequence", "g^3,2g^3",
                        "--machine")
    assert code == 0
    assert_golden(out, GOLDEN_FACTOR_REPORT_V2, GOLDEN_FACTOR_REPORT)


def test_lengths_machine_golden(cyclic3, capsys):
    code, out = run_cli(capsys, "lengths", "--spec", cyclic3, "--sequence", "g^3,2g^3",
                        "--machine")
    assert code == 0
    assert_golden(out, GOLDEN_LENGTHS_REPORT_V2, GOLDEN_LENGTHS_REPORT)


def test_absirred_machine_golden(cyclic3, capsys):
    code, out = run_cli(capsys, "absirred", "--spec", cyclic3, "--sequence", "g,2g",
                        "--nmax", "3", "--machine")
    assert code == 0
    assert_golden(out, GOLDEN_ABSIRRED_REPORT_V2, GOLDEN_ABSIRRED_REPORT)


def test_machine_reports_deterministic(signed_basis, capsys):
    _, out1 = run_cli(capsys, "classify", "--spec", signed_basis, "--machine")
    _, out2 = run_cli(capsys, "classify", "--spec", signed_basis, "--machine")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["results"]["row_label"] == "(-,+,-)"
    assert payload["results"]["has_prime"] is False
    assert payload["inputs"]["options"] == {"support_bound": 4, "budget": 10**7}
    assert payload["results"]["bounds"] == {"support_bound": 4, "budget": 10**7}


def test_factor_command(signed_basis, capsys):
    code, out = run_cli(capsys, "factor", "--spec", signed_basis,
                        "--sequence", "e1,e2,-f,-e1,-e2,f", "--machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["count"] == 2
    assert payload["results"]["lengths"] == [2, 3]
    assert payload["results"]["elasticity"] == "3/2"


def test_factor_exponent_vector_form(signed_basis, capsys):
    code, out = run_cli(capsys, "factor", "--spec", signed_basis,
                        "--sequence", "1,1,1,1,1,1", "--machine")
    assert code == 0
    assert json.loads(out)["results"]["lengths"] == [2, 3]


def test_lengths_command(signed_basis, capsys):
    code, out = run_cli(capsys, "lengths", "--spec", signed_basis,
                        "--sequence", "f,-f", "--machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["lengths"] == [1]
    assert payload["results"]["elasticity"] == "1"


@pytest.mark.parametrize("command", ["lengths", "factor"])
def test_deep_power_on_bundled_spec(command, capsys):
    code, out = run_cli(capsys, command, "--spec", str(SPECS_DIR / "cyclic3_full.json"),
                        "--sequence", "g^3000", "--machine")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["lengths"] == [1000]
    assert results["elasticity"] == "1"
    if command == "factor":
        assert results["count"] == 1


def test_absirred_command(cyclic3, capsys):
    code, out = run_cli(capsys, "absirred", "--spec", cyclic3,
                        "--sequence", "g,2g", "--nmax", "3", "--machine")
    assert code == 0
    entry = json.loads(out)["results"]["atoms"][0]
    assert entry["support_criterion"] is False
    assert entry["kernel_criterion"] is False
    assert entry["witness"]["n"] == 3
    assert entry["brute_force_up_to_nmax"] is False


def test_absirred_all_atoms(cyclic3, capsys):
    code, out = run_cli(capsys, "absirred", "--spec", cyclic3, "--machine")
    assert code == 0
    entries = json.loads(out)["results"]["atoms"]
    assert [e["support_criterion"] for e in entries] == [True, False, True]


def test_classify_human_output(cyclic3, capsys):
    code, out = run_cli(capsys, "classify", "--spec", cyclic3)
    assert code == 0
    assert "row (+,+,-)" in out


def test_verify_exit_code_and_determinism(capsys):
    code1, out1 = run_cli(capsys, "verify", "--machine")
    code2, out2 = run_cli(capsys, "verify", "--machine")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["status"] == "ok"
    assert payload["results"]["failed"] == 0


def test_exit_code_input_errors(tmp_path, capsys):
    assert main(["atoms", "--spec", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["atoms", "--spec", str(bad)]) == 2
    dup = tmp_path / "dup.json"
    dup.write_text('{"group": {"free_rank": 0, "torsion": [3]}, "classes": [[1], [4]]}')
    assert main(["atoms", "--spec", str(dup)]) == 2


def _spec_exit_code(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["atoms", "--spec", str(path), "--machine"])
    return code, capsys.readouterr()


@pytest.mark.parametrize("free_rank", [1.0, 1.5, "1", True])
def test_exit_code_non_integer_free_rank(tmp_path, capsys, free_rank):
    spec = {"group": {"free_rank": free_rank}, "classes": [[1], [-1]]}
    code, captured = _spec_exit_code(tmp_path, capsys, spec)
    assert code == 2 and captured.out == ""
    assert "free_rank must be an integer" in captured.err


@pytest.mark.parametrize("torsion", [[3.9], ["3"], [True, 3], 3, "3"])
def test_exit_code_non_integer_torsion(tmp_path, capsys, torsion):
    spec = {"group": {"free_rank": 0, "torsion": torsion}, "classes": [[1], [2]]}
    code, captured = _spec_exit_code(tmp_path, capsys, spec)
    assert code == 2 and captured.out == ""
    assert "torsion" in captured.err


@pytest.mark.parametrize("classes, bad", [([[1.5], [2.2]], "class 0"), ([[1], ["2"]], "class 1"),
                                          ([[1], [True]], "class 1"), ([[1], 2], "class 1")])
def test_exit_code_non_integer_classes(tmp_path, capsys, classes, bad):
    spec = {"group": {"free_rank": 0, "torsion": [3]}, "classes": classes}
    code, captured = _spec_exit_code(tmp_path, capsys, spec)
    assert code == 2 and captured.out == ""
    assert bad in captured.err


def test_exit_code_boolean_mult(tmp_path, capsys):
    spec = {"group": {"free_rank": 0, "torsion": [3]}, "classes": [[1], [2]],
            "mult": [True, 1]}
    code, captured = _spec_exit_code(tmp_path, capsys, spec)
    assert code == 2 and "mult[0]" in captured.err


@pytest.mark.parametrize("label", ["", " g", "g ", "g,h", "g^2"])
def test_exit_code_label_a_sequence_would_misread(tmp_path, capsys, label):
    # sequences are split at ',' and '^': with labels g and g^2, 'g,g^2'
    # was read as g three times
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"group": {"free_rank": 0, "torsion": [3]},
                                "classes": [[1], [2]], "labels": ["g", label]}))
    assert main(["factor", "--spec", str(path), "--sequence", "g,g^2", "--machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"label {json.dumps(label)}" in captured.err


@pytest.mark.parametrize("budget", ["-5", "0", "x", "1.5"])
def test_budget_must_be_a_positive_integer(cyclic3, capsys, budget):
    with pytest.raises(SystemExit) as exc:
        main(["atoms", "--spec", cyclic3, "--budget", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--budget" in captured.err


def test_budget_of_one_is_accepted(cyclic3, signed_basis, capsys):
    # one node is too few for any atom search, but it is a valid budget; the
    # error names the search: zero-sum-free on a finite class set, completion
    # on one with a free part
    assert main(["atoms", "--spec", cyclic3, "--budget", "1"]) == 3
    assert "zero-sum-free search exceeded 1 nodes" in capsys.readouterr().err
    assert main(["atoms", "--spec", signed_basis, "--budget", "1"]) == 3
    assert "completion search exceeded 1 nodes" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"),
                                 AssertionError("witness does not re-multiply")])
@pytest.mark.parametrize("machine", [True, False])
def test_exit_code_internal_error(cyclic3, capsys, monkeypatch, exc, machine):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(zsm, "enumerate_atoms", boom)
    argv = ["atoms", "--spec", cyclic3] + (["--machine"] if machine else [])
    assert main(argv) == EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("argv, message", [
    (["classify", "--bound", "0"], "support_bound must be >= 1"),
    (["absirred", "--nmax", "0"], "n_max must be >= 1"),
    (["factor", "--sequence", "1,-1"], "exponents must be nonnegative"),
])
def test_exit_code_library_value_errors(cyclic3, capsys, argv, message):
    # input errors that the library, not the parsers, reports as ValueError
    assert main(argv[:1] + ["--spec", cyclic3] + argv[1:]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("sequence, token", [
    ("g^,g^,g^", "g^"), ("g^ 3", "g^ 3"), ("g^+3", "g^+3"), ("g^1_2", "g^1_2"),
    ("1_0,1", "1_0")])
def test_exit_code_power_or_exponent_not_plain_digits(cyclic3, capsys, sequence, token):
    # int() reads ' 3', '+3' and '1_2', and an empty power was read as 1:
    # each of these sequences was read as a zero-sum one
    spec, labels = load_spec(cyclic3)
    with pytest.raises(SpecFileError, match=re.escape(repr(token))):
        parse_sequence(sequence, spec.class_set, labels)
    for command in ("factor", "lengths"):
        assert main([command, "--spec", cyclic3, "--sequence", sequence, "--machine"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and repr(token) in captured.err


def test_exit_code_non_zero_sum(cyclic3, capsys):
    assert main(["factor", "--spec", cyclic3, "--sequence", "g"]) == 2


def test_exit_code_budget(signed_basis, capsys):
    assert main(["factor", "--spec", signed_basis,
                 "--sequence", "1,1,1,1,1,1", "--budget", "2"]) == 3


def test_exit_code_budget_lengths(cyclic3, capsys):
    assert main(["lengths", "--spec", cyclic3, "--sequence", "g^30", "--budget", "1"]) == 3
    # atom enumeration fits in 100 nodes, the length table of g^3000 does not
    assert main(["lengths", "--spec", cyclic3, "--sequence", "g^3000", "--budget", "100"]) == 3
    assert "length table" in capsys.readouterr().err


def test_exit_code_budget_factor(cyclic3, capsys):
    # atom enumeration fits in 10 nodes, the factorization table of
    # g^30 (2g)^30 does not
    assert main(["factor", "--spec", cyclic3, "--sequence", "g^30,2g^30",
                 "--budget", "10"]) == 3
    assert "factorization table exceeded 10 nodes" in capsys.readouterr().err
    assert main(["atoms", "--spec", cyclic3, "--budget", "10"]) == 0


def test_exit_code_budget_classify(signed_basis, capsys):
    # the absirred-nonprime search runs first; its sixth family has size 3
    assert main(["classify", "--spec", signed_basis, "--bound", "3", "--budget", "5"]) == 3
    assert ("absirred-nonprime search exceeded 5 families at size 3"
            in capsys.readouterr().err)


def test_spec_round_trip(signed_basis, capsys):
    spec, labels = load_spec(signed_basis)
    reparsed, labels2 = parse_spec_dict(spec_to_dict(spec, labels))
    assert labels == labels2
    assert reparsed.class_set == spec.class_set
    assert reparsed.mult == spec.mult
    # the machine report echoes the canonical spec dict
    _, out = run_cli(capsys, "atoms", "--spec", signed_basis, "--machine")
    echoed = json.loads(out)["inputs"]["spec"]
    respec, _ = parse_spec_dict(echoed)
    assert respec.class_set == spec.class_set


def test_spec_parsing_reduces_and_validates():
    spec, _ = parse_spec_dict({
        "group": {"free_rank": 0, "torsion": [3]},
        "classes": [[4], [2]],
    })
    assert [g.coords() for g in spec.class_set.classes] == [(1,), (2,)]
    assert spec.mult == (1, 1)
    with pytest.raises(SpecFileError):
        parse_spec_dict({"group": {"free_rank": 0, "torsion": [3]},
                         "classes": [[1], [2]], "mult": [1, 0]})
    with pytest.raises(SpecFileError):
        parse_spec_dict({"group": {"free_rank": 0, "torsion": [3]},
                         "classes": [[1], [2]], "labels": ["a", "a"]})
    spec_inf, _ = parse_spec_dict({
        "group": {"free_rank": 0, "torsion": [2]},
        "classes": [[0], [1]],
        "mult": ["inf", 2],
    })
    assert spec_inf.capped_mult() == (2, 2)


def test_bundled_spec_files_parse(capsys):
    files = sorted(SPECS_DIR.glob("*.json"))
    assert files
    for path in files:
        spec, labels = load_spec(path)
        assert len(labels) == len(spec.class_set)
        code, _ = run_cli(capsys, "atoms", "--spec", str(path), "--machine")
        assert code == 0


def test_module_entry_point(cyclic3):
    result = subprocess.run(
        [sys.executable, "-m", "strongatoms.cli", "atoms", "--spec", cyclic3,
         "--machine"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["results"]["count"] == 3


@pytest.mark.parametrize("machine", [True, False])
def test_closed_stdout_exits_internal_without_traceback(tmp_path, machine):
    # a reader that stops early (| head -c 10): the 130 KB factor report
    # outgrows the pipe's buffer, so the write fails with a broken pipe
    spec = tmp_path / "z5.json"
    spec.write_text(json.dumps({"group": {"free_rank": 0, "torsion": [5]},
                                "classes": [[1], [2], [3], [4]],
                                "labels": ["g", "2g", "3g", "4g"], "mult": [1] * 4}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "strongatoms.cli", "factor", "--spec", str(spec),
         "--sequence", "10,10,10,10", *(["--machine"] if machine else [])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_INTERNAL
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("internal error:")


# ---------------------------------------------------------------------------
# the shared parser

def _fresh_run(capsys, argv):
    """Machine stdout and exit code of ``argv`` on a newly built parser."""
    build_parser.cache_clear()
    return run_cli(capsys, *argv)


@pytest.mark.parametrize("first, second", [
    (["absirred", "--nmax", "3"], ["absirred"]),
    (["factor", "--sequence", "g^3", "--budget", "5"], ["factor", "--sequence", "g^3"]),
])
def test_shared_parser_keeps_no_state(cyclic3, capsys, first, second):
    first = [first[0], "--spec", cyclic3, "--machine", *first[1:]]
    second = [second[0], "--spec", cyclic3, "--machine", *second[1:]]
    expected = _fresh_run(capsys, second)
    run_cli(capsys, *first)
    assert run_cli(capsys, *second) == expected
    assert build_parser().parse_args(second) == build_parser.__wrapped__().parse_args(second)
    options = json.loads(expected[1])["inputs"]["options"]
    if second[0] == "absirred":
        assert options["nmax"] is None
    else:
        assert options["budget"] == 10**7


def test_shared_parser_after_usage_error(cyclic3, capsys):
    argv = ["atoms", "--spec", cyclic3, "--machine"]
    expected = _fresh_run(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        main(["atoms", "--spec", cyclic3, "--no-such-flag"])
    assert exc.value.code == 2
    assert run_cli(capsys, *argv) == expected
    assert build_parser() is build_parser()
    assert build_parser().parse_args(argv).command == "atoms"


# machine-report encoding


def assert_stdlib_encoded(out):
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


BUNDLED_SPECS = sorted(SPECS_DIR.glob("*.json"))


def product_of_atoms(path, capsys):
    """The exponent vector of the product of all atoms of a spec, as the CLI
    lists them."""
    code, out = run_cli(capsys, "atoms", "--spec", str(path), "--machine")
    assert code == 0
    atoms = json.loads(out)["results"]["atoms"]
    return ",".join(str(sum(col)) for col in zip(*(a["exponents"] for a in atoms)))


def bundled_machine_reports(path, capsys):
    """The machine report of every spec command on ``path``; factor and
    lengths run on the product of all atoms."""
    seq = product_of_atoms(path, capsys)
    reports = []
    for argv in (["atoms"], ["factor", "--sequence", seq], ["lengths", "--sequence", seq],
                 ["absirred", "--nmax", "3"], ["classify"]):
        code, out = run_cli(capsys, argv[0], "--spec", str(path), "--machine", *argv[1:])
        assert code == 0
        reports.append(out)
    return reports


@pytest.mark.parametrize("path", BUNDLED_SPECS, ids=lambda p: p.stem)
def test_one_atom_absirred_rows_match_the_all_atoms_report(path, capsys):
    # every atom's one-atom report holds exactly its row of the all-atoms one
    code, out = run_cli(capsys, "absirred", "--spec", str(path), "--nmax", "3", "--machine")
    assert code == 0
    rows = json.loads(out)["results"]["atoms"]
    assert rows
    for row in rows:
        code, out = run_cli(capsys, "absirred", "--spec", str(path), "--nmax", "3",
                            "--sequence", ",".join(map(str, row["exponents"])), "--machine")
        assert code == 0
        assert json.loads(out)["results"]["atoms"] == [row]


@pytest.mark.parametrize("path", BUNDLED_SPECS, ids=lambda p: p.stem)
def test_machine_reports_equal_stdlib_encoding(path, capsys):
    for out in bundled_machine_reports(path, capsys):
        assert_stdlib_encoded(out)
        assert out.isascii() and out.count("\n") == 1


def test_verify_report_equals_stdlib_encoding(capsys):
    assert_stdlib_encoded(run_cli(capsys, "verify", "--machine")[1])


def _no_float(text):
    raise AssertionError(f"float {text} in a machine report")


def parse_without_floats(out):
    return json.loads(out, parse_float=_no_float, parse_constant=_no_float)


@pytest.mark.parametrize("path", [*BUNDLED_SPECS, None],
                         ids=lambda p: "verify" if p is None else p.stem)
def test_machine_reports_hold_no_floats(path, capsys):
    # arithmetic is exact: fractions travel as strings, never as JSON numbers
    reports = ([run_cli(capsys, "verify", "--machine")[1]] if path is None
               else bundled_machine_reports(path, capsys))
    for out in reports:
        assert parse_without_floats(out)["status"] == "ok"
    with pytest.raises(AssertionError):
        parse_without_floats('{"x": 1.5}')


# ---------------------------------------------------------------------------
# factor reports against the factorization search and the version-1 display rule


def v1_factorization_display(atom_exponents, atom_indices, labels):
    """A factorization row's ``display`` in report version 1, from the atoms'
    exponent vectors."""
    def display(exponents):
        parts = [labels[i] if e == 1 else f"{labels[i]}^{e}"
                 for i, e in enumerate(exponents) if e]
        return " ".join(parts) if parts else "1"
    return " * ".join(f"({display(atom_exponents[i])})" for i in atom_indices) or "1"


def check_factor_report(path, seq_text):
    """The machine report of ``factor`` lists the search's factorizations in
    its order, in stdlib JSON encoding; the human report prints them with the
    version-1 display rule.  Returns the machine report."""
    spec, labels = load_spec(path)
    seq = parse_sequence(seq_text, spec.class_set, labels)
    atoms = zsm.enumerate_atoms(spec.class_set)
    facs = next_index_vector_factorizations(seq.exponents, [a.exponents for a in atoms])
    code, machine = run_redirected("factor", "--spec", str(path), "--sequence", seq_text,
                                   "--machine")
    assert code == 0
    assert_stdlib_encoded(machine)
    report = json.loads(machine)
    assert (report["command"], report["report_version"], report["status"]) == ("factor", 3, "ok")
    results = report["results"]
    assert set(results) == {"sequence", "atoms", "factorizations", "count", "lengths",
                            "elasticity"}
    assert [f["atom_indices"] for f in results["factorizations"]] == [
        list(f) for f in facs]
    assert all(set(f) == {"atom_indices"} for f in results["factorizations"])
    assert results["count"] == len(facs)
    assert results["lengths"] == sorted({len(f) for f in facs})
    assert results["elasticity"] == str(zsm.length_set_elasticity(len(f) for f in facs))
    assert results["atoms"] == [{"exponents": list(a.exponents)} for a in atoms]
    assert results["sequence"] == {"exponents": list(seq.exponents)}

    code, out = run_redirected("factor", "--spec", str(path), "--sequence", seq_text)
    assert code == 0
    lines = human_lines(out)
    assert lines[:2] == ["command: factor",
                         f"{len(facs)} factorizations of {_display(seq.exponents, labels)}"]
    exponents = [a["exponents"] for a in results["atoms"]]
    assert lines[2:-1] == [
        "  " + v1_factorization_display(exponents, f["atom_indices"], labels)
        for f in results["factorizations"]]
    assert lines[-1] == f"lengths: {results['lengths']}  elasticity: {results['elasticity']}"
    return machine


# SHA-256 of the machine report of ``factor``: on each bundled spec for the
# product of all its atoms, and on B(Z/n minus 0) for each benchmark target
FACTOR_REPORT_SHA256 = {
    "cyclic3_full": "038d328b6195bc045629a2a792be9441f040182bb3e36e26c5a47b90714120bf",
    "integers_three_classes": "bcdd0ecd1034b841e9b15312c761ba4d6931ba56f2b5b2bedf44bd7181d85f5e",
    "signed_basis_n2": "28a6119f684d4613d99194500b07ead433a01272f439f8147e1f2046ab448c3f",
    "signed_basis_n2_with_zero":
        "ee5aaaf6435e90a0303ed08d33c3ea4e112e0893dbc5eddee684be0351d925e9",
    "two_classes_one_doubled": "20a02e3a0be716eee78fc17941e2a816ea538b5c75b23317d422c9e28e5a2daa",
    (4, (16, 16, 16)): "0250ce2d05def470b40f76fe5ed730a5198edc933d9a744d5bb5575ba6beeeed",
    (5, (10, 10, 10, 10)): "e72667a245710b5a990304baa03b7fc06b24876f5c45d849146edc713a05c5d7",
    (5, (8, 8, 8, 8)): "265216af874b47806ea62843c2721702da6eb123cb0e5ed62d1269c38c2e097b",
    (5, (10, 9, 10, 8)): "634353895c47be4d3506d9340ea07520e6a4152d0c81bac8342e794ab427dd05",
    (6, (6, 6, 6, 6, 6)): "5d263a2dd88e7b1ae85592cd7be2c86d989356791ecf69d7e42c3f24782bcd89",
    (6, (5, 6, 4, 6, 5)): "8dba281f20b999eb700e6a00fe4eaf847b911f40295aa703fcde2aa524bae0c9",
    (6, (6, 5, 6, 5, 6)): "04d6d608d225a011b70b51b220354b02c146e8946dbdcb217c69f9537ae93feb",
    (7, (4, 4, 4, 4, 4, 4)): "66e3f092298c1fadabb41e8aa85e4df07d545bbc7a96ef7057b860c7f9b07953",
    (7, (3, 4, 3, 4, 3, 2)): "717218d914c9af3ea6e685096b1f77089633025b77a775a7173d46b125b7571f",
    (7, (3, 3, 3, 3, 3, 3)): "7d7ac1802b841e715e8a7620959f98ff670b255a3e732d268ae1db858f9b1e89",
}


def check_factor_report_bytes(path, seq_text, key):
    machine = check_factor_report(path, seq_text)
    assert hashlib.sha256(machine.encode()).hexdigest() == FACTOR_REPORT_SHA256[key]


@pytest.mark.parametrize("path", BUNDLED_SPECS, ids=lambda p: p.stem)
def test_factor_report_matches_search_and_v1_display(path, capsys):
    check_factor_report_bytes(path, product_of_atoms(path, capsys), path.stem)


@pytest.mark.parametrize("n, target", B_ZN_FACTOR_TARGETS)
def test_factor_report_on_benchmark_targets(tmp_path, n, target):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"group": {"free_rank": 0, "torsion": [n]},
                                "classes": [[k] for k in range(1, n)]}))
    check_factor_report_bytes(path, ",".join(map(str, target)), (n, target))


def signed_basis_classes(n):
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    return basis + [[-x for x in b] for b in basis] + [[1] * n, [-1] * n]


# the specs of ``ATOMS_REPORT_SHA256`` other than the bundled ``cyclic3_full``
ATOMS_REPORT_SPECS = {
    "C2^4 minus 0": {"group": {"free_rank": 0, "torsion": [2, 2, 2, 2]},
                     "classes": [list(c) for c in itertools.product(range(2), repeat=4)
                                 if any(c)]},
    "Z/12 minus 0": {"group": {"free_rank": 0, "torsion": [12]},
                     "classes": [[k] for k in range(1, 12)]},
    "Z/16 seven classes": {"group": {"free_rank": 0, "torsion": [16]},
                           "classes": [[1], [3], [4], [6], [9], [12], [14]]},
    "signed basis n=6": {"group": {"free_rank": 6, "torsion": []},
                         "classes": signed_basis_classes(6)},
}

# SHA-256 of the machine report of ``atoms``: four class sets searched for
# zero-sum-free sequences and one by the completion search
ATOMS_REPORT_SHA256 = {
    "C2^4 minus 0": "059169d3dde53ddab0d81f3a9393903e5ce4ee00e58e3816137554b195b3fbdf",
    "Z/12 minus 0": "c14928839b14820d97cf759b6f307c9e5a4ffaa7f50da1676cea230482b7cb82",
    "Z/16 seven classes": "b96bd1c0762f427d8c8dca4c1fe25a80776dbf37da0087eab8cedb08116bb669",
    "signed basis n=6": "a4acf48cbdff40bb73c7a30bb289ef120bb1f9b9b8622f7a19aaadbe7e71d122",
    "cyclic3_full": "65eeeb7266c557e070903bd18ff840284b2e5fecf8551b93f0bb9d7b9b271546",
}


@pytest.mark.parametrize("key", ATOMS_REPORT_SHA256)
def test_atoms_report_bytes(tmp_path, key):
    path = SPECS_DIR / f"{key}.json"
    if key in ATOMS_REPORT_SPECS:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(ATOMS_REPORT_SPECS[key]))
    code, machine = run_redirected("atoms", "--spec", str(path), "--machine")
    assert code == 0
    assert_stdlib_encoded(machine)
    assert hashlib.sha256(machine.encode()).hexdigest() == ATOMS_REPORT_SHA256[key]


@pytest.mark.parametrize("name", ["cyclic3_full", "two_classes_one_doubled"])
@settings(max_examples=40)
@given(multiplicities=st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_factor_report_matches_search_on_generated_sequences(name, multiplicities):
    # zero-sum sequences as products of atoms, with up to 4 copies of each
    # (the doubled spec has two atoms; zip drops the third multiplicity)
    path = SPECS_DIR / f"{name}.json"
    spec, _ = load_spec(path)
    atoms = zsm.enumerate_atoms(spec.class_set)
    exps = [sum(m * a.exponents[i] for m, a in zip(multiplicities, atoms))
            for i in range(len(spec.class_set))]
    check_factor_report(path, ",".join(map(str, exps)))


FACTOR_REPORT_GROUPS = (
    FinGenAbelianGroup(0, (2,)), FinGenAbelianGroup(0, (5,)), FinGenAbelianGroup(0, (6,)),
    FinGenAbelianGroup(0, (2, 2)), FinGenAbelianGroup(0, (2, 4)),
    FinGenAbelianGroup(1, ()), FinGenAbelianGroup(2, ()), FinGenAbelianGroup(1, (2,)))


@st.composite
def specs_with_zero_sums(draw):
    """(spec, exponent vector): 2-5 distinct classes of a finite group, or of
    Z, Z^2 or Z + Z/2 with free coordinates in [-2, 2], and a product of 2-4
    atom powers with exponents 1-4 (the empty sequence when there is no
    atom)."""
    group = draw(st.sampled_from(FACTOR_REPORT_GROUPS))
    coords = st.tuples(*(st.integers(-2, 2) for _ in range(group.free_rank)),
                       *(st.integers(0, d - 1) for d in group.torsion))
    classes = draw(st.lists(coords, min_size=2, max_size=5, unique=True))
    class_set = zsm.ClassSet(group, tuple(map(group.element, classes)))
    atoms = zsm.enumerate_atoms(class_set)
    powers = (draw(st.lists(st.tuples(st.integers(0, len(atoms) - 1), st.integers(1, 4)),
                            min_size=2, max_size=4)) if len(atoms) else [])
    exps = [sum(k * atoms[i].exponents[c] for i, k in powers) for c in range(len(classes))]
    spec = {"group": {"free_rank": group.free_rank, "torsion": list(group.torsion)},
            "classes": [list(c) for c in classes]}
    return spec, ",".join(map(str, exps))


@settings(max_examples=300)
@given(case=specs_with_zero_sums())
def test_factor_report_matches_search_on_generated_class_sets(tmp_path_factory, case):
    spec, sequence = case
    path = tmp_path_factory.getbasetemp() / "factor_report_spec.json"
    path.write_text(json.dumps(spec))
    check_factor_report(path, sequence)


def test_factor_budget_on_a_benchmark_target(tmp_path, capsys):
    # 414 is the least budget of the factorization table on this target
    # (tests/test_zsm.py); the atom search needs fewer nodes
    path = tmp_path / "spec.json"
    path.write_text('{"group": {"free_rank": 0, "torsion": [4]}, "classes": [[1], [2], [3]]}')
    argv = ["factor", "--spec", str(path), "--sequence", "16,16,16", "--machine"]
    assert main(argv + ["--budget", "413"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: factorization table exceeded 413 nodes\n"
    assert main(argv + ["--budget", "414"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["count"] == 85


def human_lines(out):
    """The printed lines of a human-mode run, less the final timing line."""
    *lines, elapsed = out.splitlines()
    assert re.fullmatch(r"elapsed: \d+\.\d{3}s", elapsed)
    return lines


def test_factor_human_output(signed_basis, capsys):
    code, out = run_cli(capsys, "factor", "--spec", signed_basis,
                        "--sequence", "e1,e2,-f,-e1,-e2,f")
    assert code == 0
    assert human_lines(out) == [
        "command: factor",
        "2 factorizations of e1 e2 -e1 -e2 f -f",
        "  (f -f) * (e2 -e2) * (e1 -e1)",
        "  (-e1 -e2 f) * (e1 e2 -f)",
        "lengths: [2, 3]  elasticity: 3/2",
    ]


@pytest.mark.parametrize("sequence, expected", [
    ("g^6,2g^6", [
        "3 factorizations of g^6 2g^6",
        "  (2g^3) * (2g^3) * (g^3) * (g^3)",
        "  (2g^3) * (g 2g) * (g 2g) * (g 2g) * (g^3)",
        "  (g 2g) * (g 2g) * (g 2g) * (g 2g) * (g 2g) * (g 2g)",
        "lengths: [4, 5, 6]  elasticity: 3/2",
    ]),
    ("0,0", ["1 factorizations of 1", "  1", "lengths: [0]  elasticity: 1"]),
])
def test_factor_human_output_cyclic3(cyclic3, capsys, sequence, expected):
    # lines printed by the report-version-1 CLI; rebuilding rows from
    # results["atoms"] must print them unchanged
    code, out = run_cli(capsys, "factor", "--spec", cyclic3, "--sequence", sequence)
    assert code == 0
    assert human_lines(out) == ["command: factor", *expected]


def test_lengths_human_output(signed_basis, capsys):
    code, out = run_cli(capsys, "lengths", "--spec", signed_basis,
                        "--sequence", "e1,e2,-f,-e1,-e2,f")
    assert code == 0
    assert human_lines(out) == ["command: lengths", "lengths: [2, 3]  elasticity: 3/2"]


def test_atoms_human_output(cyclic3, capsys):
    # lines printed by the report-version-2 CLI from each row's display and
    # length; version 3 derives both from the exponents and the spec labels
    code, out = run_cli(capsys, "atoms", "--spec", cyclic3)
    assert code == 0
    assert human_lines(out) == [
        "command: atoms",
        "3 atoms",
        "  [0] 2g^3                           length 3   absolutely irreducible",
        "  [1] g 2g                           length 2   NOT absolutely irreducible",
        "  [2] g^3                            length 3   absolutely irreducible",
    ]


def test_absirred_human_output(cyclic3, capsys):
    code, out = run_cli(capsys, "absirred", "--spec", cyclic3)
    assert code == 0
    assert human_lines(out) == [
        "command: absirred",
        "  2g^3                           absolutely irreducible: True",
        "  g 2g                           absolutely irreducible: False",
        "      witness: n=3 indices [0, 2]",
        "  g^3                            absolutely irreducible: True",
    ]


def test_verify_human_output(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert human_lines(out) == [
        "command: verify",
        "  PASS signed-basis-n2-atoms: 5 atoms, all absolutely irreducible: True",
        "  PASS signed-basis-n2-length-set: L(UV) = [2, 3], elasticity 3/2",
        "  PASS signed-basis-n3-atoms: 6 atoms, all absolutely irreducible: True",
        "  PASS signed-basis-n3-length-set: L(UV) = [2, 4], elasticity 2",
        "  PASS signed-basis-n4-atoms: 7 atoms, all absolutely irreducible: True",
        "  PASS signed-basis-n4-length-set: L(UV) = [2, 5], elasticity 5/2",
        "  PASS scenario-row-no-prime-spec: row (-,+,-)",
        "  PASS scenario-row-with-prime-spec: row (-,+,+)",
        "  PASS all-absirred-iff-order-le-2: verified through order 10",
        "  PASS two-divisor-class-forces-nonabsirred: row (+,+,+), witness a=(2, 0) b=(1, 1)",
        "  PASS factorial-spec-row: row (-,-,+)",
        "  PASS infinite-order-three-class-set: atoms [(0, 3, 2), (1, 1, 1), (3, 0, 1)], "
        "L(SS') = [2, 3]",
        "  PASS interval-monoid-witnesses-2-6: all atoms have verified witnesses",
        "  PASS interval-monoid-1-factorial: unique factorization up to 30",
        "  PASS intz-nonabsirred-cubic-over-2: f^2 splits into two integer-valued cofactors, "
        "neither associated to f",
        "  PASS intz-constant-2-nonprime: 2 | x(x-1), 2 divides neither factor",
        "  PASS intz-no-prime-witness-x-2: all four clauses hold",
        "  PASS intz-no-prime-witness-x2p1-5: all four clauses hold",
        "  PASS vp-of-p-squared-factorial: v_p(p^2!) = p+1 for p in {2,3,5}",
        "  PASS rp-2-absirred-candidate-nonprime: f in R(p), f divides the residue product, "
        "no linear factor",
        "  PASS rp-2-nonabsirred-square-splits: f^2 = c1*c2 inside R(p), "
        "essentially different from f*f",
        "  PASS rp-3-absirred-candidate-nonprime: f in R(p), f divides the residue product, "
        "no linear factor",
        "  PASS rp-3-nonabsirred-square-splits: f^2 = c1*c2 inside R(p), "
        "essentially different from f*f",
        "  PASS quadratic-d-minus-14: no norm-2 elements, 2 absolutely irreducible to n=3, "
        "sqrt(d) witness at n=2, 11 inert",
        "  PASS quadratic-d-minus-5-half-factorial: equal length sets for all norms <= 200",
        "  PASS quadratic-scenario-consistency: row (+,+,+)",
        "26 passed, 0 failed",
    ]
