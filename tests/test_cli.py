"""End-to-end runs of every CLI subcommand against the fixture files."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from quiverlab.cli import main
from quiverlab.quiverfile import parse_quiver_file

from conftest import FIXTURES

A2 = str(FIXTURES / "a2.quiver")
D4 = str(FIXTURES / "d4.quiver")
FRAMED_A1 = str(FIXTURES / "affine_a1_framed.quiver")
FRAMED_D4 = str(FIXTURES / "affine_d4_framed.quiver")
MODULES = FIXTURES / "modules"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_basis(capsys):
    data = run_json(capsys, "basis", "--in", A2, "--cutoff", "3")
    assert data == {"cutoff": 3, "dimensions": [2, 2, 0, 0],
                    "finite_dimensional": True, "top_degree": 1}
    code, out = run(capsys, "basis", "--in", A2, "--cutoff", "3", "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "degree 0: 2", "degree 1: 2", "degree 2: 0", "degree 3: 0",
        "finite dimensional, top degree 1"]


def test_cocenter(capsys):
    data = run_json(capsys, "cocenter", "--in", A2, "--cutoff", "2")
    assert data == {"degree_dims": [2, 0, 0]}


def test_corner(capsys):
    data = run_json(capsys, "corner", "--in", FRAMED_A1, "--cutoff", "6")
    assert data["k_top_degree"] == 0
    assert data["degree_bound"] == 2
    assert [g["name"] for g in data["generators"]] == ["ι", "g1", "g2", "g3"]
    assert data["generators"][1] == {"name": "g1", "path": "a*.a", "degree": 2,
                                     "source": "0", "target": "0"}


def test_corner_present(capsys):
    data = run_json(capsys, "corner-present", "--in", FRAMED_A1, "--cutoff", "6")
    assert data["completeness"] == "truncated-at-6"
    weights = {a["name"]: a["weight"] for a in data["arrows"]}
    assert weights == {"ι": 1, "g1": 2, "g2": 2, "g3": 2}
    assert {a["name"]: a["ambient_path"] for a in data["arrows"]}["g2"] == "b*.a"
    # the text form is itself a parseable quiver file
    code, out = run(capsys, "corner-present", "--in", FRAMED_A1, "--cutoff", "6",
                    "--format", "text")
    assert code == 0
    qf = parse_quiver_file(out)
    assert [a.name for a in qf.quiver.arrows] == ["ι", "g1", "g2", "g3"]
    assert qf.weights == weights
    assert "# completeness: truncated-at-6" in out


def test_bimodule_gens(capsys):
    data = run_json(capsys, "bimodule-gens", "--in", FRAMED_A1, "--cutoff", "6")
    assert data["count"] == 4
    assert [g["name"] for g in data["generators"]] == ["e_0", "e_∞", "a", "b"]


def test_invariants(capsys):
    data = run_json(capsys, "invariants", "--in", A2)
    assert [g["expr"] for g in data["generators"]] == ["tr(a*.a)", "tr(a*.a.a*.a)"]
    assert data["variables"] == ["x_a_1_1", "x_a*_1_1"]


def test_rep_ideal_groebner_nilwitness_pipeline(capsys, tmp_path):
    data = run_json(capsys, "rep-ideal", "--in", A2)
    assert data["generators"] == ["-x_a_1_1*x_a*_1_1", "x_a_1_1*x_a*_1_1"]
    ideal_file = tmp_path / "ideal.json"
    ideal_file.write_text(json.dumps(data))
    gb = run_json(capsys, "groebner", "--in", str(ideal_file))
    assert gb["basis"] == ["x_a_1_1*x_a*_1_1"]
    wit = run_json(capsys, "nilwitness", "--in", str(ideal_file),
                   "--max-deg", "2", "--max-pow", "3")
    assert wit["witness"] is None   # the monomial ideal is radical
    # a groebner output document is itself a valid ideal input
    gb_file = tmp_path / "gb.json"
    gb_file.write_text(json.dumps(gb))
    wit2 = run_json(capsys, "nilwitness", "--in", str(gb_file),
                    "--max-deg", "2", "--max-pow", "3")
    assert wit2["witness"] is None


def test_nilwitness_finds_toy_witness(capsys, tmp_path):
    ideal_file = tmp_path / "sq.json"
    ideal_file.write_text(json.dumps(
        {"variables": ["x", "y"], "generators": ["x^2 + 2*x*y + y^2"]}))
    data = run_json(capsys, "nilwitness", "--in", str(ideal_file),
                    "--max-deg", "1", "--max-pow", "2")
    assert data["witness"] == {"element": "x + y", "power": 2}
    code, out = run(capsys, "nilwitness", "--in", str(ideal_file),
                    "--max-deg", "1", "--max-pow", "2", "--format", "text")
    assert code == 0 and "(x + y)^2" in out


def test_check_module(capsys, tmp_path):
    good = str(MODULES / "framed_a1_generated_1.json")
    data = run_json(capsys, "check-module", "--in", FRAMED_A1, "--module", good)
    assert data == {"valid": True, "residual_is_zero": [True, True]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": {"∞": 1, "0": 1, "1": 1},
                               "arrows": {"a": [["1"]], "a*": [["1"]]}}))
    data = run_json(capsys, "check-module", "--in", FRAMED_A1, "--module", str(bad))
    assert data["valid"] is False


def _corner_module_file(tmp_path):
    vh = tmp_path / "vh.json"
    vh.write_text(json.dumps({
        "dimension": {"∞": 1, "0": 1},
        "arrows": {"ι": [["1"]], "g1": [["0"]], "g2": [["0"]], "g3": [["0"]]},
    }))
    return str(vh)


def test_induce(capsys, tmp_path):
    data = run_json(capsys, "induce", "--in", FRAMED_A1, "--cutoff", "8",
                    "--module", _corner_module_file(tmp_path))
    assert data["dimension"] == {"∞": 1, "0": 1, "1": 2}
    assert data["arrows"]["ι"] == [["1"]]


def test_fingerprint(capsys, tmp_path):
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"dimension": {"1": 1, "2": 1},
                               "arrows": {"a": [["2"]], "a*": [["1/2"]]}}))
    data = run_json(capsys, "fingerprint", "--in", A2, "--module", str(mod),
                    "--cycle-bound", "2", "--path-bound", "2")
    assert data == {"generators": ["tr(a*.a)"], "fingerprint": ["1"]}


def test_stability(capsys):
    data = run_json(capsys, "stability", "--in", FRAMED_A1,
                    "--module", str(MODULES / "framed_a1_generated_1.json"))
    assert data == {"generated_by_framing": True}
    data = run_json(capsys, "stability", "--in", FRAMED_A1,
                    "--module", str(MODULES / "framed_a1_ungenerated_1.json"))
    assert data == {"generated_by_framing": False}


def test_stability_has_no_budget_option(capsys):
    # the closure always stops within the total dimension; a cut-off budget
    # could only turn a generated module into a wrong "not generated"
    with pytest.raises(SystemExit) as info:
        main(["stability", "--in", FRAMED_A1, "--budget", "1",
              "--module", str(MODULES / "framed_a1_generated_1.json")])
    assert info.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_stability_rejects_non_modules(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": {"∞": 1, "0": 1, "1": 1},
                               "arrows": {"a": [["1"]], "a*": [["1"]]}}))
    code, _ = run(capsys, "stability", "--in", FRAMED_A1, "--module", str(bad))
    assert code == 1


def test_delta(capsys):
    data = run_json(capsys, "delta", "--type", "D", "--rank", "4")
    assert data == {"delta": {"0": 1, "1": 1, "2": 2, "3": 1, "4": 1},
                    "delta_k": {"1": 1, "2": 2, "3": 1, "4": 1}}


def test_astar(capsys):
    data = run_json(capsys, "astar", "--in", FRAMED_A1)
    assert data["relations"] == ["-a*.a - b*.b", "a.a* + b.b*", "a*", "b*"]
    code, out = run(capsys, "astar", "--in", FRAMED_A1, "--format", "text")
    assert code == 0
    qf = parse_quiver_file(out)
    assert len(qf.relations) == 4


def test_acircledast(capsys):
    data = run_json(capsys, "acircledast", "--in", FRAMED_D4)
    assert [a["name"] for a in data["arrows"]] == ["a", "b", "b*", "c", "c*", "d", "d*"]
    assert {"name": "0", "tag": "F"} in data["vertices"]
    code, out = run(capsys, "acircledast", "--in", FRAMED_D4, "--format", "text")
    assert code == 0
    qf = parse_quiver_file(out)
    assert qf.quiver.tag("0") == "F"


def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_exit_code_domain_error(capsys):
    assert main(["basis", "--in", "/nonexistent.quiver", "--cutoff", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


_A2_DIMS = {"1": 1, "2": 1}

# (subcommand, kind of input, its content): each must exit 1 with `error:`
_MALFORMED_INPUTS = {
    "relation_zero_denominator": (
        "basis", "quiver", "vertex 1\nvertex 2\narrow a: 1 -> 2\nrelation 1/0*a\n"),
    "ideal_zero_denominator": (
        "groebner", "ideal", {"variables": ["x"], "generators": ["1/0*x"]}),
    "ideal_variables_not_a_list": (
        "groebner", "ideal", {"variables": 5, "generators": ["x"]}),
    "module_zero_denominator": (
        "check-module", "module", {"dimension": _A2_DIMS, "arrows": {"a": [["1/0"]]}}),
    "module_document_is_a_list": ("check-module", "module", [_A2_DIMS]),
    "module_dimension_not_a_number": (
        "check-module", "module", {"dimension": {"1": None, "2": 1}}),
    "module_arrows_not_an_object": (
        "check-module", "module", {"dimension": _A2_DIMS, "arrows": [[["1"]]]}),
    "module_matrix_not_rows": (
        "check-module", "module", {"dimension": _A2_DIMS, "arrows": {"a": [1]}}),
    "module_dimension_misses_a_vertex": (
        "check-module", "module", {"dimension": {"1": 1}}),
    "module_dimension_has_an_unknown_vertex": (
        "check-module", "module", {"dimension": {"1": 1, "2": 1, "9": 2}}),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_malformed_input_exits_1_without_a_traceback(case, tmp_path):
    command, kind, content = _MALFORMED_INPUTS[case]
    path = tmp_path / ("input.quiver" if kind == "quiver" else "input.json")
    path.write_text(content if kind == "quiver" else json.dumps(content))
    if kind == "module":
        argv = [command, "--in", A2, "--module", str(path)]
    else:
        argv = [command, "--in", str(path)] + (["--cutoff", "2"] if kind == "quiver" else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "quiverlab", *argv],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("dims, named", [
    ({"1": 1}, "missing: ['2']"),
    ({"1": 1, "2": 1, "9": 2}, "unknown: ['9']"),
    ({"1": 1, "9": 2}, "missing: ['2'], unknown: ['9']"),
])
def test_module_dimension_names_the_vertices(capsys, tmp_path, dims, named):
    mod = tmp_path / "m.json"
    # the matrix for a has the wrong shape too: vertices are checked first
    mod.write_text(json.dumps({"dimension": dims, "arrows": {"a": [[1, 2, 3]]}}))
    assert main(["check-module", "--in", A2, "--module", str(mod)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_exit_code_budget(capsys, tmp_path):
    ideal_file = tmp_path / "sq.json"
    ideal_file.write_text(json.dumps(
        {"variables": ["x", "y", "z"],
         "generators": ["x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y"]}))
    assert main(["groebner", "--in", str(ideal_file), "--max-steps", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exhausted:")
    assert main(["nilwitness", "--in", str(ideal_file),
                 "--max-deg", "2", "--max-pow", "2", "--max-ops", "1"]) == 3


@pytest.mark.parametrize("argv", [
    ["groebner", "--max-steps", "-3"],
    ["nilwitness", "--max-steps", "-1", "--max-deg", "2", "--max-pow", "2"],
    ["nilwitness", "--max-ops", "-5", "--max-deg", "2", "--max-pow", "2"],
    ["nilwitness", "--trials", "-1", "--max-deg", "2", "--max-pow", "2"],
])
def test_negative_budget_is_malformed_input(capsys, tmp_path, argv):
    ideal_file = tmp_path / "sq.json"
    ideal_file.write_text(json.dumps({"variables": ["x", "y"],
                                      "generators": ["x^2*y"]}))
    assert main([argv[0], "--in", str(ideal_file), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be nonnegative" in err


@pytest.mark.parametrize("generator,max_deg,max_pow,needed,witness", [
    ("x^2*y", 2, 3, 11, {"element": "x*y", "power": 2}),   # hit in phase 1
    ("x^2 - y^2", 2, 3, 618, None),                         # every phase runs out
])
def test_nilwitness_budget_cut_off(capsys, tmp_path, generator, max_deg, max_pow,
                                   needed, witness):
    # phase 1 takes standard monomials as their own normal forms but charges
    # each one, so the search needs exactly as many reductions as when it
    # reduced them
    ideal_file = tmp_path / "ideal.json"
    ideal_file.write_text(json.dumps({"variables": ["x", "y"], "generators": [generator]}))
    argv = ["nilwitness", "--in", str(ideal_file), "--max-deg", str(max_deg),
            "--max-pow", str(max_pow), "--max-ops"]
    assert main(argv + [str(needed - 1)]) == 3
    assert f"exceeded {needed - 1} reductions" in capsys.readouterr().err
    assert run_json(capsys, *argv, str(needed))["witness"] == witness


def test_zero_budgets_are_legal(capsys, tmp_path):
    ideal_file = tmp_path / "sq.json"
    ideal_file.write_text(json.dumps({"variables": ["x", "y"],
                                      "generators": ["x^2*y"]}))
    data = run_json(capsys, "groebner", "--in", str(ideal_file), "--max-steps", "0")
    assert data["basis"] == ["x^2*y"]
    data = run_json(capsys, "nilwitness", "--in", str(ideal_file), "--max-steps", "0",
                    "--trials", "0", "--max-deg", "2", "--max-pow", "2")
    assert data["witness"] == {"element": "x*y", "power": 2}
    assert main(["nilwitness", "--in", str(ideal_file), "--max-ops", "0",
                 "--max-deg", "2", "--max-pow", "2"]) == 3


@pytest.mark.parametrize("argv,named", [
    (["invariants", "--in", A2, "--cycle-bound", "-3"], "cycle_bound"),
    (["invariants", "--in", A2, "--cycle-bound", "2", "--path-bound", "-1"], "path_bound"),
    (["corner", "--in", FRAMED_A1, "--cutoff", "6", "--safety-bound", "-1"], "safety_bound"),
    (["induce", "--in", FRAMED_A1, "--cutoff", "8", "--budget", "-1"], "budget"),
])
def test_negative_bound_is_malformed_input(capsys, tmp_path, argv, named):
    if argv[0] == "induce":
        argv = argv + ["--module", _corner_module_file(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{named} must be nonnegative" in err


def test_cycle_bound_zero_gives_no_traces(capsys, tmp_path):
    loop = tmp_path / "loop.quiver"
    loop.write_text("vertex 0 K\narrow x: 0 -> 0\ndimension 0=2\n")
    data = run_json(capsys, "invariants", "--in", str(loop), "--cycle-bound", "0")
    assert data["generators"] == []
    data = run_json(capsys, "invariants", "--in", str(loop), "--cycle-bound", "1")
    assert [g["expr"] for g in data["generators"]] == ["tr(x)"]


def test_closed_pipe_exits_1_without_a_message(capsys, monkeypatch, tmp_path):
    """A reader that closes stdout early (``quiverlab ... | head``) gets no
    ``error:`` line, and stdout's descriptor is pointed at devnull so the
    flush at exit cannot fail again."""
    with open(tmp_path / "sink", "wb") as sink:
        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["delta", "--type", "A", "--rank", "2"]) == 1
        os.write(sink.fileno(), b"after")
    assert capsys.readouterr().err == ""
    assert (tmp_path / "sink").read_bytes() == b""


REPO = Path(__file__).resolve().parents[1]


def declared_scripts() -> dict:
    """The ``[project.scripts]`` table of ``pyproject.toml``."""
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:   # Python 3.10: read the table as plain text
        scripts, in_table = {}, False
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                in_table = line == "[project.scripts]"
            elif in_table and "=" in line:
                key, value = line.split("=", 1)
                scripts[key.strip()] = value.strip().strip('"')
        return scripts
    return tomllib.loads(text)["project"]["scripts"]


def check_cli_process(command, cwd, env=None):
    """Run the CLI as its own process: JSON on stdout, exit codes 0 and 1."""
    out = subprocess.run([*command, "delta", "--type", "A", "--rank", "2"],
                         capture_output=True, text=True, cwd=cwd, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"delta": {"0": 1, "1": 1, "2": 1},
                                      "delta_k": {"1": 1, "2": 1}}
    missing = str(cwd / "missing.quiver")
    out = subprocess.run([*command, "basis", "--in", missing, "--cutoff", "2"],
                         capture_output=True, text=True, cwd=cwd, env=env)
    assert out.returncode == 1
    assert out.stderr.startswith("error:")


def test_console_script_runs(tmp_path):
    # `python -m quiverlab` calls the function the console script declares
    assert declared_scripts()["quiverlab"] == "quiverlab.cli:main"
    # this checkout's src first, so neither the cwd nor another install counts
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    check_cli_process([sys.executable, "-m", "quiverlab"], tmp_path, env)


@pytest.mark.skipif(shutil.which("quiverlab") is None,
                    reason="no installed quiverlab executable on PATH")
def test_installed_console_script_runs(tmp_path):
    check_cli_process([shutil.which("quiverlab")], tmp_path)


_THIRD_PARTY_IMPORTS = """
import json, os, sys, sysconfig
before = set(sys.modules)
import quiverlab, quiverlab.cli
roots = {os.path.realpath(sysconfig.get_paths()[k]) for k in ("purelib", "platlib")}
def third_party(name):
    path = getattr(sys.modules[name], "__file__", None)
    return path and any(os.path.realpath(path).startswith(r + os.sep) for r in roots)
print(json.dumps({"package": os.path.realpath(quiverlab.__file__),
                  "third_party": sorted(filter(third_party, set(sys.modules) - before))}))
"""


def test_package_imports_only_the_standard_library(tmp_path):
    # quiverlab promises no runtime dependencies: importing it and its CLI
    # must load nothing from site-packages (sympy and hypothesis are for tests)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _THIRD_PARTY_IMPORTS],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert Path(report["package"]).parent == (REPO / "src" / "quiverlab").resolve()
    assert report["third_party"] == []
