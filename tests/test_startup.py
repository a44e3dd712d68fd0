"""Every subcommand in a fresh interpreter, and what importing costs.

In-process tests share one interpreter whose modules are already loaded, so
they cannot see a lazy import that is missing or one that loads too much.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import subprocess
import sys
import types

import pytest

import handlenu
from handlenu.catalog import lookup, solid_torus_trace
from handlenu.trace import canonical_dumps, dualize, trace_to_json

SRC = str(Path(handlenu.__file__).resolve().parent.parent)


def run_python(*args: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    files = {
        "lens": lookup("lens").traces[0][1],
        "first": solid_torus_trace(),
        "second": dualize(solid_torus_trace()),
    }
    for name, trace in files.items():
        (root / f"{name}.json").write_text(canonical_dumps(trace_to_json(trace)))
    (root / "glue.json").write_text(json.dumps({"pairs": [["h:2", "base:0"]]}))
    graph = {"boundary_counts": [3, 3], "interfaces": [{"i": 0, "j": 1, "count": 1}], "z": 4}
    (root / "graph.json").write_text(json.dumps(graph))
    return root


COMMANDS = {
    "compute": ["compute", "lens.json"],
    "search": ["search", "lens.json", "--json"],
    "compose": ["compose", "first.json", "second.json", "--glue", "glue.json", "--check"],
    "obstruct": ["obstruct", "graph.json"],
    "refute": ["refute", "--l", "1", "--z", "2", "--hmax", "5", "--hW", "11"],
    "catalog": ["catalog", "--verify"],
    "validate": ["validate", "lens.json"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_subcommand_runs_in_a_fresh_interpreter(inputs, argv):
    proc = run_python("-m", "handlenu.cli", *argv, cwd=inputs)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_a_usage_error_in_a_fresh_interpreter_prints_the_top_level_usage(inputs):
    proc = run_python("-m", "handlenu.cli", "compute", "lens.json", "--bogus", cwd=inputs)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(
        "usage: nu [-h] {compute,search,compose,obstruct,refute,catalog,validate} ...\n"
    )
    assert proc.stderr.endswith("nu: error: unrecognized arguments: --bogus\n")


def imported_modules(*args: str, cwd) -> set[str]:
    """The modules a fresh interpreter imports, read from ``-X importtime``."""
    proc = run_python("-X", "importtime", *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert len(lines) == len(proc.stderr.splitlines()), proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in lines}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_subcommand_loads_neither_dataclasses_nor_inspect(inputs, argv):
    bare = imported_modules("-c", "pass", cwd=inputs)
    loaded = imported_modules("-m", "handlenu.cli", *argv, cwd=inputs) - bare
    assert "handlenu.homology" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def loaded_after(code: str, cwd) -> list[str]:
    probe = code + "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('handlenu')))"
    proc = run_python("-c", probe, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1].replace("'", '"'))


def test_importing_the_package_loads_no_module(inputs):
    assert loaded_after("import handlenu", inputs) == ["handlenu"]
    assert loaded_after("from handlenu import Sphere", inputs) == [
        "handlenu", "handlenu.homology",
    ]


def test_every_exported_name_resolves():
    for name in handlenu.__all__:
        assert getattr(handlenu, name) is not None
    with pytest.raises(AttributeError):
        handlenu.no_such_name


def test_compute_loads_neither_the_obstruction_module_nor_fractions(inputs):
    code = (
        "from handlenu.cli import main\n"
        "assert main(['compute', 'lens.json', '--json']) == 0\n"
        "import sys\n"
        "assert 'fractions' not in sys.modules, 'fractions loaded'"
    )
    assert "handlenu.obstruction" not in loaded_after(code, inputs)


LAZY = ("nu", "union", "catalog")  # the modules cli registers and runs on first use

# The lazy modules each command leaves unrun.
UNRUN = {
    "compute": (["compute", "lens.json", "--json"], {"union", "catalog"}),
    "search": (["search", "lens.json", "--json"], {"union", "catalog"}),
    "compose": (COMMANDS["compose"], {"catalog"}),
    "validate": (["validate", "lens.json"], {"nu", "union", "catalog"}),
    "obstruct": (COMMANDS["obstruct"], {"nu", "union", "catalog"}),
    "refute": (COMMANDS["refute"], {"nu", "union", "catalog"}),
    "catalog": (["catalog", "--json"], {"nu", "union"}),
    "catalog-export": (["catalog", "--export", "lens"], {"nu", "union"}),
    "catalog-verify": (COMMANDS["catalog"], set()),
}


def unrun_after(argv: list[str], cwd) -> set[str]:
    """The lazy modules still unrun after ``main(argv)`` in a fresh interpreter.

    A lazy module is of a subclass of ``types.ModuleType`` until it runs;
    ``type()`` reads no attribute of the module, so it does not run it.
    """
    code = (
        "import contextlib, io, json, sys, types\n"
        "from handlenu.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        f"names = [n for n in {LAZY!r}\n"
        "         if type(sys.modules[f'handlenu.{n}']) is not types.ModuleType]\n"
        "print(json.dumps(names))"
    )
    proc = run_python("-c", code, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("argv, unrun", UNRUN.values(), ids=UNRUN.keys())
def test_subcommand_runs_only_the_modules_it_uses(inputs, argv, unrun):
    assert unrun_after(argv, inputs) == unrun


def test_a_module_imported_before_cli_is_the_one_cli_uses():
    import handlenu.cli

    for name in LAZY:
        module = sys.modules[f"handlenu.{name}"]
        assert handlenu._lazy(name) is module
        assert getattr(handlenu.cli, name) is module
    assert handlenu.catalog.nu is handlenu.cli.nu
    assert handlenu.catalog.union is handlenu.cli.union


@pytest.fixture
def registered_union(monkeypatch):
    """``handlenu.union`` as ``cli`` registers it in a fresh interpreter."""
    monkeypatch.delitem(sys.modules, "handlenu.union")
    monkeypatch.delattr(handlenu, "union")
    module = handlenu._lazy("union")
    assert type(module) is not types.ModuleType
    return module


def test_a_registered_module_imports_by_its_dotted_name(registered_union):
    import handlenu.union

    assert handlenu.union is registered_union
    assert callable(handlenu.union.compose)
    assert type(registered_union) is types.ModuleType


def test_vars_of_a_registered_module_runs_it(registered_union):
    # The benchmark tracer finds functions to wrap through vars().
    assert "compose" in vars(registered_union)
    assert type(registered_union) is types.ModuleType
