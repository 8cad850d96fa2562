"""The package's public surface: ``__all__``, the README library example and
config block, the names the benchmark traces, and what importing the CLI
loads."""

import ast
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import antkinetics
import antkinetics.cli  # noqa: F401  (loads every module the traced names live in)
from antkinetics.experiments import OPTIONAL_DEFAULTS, OPTIONAL_KEYS, _get
from antkinetics.params import MODEL_KEYS, parse_config_text

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in antkinetics.__all__ if not hasattr(antkinetics, name)]
    assert missing == []
    namespace = {}
    exec("from antkinetics import *", namespace)
    assert set(antkinetics.__all__) <= set(namespace)


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["root"].mu0 > 0.0


def test_readme_config_block_lists_every_accepted_key():
    """The README's ini block holds the model keys and every optional key."""
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    assert sorted(parse_config_text(blocks[0])) == sorted(MODEL_KEYS + OPTIONAL_KEYS)
    stated = dict(re.findall(r"^(\w+) .*\(default (\S+)\)$", blocks[0], re.MULTILINE))
    assert sorted(stated) == sorted(OPTIONAL_KEYS)
    for key, text in stated.items():
        assert _get({key: text}, key) == OPTIONAL_DEFAULTS[key], key


def test_config_keys_are_read_in_one_place():
    """The CLI holds no key list and reads no raw config value; only
    ``build_config`` parses an optional key."""
    package = pathlib.Path(antkinetics.__file__).parent
    cli_tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(cli_tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"OPTIONAL_KEYS", "MANIFEST_HEADER_KEYS", "load_config"}
    assert not [node for node in ast.walk(cli_tree)
                if isinstance(node, ast.Attribute) and node.attr == "mapping"]

    def calls_to_get(tree):
        return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "_get" for node in ast.walk(tree))

    everywhere = in_build_config = 0
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        everywhere += calls_to_get(tree)
        in_build_config += sum(calls_to_get(node) for node in ast.walk(tree)
                               if isinstance(node, ast.FunctionDef) and node.name == "build_config")
    assert everywhere == in_build_config > 0


def test_every_traced_name_resolves():
    """perfbench wraps each ``TARGETS`` entry and stops on a name that is gone."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for dotted_names in tracing.TARGETS.values():
        for dotted in (dotted_names,) if isinstance(dotted_names, str) else dotted_names:
            owner, attr = tracing._resolve(dotted)
            if not callable(getattr(owner, attr, None)):
                missing.append(dotted)
    assert missing == []


def test_cli_import_loads_neither_scipy_signal_nor_scipy_stats():
    """Checked in a fresh interpreter, so a transitive import shows too."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(antkinetics.__file__).parent.parent))
    probe = (
        "import sys, antkinetics.cli; "
        "print(sorted({'scipy.signal', 'scipy.stats'} & set(sys.modules)))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    assert loaded == "[]"


def _scipy_after(tmp_path, *command_lines):
    """Runs each command line through ``cli.main`` in a fresh interpreter on a
    16^3 config; returns the exit codes and the scipy modules then loaded."""
    config = tmp_path / "model.cfg"
    config.write_text(
        "sigma_x = 0.002\nsigma_theta = 0.25\nsigma_c = 0.05\ngamma = 1.0\nlambda = 1.0\n"
        "chi = 4.0\ntau = 0.0\ncoupling = elliptic\nn_x1 = 16\nn_x2 = 16\nn_theta = 16\n"
        "dt = 2e-3\n"
    )
    argvs = [line.split() + ["--config", str(config)] for line in command_lines]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(antkinetics.__file__).parent.parent))
    probe = (
        "import contextlib, io, json, sys, antkinetics.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [antkinetics.cli.main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
    )
    return json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout)


def test_simulate_and_growth_match_load_no_scipy(tmp_path):
    codes, modules = _scipy_after(
        tmp_path, "simulate --t-end 0.006", "growth-match --k 1 --t-end 0.01 --n-modes 16"
    )
    assert codes == [0, 0]
    assert modules == []


def test_root_finding_commands_load_no_scipy(tmp_path):
    """dispersion, scan and bump: starts solve by linstab's own Brent port."""
    codes, modules = _scipy_after(
        tmp_path, "dispersion --k 1", "scan --k-max 2 --n-modes 16",
        "simulate --t-end 0.006 --init bump:1.2",
    )
    assert codes == [0, 0, 0]
    assert modules == []
