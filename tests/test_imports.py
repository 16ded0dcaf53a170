"""Every name the project's code imports is used where it is imported, the package root
exports exactly the names its callers import from it, and the entry points that train
nothing load no training code."""

import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import dts_ssl

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts", "demos")


def unused_imports(source: str) -> list[str]:
    """Imported names that no ``Name`` node of the module reads or writes, with their
    lines. ``__future__`` imports and star imports bind nothing to check."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # package __init__ modules import names to re-export them
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
    assert len(files) > 20
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text()) for p in files}
    assert {path: names for path, names in found.items() if names} == {}


def test_finds_unused_names_only():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from a.b import c as d, e, f\n"
        "from g import *\n"
        "e.x(np.zeros(1))\n"
        "def h() -> f: ...\n"
    )
    assert unused_imports(source) == ["d (line 4)", "os (line 2)"]


def root_imports(source: str) -> set[str]:
    """Names a module imports with ``from dts_ssl import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "dts_ssl" and node.level == 0
            for alias in node.names}


def test_package_root_exports_what_callers_import():
    sources = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    imported = set().union(*map(root_imports, sources))
    # dir(), not vars(): the training entry points load on first use (the root's __getattr__)
    exported = {name for name in dir(dts_ssl)
                if not isinstance(getattr(dts_ssl, name), types.ModuleType)
                and (name == "__version__" or not name.startswith("_"))}
    assert imported | {"__version__"} == exported


# the modules that building a split or checking a config needs; the rest of the package trains
CONFIG_AND_DATA = {"dts_ssl", "dts_ssl.config", "dts_ssl.data", "dts_ssl.errors", "dts_ssl.numerics"}


def loaded_by(code: str) -> set[str]:
    """The ``dts_ssl`` modules and ``argparse`` that a fresh interpreter has loaded after ``code``."""
    probe = f"{code}\nimport sys\nprint(*(m for m in sys.modules if m.partition('.')[0] in ('dts_ssl', 'argparse')))"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_benchmark_split_loads_only_the_config_and_data_layers():
    loaded = loaded_by("from dts_ssl.benchmarks import benchmark_split\nbenchmark_split(0)")
    assert loaded == CONFIG_AND_DATA | {"dts_ssl.benchmarks"}


def test_config_verbs_load_no_training_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seeds": [0, 1]}))
    run_dir = tmp_path / "run-0" / "seed0"
    run_dir.mkdir(parents=True)
    (run_dir / "metrics.jsonl").write_text('{"phase": "iteration", "global_epoch": 0, "auroc": 0.5, '
                                           '"test_accuracy": 0.5}\n')
    manifest = tmp_path / "run-0" / "manifest.json"
    manifest.write_text(json.dumps({"config_hash": "0", "artifact_version": "0", "dataset_id": "0", "seeds": [0],
                                    "out_dir": str(run_dir.parent), "runs": [
                                        {"seed": 0, "status": "completed", "run_dir": str(run_dir),
                                         "accuracy": 0.5, "auroc": 0.5}]}))
    for argv in (["validate-config", "--config", str(config)], ["report", "--manifest", str(manifest)]):
        loaded = loaded_by(f"from dts_ssl.cli import main\nassert main({argv!r}) == 0")
        assert loaded == CONFIG_AND_DATA | {"dts_ssl.cli", "argparse"}, argv


def test_root_loads_the_training_entry_points_on_first_use():
    loaded = loaded_by("import sys, dts_ssl\n"
                       "assert 'dts_ssl.trainer' not in sys.modules and not hasattr(dts_ssl, 'no_such_name')\n"
                       "from dts_ssl import run_inference, run_training\n"
                       "assert run_training is dts_ssl.trainer.run_training\n"
                       "assert run_inference is dts_ssl.trainer.run_inference")
    assert "dts_ssl.trainer" in loaded


def dead_private_names(source: str) -> list[str]:
    """Module-level private names (a ``_function``, ``_Class`` or ``_CONSTANT``) that no
    ``Name`` or ``Attribute`` node of the module reads, with their lines."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        private = [name for name in targets if name.startswith("_") and not name.startswith("__")]
        defined.update((name, node.lineno) for name in private)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(f"{name} (line {line})" for name, line in defined.items() if name not in read)


def test_no_dead_private_names():
    files = sorted((ROOT / "src" / "dts_ssl").glob("*.py"))
    assert len(files) > 5
    found = {p.name: dead_private_names(p.read_text()) for p in files}
    assert {name: dead for name, dead in found.items() if dead} == {}


def test_finds_dead_private_names_only():
    source = (
        "_USED = 1\n"
        "_DEAD: int = 2\n"
        "_STORED = 3\n"
        "_STORED = 4\n"
        "__all__ = []\n"
        "PUBLIC = 5\n"
        "def _helper(): return _USED\n"
        "def _unused(): ...\n"
        "class _Thing: ...\n"
        "def f(x): return x._Thing, _helper()\n"
    )
    assert dead_private_names(source) == ["_DEAD (line 2)", "_STORED (line 4)", "_unused (line 8)"]
