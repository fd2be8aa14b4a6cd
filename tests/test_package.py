"""The top-level namespace exports what the demos and the suite use from it."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import sectorgraphs as sg

ROOT = Path(__file__).resolve().parents[1]


def _top_level_names(path: Path) -> set[str]:
    """Names a file takes from ``sectorgraphs`` itself: ``from sectorgraphs
    import x`` and ``sg.x`` after ``import sectorgraphs as sg``; submodules
    and dunder names are left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names: set[str] = set()
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "sectorgraphs":
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "sectorgraphs")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            names.add(node.attr)
    return {
        n
        for n in names
        if not n.startswith("__") and importlib.util.find_spec(f"sectorgraphs.{n}") is None
    }


def test_every_demo_import_is_exported():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        names = _top_level_names(path)
        assert names, path.name
        for name in names:
            assert name in sg.__all__, f"{path.name} imports {name}"
            assert getattr(sg, name) is not None


def test_suite_and_setup_probe_names_are_exported():
    used = set().union(*(_top_level_names(p) for p in sorted((ROOT / "tests").glob("*.py"))))
    # ``bench/run.py`` times ``import sectorgraphs`` plus a first ``predict``.
    used |= {"ModelParams", "predict", "radius_for_mean_degree"}
    assert used <= set(sg.__all__)


def test_all_resolves():
    assert len(set(sg.__all__)) == len(sg.__all__)
    for name in sg.__all__:
        assert getattr(sg, name) is not None
    assert isinstance(sg.__version__, str)


def test_setup_probe_loads_no_scipy_and_no_process_pool():
    # ``bench/run.py`` times its set-up code in a fresh interpreter; scipy
    # and the process pool are imported on use, so that code loads neither.
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    code = bench_run.SETUP_CODE + "; import sys; print(*sorted(sys.modules))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    modules = done.stdout.split()
    assert "sectorgraphs.theory" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
    assert "concurrent.futures.process" not in modules
