"""Smoke runs of the experiment scripts at small sizes, each in its own interpreter,
a guard that the package root exports what the README, scripts and gate import, and
a guard against dead imports and dead private functions in the package."""

import ast
import csv
import os
import subprocess
import sys
from pathlib import Path

import geoasian

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_recover_v(tmp_path):
    out = tmp_path / "quotes.csv"
    done = run_script("recover_v.py", ["--noise", "0", "--times", "0.1", "--out", str(out)], tmp_path)
    assert done.returncode == 0, done.stderr
    rows = read_csv(out)
    assert rows and set(rows[0]) == {"t", "T", "spot", "avg", "strike", "style", "implied_vol"}


def test_smile_study(tmp_path):
    out = tmp_path / "smile.csv"
    done = run_script("smile_study.py", ["--points", "5", "--out", str(out)], tmp_path)
    assert done.returncode == 0, done.stderr
    rows = read_csv(out)
    # 4 default v_eps values x 3 default times x 5 points
    assert len(rows) == 60
    assert all(row["implied_vol"] for row in rows)


def test_mc_convergence(tmp_path):
    args = ["--paths", "2000", "--steps", "10", "20", "--path-sweep", "1000", "2000",
            "--sweep-steps", "10"]
    done = run_script("mc_convergence.py", args, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "path sweep" in done.stdout


def readme_quick_start():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def names_imported_from_root(source):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "geoasian":
            names.update(alias.name for alias in node.names)
    return names


def test_package_root_exports_what_its_users_import():
    sources = [
        readme_quick_start(),
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"),
        *(path.read_text(encoding="utf-8") for path in sorted((ROOT / "scripts").glob("*.py"))),
    ]
    used = set().union(*map(names_imported_from_root, sources))
    assert used
    assert used <= set(geoasian.__all__), sorted(used - set(geoasian.__all__))
    assert len(set(geoasian.__all__)) == len(geoasian.__all__)
    for name in geoasian.__all__:
        assert getattr(geoasian, name, None) is not None, name


def test_readme_quick_start_prints_its_documented_line(tmp_path):
    code = readme_quick_start()
    documented = [line[2:] for line in code.splitlines() if line.startswith("# ")][-1]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == documented + "\n"


def package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "geoasian").glob("*.py"))}


def names_read(tree):
    """Every bare name and attribute name the module mentions, and the
    strings of its ``__all__``, which re-export what it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_every_package_module_uses_what_it_imports():
    unused = []
    for name, tree in package_trees().items():
        read = names_read(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_function_is_called_in_the_package():
    trees = package_trees()
    read = set().union(*map(names_read, trees.values()))
    dead = [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__") and node.name not in read]
    assert dead == []
