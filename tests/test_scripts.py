"""Smoke runs of the experiment scripts at small sizes, each in its own interpreter,
and a guard that the package root exports what the README, scripts and gate import."""

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
