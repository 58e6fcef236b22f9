"""Smoke runs of the experiment scripts at small sizes, each in its own interpreter,
a guard that the package root exports what the README, scripts and gate import,
a guard against dead imports, dead private functions, unread input fields and
global statements in the package, a guard that the package reports bad input
through one error family, a guard that it reads no environment variable, and a
guard that the CLI reads every flag it takes."""

import argparse
import ast
import builtins
import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import geoasian
from geoasian import cli, errors

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
    """Every bare name and attribute name the module reads, not only binds,
    and the strings of its ``__all__``, which re-export what it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
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


def private_bindings(tree):
    """(line, name) of every private name a module binds at its top level by
    assignment or class statement."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield node.lineno, name.id


def test_every_private_module_name_is_read_in_the_package():
    """A private constant or class that nothing reads, such as a value kept
    for a caller that has since gone, is dead code like an uncalled function."""
    trees = package_trees()
    read = set().union(*map(names_read, trees.values()))
    dead = [f"{name}:{line} {bound}" for name, tree in trees.items()
            for line, bound in private_bindings(tree)
            if bound.startswith("_") and not bound.startswith("__") and bound not in read]
    assert dead == []


def test_every_input_field_is_read_in_the_package():
    """A field that no code reads, such as a model constant that cancels out
    of every formula, is a parameter a caller sets to no effect."""
    attributes = {node.attr for tree in package_trees().values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    records = (geoasian.ModelParams, geoasian.McConfig, geoasian.ConstantVol,
               geoasian.FullModel, geoasian.VolArc, geoasian.OptionSpec, geoasian.QuoteRow)
    unread = [f"{cls.__name__}.{field.name}" for cls in records
              for field in dataclasses.fields(cls) if field.name not in attributes]
    assert unread == []


def test_the_package_has_no_global_statement():
    """Module state that a function rebinds is shared by every caller and
    thread; a cache belongs in ``functools``, which the package bounds."""
    statements = [f"{name}:{node.lineno}" for name, tree in package_trees().items()
                  for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert statements == []


def exception_names(node):
    """The class names an ``except`` clause or a ``raise`` names directly."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in exception_names(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def is_builtin_exception(name):
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def test_the_library_raises_one_error_family():
    """No module raises a builtin exception class but the SystemExit of the
    two entry points, ``cli.py`` and ``__main__.py``; every class of
    ``errors`` is a PricingError, which is a ValueError, and no handler names
    both PricingError and ValueError."""
    trees = package_trees()
    builtin_raises = [
        f"{name}:{node.lineno} {exc}"
        for name, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None
        for exc in exception_names(node.exc) if is_builtin_exception(exc)
        and not (exc == "SystemExit" and name in ("cli.py", "__main__.py"))
    ]
    assert builtin_raises == []
    assert issubclass(errors.PricingError, ValueError)
    classes = [node.name for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)]
    strays = [name for name in classes
              if not issubclass(getattr(errors, name), errors.PricingError)]
    assert strays == []
    both = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type
        and {"PricingError", "ValueError"} <= exception_names(node.type)
    ]
    assert both == []


CACHES = {"cache", "lru_cache"}


def cache_references(tree):
    """(node, name) for every mention of functools.cache or functools.lru_cache."""
    modules, imported = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            imported.update((a.asname or a.name, a.name) for a in node.names if a.name in CACHES)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node, node.attr
        elif isinstance(node, ast.Name) and node.id in imported:
            yield node, imported[node.id]


def has_a_finite_maxsize(call):
    """An lru_cache(...) call whose maxsize is an integer literal."""
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int


def test_every_cache_in_the_package_is_bounded():
    """An unbounded cache would grow by one entry per distinct input, such as
    each contract of a book, so every functools cache names a finite integer
    maxsize: no ``cache``, no bare ``lru_cache`` and no ``maxsize=None``."""
    unbounded = []
    for name, tree in package_trees().items():
        calls = {node.func: node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node, cache in cache_references(tree):
            call = calls.get(node)
            if cache != "lru_cache" or call is None or not has_a_finite_maxsize(call):
                unbounded.append(f"{name}:{node.lineno} {cache}")
    assert unbounded == []


def member_lookups_in_bodies(tree, enums):
    """(line, text) of every ``Enum.MEMBER`` read in a function body; default
    argument values, read once at definition, are not bodies."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = func.body if isinstance(func.body, list) else [func.body]
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in enums):
                    yield node.lineno, f"{node.value.id}.{node.attr}"


def test_the_pricing_chain_makes_no_enum_member_lookups():
    """A member lookup such as ``OptionKind.CALL`` costs about 100 ns, and
    every price runs these two modules' bodies several times, so they read
    module-level aliases instead."""
    trees = package_trees()
    lookups = sorted({
        f"{name}:{line} {text}"
        for name in ("closedform.py", "perturbation.py")
        for line, text in member_lookups_in_bodies(trees[name], {"OptionKind", "StrikeStyle"})
    })
    assert lookups == []


def called_name(call):
    """The name a call calls, bare (``f()``) or as an attribute (``m.f()``)."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def is_frozen_dataclass(cls):
    """A class decorated ``@dataclass(frozen=True, ...)``."""
    return any(
        isinstance(dec, ast.Call) and called_name(dec) == "dataclass"
        and any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                for kw in dec.keywords)
        for dec in cls.decorator_list
    )


def calls_in_bodies(tree, classes):
    """(line, name) of every call of one of ``classes`` in a function body;
    module-level statements and default argument values run once, at import."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = func.body if isinstance(func.body, list) else [func.body]
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if isinstance(node, ast.Call) and called_name(node) in classes:
                    yield node.lineno, called_name(node)


def test_the_pricing_chain_builds_no_frozen_dataclass():
    """A frozen dataclass's ``__init__`` sets each field through
    ``object.__setattr__``, about 1 us per record, and every price runs these
    two modules' bodies, so the records they build are named tuples."""
    trees = package_trees()
    frozen = {node.name for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and is_frozen_dataclass(node)}
    assert "MarketState" in frozen
    built = sorted({
        f"{name}:{line} {cls}"
        for name in ("closedform.py", "perturbation.py")
        for line, cls in calls_in_bodies(trees[name], frozen)
    })
    assert built == []


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(node):
    """What a node reads of the process environment: ``os.environ``,
    ``os.getenv`` and their bytes forms, as attributes or imported by name."""
    if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS:
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names if alias.name in ENVIRONMENT_READS)


def test_the_package_reads_no_environment_variable():
    """The pool size, ``WORD_BUDGET``, ``STEP_TILE`` and every other setting
    of the package are constants or arguments, never knobs in the environment."""
    reads = sorted(
        f"{name}:{node.lineno} {read}"
        for name, tree in package_trees().items()
        for node in ast.walk(tree)
        for read in environment_reads(node)
    )
    assert reads == []


def test_every_cli_flag_is_read_by_name():
    """Each subcommand's flags are exactly those its run reads: every dest is
    read as ``args.<dest>`` in ``cli.py``, so a flag read only by reflection,
    or by nothing, cannot survive."""
    tree = ast.parse((ROOT / "src" / "geoasian" / "cli.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and isinstance(node.ctx, ast.Load)}
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = sorted(f"{name}: {action.dest}" for name, parser in sub.choices.items()
                    for action in parser._actions
                    if action.dest != "help" and action.dest not in read)
    assert unread == []
