"""Every name a package module imports is used, exported or marked `# noqa`
with the repo file that reads it, every name in a module's `__all__` is bound
in that module, every private module- or class-level name is used somewhere
in the package, README names every name the package exports, and README's
Library examples run."""

import ast
import re
from pathlib import Path

import pytest

import simscan

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "simscan"


def exports(tree: ast.Module) -> set[str]:
    """The names in the module's `__all__`; none without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = exports(tree)
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nloads\n"
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]


# A repo path in a comment: a file name with an extension, maybe under directories.
REPO_PATH = re.compile(r"[\w.-]+(?:/[\w.-]+)*\.\w+")


def unread_noqa_imports(source: str, root: Path) -> list[str]:
    """`# noqa` imports whose comment names no repo file, names a missing one,
    or names files none of which mentions an imported name.

    An import kept only for code outside the package says which file reads
    it, so that the check flags the import once that file stops reading it.
    """
    lines = source.splitlines()
    problems = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        line = lines[node.lineno - 1]
        if "# noqa" not in line:
            continue
        paths = REPO_PATH.findall(line[line.index("# noqa") :])
        if not paths:
            problems.append(f"line {node.lineno}: names no file")
            continue
        missing = [path for path in paths if not (root / path).is_file()]
        problems += [f"line {node.lineno}: no file {path}" for path in missing]
        if missing:
            continue
        text = "\n".join((root / path).read_text(encoding="utf-8") for path in paths)
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if not re.search(rf"\b{re.escape(name)}\b", text):
                problems.append(f"line {node.lineno}: {' '.join(paths)} never names {name}")
    return problems


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_noqa_imports_name_their_reader(path):
    assert unread_noqa_imports(path.read_text(encoding="utf-8"), ROOT) == []


def test_check_flags_a_noqa_import_without_its_reader(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("from m import kept\nkept()\n", encoding="utf-8")
    source = (
        "import os  # noqa: F401\n"
        "import sys  # noqa: F401  bench/gone.py reads it\n"
        "from m import kept, dropped  # noqa: F401  bench/run.py reads both\n"
        "from m import kept as kept  # noqa: F401  bench/run.py reads it\n"
        "import json\n"
    )
    assert unread_noqa_imports(source, tmp_path) == [
        "line 1: names no file",
        "line 2: no file bench/gone.py",
        "line 3: bench/run.py never names dropped",
    ]


def stale_exports(source: str) -> list[str]:
    """Names in `__all__` that no top-level definition, assignment or import binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    return sorted(exports(tree) - bound)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_stale_exports(path):
    assert stale_exports(path.read_text(encoding="utf-8")) == []


def test_check_flags_a_stale_export():
    source = (
        "import os\nfrom json import dumps as d\nX = 1\nY: int = 2\n"
        "def f():\n    gone = 3\nclass C:\n    pass\n"
        "__all__ = ['os', 'd', 'X', 'Y', 'f', 'C', 'gone', 'dumps']\n"
    )
    assert stale_exports(source) == ["dumps", "gone"]


def definitions(tree: ast.Module):
    """(name, node) for each module- or class-level definition or assignment."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                yield name, node


def references(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """(path, line, name) of every loaded name, attribute and import."""
    refs = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                refs.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                refs.append((path, node.lineno, node.name))
    return refs


# Private names that code outside the package calls, so no package code refers
# to them: argparse writes all its text through `ArgumentParser._print_message`,
# which `cli._ArgumentParser` overrides.
HOOKS = frozenset({"_print_message"})


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private names, `HOOKS` aside, that no code outside their own definition refers to."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    refs = references(trees)
    dead = []
    for path, tree in trees.items():
        for name, node in definitions(tree):
            if not name.startswith("_") or name.startswith("__") or name in HOOKS:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (p == path and line in own) for p, line, n in refs):
                dead.append(f"{path}:{node.lineno}: {name}")
    return dead


def test_no_dead_private_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert dead_private_names(sources) == []


def test_check_flags_a_dead_private_name():
    defining = (
        "def _used():\n    return 1\n"
        "def _recursive():\n    return _recursive()\n"
        "class C:\n    _attr = 1\n    def _method(self):\n        return self._attr\n"
        "_CONST = _used()\n"
        "_IMPORTED = 2\n"
        # argparse calls the hook; the other private method is still dead.
        "class P(argparse.ArgumentParser):\n"
        "    def _print_message(self, message, file=None):\n        pass\n"
        "    def _format(self):\n        pass\n"
    )
    importing = "from m import _IMPORTED\n"
    assert dead_private_names({"m.py": defining, "n.py": importing}) == [
        "m.py:3: _recursive",
        "m.py:9: _CONST",
        "m.py:7: _method",
        "m.py:14: _format",
    ]


def undocumented_public_names(init_source: str, readme: str) -> list[str]:
    """Names in `__init__.py`'s `__all__`, `__version__` aside, that README
    does not name as a whole word.  Use inside the package or by the benchmark
    does not count: a library caller learns a public name from README."""
    exported = exports(ast.parse(init_source)) - {"__version__"}
    return sorted(n for n in exported if not re.search(rf"\b{re.escape(n)}\b", readme))


def test_readme_names_every_public_name():
    init_source = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert undocumented_public_names(init_source, readme) == []


def test_check_flags_an_undocumented_public_name():
    init_source = (
        "from .m import used, documented, ghost\n"
        "__version__ = '1'\n"
        "__all__ = ['__version__', 'used', 'documented', 'ghost']\n"
    )
    readme = "Call `documented()`; `undocumented` is not `ghosted`.\n"
    # `used` is used inside the package and read by the benchmark, and still fails.
    assert undocumented_public_names(init_source, readme) == ["ghost", "used"]
    assert undocumented_public_names(init_source, readme + "`used(x)`\n") == ["ghost"]


def python_blocks(markdown: str) -> list[str]:
    """The bodies of the ```python blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```$", markdown, re.M | re.S)


def test_readme_library_examples_run(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("\n## Library\n")
    blocks = python_blocks(readme[start : readme.index("\n## ", start + 1)])
    assert blocks
    # One cue sentence serves as a document, a stopword list and a phrase list.
    for name in set(re.findall(r'"([\w.-]+\.txt)"', "".join(blocks))):
        (tmp_path / name).write_text("In conclusion, the players kick the ball.\n", "utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:  # later blocks use what earlier ones bind
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out
    imported = {
        alias.name
        for block in python_blocks(readme)
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "simscan"
        for alias in node.names
    }
    assert imported and imported <= set(simscan.__all__), imported - set(simscan.__all__)
