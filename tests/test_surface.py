"""The public surface of parahn stays pruned, and the engine stays exact.

Every public top-level function and class in src/parahn must be reached by
code in src/, bench/ or tools/ outside its own definition, or be named as
library API in the README's Library section.  A reference is a bare name or
an attribute of a parahn module (`hn.hn_filtration`) read in the syntax tree;
strings such as specio's "relative_slope" key do not count, and neither do
import lines, so an import that nothing uses keeps nothing alive.  Every
public method (or property) of a class in src/parahn must likewise be read
as an attribute (`F.row_scale`) somewhere in those directories, or be named
in the Library section.  No module of src/parahn reads the name `float`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "parahn"
CALLER_DIRS = ("src", "bench", "tools")
MODULES = {path.stem for path in SRC.glob("*.py")} | {"parahn"}


def code_names(source: str, defining: bool = False) -> set:
    """The names that the code of one file refers to.  With defining, the
    file is a parahn module, and a top-level definition's references to its
    own name (recursion) are left out."""
    out = set()
    for stmt in ast.parse(source).body:
        own = getattr(stmt, "name", None) if defining else None
        for node in ast.walk(stmt):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute) and _is_module(node.value):
                name = node.attr
            else:
                continue
            if name != own:
                out.add(name)
    return out


def _is_module(node) -> bool:
    while isinstance(node, ast.Attribute):
        if node.attr in MODULES:
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id in MODULES


def library_names() -> set:
    """The backquoted identifiers of the README's Library section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Library\n(.*?)(?=^## |\Z)", readme, re.S | re.M)
    return set(re.findall(r"`([A-Za-z_]\w*)`", section.group(1)))


def public_definitions():
    """(module, name) of each public top-level function and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


def public_methods():
    """(module, class, name) of each public method of a top-level class."""
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield path.stem, cls.name, node.name


def test_every_public_name_has_a_caller_or_is_library_api():
    used = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            used |= code_names(path.read_text(encoding="utf-8"), path.parent == SRC)
    used |= library_names()
    orphans = [f"{mod}.{name}" for mod, name in public_definitions() if name not in used]
    assert orphans == []


def test_every_public_method_is_read_as_an_attribute():
    read = library_names()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            read |= {
                node.attr
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            }
    orphans = [f"{mod}.{cls}.{name}" for mod, cls, name in public_methods() if name not in read]
    assert orphans == []


def test_no_float_name_in_the_engine():
    loads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "float" and isinstance(node.ctx, ast.Load)
    ]
    assert loads == []


def test_strings_imports_and_recursion_are_not_references():
    source = (
        "from parahn.specio import parse_spec\n"
        "KEY = 'relative_slope'\n"
        "def walk(x):\n"
        "    return walk(x.rank)\n"
        "def run():\n"
        "    return hn.hn_filtration(walk)\n"
    )
    assert code_names(source, defining=True) == {"walk", "x", "hn", "hn_filtration"}
    assert "walk" not in code_names(source.split("def run")[0], defining=True)


def test_library_section_names_the_api_without_a_command():
    for name in ("parabolic_slope", "relative_slope", "sub_parabolic", "quotient_parabolic",
                 "direct_sum", "saturate", "quotient_bundle", "perp"):
        assert name in library_names()
