"""No function, class or class member of the package exists for its tests alone.

Every top-level ``def`` and ``class`` in ``src/spinforge``, and every method
and property of a top-level class (dunder methods aside), must be referenced
outside its own definition somewhere in the package, the benchmark harness
(``bench/``) or the acceptance criteria (``tests/test_acceptance.py``).  A
reference is a name, an attribute, an import or a dotted part of a string
constant (so the benchmark tracer's metric names count).  A member counts
only as an attribute or a part of a string with a dot in it, never as a bare
name or a one-word string.  A module's ``__all__`` listing does not count.
Names kept on purpose are listed in ``KEEP`` with their reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinforge"

KEEP = {
    "cloning.clone_map_target":
        "the closed-form clone map that test_output_hits_clone_map checks "
        "the pipeline against",
    "synthesis.five_site_couplings":
        "closed-form chains of the five-site case study, the reference for "
        "zero_mode_chain and the null-vector flow",
    "chainio.xx_chain":
        "reads the xx documents design wstate writes, so the format is two-way",
    "chainio.document_from_ising":
        "writes the ising documents simulate ghz reads, so the format is two-way",
    "cloning.CompressedState.inner":
        "tests compare the pipeline's output to clone_map_target through it",
}


def _members(node):
    """A top-level definition and, for a class, its non-dunder methods,
    each as (qualified name, definition node)."""
    yield node.name, node
    if isinstance(node, ast.ClassDef):
        for member in node.body:
            if (isinstance(member, ast.FunctionDef)
                    and not member.name.startswith("__")):
                yield f"{node.name}.{member.name}", member


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield from ((path, name, member) for name, member in _members(node))


def _references(path: Path) -> set:
    """Names a file refers to, outside the definitions they name, each as
    ("attr", name) for attributes and parts of dotted strings, otherwise as
    ("name", name)."""
    tree = ast.parse(path.read_text())
    skipped = set()
    for node in tree.body:
        if path.parent == PACKAGE and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for _, member in _members(node):
                skipped |= {(id(sub), member.name) for sub in ast.walk(member)}
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            skipped |= {(id(sub), None) for sub in ast.walk(node)}
    names = set()
    for sub in ast.walk(tree):
        if (id(sub), None) in skipped:
            continue
        if isinstance(sub, ast.Name):
            kind, found = "name", {sub.id}
        elif isinstance(sub, ast.alias):
            kind, found = "name", {sub.name.rsplit(".", 1)[-1]}
        elif isinstance(sub, ast.Attribute):
            kind, found = "attr", {sub.attr}
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            kind = "attr" if "." in sub.value else "name"
            found = set(sub.value.split("."))
        else:
            continue
        names |= {(kind, name) for name in found if (id(sub), name) not in skipped}
    return names


def test_every_top_level_name_has_a_caller():
    scope = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    referenced = set().union(*map(_references, scope))
    unused = sorted(
        f"{path.stem}.{name}" for path, name, node in _definitions()
        if ("attr", node.name) not in referenced
        and ("." in name or ("name", node.name) not in referenced)
        and f"{path.stem}.{name}" not in KEEP)
    assert unused == [], f"no caller outside tests: {unused}"


def test_kept_names_still_exist():
    defined = {f"{path.stem}.{name}" for path, name, _ in _definitions()}
    assert sorted(set(KEEP) - defined) == []
