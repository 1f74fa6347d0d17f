"""No top-level function or class of the package exists for its tests alone.

Every top-level ``def`` and ``class`` in ``src/spinforge`` must be referenced
outside its own definition somewhere in the package, the benchmark harness
(``bench/``) or the acceptance criteria (``tests/test_acceptance.py``).  A
reference is a name, an attribute, an import or a dotted part of a string
constant (so the benchmark tracer's metric names count); a module's
``__all__`` listing does not.  Names kept on purpose are listed in ``KEEP``
with their reason.
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
}


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node


def _references(path: Path) -> set:
    """Names a file refers to, outside the definitions they name."""
    tree = ast.parse(path.read_text())
    skipped = set()
    for node in tree.body:
        if path.parent == PACKAGE and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            skipped |= {(id(sub), node.name) for sub in ast.walk(node)}
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            skipped |= {(id(sub), None) for sub in ast.walk(node)}
    names = set()
    for sub in ast.walk(tree):
        if (id(sub), None) in skipped:
            continue
        if isinstance(sub, ast.Name):
            found = {sub.id}
        elif isinstance(sub, ast.Attribute):
            found = {sub.attr}
        elif isinstance(sub, ast.alias):
            found = {sub.name.rsplit(".", 1)[-1]}
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found = set(sub.value.split("."))
        else:
            continue
        names |= {name for name in found if (id(sub), name) not in skipped}
    return names


def test_every_top_level_name_has_a_caller():
    scope = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    referenced = set().union(*map(_references, scope))
    unused = sorted(f"{path.stem}.{node.name}" for path, node in _definitions()
                    if node.name not in referenced
                    and f"{path.stem}.{node.name}" not in KEEP)
    assert unused == [], f"no caller outside tests: {unused}"


def test_kept_names_still_exist():
    defined = {f"{path.stem}.{node.name}" for path, node in _definitions()}
    assert sorted(set(KEEP) - defined) == []
