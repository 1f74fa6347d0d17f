"""No function, class, class member or field of the package exists for its tests alone.

Every top-level ``def`` and ``class`` in ``src/spinforge``, and every method
and property of a top-level class (dunder methods aside), must be referenced
outside its own definition somewhere in the package, the benchmark harness
(``bench/``) or the acceptance criteria (``tests/test_acceptance.py``).  A
reference is a name, an attribute, an import or a dotted part of a string
constant (so the benchmark tracer's metric names count).  A member counts
only as an attribute or a part of a string with a dot in it, never as a bare
name or a one-word string.  A module's ``__all__`` listing does not count.

Every field of a top-level dataclass must be read in the same scope: as an
attribute that is loaded, or as part of a dotted string, anywhere outside
its own class's ``__post_init__`` (which only validates it).  Passing a
field to the constructor is no read.  The guard matches names, so a read of
a same-named attribute of another object keeps a field too, except that a
``self.<name>`` read inside a class's methods keeps only that class's field.

Names kept on purpose are listed in ``KEEP`` with their reason.
"""

import ast
import textwrap
from pathlib import Path

import numpy as np
import pytest

from spinforge import chainio, cloning, ghz_ising, graphs, isoflow, numerics, synthesis

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinforge"

KEEP = {
    "synthesis.five_site_couplings":
        "closed-form chains of the five-site case study, the reference for "
        "zero_mode_chain and the null-vector flow",
    "chainio.xx_chain":
        "reads the xx documents design wstate writes back into a Chain, "
        "refusing on-site fields, so the format is two-way",
    "synthesis.WstateDesign.half_couplings":
        "the mirror-reduced half chain whose revival half_overlap reports",
    "graphs.RevivalInstance.source":
        "a revival fixture names the seed vertex its deviation certifies",
    "graphs.RevivalInstance.graph":
        "a revival fixture names the graph its deviation certifies",
    "graphs.RevivalInstance.target":
        "a revival fixture names the target state its deviation certifies",
    "graphs.RevivalInstance.time":
        "a revival fixture names the revival time its deviation certifies",
}
MODULES = sorted(PACKAGE.glob("*.py"))
SCOPE = (MODULES + sorted((ROOT / "bench").glob("*.py"))
         + [ROOT / "tests" / "test_acceptance.py"])


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
    for path in MODULES:
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


def _fields(paths):
    """Fields of the top-level dataclasses, each as (path, class, field)."""
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                for member in node.body:
                    if isinstance(member, ast.AnnAssign):
                        yield path, node.name, member.target.id


def _field_reads(path: Path) -> set:
    """Loaded attributes and parts of dotted strings in a file, each as
    (name, owner, holder): owner is the (path, class) whose ``__post_init__``
    holds the read, or None; holder is the (path, class) whose method reads
    the name as ``self.<name>``, or None."""
    tree = ast.parse(path.read_text())
    owner_of, holder_of = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                subs = list(ast.walk(member))
                holder_of.update({id(sub): (path, node.name) for sub in subs
                                  if isinstance(sub, ast.Attribute)
                                  and getattr(sub.value, "id", None) == "self"})
                if member.name == "__post_init__":
                    owner_of.update({id(sub): (path, node.name) for sub in subs})
    reads = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found = {sub.attr}
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and "." in sub.value:
            found = set(sub.value.split("."))
        else:
            continue
        reads |= {(name, owner_of.get(id(sub)), holder_of.get(id(sub))) for name in found}
    return reads


def _unread_fields(fields, reads) -> list:
    """Fields, as "module.Class.field", that no read in ``reads`` keeps."""
    return sorted(
        f"{path.stem}.{cls}.{name}" for path, cls, name in fields
        if not any(read == name and owner != (path, cls) and holder in (None, (path, cls))
                   for read, owner, holder in reads))


def test_every_top_level_name_has_a_caller():
    referenced = set().union(*map(_references, SCOPE))
    unused = sorted(
        f"{path.stem}.{name}" for path, name, node in _definitions()
        if ("attr", node.name) not in referenced
        and ("." in name or ("name", node.name) not in referenced)
        and f"{path.stem}.{name}" not in KEEP)
    assert unused == [], f"no caller outside tests: {unused}"


def test_every_dataclass_field_is_read():
    reads = set().union(*map(_field_reads, SCOPE))
    unused = [name for name in _unread_fields(_fields(MODULES), reads) if name not in KEEP]
    assert unused == [], f"no reader outside tests: {unused}"


def test_self_read_keeps_only_its_own_class_field(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(textwrap.dedent("""
        from dataclasses import dataclass

        @dataclass
        class Kept:
            n: int

            def twice(self):
                return 2 * self.n

        @dataclass
        class Orphan:
            n: int
            m: int

        def size(other):
            return other.m
    """))
    # Kept's self.n keeps Kept.n alone; other.m still keeps Orphan.m
    assert _unread_fields(_fields([module]), _field_reads(module)) == ["sample.Orphan.n"]


def test_kept_names_still_exist():
    defined = {f"{path.stem}.{name}" for path, name, _ in _definitions()}
    defined |= {f"{path.stem}.{cls}.{name}" for path, cls, name in _fields(MODULES)}
    assert sorted(set(KEEP) - defined) == []


def _array_dataclasses():
    """One constructor per dataclass that holds an array, each giving equal values."""
    lam = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    return {
        "numerics.Chain": lambda: numerics.Chain([1.0, 2.0]),
        "ghz_ising.SweepPoint": lambda: ghz_ising.SweepPoint(1.0, np.ones(3)),
        "isoflow.GammaMatrix": lambda: isoflow.GammaMatrix([0.0, 0.0], [1.0], 0.0),
        "chainio.ChainDocument": lambda: chainio.ChainDocument("pst", 3, [1.0, 1.0], []),
        "synthesis.NullVectorTask": lambda: synthesis.NullVectorTask([-1.0, 0.0, 1.0], lam),
        "synthesis.WstateDesign": lambda: synthesis.WstateDesign(
            np.ones(2), np.ones(1), 1.0, 1.0),
        "cloning.AsymmetryProfile": lambda: cloning.symmetric_profile(2),
        "cloning.CompressedState": lambda: cloning.CompressedState(
            1.0, 0.0, np.zeros(3), np.zeros(3)),
        "cloning.CloneReport": lambda: cloning.CloneReport(
            np.full(2, 0.5), np.full(2, 0.75), 0.0, "compressed", 0.0),
        "graphs.GraphSpec": lambda: graphs.path_graph(2),
        "graphs.RevivalInstance": lambda: graphs.RevivalInstance(
            graphs.path_graph(2), 1, np.array([0.0, 1.0]), 1.0, 0.0),
    }


@pytest.mark.parametrize("name", sorted(_array_dataclasses()))
def test_array_dataclasses_compare_by_identity(name):
    # a field-tuple __eq__ would ask numpy for the truth value of an array,
    # and a field-tuple __hash__ cannot hash one
    make = _array_dataclasses()[name]
    first, second = make(), make()
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second}) == 2
