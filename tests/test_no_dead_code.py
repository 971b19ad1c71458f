"""Every public function, class, method and field in src/xbifix is
reached: named by another module of the package, by its own module
outside its own definition (a field outside its own class, an attribute
a method sets on self outside the assignment), or by the benchmark in
perfbench/.  Only a read counts, not an assignment.  A command is
reached through the command table that builds the parser in cli.py.
Re-exports in __init__ do not count, and neither do the tests: a name
only the tests call is a second version of something the program
already does, and a field only the tests read is state the program
carries for nothing."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "xbifix").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _reads(tree, methods):
    """Each identifier the code reads: attribute names, and for functions
    and classes plain names too (a method is only reached as an attribute)."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and not methods)
        and isinstance(node.ctx, ast.Load)
    )


def _self_attributes(cls):
    """(name, statement) of each public attribute cls's methods assign on
    self, the assignment as its node."""
    for stmt in ast.walk(cls):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                for node in ast.walk(target):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == "self"
                            and not node.attr.startswith("_")):
                        yield node.attr, stmt


def _definitions(tree):
    """(name, node) of each public top-level function and class, and
    Class.member for each public method, field and attribute set on self
    of a public class.  A field's node is its class: reads inside the
    class do not count."""
    for node in tree.body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item
                    elif isinstance(item, ast.AnnAssign) and not item.target.id.startswith("_"):
                        yield f"{node.name}.{item.target.id}", node
                for attribute, stmt in _self_attributes(node):
                    yield f"{node.name}.{attribute}", stmt


def _benchmark_reads():
    """(functions, attributes) perfbench names of the package.  Functions:
    names it imports from xbifix, attributes of the xbifix modules it
    imports, and strings that spell an identifier (its span table looks
    functions up by name).  Attributes: those of the xbifix modules, and
    any other unless perfbench defines a name of that spelling itself
    (`op.run` is the field of its own Op, not a method of the package)."""
    trees = [_parse(path) for path in BENCHMARK]
    own, modules, functions, attributes = set(), set(), set(), set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, DEFS):
            own.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            own.add(node.target.id)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xbifix"):
            for alias in node.names:
                (modules if node.module == "xbifix" else functions).add(alias.asname or alias.name)
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            functions.add(node.value)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            functions.add(node.attr)
            attributes.add(node.attr)
        elif isinstance(node, ast.Attribute) and node.attr not in own and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return functions, attributes


def _unreached():
    modules = {path.stem: _parse(path) for path in SOURCES}
    code = [tree for stem, tree in modules.items() if stem != "__init__"]
    reads = {method: sum((_reads(tree, method) for tree in code), Counter()) for method in (False, True)}
    functions, attributes = _benchmark_reads()
    dead = []
    for stem, tree in modules.items():
        for name, node in _definitions(tree):
            method, short = "." in name, name.rpartition(".")[2]
            elsewhere = reads[method][short] - _reads(node, method)[short]
            benchmark = attributes if method else functions | attributes
            if not (elsewhere or short in benchmark):
                dead.append(f"{stem}.{name}")
    return dead


def test_sources_found():
    assert SOURCES and BENCHMARK


def test_every_public_name_is_reached():
    dead = _unreached()
    assert not dead, f"no command, workload or other function names: {', '.join(dead)}"
