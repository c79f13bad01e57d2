"""The package's module graph: each module imports only the layers below
it, in the order the pipeline runs."""

import ast
from pathlib import Path

import solarswarm

# every module of the package, and the package modules it may import.
# errors, then codec, at the bottom; above them three branches, none
# importing another: climate -> fuzzy, the engine (bfa) and the problem
# (irrigation); pareto, the one module that joins the engine and the
# problem; cli and the package's __init__ on top
BOTTOM = {"errors", "codec"}
PIPELINE = {"climate", "fuzzy", "bfa", "irrigation", "pareto"}
MAY_IMPORT = {
    "errors": set(),
    "codec": {"errors"},
    "climate": BOTTOM,
    "fuzzy": BOTTOM | {"climate"},
    "bfa": BOTTOM,
    "irrigation": BOTTOM,
    "pareto": BOTTOM | {"bfa", "irrigation"},
    "cli": BOTTOM | PIPELINE,
    "__init__": BOTTOM | PIPELINE,
}


def package_imports(path: Path) -> set[str]:
    """The package modules a module's source imports, anywhere in it: every
    dotted name its imports reach, a relative import read as solarswarm's."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("solarswarm" if node.level else "",
                                          node.module)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {name.split(".")[1] for name in names
            if name.startswith("solarswarm.")}


def test_each_module_imports_only_the_layers_below_it():
    package = Path(solarswarm.__file__).parent
    imports = {path.stem: package_imports(path)
               for path in package.glob("*.py")}
    # a new module needs its place in the graph
    assert set(imports) == set(MAY_IMPORT)
    # the walk sees the package's own imports, `from . import m` and
    # `from .m import name` alike
    assert "climate" in imports["fuzzy"]
    assert {"bfa", "irrigation"} <= imports["pareto"]
    breaches = {module: sorted(seen - MAY_IMPORT[module])
                for module, seen in imports.items()
                if not seen <= MAY_IMPORT[module]}
    assert breaches == {}
