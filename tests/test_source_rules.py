"""Rules over the package source itself."""

import ast
import sys
from pathlib import Path

import evimech

PACKAGE = Path(evimech.__file__).parent
BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements: no guarantee may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 10
    assert found == []


def test_package_imports_only_the_standard_library():
    # the package stays pure stdlib Python: every import is relative or names
    # a standard-library module
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.extend(
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            )
    assert len(list(PACKAGE.glob("*.py"))) > 10
    assert found == []


def test_package_holds_no_float_literal_and_no_float_call():
    # floats never enter a verdict path: every number is an int or a Fraction
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append(f"{path.name}:{node.lineno} float(...)")
    assert len(list(PACKAGE.glob("*.py"))) > 10
    assert found == []


def _bindings(tree, module):
    """Name -> dotted path of what it names, for `module`'s top-level
    functions and classes and its imports (relative imports resolved in the
    package)."""
    bound = {node.name: f"{module}.{node.name}" for node in tree.body if isinstance(node, DEFINITIONS)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:  # relative imports occur only in the package
                base = f"evimech.{base}" if base else "evimech"
            bound.update({alias.asname or alias.name: f"{base}.{alias.name}" for alias in node.names})
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name if alias.asname else alias.name.split(".")[0]
                bound[alias.asname or name] = name
    return bound


def _locals(function):
    """Names a function (or lambda) binds itself, which hide any module-level
    binding inside it: parameters, assignment targets and nested defs."""
    args = function.args
    names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if arg}
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, DEFINITIONS) and node is not function:
            names.add(node.name)
    return names


def _target(node, bound):
    """The dotted path a name or an attribute chain over bound names refers to."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _target(node.value, bound)
        return base and f"{base}.{node.attr}"
    return None


def _references(node, bound, own=None):
    """Every dotted path `node` refers to, leaving out references to `own`."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        hidden = _locals(node)
        bound = {name: path for name, path in bound.items() if name not in hidden}
    loaded = isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    target = _target(node, bound) if loaded else None
    found = {target} - {None, own}
    for child in ast.iter_child_nodes(node):
        found |= _references(child, bound, own)
    return found


def _package_files():
    """Module name -> path of every package module (`evimech` for `__init__`)."""
    files = {f"evimech.{path.stem}": path for path in sorted(PACKAGE.glob("*.py"))}
    files["evimech"] = files.pop("evimech.__init__")
    return files


def test_every_package_function_is_used():
    # a module-level function or class of the package must be referenced
    # outside its own definition: by the package (an import in `__init__`
    # exports it) or by the benchmark, which drives the program as a user
    # does. The tests do not count: a function that only its own test calls
    # is dead code.
    # References resolve through imports, `module.name` and local scopes, so
    # neither `result.feasible` nor a local variable `feasible` is a use of a
    # function `feasible`. A class counts as used when it is named: raised,
    # built, subclassed or named in an annotation.
    files = _package_files()
    files.update({f"perfbench.{path.stem}": path for path in sorted(BENCHMARK.glob("*.py"))})
    trees = {module: ast.parse(path.read_text(), filename=str(path)) for module, path in files.items()}
    defined = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        if module.startswith("evimech")
        for node in tree.body
        if isinstance(node, DEFINITIONS)
    }
    exported = _bindings(trees["evimech"], "evimech")
    used = set(exported.values())
    for module, tree in trees.items():
        bound = _bindings(tree, module)
        for top in tree.body:
            own = f"{module}.{top.name}" if isinstance(top, DEFINITIONS) else None
            for target in _references(top, bound, own):
                # `evimech.name` is what `__init__` binds to `name`
                head, _, rest = target.partition(".")[2].partition(".")
                if target.startswith("evimech.") and f"evimech.{head}" not in files and head in exported:
                    target = ".".join(filter(None, (exported[head], rest)))
                used.add(target)
    assert len(defined) > 100 and len(list(BENCHMARK.glob("*.py"))) > 3
    assert sorted(defined - used) == []


def test_no_module_names_a_private_definition_of_another():
    # an underscore function or class is its module's own: another package
    # module that needs it should get it under a public name. Imports and
    # references resolve as in the rule above.
    trees = {module: ast.parse(path.read_text(), filename=str(path)) for module, path in _package_files().items()}
    private = {
        f"{module}.{node.name}": module
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS) and node.name.startswith("_")
    }
    found = []
    for module, tree in trees.items():
        bound = _bindings(tree, module)
        named = set(bound.values()).union(*(_references(top, bound) for top in tree.body))
        for target in sorted(named):
            # a private definition, or an attribute read through it
            head = ".".join(target.split(".")[:3])
            if private.get(head, module) != module:
                found.append(f"{module} names {head}")
    assert len(private) > 20
    assert found == []
