"""Every function, method and dataclass field in src/liptriv is reached from
src/liptriv, and every name a module imports is read there.

A function that only tests call belongs in the tests as an oracle; one that
nothing calls belongs nowhere, and so does a field that nothing reads. The
check is by name: a method counts as used when some attribute access in the
package names it, a function when some name or attribute does, in both cases
outside the function's own body, and a field when some attribute access does.
An imported name counts as read when the module names it; the package's
__init__ reads nothing, so each name it imports must be listed in __all__.
"""

import ast
from collections import defaultdict
from pathlib import Path

import liptriv

SRC = Path(liptriv.__file__).resolve().parent

# Definitions reached in a way the name check cannot see, each with its reason.
ALLOWED = {
    "polycore.FloatKernel._value_code": "reached through getattr(self, f'_{name}_code')",
    "polycore.FloatKernel._jacobian_code": "reached through getattr(self, f'_{name}_code')",
    "polycore.FloatKernel._sphere_descent_code": "reached through getattr(self, f'_{name}_code')",
    "polycore.FloatKernel._penalty_descent_code": "reached through getattr(self, f'_{name}_code')",
    "cli.main": "the console-script entry point named in pyproject.toml",
    "groebner.MonomialOrder.lex": (
        "constructor of the exported order's lex kind, which key_function "
        "implements and the sympy oracle and the S-pair order pin run under"
    ),
}

# Dataclass fields no attribute access in the package reads, each with its reason.
ALLOWED_FIELDS = {
    "critical.RealCriticalValue.residual": (
        "attainment evidence of a critical value, read by the acceptance suite"
    ),
    "dependence.Subspace.ambient_dim": (
        "part of the value the generated __eq__ compares: the zero subspaces "
        "of K^2 and K^3 hold the same empty basis"
    ),
}


def _scan():
    """Every definition as (qualified name, is_method, node), and every
    reference as name -> [(node, is_attribute)]."""
    defs, refs = [], defaultdict(list)

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}"
                defs.append((qual, in_class, child))
                visit(child, qual, False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", True)
            else:
                if isinstance(child, ast.Attribute):
                    refs[child.attr].append((child, True))
                elif isinstance(child, ast.Name):
                    refs[child.id].append((child, False))
                visit(child, prefix, in_class)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, False)
    return defs, refs


def test_every_definition_is_used_in_the_package():
    defs, refs = _scan()
    unused = []
    for qual, is_method, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue  # dunders are called by the interpreter
        if name in liptriv.__all__ or qual in ALLOWED:
            continue
        own = {id(n) for n in ast.walk(node)}
        if not any(
            id(ref) not in own and (is_attr or not is_method)
            for ref, is_attr in refs[name]
        ):
            unused.append(qual)
    assert not unused, f"defined in src/liptriv but not used there: {unused}"


def _fields():
    """Every dataclass field as (qualified name, field name)."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                out += [
                    (f"{path.stem}.{node.name}.{stmt.target.id}", stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    return out


def test_every_dataclass_field_is_read_in_the_package():
    _, refs = _scan()
    unread = [
        qual
        for qual, name in _fields()
        if qual not in ALLOWED_FIELDS and not any(is_attr for _, is_attr in refs[name])
    ]
    assert not unread, f"dataclass fields no attribute access in src/liptriv reads: {unread}"


def test_allowlist_names_existing_definitions():
    defs, _ = _scan()
    assert set(ALLOWED) <= {qual for qual, _, _ in defs}
    assert set(ALLOWED_FIELDS) <= {qual for qual, _ in _fields()}


def _imported_names(tree):
    """Each name an import binds in the module, __future__ features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)


def test_every_import_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.stem == "__init__":
            read = set(liptriv.__all__)
        else:
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.stem}.{name}" for name in _imported_names(tree) if name not in read]
    assert not unread, f"imported in src/liptriv but not read there (__init__: not in __all__): {unread}"
