"""Every function, method and dataclass field in src/liptriv is reached from
src/liptriv, every name a module imports is read there, and imports sit at
module level.

A function that only tests call belongs in the tests as an oracle; one that
nothing calls belongs nowhere, and so does a field that nothing reads. The
check is by name: a method counts as used when some attribute access in the
package names it, a function when some name or attribute does, in both cases
outside the function's own body, and a field when some attribute access does.
So a field that nothing reads passes when another class's field of the same
name is read; every field whose name is shared is listed in SHARED_FIELDS
with a read of its own, and a new one fails until it is listed.  An imported
name counts as read when the module names it; the package's
__init__ reads nothing, so each name it imports must be listed in __all__.

Every default, of a parameter of a function or method or of a dataclass
field, is one that some caller sets: a call in src/liptriv or in bench/*.py
(the benchmark's own tests aside) to a function, method or class of that
name sets it by keyword, or by a position before any starred argument.  A
default that no caller sets is one value, and belongs in a constant.  Nor
does src/liptriv read an environment variable, a setting that the count
below would not see.

The two sizes the ROADMAP tracks are printed by

    PYTHONPATH=src python tests/test_surface.py --count
"""

import argparse
import ast
import sys
from collections import defaultdict
from pathlib import Path

import liptriv

SRC = Path(liptriv.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Definitions reached in a way the name check cannot see, each with its reason.
ALLOWED = {
    "cli.main": "the console-script entry point named in pyproject.toml",
}


# Every dataclass field whose name another dataclass's field shares, with a
# function of src/liptriv and the attribute read in it that reads the field
# on an instance of its own class.
SHARED_FIELDS = {
    "dependence.Subspace.basis": ("dependence.Subspace.pivot_columns", "self.basis"),
    "groebner.GroebnerBasis.basis": ("groebner.dimension", "gb.basis"),
    "classifier.LtvReport.critical": ("report.report_document", "report.critical"),
    "classifier.ExactStages.critical": ("classifier._containment", "stages.critical"),
    "classifier.LtvReport.factorization": ("report.report_document", "report.factorization"),
    "classifier.ExactStages.factorization": ("classifier._complex_verdict", "stages.factorization"),
    "classifier.LtvReport.flags": ("report.report_document", "report.flags"),
    "classifier.ExactStages.flags": ("classifier._field_report", "stages.flags"),
    "classifier.LtvDescription.generators": ("classifier._containment", "ltv.generators"),
    "groebner.Ideal.generators": ("groebner.Ideal.has_unit_generator", "self.generators"),
    "classifier.LtvReport.jelonek": ("report.report_document", "report.jelonek"),
    "classifier.ExactStages.jelonek": ("classifier._complex_verdict", "stages.jelonek"),
    "classifier.LtvDescription.kind": ("report.report_document", "ltv.kind"),
    "parsing.Token.kind": ("parsing._Parser.expect", "tok.kind"),
    "classifier.CheckResult.name": ("report._check", "c.name"),
    "polycore.PolyMap.name": ("dependence.factor_through_projection", "f.name"),
    "rational.RationalMap.name": ("report.input_block", "src.name"),
    "classifier.LtvReport.seed": ("report.report_document", "report.seed"),
    "properness.ProbeSchedule.seed": ("properness.properness_probe_real", "sched.seed"),
    "groebner.Ideal.vars": ("groebner.intersect", "a.vars"),
    "groebner.GroebnerBasis.vars": ("groebner.dimension", "gb.vars"),
    "polycore.Polynomial.vars": ("polycore.Polynomial._require_same_ring", "self.vars"),
    "polycore.PolyMap.vars": ("dependence.factor_through_projection", "f.vars"),
    "rational.RationalMap.vars": ("rational.RationalMap.__post_init__", "self.vars"),
    "classifier.CheckResult.verdict": ("report._check", "c.verdict"),
    "infinity.ConeConstancyResult.verdict": ("classifier._field_report", "cone_result.verdict"),
    "properness.PropernessVerdict.verdict": ("properness.properness_probe_real", "exact.verdict"),
    "critical.RealCriticalValue.witness": ("critical.RealCriticalValue.status", "self.witness"),
    "infinity.ConeConstancyResult.witness": ("classifier._field_report", "cone_result.witness"),
}


# Defaults that no caller sets, each with its reason.
ALLOWED_UNSET: dict[str, str] = {}


# Functions that import inside their body, each with its reason.
ALLOWED_LOCAL_IMPORTS = {
    "polycore.Polynomial.__repr__": (
        "debug aid; parsing imports polycore, so a module-level import of "
        "print_polynomial would be a cycle"
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


def _dataclasses():
    """Every dataclass as (qualified name, its field statements in order); a
    ClassVar is no field."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                yield f"{path.stem}.{node.name}", [
                    stmt
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)
                ]


def _fields():
    """Every dataclass field as (qualified name, field name)."""
    return [
        (f"{qual}.{stmt.target.id}", stmt.target.id)
        for qual, stmts in _dataclasses()
        for stmt in stmts
    ]


def test_every_dataclass_field_is_read_in_the_package():
    _, refs = _scan()
    unread = [
        qual
        for qual, name in _fields()
        if not any(is_attr for _, is_attr in refs[name])
    ]
    assert not unread, f"dataclass fields no attribute access in src/liptriv reads: {unread}"


def test_shared_field_names_are_listed_with_their_own_read():
    by_name = defaultdict(list)
    for qual, name in _fields():
        by_name[name].append(qual)
    shared = {qual for quals in by_name.values() if len(quals) > 1 for qual in quals}
    assert shared == set(SHARED_FIELDS), "review the fields whose name another field shares"
    defs = {qual: node for qual, _, node in _scan()[0]}
    missing = [
        (field, where, read)
        for field, (where, read) in SHARED_FIELDS.items()
        if where not in defs or read not in ast.unparse(defs[where])
    ]
    assert not missing, f"listed reads not found: {missing}"


def _defaults():
    """Every default as (qualified name, callee name, name, position): the
    name a call gives the function, method or class, the keyword that sets
    it, and its position among the call's arguments (a bound method's self
    is the object called on); a keyword-only parameter has no position."""
    out = []
    for qual, is_method, node in _scan()[0]:
        args = node.args
        positional = args.posonlyargs + args.args
        bound = is_method and "staticmethod" not in map(ast.unparse, node.decorator_list)
        first = len(positional) - len(args.defaults)
        out += [
            (f"{qual}.{arg.arg}", node.name, arg.arg, i - bound)
            for i, arg in enumerate(positional)
            if i >= first
        ]
        out += [
            (f"{qual}.{arg.arg}", node.name, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    for qual, stmts in _dataclasses():
        out += [
            (f"{qual}.{stmt.target.id}", qual.rsplit(".", 1)[1], stmt.target.id, i)
            for i, stmt in enumerate(stmts)
            if stmt.value is not None
        ]
    return out


def _calls():
    """Every call in src/liptriv and bench/*.py, the benchmark's tests aside,
    as callee name -> [(arguments before any starred one, keyword names)]."""
    paths = sorted(SRC.glob("*.py")) + [
        path for path in sorted(BENCH.glob("*.py")) if not path.name.startswith("test_")
    ]
    calls = defaultdict(list)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, (ast.Name, ast.Attribute)):
                continue
            positional = 0
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                positional += 1
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            calls[func.id if isinstance(func, ast.Name) else func.attr].append((positional, keywords))
    return calls


def test_every_default_is_set_by_a_caller():
    calls = _calls()
    unset = [
        qual
        for qual, callee, name, position in _defaults()
        if qual not in ALLOWED_UNSET
        and not any(
            name in keywords or (position is not None and positional > position)
            for positional, keywords in calls[callee]
        )
    ]
    assert not unset, f"defaults that no call in src/liptriv or bench/*.py sets: {unset}"


def test_allowlist_names_existing_definitions():
    defs, _ = _scan()
    assert set(ALLOWED) | set(ALLOWED_LOCAL_IMPORTS) <= {qual for qual, _, _ in defs}
    assert set(ALLOWED_UNSET) <= {qual for qual, *_ in _defaults()}


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


def test_imports_are_at_module_level():
    defs, _ = _scan()
    local = [
        qual
        for qual, _, node in defs
        if qual not in ALLOWED_LOCAL_IMPORTS
        and any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node))
    ]
    assert not local, f"functions in src/liptriv that import inside their body: {local}"


_ENVIRONMENT_READS = ("environ", "environb", "getenv", "getenvb")


def test_no_environment_variable_is_read():
    # An environment variable is a setting that --count does not see; a
    # setting belongs in a parameter, a flag or a constant.
    reads = [
        f"{path.stem}.py:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_READS)
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in _ENVIRONMENT_READS for alias in node.names)
        )
    ]
    assert not reads, f"src/liptriv reads the environment at {reads}"


def sizes() -> tuple[int, int]:
    """The lines of src/liptriv that are neither blank nor start with '#'
    once indentation is stripped, and the settable values: parameters with a
    default plus dataclass fields."""
    lines = settable = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines += sum(1 for line in text.splitlines() if line.strip()[:1] not in ("", "#"))
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                settable += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return lines, settable + len(_fields())


def test_count_prints_both_sizes(capsys):
    assert main(["--count"]) == 0
    lines, settable = sizes()
    assert capsys.readouterr().out == (
        f"src/liptriv lines (non-blank, not starting with '#'): {lines}\n"
        f"settable values (parameters with a default, dataclass fields): {settable}\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print the sizes of src/liptriv.")
    parser.add_argument("--count", action="store_true", required=True,
                        help="print the line count and the number of settable values")
    parser.parse_args(argv)
    lines, settable = sizes()
    print(f"src/liptriv lines (non-blank, not starting with '#'): {lines}")
    print(f"settable values (parameters with a default, dataclass fields): {settable}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
