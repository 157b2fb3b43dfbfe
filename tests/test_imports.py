"""Every name a dbarl2 module, a demo or the acceptance suite imports is used in
that file, no import sits inside a function or class, every module-level
function, class and constant a module defines is named somewhere else and,
save a list written here with a reason each, beyond the unit tests (by the
package, a demo, ``perfbench`` other than its tracer, or the acceptance
suite), every defaulted parameter or field is passed by some call and, save a
second such list, set beyond the unit tests to another value than its default,
every field is read somewhere, no expression node defines arithmetic
operators, ``CylinderFn`` is the one function class with arithmetic and the
only caller of the operand lift, every expression node has a typing rule, and
importing the command line loads no third-party package but numpy, one
function forms the weight factor e^{-Re w}, one function reads a quadrature
rule's nodes and estimates on them, ``Tape`` is named only in ``symfun`` and
``forms._ball_values`` evaluates through ``eval_expr`` alone, every pairing
goes through ``forms.integrands`` (only the solver's linear rows read
``_ball_values`` besides) and ``dbarops`` names no private name of ``forms``,
one loop reads the clock and stamps each record's runtime, every target the
benchmark's tracer patches exists, and no program call or shipped config
declares a support radius.

Only the standard ``ast`` module is needed for the source checks.  An imported
name counts as used when it appears anywhere in the module as a ``Name`` node
(a load, or the root of an attribute chain).  The package ``__init__``
re-exports its imports and is exempt from the import check.  A definition
counts as named when a ``Name`` load (save one of a name that an enclosing
function binds: a parameter or a local variable), an attribute, an imported
name or a string a program reads a name from spells it in a module of ``src/``,
``tests/``, ``demos/`` or ``perfbench/``, outside the definition itself; such
a string is the (dotted) attribute argument of ``getattr``, ``setattr`` or
``hasattr`` (``monkeypatch.setattr`` included) or the attribute of a
``TARGETS`` triple of the benchmark's tracer, and any other string is data.  A
constant is a name that a module-level assignment binds (``__version__`` is
exempt).  A defaulted parameter counts as passed when some call of a function,
method or class of its name passes it by keyword, reaches its position, or
unpacks ``*args`` or ``**kwargs``; it counts as set beyond the unit tests
when such a call in the package, a demo, ``perfbench`` or the acceptance
suite gives it an argument whose source (``ast.unparse``) is not the
default's, so a parameter only the unit tests turn reads as an option with one
value in use.  A field (a dataclass field, an attribute an
``__init__`` sets on ``self``, or a property) counts as read when an attribute
load, a constant ``getattr`` or a string spells its name in one of those
modules; the scan goes by name, so it cannot tell two classes' fields of one
name apart.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dbarl2.cli import KEYS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dbarl2"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for d in ("src", "tests", "demos", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of the import statement that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


# the program modules, and the demos and acceptance suite that the reach scan counts as readers
IMPORTERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_no_import_inside_a_definition():
    nested = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, DEFS):
                nested |= {f"{path.name}:{sub.lineno}" for sub in ast.walk(node)
                           if isinstance(sub, (ast.Import, ast.ImportFrom))}
    assert not nested, f"imports inside a definition: {', '.join(sorted(nested))}"


def _name_strings(top: ast.stmt):
    """The string constants in a module-level statement that a program reads a
    name from: the attribute argument of getattr, setattr or hasattr, and the
    attribute of each (layer, module, attribute) triple of ``TARGETS``."""
    if isinstance(top, ast.Assign) and any(getattr(t, "id", None) == "TARGETS"
                                           for t in top.targets):
        yield from (elt.elts[2] for elt in getattr(top.value, "elts", ())
                    if isinstance(elt, ast.Tuple) and len(elt.elts) == 3)
    for node in ast.walk(top):
        if isinstance(node, ast.Call) and len(node.args) > 1 and (
                getattr(node.func, "id", None) or getattr(node.func, "attr", None)) \
                in ("getattr", "setattr", "hasattr"):
            yield node.args[1]


def _bound(fn) -> set:
    """The names a function or lambda binds in its own scope: its parameters,
    and each name its body assigns, imports, defines or catches, less those
    it declares global or nonlocal.  A nested function's body is its own
    scope; a comprehension's variables count as the function's."""
    a = fn.args
    names = {p.arg for p in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg] if p}
    declared = set()
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, DEFS):
            names.add(node.name)
        if not isinstance(node, (*DEFS, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return names - declared


def _loads(node: ast.AST, local: frozenset = frozenset()):
    """Each name a Name node under node loads, save one that an enclosing
    function or lambda binds in its own scope (``_bound``); a function's
    decorators, defaults and annotations are read in the scope around it."""
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in local:
            yield node.id
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        for outer in [*getattr(node, "decorator_list", ()), node.args,
                      getattr(node, "returns", None)]:
            if outer is not None:
                yield from _loads(outer, local)
        inner = local | _bound(node)
        for stmt in node.body if isinstance(node.body, list) else [node.body]:
            yield from _loads(stmt, inner)
        return
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, local)


def _spelled(tree: ast.Module):
    """(name, owner) for each name the module spells; owner is the module-level
    definition the spelling sits in (None outside every definition)."""
    for top in tree.body:
        owner = top.name if isinstance(top, DEFS) else None
        for name in _loads(top):
            yield name, owner
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.alias):
                yield node.name.split(".")[-1], owner
        for node in _name_strings(top):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for part in node.value.split("."):
                    yield part, owner


def _defined(tree: ast.Module):
    """(name, line, owner) of each module-level definition (its own owner) and
    each name a module-level assignment binds (owner None)."""
    for top in tree.body:
        if isinstance(top, DEFS):
            yield top.name, top.lineno, top.name
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            for target in top.targets if isinstance(top, ast.Assign) else [top.target]:
                yield from ((n.id, top.lineno, None) for n in ast.walk(target)
                            if isinstance(n, ast.Name) and n.id != "__version__")


def _unnamed(readers, src: Path) -> dict:
    """name -> "module:line" of each definition in the modules of src that no
    reader names outside the definition itself."""
    named = set()
    for path in readers:
        for name, owner in _spelled(ast.parse(path.read_text(), filename=str(path))):
            named.add((name, path if path.parent == src else None, owner))
    return {name: f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
            for name, line, own in _defined(ast.parse(path.read_text(), filename=str(path)))
            if not any(n == name and (own is None or p != path or o != own)
                       for n, p, o in named)}


def test_every_definition_is_named_elsewhere():
    unnamed = _unnamed(READERS, SRC)
    assert not unnamed, \
        f"definitions nothing names: {', '.join(f'{w} {n}' for n, w in unnamed.items())}"


def test_a_plain_string_names_no_definition(tmp_path):
    # a kind label that happens to spell a function's name does not reach it
    src = tmp_path / "src"
    src.mkdir()
    (src / "lib.py").write_text(
        "def custom():\n    pass\n\n\ndef probed():\n    pass\n\n\n"
        "def patched():\n    pass\n\n\nclass Traced:\n    def run(self):\n        pass\n")
    (tmp_path / "user.py").write_text(
        'KIND = {"kind": "custom", "label": "lib.custom"}\n'
        'TARGETS = [("layer", "lib", "Traced.run")]\n'
        'FOUND = hasattr(lib, "probed")\n\n\n'
        'def test_patch(monkeypatch):\n    monkeypatch.setattr(lib, "patched", None)\n')
    assert _unnamed([src / "lib.py", tmp_path / "user.py"], src) == {"custom": "lib.py:1"}


def test_a_local_name_names_no_definition(tmp_path):
    # a parameter or local variable spelled like a definition does not reach
    # it, in its own function or in one nested in it; a default does
    src = tmp_path / "src"
    src.mkdir()
    (src / "lib.py").write_text("".join(f"def {name}():\n    pass\n\n\n" for name in (
        "inner", "outer", "caught", "shadowed", "default", "declared", "loaded")))
    (tmp_path / "user.py").write_text(
        "def f(inner, x=default):\n    return inner(x)\n\n\n"
        "def g():\n    outer = 1\n    try:\n        pass\n    except ValueError as caught:\n"
        "        pass\n\n    def h():\n        return outer + caught\n\n"
        "    return lambda shadowed: shadowed\n\n\n"
        "def k():\n    global declared\n    declared = 1\n    return declared + loaded()\n")
    assert _unnamed([src / "lib.py", tmp_path / "user.py"], src) == {
        "inner": "lib.py:1", "outer": "lib.py:5", "caught": "lib.py:9", "shadowed": "lib.py:13"}


def test_domain_catalog_is_the_runner_kinds():
    # each kind domains.py builds is one the runner accepts (normalized(...) wraps one)
    built = {node.args[0].value for node in ast.walk(ast.parse((SRC / "domains.py").read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Domain"
             and isinstance(node.args[0], ast.Constant)}
    accepted = set(KEYS["domain.kind"].choices)
    assert built == accepted, \
        f"built but not accepted: {sorted(built - accepted)}; " \
        f"accepted but not built: {sorted(accepted - built)}"


def test_commands_read_only_checked_values():
    # each key goes through cli.KEYS: no cmd_* body calls .get, int or float on
    # its config, so a command cannot read a key the table does not check
    found = []
    for fn in ast.parse((SRC / "cli.py").read_text()).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        config = fn.args.args[0].arg
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) in ("int", "float") and any(
                        getattr(n, "id", None) == config for a in node.args for n in ast.walk(a))
                    or getattr(node.func, "attr", None) == "get" and any(
                        getattr(n, "id", None) == config for n in ast.walk(node.func.value))):
                found.append(f"{fn.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, f"commands that read their config around the table: {', '.join(found)}"


# definitions that only unit tests name, each with the reason it stays
UNIT_TESTED_ONLY = {
    "hormander_bound_check": "ROADMAP item 3 wires it into solve",
    "weight_for_target": "ROADMAP item 12 wires it into solve on a bounded domain",
    "norm_sq": "no command reports a form norm yet (ROADMAP item 3)",
    "inner": "no command reports a form norm yet (ROADMAP item 3)",
}

# the package itself, the benchmark, the demos and the acceptance criteria; the
# benchmark's tracer only wraps the functions it finds, so it reaches none
REACHERS = MODULES + [p for p in READERS if p.parent.name in ("demos", "perfbench")
                      and p.name != "spans.py"] + [ROOT / "tests" / "test_acceptance.py"]


def test_every_definition_is_reached_beyond_the_unit_tests():
    unreached = _unnamed(REACHERS, SRC)
    assert set(unreached) == set(UNIT_TESTED_ONLY), \
        f"definitions only unit tests name: " \
        f"{', '.join(f'{w} {n}' for n, w in unreached.items() if n not in UNIT_TESTED_ONLY)}; " \
        f"listed but reached: {', '.join(sorted(set(UNIT_TESTED_ONLY) - set(unreached)))}"


# defaulted parameters that no call passes, each with the reason it stays
UNPASSED = {
    ("_forget", "table"): "binds the intern table, so the weakref callback still "
                          "finds it at interpreter shutdown",
    ("CheckOutcome", "runtime_ms"): "stamped by cli.run_checks through dataclasses.replace, "
                                    "which the call scan does not map to the class",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        f = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(f, "id", None) == "dataclass" or getattr(f, "attr", None) == "dataclass":
            return True
    return False


def _defaulted(tree: ast.Module):
    """(callee name, parameter, position or None when keyword-only, default
    source, line) of each defaulted parameter and dataclass field; a class is
    called by its own name."""
    callee = {}  # an __init__ -> the name of its class
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields = [st for st in node.body
                          if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]
                for pos, st in enumerate(fields):
                    if st.value is not None:
                        yield node.name, st.target.id, pos, ast.unparse(st.value), st.lineno
            callee.update((st, node.name) for st in node.body
                          if isinstance(st, ast.FunctionDef) and st.name == "__init__")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = callee.get(node, node.name)
            a = node.args
            params = a.posonlyargs + a.args
            bound = 1 if params and params[0].arg in ("self", "cls") else 0
            for pos, default in zip(range(len(params) - len(a.defaults), len(params)),
                                    a.defaults):
                yield name, params[pos].arg, pos - bound, ast.unparse(default), node.lineno
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None, ast.unparse(default), node.lineno


def _passed(readers) -> tuple[dict, set]:
    """Over every call in the readers: (callee, keyword or position) -> the
    sources of the arguments given there, and the callees given *args or
    **kwargs."""
    given, unpacked = {}, set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            args = [(k.arg, k.value) for k in node.keywords] + list(enumerate(node.args))
            for slot, value in args:
                if slot is None or isinstance(value, ast.Starred):
                    unpacked.add(name)
                else:
                    given.setdefault((name, slot), set()).add(ast.unparse(value))
    return given, unpacked


def _unset(readers, other_value: bool) -> dict:
    """(callee, parameter) -> "module:line" of each defaulted parameter or
    field in the package that no call in the readers passes (with an argument
    whose source is not the default's, when other_value), save ``UNPASSED``."""
    given, unpacked = _passed(readers)
    out = {}
    for path in MODULES:
        for name, param, pos, default, line in _defaulted(
                ast.parse(path.read_text(), filename=str(path))):
            sources = given.get((name, param), set()) | given.get((name, pos), set())
            if (name, param) not in UNPASSED and name not in unpacked and not (
                    sources - {default} if other_value else sources):
                out[(name, param)] = f"{path.name}:{line}"
    return out


def test_every_default_is_passed_somewhere():
    never = _unset(READERS, other_value=False)
    assert not never, \
        f"defaults no call passes: {', '.join(f'{w} {n}({p})' for (n, p), w in never.items())}"


# defaults that only unit tests set to another value, each with the reason it stays
UNIT_TESTED_DEFAULTS = {
    ("main", "argv"): "the console script passes nothing; tests pass the command line",
    ("hormander_bound_check", "sup_norm_sq"): "ROADMAP item 3 wires the audit into solve",
    ("weight_for_target", "samples"): "ROADMAP item 12 wires it into solve",
    ("weight_for_target", "trunc_order"): "ROADMAP item 12 wires it into solve",
    ("fd_check", "h_step"): "the finite-difference oracle's step, which tests tune",
}


def test_every_default_is_set_beyond_the_unit_tests():
    # a value only the unit tests choose is an option nothing else needs
    unset = _unset(REACHERS, other_value=True)
    extra = [f"{w} {n}({p})" for (n, p), w in unset.items() if (n, p) not in UNIT_TESTED_DEFAULTS]
    assert set(unset) == set(UNIT_TESTED_DEFAULTS), \
        f"defaults only the unit tests set: {', '.join(extra)}; " \
        f"listed but set beyond them: {sorted(set(UNIT_TESTED_DEFAULTS) - set(unset))}"


def _fields(tree: ast.Module):
    """(class, name, line) of each dataclass field, each ``self.<name>`` an
    ``__init__`` assigns, and each property."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for st in node.body:
            if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name) \
                    and _is_dataclass(node):
                yield node.name, st.target.id, st.lineno
            elif isinstance(st, ast.FunctionDef) and st.name == "__init__":
                yield from ((node.name, sub.attr, sub.lineno) for sub in ast.walk(st)
                            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and getattr(sub.value, "id", None) == "self")
            elif isinstance(st, ast.FunctionDef) and any(
                    getattr(d, "id", None) == "property" for d in st.decorator_list):
                yield node.name, st.name, st.lineno


def _reads(node: ast.AST, callees: frozenset = frozenset()):
    """(name, callees) for each read in the tree: an attribute load, a constant
    ``getattr`` or a string equal to the name; callees are the names of the
    calls whose arguments hold it."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "getattr" and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            yield node.args[1].value, callees
        yield from _reads(node.func, callees)
        for arg in node.args + node.keywords:
            yield from _reads(arg, callees | {name})
        return
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, callees
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value, callees
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, callees)


def test_every_field_is_read_somewhere():
    # a field handed to a new instance of its own class is passed on, not read
    reads: dict = {}
    for path in READERS:
        for name, callees in _reads(ast.parse(path.read_text(), filename=str(path))):
            reads.setdefault(name, set()).add(callees)
    unread = [f"{path.name}:{line} {cls}.{name}" for path in MODULES
              for cls, name, line in _fields(ast.parse(path.read_text(), filename=str(path)))
              if not any(cls not in callees for callees in reads.get(name, ()))]
    assert not unread, f"fields nothing reads: {', '.join(unread)}"


def _expr_nodes(tree: ast.Module) -> list:
    """The class definitions of ``Expr`` and of every class derived from it."""
    names, out = {"Expr"}, []
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and (top.name in names or any(
                getattr(b, "id", None) in names for b in top.bases)):
            names.add(top.name)
            out.append(top)
    return out


ARITHMETIC = {f"__{p}{op}__" for op in ("add", "sub", "mul", "truediv", "pow")
              for p in ("", "r")} | {"__neg__"}


def test_expr_nodes_define_no_arithmetic():
    # CylinderFn is the one arithmetic; expression nodes are built by constructor functions
    tree = ast.parse((SRC / "symfun.py").read_text())
    found = [f"{node.name}.{st.name}" for node in _expr_nodes(tree)
             for st in node.body if isinstance(st, ast.FunctionDef) and st.name in ARITHMETIC]
    assert not found, f"expression nodes define arithmetic: {', '.join(found)}"


def test_one_function_type_carries_the_arithmetic():
    # every function the package takes or returns is a CylinderFn: no other class
    # defines function arithmetic (a Form adds and subtracts forms), only that
    # arithmetic lifts an operand (symfun._operand), and a payload becomes a Leaf
    # only there, in a derivative of a leaf, and in reduce_fn's result
    defined, lifts, leaves = {}, set(), set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                ops = {st.name for st in node.body
                       if isinstance(st, ast.FunctionDef) and st.name in ARITHMETIC}
                if ops:
                    defined[node.name] = ops
        for owner, name, _ in _calls(tree):
            if name == "_operand":
                lifts.add(owner)
            elif name == "Leaf":
                leaves.add(owner)
    assert defined == {"CylinderFn": {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                                      "__rmul__", "__neg__"},
                       "Form": {"__add__", "__sub__"}}
    assert lifts and lifts <= {f"CylinderFn.{op}" for op in ARITHMETIC}, \
        f"operands lifted outside CylinderFn's arithmetic: {sorted(lifts)}"
    assert leaves == {"_operand", "diff", "reduce_fn"}, f"payloads made leaves in: {sorted(leaves)}"


def test_every_expr_node_has_a_rule():
    # a node type that _RULES does not key is half-wired: it cannot be typed or evaluated
    tree = ast.parse((SRC / "symfun.py").read_text())
    rules = next(top.value for top in tree.body if isinstance(top, ast.Assign)
                 and any(getattr(t, "id", None) == "_RULES" for t in top.targets))
    keyed = {k.id for k in rules.keys}
    missing = [node.name for node in _expr_nodes(tree) if node.name not in keyed | {"Expr"}]
    assert not missing, f"expression nodes without a rule in _RULES: {', '.join(missing)}"


def _is_np_call(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr == name and getattr(node.func.value, "id", None) == "np"


def _own_nodes(fn: ast.AST):
    """The nodes of a function's body outside the functions nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node)
                     if not isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _weight_factors(tree: ast.Module):
    """The functions that call np.exp on a negated np.real(...), spelled out or
    through a name the function binds to one."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(fn))
        real = {t.id for n in nodes if isinstance(n, ast.Assign) and _is_np_call(n.value, "real")
                for t in n.targets if isinstance(t, ast.Name)}
        for n in nodes:
            if _is_np_call(n, "exp") and n.args and isinstance(n.args[0], ast.UnaryOp) \
                    and isinstance(n.args[0].op, ast.USub):
                arg = n.args[0].operand
                if _is_np_call(arg, "real") or getattr(arg, "id", None) in real:
                    yield fn.name


def test_one_function_forms_the_weight_factor():
    # e^{-Re w} has one home, which evaluates w only on its integrand's support ball
    found = {f"{path.name}:{name}" for path in MODULES
             for name in _weight_factors(ast.parse(path.read_text(), filename=str(path)))}
    assert found == {"forms.py:_ball_values"}, \
        f"e^{{-Re w}} is formed outside forms._ball_values: {', '.join(sorted(found))}"


def _calls(tree: ast.Module):
    """(owner, callee name, call) for each call; owner is "Class.method" in a
    method, else the module-level definition the call sits in (None outside
    every definition)."""
    for top in tree.body:
        owners = [(f"{top.name}.{st.name}" if isinstance(st, DEFS) else top.name, st)
                  for st in top.body] if isinstance(top, ast.ClassDef) \
            else [(top.name if isinstance(top, DEFS) else None, top)]
        for owner, part in owners:
            for node in ast.walk(part):
                if isinstance(node, ast.Call):
                    func = node.func
                    yield owner, getattr(func, "id", None) or getattr(func, "attr", None), node


def test_one_function_reads_the_nodes_and_estimates():
    # every integral goes through gaussmeasure.integrals; the Galerkin space reads
    # its nodes to assemble matrices and estimates nothing
    found = {f"{path.name}:{owner}:{name}" for path in MODULES
             for owner, name, _ in _calls(ast.parse(path.read_text(), filename=str(path)))
             if name in ("nodes_weights", "estimate")}
    assert found == {"gaussmeasure.py:integrals:nodes_weights",
                     "gaussmeasure.py:integrals:estimate",
                     "solver.py:_galerkin_space:nodes_weights"}, \
        f"rule nodes read or estimated outside gaussmeasure.integrals: {sorted(found)}"


def test_forms_evaluates_through_eval_expr():
    # the benchmark's tracer times evaluation by patching symfun.eval_expr in every
    # module that holds it; a tape compiled outside symfun would run untimed
    named = {path.name for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if "Tape" in (getattr(node, "id", None), getattr(node, "attr", None),
                           getattr(node, "name", None))}
    assert named == {"symfun.py"}, f"Tape named outside symfun: {', '.join(sorted(named))}"
    calls = {(owner, name) for owner, name, _ in _calls(ast.parse((SRC / "forms.py").read_text()))
             if name in ("eval_expr", "_root_values")}
    assert calls == {("_ball_values", "_root_values"), ("_root_values", "eval_expr")}, \
        f"forms evaluates outside _ball_values and eval_expr: {sorted(calls)}"


def test_every_pairing_goes_through_the_integrand_builder():
    # a pairing is a term list over forms.integrands; only the solver's linear rows
    # read _ball_values' raw values, and dbarops reaches no private name of forms
    callers = {f"{path.name}:{owner}" for path in MODULES
               for owner, name, _ in _calls(ast.parse(path.read_text(), filename=str(path)))
               if name == "_ball_values"}
    assert callers == {"forms.py:integrands", "solver.py:_stack_rows"}, \
        f"_ball_values called outside the builder and the solver rows: {sorted(callers)}"
    tree = ast.parse((SRC / "dbarops.py").read_text())
    private = {a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "forms"
               for a in node.names if a.name.startswith("_")}
    private |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "forms" and node.attr.startswith("_")}
    assert not private, f"dbarops reaches private names of forms: {sorted(private)}"


def test_one_loop_times_the_records():
    # a record's console time is stamped in cli.run_checks and nowhere else
    clock, stamps = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for owner, name, call in _calls(ast.parse(path.read_text(), filename=str(path))):
            if name == "perf_counter":
                clock.add(f"{path.name}:{owner}")
            if any(k.arg == "runtime_ms" for k in call.keywords):
                stamps.add(f"{path.name}:{owner}:{name}")
    assert clock == {"cli.py:run_checks"}, f"perf_counter read in: {', '.join(sorted(clock))}"
    assert stamps == {"cli.py:run_checks:replace"}, \
        f"runtime_ms passed in: {', '.join(sorted(stamps))}"


def test_cli_imports_numpy_only():
    # a fresh interpreter: the packages the test session already holds do not count
    probe = ("import sys; before = set(sys.modules); import dbarl2.cli; "
             "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert ast.literal_eval(out.stdout) == ["dbarl2", "numpy"]


# benchmark span targets that the program no longer has, each with the reason it stays
MISSING_SPAN_TARGETS = {
    ("solver", "_cg"): "the thin SVD replaced conjugate gradients; ROADMAP item 10 "
                       "retires the target with the patching",
}


def test_every_span_target_resolves():
    # as perfbench/spans.py's Tracer.install resolves them: a missing target is
    # skipped there without a word, so a rename would blank its layer's metric
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    missing = set()
    for _, modname, attr in targets:
        mod = importlib.import_module(f"dbarl2.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = getattr(mod, attr, None) is not None
        if not found:
            missing.add((modname, attr))
    assert missing == set(MISSING_SPAN_TARGETS), \
        f"span targets the program lacks: {sorted(missing - set(MISSING_SPAN_TARGETS))}; " \
        f"listed but present: {sorted(set(MISSING_SPAN_TARGETS) - missing)}"


def test_no_support_radius_is_declared():
    # a support ball is derived from the expression (symfun.support): no call in
    # the package or a demo passes one (a parameter of that name passed on to
    # CylinderFn's check is a claim forwarded, not made), and no shipped config
    # sets the key
    calls = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in READERS if path.parts[len(ROOT.parts)] in ("src", "demos")
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             for k in node.keywords if k.arg == "support_radius"
             and getattr(k.value, "id", None) != "support_radius"]
    assert calls == [], f"calls that declare a support radius: {', '.join(calls)}"
    configs = [path.name for path in sorted((ROOT / "configs").glob("*.json"))
               if '"support_radius"' in path.read_text()]
    assert configs == [], f"configs that set support_radius: {', '.join(configs)}"
