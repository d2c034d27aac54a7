"""Static checks on the package source: no blanket ``except Exception``
outside the CLI's top-level handler, no exception converted into another
outside ``linsolve``, no unused module-level imports, no
function, class or method that the CLI's scenarios cannot reach, one
fixed-point loop, LU factorizations only in the solver modules,
two-operand assembly kernels that read the fluid geometry only through
its reference-coordinate coefficients, one quadrature rule, owned by the
spaces, exception classes that are either bad input or a failed solve,
and no defaulted parameter that no caller sets."""

import ast
import importlib
import inspect
from pathlib import Path

import fsichannel
from fsichannel.linsolve import SolverError
from fsichannel.spaces import FEFunction, Space

SRC = Path(fsichannel.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _catches_exception(handler):
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id == "Exception" for n in names)


def test_no_blanket_except_outside_cli_main():
    allowed = set()
    cli_main = next(n for n in _parse(SRC / "cli.py").body
                    if isinstance(n, ast.FunctionDef) and n.name == "main")
    for node in cli_main.body:  # handlers of main's own top-level try
        if isinstance(node, ast.Try):
            allowed |= {("cli.py", h.lineno) for h in node.handlers}
    found = []
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.ExceptHandler)
                    and (node.type is None or _catches_exception(node))
                    and (path.name, node.lineno) not in allowed):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"blanket except outside cli.main: {found}"


def test_no_handler_raises_a_new_exception_outside_linsolve():
    """A failure is raised once, as the class that detects it: a handler
    may re-raise (a bare ``raise``) but not convert.  ``linsolve`` is the
    exception, because it wraps SuperLU's ``RuntimeError``."""
    found = []
    for path in MODULES:
        if path.name == "linsolve.py":
            continue
        for handler in ast.walk(_parse(path)):
            if isinstance(handler, ast.ExceptHandler):
                found += [f"{path.name}:{node.lineno}"
                          for stmt in handler.body for node in ast.walk(stmt)
                          if isinstance(node, ast.Raise) and node.exc is not None]
    assert not found, f"exceptions converted in a handler: {found}"


def test_no_unused_module_level_imports():
    found = []
    for path in MODULES:
        tree = _parse(path)
        imported = {}  # bound name -> line
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name, line in imported.items():
            if name not in used:
                found.append(f"{path.name}:{line} {name}")
    assert not found, f"unused imports: {found}"


def _referenced_names(tree):
    """Every name read as an ``ast.Name`` or an attribute, with repeats."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]


_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Definitions kept although no scenario reaches them, each with its reason.
UNREACHED_ALLOWED = {
    "geomap.EllipticityError": "bench/workloads.py imports it to catch it",
}


def _own_names(node):
    """Names a definition's own code reads: a function's whole body; a
    class's bases, decorators and body statements, but not its methods,
    which are definitions of their own."""
    if not isinstance(node, ast.ClassDef):
        return _referenced_names(node)
    parts = node.bases + node.decorator_list + [
        item for item in node.body if not isinstance(item, _DEF)]
    return [name for part in parts for name in _referenced_names(part)]


def test_src_holds_only_what_the_scenarios_run():
    """Every function, class and method in src/ is reachable from the CLI:
    from ``cli.main``, the ``@scenario`` runners and the module-level
    statements (which run at import), a definition is reached when a
    reached body reads its name, and a reached class reaches its dunder
    methods (Python calls them).  Tests do not count as callers: code that
    only tests run belongs in tests/ (``oracles.py``)."""
    defs = {}  # "module.qualname" -> node
    names = set()  # names read by reached code
    reached = set()
    for path in MODULES:
        for node in _parse(path).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, _DEF):
                names.update(_referenced_names(node))
                continue
            key = f"{path.stem}.{node.name}"
            defs[key] = node
            for deco in node.decorator_list:
                names.update(_referenced_names(deco))
                if getattr(getattr(deco, "func", None), "id", None) == "scenario":
                    reached.add(key)
            if isinstance(node, ast.ClassDef):
                defs.update((f"{key}.{item.name}", item) for item in node.body
                            if isinstance(item, _DEF))
    reached.add("cli.main")
    for key in reached:
        names.update(_own_names(defs[key]))
    grown = True
    while grown:
        grown = False
        for key, node in defs.items():
            owner, _, method = key.rpartition(".")
            if key not in reached and (
                    node.name in names
                    or (owner in reached and method.startswith("__")
                        and method.endswith("__"))):
                reached.add(key)
                names.update(_own_names(node))
                grown = True
    unreached = sorted(set(defs) - reached)
    assert unreached == sorted(UNREACHED_ALLOWED), (
        f"definitions no scenario reaches: {unreached}")


def test_increment_ratios_appended_only_in_fixed_point():
    found = []
    for path in MODULES:
        for fn in ast.walk(_parse(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "append"
                        and isinstance(node.func.value, ast.Attribute)
                        and node.func.value.attr == "increment_ratios"):
                    found.append(f"{path.stem}.{fn.name}")
    assert found == ["fluid.fixed_point"], (
        f"increment ratios recorded outside the fixed-point driver: {found}")


def test_factorizations_built_only_in_solver_modules():
    """The fluid, the harmonic extension and the elasticity solver own every
    LU, each built at one call site: every fluid LU (the Stokes and both
    linearized operators) is a ``LinearizedSolver``'s, and the derivative
    and the probes solve on it."""
    found = {}
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "FrozenFactorization"):
                found[path.stem] = found.get(path.stem, 0) + 1
    assert found == {"elasticity": 1, "fluid": 1, "geomap": 1}


def test_exceptions_are_bad_input_or_solver_failures():
    """Every exception class of the package derives from ``ValueError``
    (the CLI exits 2) or ``SolverError`` (it exits 3)."""
    found = []
    for path in MODULES:
        module = importlib.import_module(f"fsichannel.{path.stem}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__
                    and issubclass(cls, BaseException)
                    and not issubclass(cls, (ValueError, SolverError))):
                found.append(f"{path.stem}.{name}")
    assert not found, f"exceptions outside the two roots: {found}"


def test_assembly_kernel_shape():
    """Every einsum contracts at most two operands without ``optimize=``
    (threaded BLAS dispatch would break bit-identity across thread counts),
    and assembly scatters through its fixed CSR patterns, not COO."""
    found = []
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum"
                    and (len(node.args) > 3
                         or any(k.arg == "optimize" for k in node.keywords))):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"einsum with more than two operands or optimize=: {found}"
    names = {n.id if isinstance(n, ast.Name) else n.attr
             for n in ast.walk(_parse(SRC / "assembly.py"))
             if isinstance(n, (ast.Name, ast.Attribute))}
    assert "coo_matrix" not in names


def test_fluid_weak_form_has_one_geometry_path():
    """Only ``action_coefficients`` reads the element geometry (physical
    gradients, Jacobians, weights) of the fluid weak form; the assembled
    blocks and the matrix-free action read its (a, k) planes."""
    geometry = {"grads_at", "inv_jac", "jac", "wdet"}
    fluid = ["assemble_viscous", "assemble_convection", "assemble_reaction",
             "assemble_pressure_blocks", "transformed_oseen_system",
             "oseen_action"]
    defs = {node.name: set(_referenced_names(node))
            for node in _parse(SRC / "assembly.py").body
            if isinstance(node, ast.FunctionDef)}
    found = {name: sorted(defs[name] & geometry) for name in fluid
             if defs[name] & geometry}
    assert not found, f"fluid kernels reading geometry: {found}"
    assert defs["action_coefficients"] & geometry


def test_one_quadrature_rule_owned_by_the_spaces():
    """Only ``quadrature`` (which defines the triangle rule) and ``spaces``
    (which evaluates the bases at it once per space) name its points;
    every other module reads a space's table, gather and quad_points, and
    no evaluation method takes points."""
    found = sorted(path.stem for path in MODULES
                   if "TRI_POINTS" in _referenced_names(_parse(path)))
    assert found == ["quadrature", "spaces"]
    for method in (Space.grads_at, FEFunction.values_at, FEFunction.gradients_at):
        assert list(inspect.signature(method).parameters) == ["self"]


ROOT = Path(__file__).resolve().parent.parent
CALLERS = [*MODULES, *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]

# Defaulted parameters kept although no call sets them, each with its reason.
UNSET_ALLOWED = {
    "linsolve.SolverError(report)":
        "subclasses are raised as error(message, report) through a variable",
}


def _defaulted_parameters():
    """``{called name: [(position, parameter, "module.qualname(parameter)")]}``
    for the module-level functions and the methods in src/ with a default:
    a method's position leaves out its first parameter, ``__init__`` is
    called by its class name, and a keyword-only parameter has position
    ``None``."""
    found = {}
    for path in MODULES:
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef):
                fns = [(node, node.name, node.name, 0)]
            elif isinstance(node, ast.ClassDef):
                fns = [(fn, node.name, node.name, 1) if fn.name == "__init__"
                       else (fn, fn.name, f"{node.name}.{fn.name}", 1)
                       for fn in node.body if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for fn, called, qualname, skip in fns:
                args = fn.args.posonlyargs + fn.args.args
                params = [(i - skip, args[i].arg)
                          for i in range(len(args) - len(fn.args.defaults), len(args))]
                params += [(None, arg.arg) for arg, default
                           in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                           if default is not None]
                found.setdefault(called, []).extend(
                    (pos, arg, f"{path.stem}.{qualname}({arg})") for pos, arg in params)
    return found


def test_every_defaulted_parameter_is_set_by_a_caller():
    """Every defaulted parameter of a function or method in src/ is set by
    some call in src/, tests/ or bench/ that names the function, by keyword
    or by position (a ``*args`` or ``**kwargs`` call sets every parameter):
    a setting no caller sets is a constant."""
    params = _defaulted_parameters()
    unset = {key for entries in params.values() for _, _, key in entries}
    for path in CALLERS:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords = {k.arg for k in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            for position, arg, key in params.get(name, ()):
                if (arg in keywords or None in keywords or starred
                        or position is not None and position < len(node.args)):
                    unset.discard(key)
    assert sorted(unset) == sorted(UNSET_ALLOWED), (
        f"defaulted parameters no caller sets: {sorted(unset - set(UNSET_ALLOWED))}")
