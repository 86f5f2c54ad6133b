"""Source-level guards on the engine package.

Invariants are `ConsistencyError` raises, not `assert`s, so they hold under
`python -O`; and the engine is exact, so it has no float literal and no
`float(...)` call.  Every cache is on a named allowlist with its reason, so
a cache that only hides a slow layer cannot be added unseen, whether it is
a decorator or a module-level dict, list or set that a function fills.  The assembly
rule `products._assembly_case` is the only validity test, so no other
function raises `ShapeError`.  Every ladder the rule admits is the Levi
closed form, so the orbit route and the weight systems it builds stay
inside `repweights` and `hodgecore`, and the size guard that fronts them is
named only there and on `inspect`'s path: `cli._cmd_inspect` passes it to
`products._FactorSummary.eigen` for the one ladder built before the rule
runs, so the `max_dim` knob cannot creep back into the sweeps, the
summary table or the summaries.  No engine module runs dynamic code: `expected`
builds each row expression into exact functions from its parse tree.  A
factor summary is built at one site, the per-run `SummaryTable`, so no
route can summarise a factor twice in a run, and a factor's grading
element is built from its nodes only there: only `hodgecore`, which
defines it, and `products` name `from_nodes`.  The engine's records are
`collections.namedtuple` subclasses, built without `dataclasses` or
`typing`, and the packaged tables are read without `importlib.resources`,
so a cold start imports none of them, nor `inspect`.
Each computation has one route: every public module-level function is
read by name somewhere in the engine, or is one of the named library
entries, so a second entry that only tests call cannot be added unseen;
and only `products` names the assembly rule and the grouping the sweep
asks it by, so no other module restates the rule or sweeps around it.
The package's exported names are pinned, so an export is removed only by
a deliberate edit of that list.
"""
import ast
import functools
import json
import subprocess
import sys
import types
from pathlib import Path

import hodgerep

PACKAGE = Path(hodgerep.__file__).parent


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float(...) call"


def test_no_assert_or_float_in_engine():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = [f"{path.name}:{line}: {what}"
             for path in modules
             for line, what in _violations(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, found


def test_guard_detects_each_violation():
    tree = ast.parse("assert x\ny = 0.5\nz = float(y)\n")
    assert [what for _, what in _violations(tree)] == [
        "assert statement", "float literal 0.5", "float(...) call"]


def _unused_imports(tree):
    """(line, name) of each name a module imports and never reads; the
    `__future__` import binds no name."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_engine():
    """`__init__.py` re-exports; every other module reads what it imports."""
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, found


def test_bench_import_pins_hold():
    """The benchmark's tracer wraps `hodgecore.level` where `classify` and
    `products` import it, and its selfcheck pins both imports; a refactor
    that drops either one fails here, not only in the benchmark."""
    root = PACKAGE.parent.parent
    out = subprocess.run([sys.executable, "bench/selfcheck.py", "TracerInstall"],
                         cwd=root, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


# hodgerep's exported non-module names: removing or adding an export is an
# edit to this list, made on purpose
PUBLIC_NAMES = [
    "ConsistencyError", "EigenDecomp", "FactorSpec", "GradingElement", "HodgeRepError",
    "HodgeTuple", "HodgeVector", "InvalidTypeError", "LieType", "NonDominantError",
    "ReconciliationReport", "ResourceLimitError", "RootSystemData", "SearchConfig",
    "ShapeError", "WeightSystem", "center_charge", "convolve_eigen", "dual_weight",
    "enumerate_level", "extremal_dim_is_one", "hodge_vector", "level",
    "mu_plus_mu_star_closed_form", "real_form", "reality_type", "root_system",
    "tensor_reality", "verify_paper", "weight_system", "weyl_dim",
]
# the names the benchmark reaches the engine by; its tracer wraps `level`
BENCH_ENTRIES = ["verify_paper", "cli.main", "expected.load_expected", "level"]


def test_public_names_are_pinned():
    import hodgerep.cli
    import hodgerep.expected
    exported = sorted(name for name, value in vars(hodgerep).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES
    for dotted in BENCH_ENTRIES:
        assert callable(functools.reduce(getattr, dotted.split("."), hodgerep)), dotted


def test_unused_import_guard_detects_each_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport json as j\n"
        "from .a import b, c as d\nfrom .e import (f,\n    g)\n"
        "print(b, g, os.sep)\n")
    assert _unused_imports(tree) == [(4, "j"), (5, "d"), (6, "f")]


CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}

CACHE_ALLOWLIST = {
    "root_system": "one immutable catalog entry per simple type, read by every layer",
    "_dominant_multiplicities": "Freudenthal's recursion, summed over stabilizer-orbit "
                                "roots, once per (type, highest weight) for its "
                                "remaining callers: the orbit route of eigen_ladder "
                                "(inspect at span 0 or above 3) and the public "
                                "weight_system; its stabilizer orbits live for one "
                                "call only.  Not a cache that hides a slow layer: "
                                "without it, bench/run.py inspect_seeded seed 1 read "
                                "op_p50_ms +5% and wall_s +6% at the median, each "
                                "worse in 6 of 6 alternating 10 s pairs (2-core "
                                "x86-64 container, CPython 3.11)",
}


def _base_name(expr):
    """`lru_cache` for lru_cache, lru_cache(...), functools.lru_cache(...)."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return expr.id if isinstance(expr, ast.Name) else None


def _caches(tree):
    """(qualified name, line) of each definition under a cache decorator,
    and ("<call>", line) of each cache decorator applied by a plain call."""
    found, decorators = [], set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in child.decorator_list:
                    decorators.add(id(dec))
                    if _base_name(dec) in CACHE_DECORATORS:
                        found.append((prefix + child.name, dec.lineno))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and id(node) not in decorators
                and _base_name(node.func) in CACHE_DECORATORS):
            found.append(("<call>", node.lineno))
    return found


def test_every_cache_is_allowlisted():
    found = {name: f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for name, line in _caches(ast.parse(path.read_text(encoding="utf-8")))}
    assert sorted(set(found) - set(CACHE_ALLOWLIST)) == [], found
    assert sorted(set(CACHE_ALLOWLIST) - set(found)) == [], "stale allowlist entry"


def test_cache_guard_detects_each_form():
    tree = ast.parse(
        "import functools\n"
        "@lru_cache\ndef a(): pass\n"
        "@lru_cache(maxsize=None)\ndef b(): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef c(): pass\n"
        "@cache\ndef d(): pass\n"
        "@functools.cache\ndef e(): pass\n"
        "class K:\n"
        "    @cached_property\n    def f(self): pass\n"
        "    @functools.cached_property\n    def g(self): pass\n"
        "h = functools.lru_cache(maxsize=None)(len)\n"
        "@staticmethod\ndef i(): pass\n")
    assert [name for name, _ in _caches(tree)] == [
        "a", "b", "c", "d", "e", "K.f", "K.g", "<call>", "<call>"]


# calls that build an empty or filled container, and the methods that
# change one in place
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
MUTATORS = {"setdefault", "update", "add", "append", "appendleft", "extend", "extendleft",
            "insert", "pop", "popitem", "popleft", "remove", "discard", "clear", "sort",
            "reverse", "difference_update", "intersection_update",
            "symmetric_difference_update", "__setitem__", "__delitem__"}


def _is_container(value):
    return (isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                               ast.SetComp))
            or isinstance(value, ast.Call) and _base_name(value.func) in CONTAINER_CALLS)


def _root_name(expr):
    """`x` for x, x[k], x.attr and any chain of them; else None."""
    while isinstance(expr, (ast.Subscript, ast.Attribute)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _module_memos(tree):
    """(name, line) of each change, inside a function or lambda, of a
    dict, list or set bound at module level: a store, augmented store or
    `del` through a subscript of it, an augmented store to it, or a call
    of one of MUTATORS on it.  Names are read as written: a local that
    shadows a module-level container is reported too, and a local alias
    of one is not followed."""
    containers = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs = [(node.target, node.value)]
        else:
            continue
        while pairs:
            target, value = pairs.pop()
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
                    and len(target.elts) == len(value.elts):
                pairs.extend(zip(target.elts, value.elts))
            elif isinstance(target, ast.Name) and _is_container(value):
                containers.add(target.id)
    found = set()
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    for function in functions:
        for node in ast.walk(function):
            changed = []
            if isinstance(node, (ast.Subscript, ast.Attribute)) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                changed.append(node)
            elif isinstance(node, ast.AugAssign):
                changed.append(node.target)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS:
                changed.append(node.func.value)
            found.update((name, node.lineno) for name in map(_root_name, changed)
                         if name in containers)
    return sorted(found, key=lambda item: (item[1], item[0]))


def test_no_module_level_memo_outlives_a_run():
    """No engine function changes a module-level dict, list or set, so no
    memo outlives the run that filled it, unless it is on the cache
    allowlist."""
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for name, line in _module_memos(ast.parse(path.read_text(encoding="utf-8")))
             if name not in CACHE_ALLOWLIST]
    assert not found, found


def test_module_memo_guard_detects_each_form():
    tree = ast.parse(
        "A = {}\nB: dict = dict()\nC, D = [], set()\nE = F = defaultdict(list)\n"
        "G = {k: 0 for k in 'ab'}\nH = (1, 2)\nI = {'x': []}\nJ = frozenset()\n"
        "def f(k):\n"
        "    A[k] = 1\n"
        "    B.setdefault(k, 2)\n"
        "    C.append(k)\n"
        "    D.add(k)\n"
        "    del E[k]\n"
        "    F[k] += 1\n"
        "    I['x'].append(k)\n"
        "    G.update(a=1)\n"
        "    return H[0], A.get(k), J, I['x'][0]\n"
        "g = lambda k: C.extend([k])\n"
        "class K:\n"
        "    def m(self, k):\n"
        "        self.cache[k] = 1\n"
        "        global D\n"
        "        D |= {k}\n"
        "A['top'] = 0\n")
    assert _module_memos(tree) == [
        ("A", 10), ("B", 11), ("C", 12), ("D", 13), ("E", 14), ("F", 15), ("I", 16),
        ("G", 17), ("C", 19), ("D", 24)]


# public module-level functions that no engine module reads, each with the
# reason it stays
LIBRARY_ENTRIES = {
    "rootdata.mu_plus_mu_star_closed_form": "paper content: the per-type closed forms "
                                            "of mu + mu*, checked by acceptance criterion 1",
    "classify.evaluate_simple": "the library's one-candidate entry, read by acceptance "
                                "criterion 3; the sweeps take products.product_tuples",
}


def _unread_functions(modules):
    """"module.function" of each public module-level function of `modules`
    (module name -> parse tree) that no module reads by name: in its own
    module outside its own body, or in a module that imports it.  Methods
    are left out, since attribute names collide across records."""
    public, read = set(), set()
    for module, tree in modules.items():
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                bound[node.name] = f"{module}.{node.name}"
                if not node.name.startswith("_"):
                    public.add(bound[node.name])
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                bound.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        for node in tree.body:
            read.update(bound[n.id] for n in ast.walk(node) if isinstance(n, ast.Name)
                        and n.id in bound and n.id != getattr(node, "name", None))
    return sorted(public - read)


def test_every_public_function_has_an_engine_reader():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    unread = _unread_functions(modules)
    assert sorted(set(unread) - set(LIBRARY_ENTRIES)) == [], unread
    assert sorted(set(LIBRARY_ENTRIES) - set(unread)) == [], "stale allowlist entry"


def test_reader_guard_detects_each_form():
    a = ast.parse(
        "def used(): pass\n"
        "def aliased(): pass\n"
        "def by_attribute(): pass\n"
        "def recursive():\n    return recursive()\n"
        "def _private(): pass\n"
        "def local():\n    return used\n"
        "class K:\n    def method(self):\n        return local()\n")
    b = ast.parse(
        "from .a import aliased as al\n"
        "from . import a\n"
        "def shadowed(by_attribute, recursive):\n"
        "    return a.by_attribute, by_attribute, recursive, al, 'shadowed'\n")
    assert _unread_functions({"a": a, "b": b}) == [
        "a.by_attribute", "a.recursive", "b.shadowed"]


def _shape_error_raises(tree):
    """(line, enclosing definition) of each `raise` of ShapeError, bare,
    called or qualified; the definition is qualified as in `_names`, and
    "" at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}".lstrip(".")
            if (isinstance(child, ast.Raise) and child.exc is not None
                    and _base_name(child.exc) == "ShapeError"):
                found.append((child.lineno, inner))
            visit(child, inner)

    visit(tree, "")
    return sorted(found)


# the one validity test: every ShapeError the engine raises comes from it
RULE_SITE = ("products.py", "_assembly_case")


def test_only_products_raises_shape_error():
    """Every `raise ShapeError` in the engine sits in `products._assembly_case`."""
    found = [f"{path.name}:{line} in {where or '<module>'}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, where in _shape_error_raises(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, where) != RULE_SITE]
    assert not found, found


def test_shape_error_guard_detects_each_form():
    tree = ast.parse(
        "raise ShapeError('a')\nraise ShapeError\nraise errors.ShapeError('b')\n"
        "raise ValueError('c')\nraise\nexcept_ = ShapeError('d')\n"
        "class C:\n    def m(self):\n        raise ShapeError('e')\n"
        "def f():\n    def g():\n        raise ShapeError('f')\n")
    assert _shape_error_raises(tree) == [(1, ""), (2, ""), (3, ""), (9, "C.m"),
                                         (12, "f.g")]


# the assembly rule and the sweep's grouping by what it reads: one route
# from candidates to tuples, so no other module restates or asks the rule
RULE_NAMES = {"_assembly_case", "_admits", "_groups"}


def test_only_products_names_the_assembly_rule():
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "products.py"
             for line in _names(ast.parse(path.read_text(encoding="utf-8")), RULE_NAMES)]
    assert not found, found


def _names(tree, idents, allowed=frozenset()):
    """Lines naming one of the identifiers `idents` (a name, attribute,
    parameter, keyword, definition or import) outside the definitions
    `allowed`, each given by its qualified name: "f" for a top-level
    function, "C.m" for a method."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}".lstrip(".")
                if inner in allowed:
                    continue
            attrs = ("id", "attr", "arg", "name", "asname")
            if idents & {getattr(child, attr, None) for attr in attrs}:
                found.add(child.lineno)
            visit(child, inner)

    visit(tree, "")
    return sorted(found)


# the orbit route and its weight systems: every ladder the rule admits is
# the Levi closed form, so only the modules that implement the route, and
# the re-exporting package, name it; `weyl_orbit` and `eigenspace_dims`,
# its former second entries, are gone and stay forbidden elsewhere
ORBIT_ROUTE = {"weight_system", "weyl_orbit", "_orbit_depths", "_orbit_ladder",
               "eigenspace_dims"}
ORBIT_ROUTE_MODULES = {"repweights.py", "hodgecore.py", "__init__.py"}


def test_orbit_route_stays_in_repweights_and_hodgecore():
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name not in ORBIT_ROUTE_MODULES
             for line in _names(ast.parse(path.read_text(encoding="utf-8")), ORBIT_ROUTE)]
    assert not found, found


def test_orbit_route_guard_detects_each_form():
    tree = ast.parse(
        "from .repweights import weight_system\n"
        "from .hodgecore import eigenspace_dims as dims\n"
        "import hodgecore\n"
        "x = hodgecore.weyl_orbit(t, w)\n"
        "y = _orbit_ladder\n"
        "def f(eigenspace_dims): pass\n"
        "g(weight_system=1)\n"
        "def weyl_orbit(): pass\n"
        "z = eigen_ladder(t, mu, E, 1)\n"
        "s = 'weight_system'\n"
        "weight_systems = levi_dim\n"
        "repweights._orbit_depths(lam, nb, painted, 0, m, counts)\n")
    assert _names(tree, ORBIT_ROUTE) == [1, 2, 4, 5, 6, 7, 8, 12]


# the size guard fronts only the weight systems that the orbit route
# builds: the modules that build them may name max_dim anywhere; elsewhere
# only inspect names it, and the one summary method it passes it to
MAX_DIM_MODULES = {"repweights.py", "hodgecore.py"}
MAX_DIM_DEFINITIONS = {"cli.py": {"_cmd_inspect"}, "products.py": {"_FactorSummary.eigen"}}


def test_max_dim_only_where_weight_systems_are_built():
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name not in MAX_DIM_MODULES
             for line in _names(ast.parse(path.read_text(encoding="utf-8")), {"max_dim"},
                                MAX_DIM_DEFINITIONS.get(path.name, frozenset()))]
    assert not found, found


def test_max_dim_guard_detects_each_form():
    tree = ast.parse(
        "def f(max_dim): pass\n"
        "g(max_dim=1)\n"
        "x = cfg.max_dim\n"
        "max_dim = 2\n"
        "def max_dim(): pass\n"
        "def inspect(args):\n    return g(max_dim=args.max_dim)\n"
        "DEFAULT_MAX_DIM = _max_dim = 'max_dim'\n"
        "class S:\n"
        "    __slots__ = ('max_dim',)\n"
        "    def __init__(self, max_dim):\n"
        "        self.max_dim = max_dim\n"
        "    def eigen(self, max_dim=1):\n"
        "        return g(max_dim)\n"
        "def eigen(max_dim): pass\n")
    assert _names(tree, {"max_dim"}, {"inspect", "S.eigen"}) == [1, 2, 3, 4, 5, 11, 12, 15]


DYNAMIC_CODE = {"eval", "exec", "compile"}


def _dynamic_code_calls(tree):
    """Lines of each call of eval, exec or compile, bare or through
    `builtins`; `re.compile` and other methods named compile are not
    dynamic code."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _base_name(node.func) in DYNAMIC_CODE
            and (isinstance(node.func, ast.Name)
                 or isinstance(node.func.value, ast.Name)
                 and node.func.value.id in ("builtins", "__builtins__"))]


def test_no_dynamic_code_in_engine():
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line in _dynamic_code_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, found


def test_dynamic_code_guard_detects_each_form():
    tree = ast.parse(
        "eval('1')\nexec('x = 1')\ncompile('1', '<s>', 'eval')\n"
        "builtins.eval('1')\n__builtins__.exec('x = 1')\n"
        "re.compile('a')\nf = eval\nevaluate('1')\n")
    assert _dynamic_code_calls(tree) == [1, 2, 3, 4, 5]


# the one place a factor summary is built: the per-run table
SUMMARY_SITES = ["products.py:SummaryTable.summarise"]


def _summary_sites(tree):
    """(enclosing definition, line) of each read of `_FactorSummary`, bare
    or qualified, outside an annotation: a call builds a summary, and any
    other read (an alias, an argument, a base class) can build one
    elsewhere.  Annotations only name the type."""
    annotations = set()
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if ann is not None:
                annotations.update(id(n) for n in ast.walk(ann))
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (id(child) not in annotations
                    and (isinstance(child, ast.Name) and child.id == "_FactorSummary"
                         or isinstance(child, ast.Attribute)
                         and child.attr == "_FactorSummary")):
                found.append((where, child.lineno))
            inner = (f"{where}.{child.name}".lstrip(".") if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else where)
            visit(child, inner)

    visit(tree, "")
    return found


def test_one_site_builds_factor_summaries():
    found = [f"{path.name}:{where or '<module>'}"
             for path in sorted(PACKAGE.glob("*.py"))
             for where, _ in _summary_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == SUMMARY_SITES


def test_summary_guard_detects_each_form():
    tree = ast.parse(
        "class T:\n"
        "    def summary(self, f):\n"
        "        return _FactorSummary(f, 1, 2)\n"
        "s = products._FactorSummary(f, 1, 2)\n"
        "def g(pool):\n"
        "    return [_FactorSummary(f, 1, 2) for f in pool]\n"
        "h = lambda f: _FactorSummary(f, 1, 2)\n"
        "make = _FactorSummary\n"
        "out = list(map(_FactorSummary, pool))\n"
        "class Sub(_FactorSummary):\n"
        "    pass\n"
        "def k(s: _FactorSummary, t: 'Sequence[_FactorSummary]') -> List[_FactorSummary]:\n"
        "    x: Dict[tuple, _FactorSummary] = {}\n"
        "    return '_FactorSummary(s)'\n")
    assert _summary_sites(tree) == [
        ("T.summary", 3), ("", 4), ("g", 6), ("", 7), ("", 8), ("", 9), ("Sub", 10)]


# the modules that name `GradingElement.from_nodes`: hodgecore defines it,
# and the summary table is the one engine site that builds a factor's
# grading element from its key's nodes
FROM_NODES_MODULES = ["hodgecore.py", "products.py"]


def _from_nodes_names(tree):
    """Lines that name `from_nodes`: an attribute, a bare name, a
    definition, an import or a string that is the name."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "from_nodes"
        or isinstance(node, ast.Name) and node.id == "from_nodes"
        or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "from_nodes"
        or isinstance(node, ast.alias) and node.name.split(".")[-1] == "from_nodes"
        or isinstance(node, ast.Constant) and node.value == "from_nodes")


def test_from_nodes_is_named_only_where_defined_and_in_the_summary_table():
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if _from_nodes_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == FROM_NODES_MODULES


def test_from_nodes_guard_detects_each_form():
    tree = ast.parse(
        "E = GradingElement.from_nodes(3, [1])\n"
        "make = hodgecore.GradingElement.from_nodes\n"
        "from .hodgecore import from_nodes\n"
        "build = getattr(GradingElement, 'from_nodes')\n"
        "def from_nodes(rank, nodes):\n"
        "    return rank\n"
        "x = [from_nodes]\n"
        "s = 'GradingElement.from_nodes(3, [1])'\n"
        "nodes_from = E.from_node\n")
    assert _from_nodes_names(tree) == [1, 2, 3, 4, 5, 7]


# record libraries the engine does without: the records are namedtuples
RECORD_LIBRARIES = {"dataclasses", "typing"}


def _dataclass_imports(tree):
    """Lines importing one of RECORD_LIBRARIES, by `import` (plain, aliased
    or in a list) or by `from <library> import ...`."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] in RECORD_LIBRARIES for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] in RECORD_LIBRARIES)


def test_no_engine_module_imports_dataclasses():
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line in _dataclass_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, found


def test_dataclass_import_guard_detects_each_form():
    tree = ast.parse(
        "import dataclasses\n"
        "import os, dataclasses as dc\n"
        "from dataclasses import dataclass\n"
        "from dataclasses import (field,\n    replace)\n"
        "def f():\n    import dataclasses\n"
        "from .dataclasses import x\n"
        "import typing\n"
        "from typing import NamedTuple\n"
        "s = 'dataclasses'\n")
    assert _dataclass_imports(tree) == [1, 2, 3, 4, 7, 9, 10]


# what a cold `hodgerep` run must not import: `dataclasses` pulls in
# `inspect`, `typing` compiles a ForwardRef per annotated record field, and
# `importlib.resources` pulls in `pathlib`, `tempfile` and more
COLD_START_ABSENT = ("dataclasses", "inspect", "typing", "importlib.resources")


def test_cold_start_imports_no_dataclasses_inspect_or_resources():
    """In a fresh `python -I -S`, importing the CLI and loading the packaged
    tables leaves each module of COLD_START_ABSENT unimported."""
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
            "import hodgerep.cli\n"
            "from hodgerep.expected import load_expected\n"
            "load_expected()\n"
            "print(json.dumps([hodgerep.__file__, sorted(sys.modules)]))\n")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    origin, loaded = json.loads(out.stdout)
    assert Path(origin).parent == PACKAGE
    assert "hodgerep.cli" in loaded and "ast" in loaded
    assert [name for name in COLD_START_ABSENT if name in loaded] == []
