"""Reachability gate: ``src/`` ships what an entry point reaches.

An *entry point* is what a user runs and a gate executes: ``python -m
repro <command>`` (``repro/__main__.py``) and every ``.py`` under
``benchmarks/``, ``scripts/`` and ``examples/``.  Three static walks start
there, all on the standard library's ``ast`` alone:

* **modules** — follow import statements; ``from pkg import name``
  follows ``name`` through eager and ``lazy_exports`` re-exports to the
  module that defines it, so a package ``__init__`` that re-exports a
  module does not keep it alive.  A ``"pkg.module:function"`` string —
  how the experiment registry names its runners — is an import of that
  function;
* **names** — a function, class or method of a reached module is alive
  when reached code mentions its name, and its body then counts as
  reached code.  Every same-named definition stays alive, so the walk can
  miss dead code but cannot flag live code.  Import statements and
  ``__all__`` are not mentions; a root may also name its target in a
  string, as ``benchmarks/e2e/layers.py`` does;
* **parameters** (over the packages of ``GATED_PACKAGES``) — a parameter
  with a default, or a defaulted field of a ``frozen=True`` dataclass, is
  a knob somebody turns: some call of that name sets it, by keyword, by
  position or through ``*`` / ``**``.  One no call sets is a constant
  written as an option, unless ``ALLOWED_KNOBS`` names the test that
  turns it.

What the first two walks do not reach must equal ``ALLOWED``, each entry
with the reason it stays: a frozen-benchmark target, what a named test
compares against or drives, or a file another ROADMAP item owns — not
"might be useful".  The same file holds the documents to the tree
(DESIGN.md §6, the module map of docs/architecture.md).
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROOT_DIRS = ("benchmarks", "scripts", "examples")

ALLOWED = {
    "repro.routing.disjoint":
        "frozen benchmarks/e2e/layers.py wraps its shortest_path by module "
        "name; goes with ROADMAP item 2",
    "repro.core.muxkernel":
        "frozen benchmarks/e2e/layers.py wraps VectorLinkMux.preview_add by "
        "module name; goes with ROADMAP 2(viii)",
    "repro.routing.shortest.RouteConstraints.allows_link":
        "the per-link predicate tests/routing_oracle.py's reference search "
        "filters with",
}


def _module_name(src: Path, path: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@functools.cache
def parse_package(src: Path, package: str) -> "dict[str, ast.Module]":
    """Dotted module name -> tree, for every module of ``src/package``."""
    return {
        _module_name(src, path): ast.parse(path.read_text())
        for path in sorted((src / package).rglob("*.py"))
    }


#: ``"pkg.module:function"``, the entry-point spelling.
_ENTRY_POINT = re.compile(r"[\w.]+:\w+")


def _entry_point(node) -> "tuple[str, str] | None":
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _ENTRY_POINT.fullmatch(node.value)):
        module, _, name = node.value.partition(":")
        return module, name
    return None


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _imports(tree):
    """``(module, name or None)`` for every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                yield node.module, alias.name


def _reexports(module: str, tree: ast.Module) -> "dict[str, tuple[str, str]]":
    """Name ``module`` exports -> ``(module, name)`` it imports it from."""
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                table[alias.asname or alias.name] = (node.module, alias.name)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            for submodule, names in ast.literal_eval(node.args[1]).items():
                for name in names:
                    table[name] = (f"{module}.{submodule}", name)
    return table


def _mentions(nodes, *, strings: bool = False) -> "set[str]":
    """Every identifier the subtrees mention — the function of a
    ``"module:function"`` string included (``strings``: and every string
    constant that is an identifier)."""
    found = set()
    todo = list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif entry := _entry_point(node):
            found.add(entry[1])
        elif (strings and isinstance(node, ast.Constant)
                and isinstance(node.value, str) and node.value.isidentifier()):
            found.add(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return found


def _definitions(module: str, tree: ast.Module):
    """``(dotted name, parent or None, simple name, own mentions)`` for the
    module's functions and classes and, one level down, a class's members.
    A class owns its decorators, bases and attribute statements; a function
    owns its whole body."""
    for node in tree.body:
        if not _is_def(node):
            continue
        top = f"{module}.{node.name}"
        if not isinstance(node, ast.ClassDef):
            yield top, None, node.name, _mentions([node])
            continue
        members = [child for child in node.body if _is_def(child)]
        own = [c for c in ast.iter_child_nodes(node) if c not in members]
        yield top, None, node.name, _mentions(own)
        for member in members:
            yield f"{top}.{member.name}", top, member.name, _mentions([member])


def unreached(src: Path, package: str, roots: "list[Path]") -> "set[str]":
    """Dotted names of the modules no root imports and, inside the reached
    modules, of the definitions no reached code mentions."""
    modules = parse_package(src, package)
    exports = {name: _reexports(name, tree) for name, tree in modules.items()}

    def home(module: str, name: str, seen=()) -> str:
        """The module ``from module import name`` ends up reading."""
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        origin = exports[module].get(name)
        if origin is None or origin[0] not in modules or origin in seen:
            return module
        return home(*origin, seen + (origin,))

    reached: "set[str]" = set()
    todo: "list[tuple[str | None, ast.Module]]" = []

    def reach(module: str) -> None:
        # Importing a module runs the __init__ of every enclosing package.
        while module and module not in reached:
            reached.add(module)
            todo.append((module, modules[module]))
            module = module.rpartition(".")[0]

    root_trees = []
    for path in roots:
        if src in path.parents:
            reach(_module_name(src, path))
            root_trees.append(modules[_module_name(src, path)])
        else:
            root_trees.append(ast.parse(path.read_text()))
            todo.append((None, root_trees[-1]))
    while todo:
        importer, tree = todo.pop()
        for module, name in _imports(tree):
            if module not in modules:
                continue
            target = module if name is None else home(module, name)
            # What a package's __init__ imports from its own submodules is
            # a re-export: followed per name, from whoever imports it.
            if importer is None or not target.startswith(importer + "."):
                reach(target)
        # A "module:function" string imports when it is read, whoever
        # holds it — the registry is its package's __init__.
        for module, _ in filter(None, map(_entry_point, ast.walk(tree))):
            if module in modules:
                reach(module)

    mentioned = _mentions(root_trees, strings=True)
    pending = {}
    for module in reached:
        tree = modules[module]
        mentioned |= _mentions(n for n in tree.body if not _is_def(n))
        for dotted, parent, name, own in _definitions(module, tree):
            pending[dotted] = (parent, name, own)
    alive: "set[str]" = set()
    grew = True
    while grew:
        grew = False
        for dotted, (parent, name, own) in list(pending.items()):
            dunder = name.startswith("__") and name.endswith("__")
            if (parent is None or parent in alive) and (
                    dunder or name in mentioned):
                alive.add(dotted)
                mentioned |= own
                del pending[dotted]
                grew = True
    dead = {dotted for dotted, (parent, _, _) in pending.items()
            if parent is None or parent in alive}
    return (set(modules) - reached) | dead


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(decorator, ast.Call)
        and getattr(decorator.func, "id", None) == "dataclass"
        and any(keyword.arg == "frozen"
                and getattr(keyword.value, "value", False)
                for keyword in decorator.keywords)
        for decorator in node.decorator_list
    )


def _fields(node: ast.ClassDef) -> "list[tuple[str, bool]]":
    """``(name, has a default)`` for each ``__init__`` field the class body
    declares, in order (a ``ClassVar`` or ``field(init=False)`` is none)."""
    found = []
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        value = statement.value
        keywords = {}
        if (isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "field"):
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
        defaulted = value is not None and (
            not keywords or "default" in keywords
            or "default_factory" in keywords)
        found.append((statement.target.id, defaulted))
    return found


def unset_parameters(src: Path, package: str, roots: "list[Path]",
                     under: str) -> "set[str]":
    """``module.function(parameter)`` for every defaulted parameter of a
    function or method, and ``module.Class.field`` for every defaulted
    field of a frozen dataclass, defined under the module prefix
    ``under`` that no call in the package or the roots sets.  A call is
    matched to a definition by the callee's simple name (a class: its
    ``__init__``, or its fields, the inherited ones first; a keyword of
    ``dataclasses.replace`` sets every field of that name), so a call
    through an alias is not seen."""
    modules = parse_package(src, package)
    classes = {
        node.name: node
        for tree in modules.values() for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def init_fields(node: ast.ClassDef) -> "list[tuple[str, bool]]":
        inherited = [
            entry for base in node.bases
            if getattr(base, "id", None) in classes
            for entry in init_fields(classes[base.id])
        ]
        return inherited + _fields(node)

    trees = [*modules.values(),
             *(ast.parse(path.read_text()) for path in roots
               if src not in path.parents)]
    calls: "dict[str, list[ast.Call]]" = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(
                    node.func, (ast.Name, ast.Attribute)):
                callee = getattr(node.func, "id", None) or node.func.attr
                calls.setdefault(callee, []).append(node)

    def is_set(callee: str, parameter: str, position: "int | None") -> bool:
        return any(
            any(keyword.arg in (None, parameter) for keyword in call.keywords)
            or position is not None and (
                len(call.args) > position
                or any(isinstance(arg, ast.Starred) for arg in call.args))
            for call in calls.get(callee, ())
        )

    unset = set()
    for module, tree in modules.items():
        if not (module == under or module.startswith(under + ".")):
            continue
        # Functions and, one level down, methods: ``self`` takes no
        # position at the call, and a class is called as its __init__.
        for top in tree.body:
            method = isinstance(top, ast.ClassDef)
            for node in (top.body if method else [top]):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                callee = top.name if node.name == "__init__" else node.name
                positional = node.args.posonlyargs + node.args.args
                first = len(positional) - len(node.args.defaults)
                defaulted = [
                    (arg.arg, index - method)
                    for index, arg in enumerate(positional) if index >= first
                ] + [
                    (arg.arg, None) for arg, default in zip(
                        node.args.kwonlyargs, node.args.kw_defaults)
                    if default is not None
                ]
                scope = f"{module}.{top.name}" if method else module
                unset |= {
                    f"{scope}.{node.name}({parameter})"
                    for parameter, position in defaulted
                    if not is_set(callee, parameter, position)
                }
            if method and _is_frozen_dataclass(top):
                unset |= {
                    f"{module}.{top.name}.{name}"
                    for position, (name, defaulted) in enumerate(
                        init_fields(top))
                    if defaulted and name in dict(_fields(top))
                    and not is_set(top.name, name, position)
                    and not is_set("replace", name, None)
                }
    return unset


def _roots() -> "list[Path]":
    roots = [REPO / "src" / "repro" / "__main__.py"]
    for directory in ROOT_DIRS:
        roots.extend(sorted((REPO / directory).rglob("*.py")))
    return roots


def test_src_ships_only_what_an_entry_point_reaches():
    found = unreached(REPO / "src", "repro", _roots())
    assert found == set(ALLOWED), (
        "not reached by any entry point (delete it, call it, or allow-list "
        f"it with a reason): {sorted(found - set(ALLOWED))}; allow-listed "
        f"but reached or gone: {sorted(set(ALLOWED) - found)}"
    )
    assert len(ALLOWED) <= 15 and all(ALLOWED.values())


#: The packages whose defaulted parameters must each have a caller.
GATED_PACKAGES = ("repro.experiments", "repro.chaos", "repro.scenario",
                   "repro.obs", "repro.sim", "repro.network", "repro.recovery",
                   "repro.core", "repro.cli", "repro.faults", "repro.channels",
                   "repro.datapath", "repro.serve", "repro.baselines",
                   "repro.parallel", "repro.workload", "repro.analysis",
                   "repro.util", "repro.protocol")


#: Defaulted parameters and fields no entry point sets that stay options,
#: each with the test that turns it.
ALLOWED_KNOBS = {
    "repro.core.overlap.OverlapPolicy.failure_probability":
        "tests/test_core_overlap.py's exact-mode boundary tests "
        "(test_exact_mode_matches_integer_off_the_boundary, "
        "test_exact_mode_boundary_decided_by_second_order_terms) drive "
        "lambda",
}


def test_no_experiment_parameter_has_a_default_nobody_overrides():
    found = set().union(*(
        unset_parameters(REPO / "src", "repro", _roots(), package)
        for package in GATED_PACKAGES
    ))
    assert found == set(ALLOWED_KNOBS), (
        "defaulted, and no call under src/, benchmarks/, scripts/ or "
        "examples/ sets it (make it a constant): "
        f"{sorted(found - set(ALLOWED_KNOBS))}; allow-listed but set or "
        f"gone: {sorted(set(ALLOWED_KNOBS) - found)}"
    )
    assert len(ALLOWED_KNOBS) <= 1 and all(ALLOWED_KNOBS.values())


def test_parameter_walk_flags_the_planted_knob(tmp_path):
    """``scale`` is set by keyword, ``shift`` by position, ``depth``
    through ``**``; nobody sets ``offset`` or ``Box(unit)``.  A string
    names ``run`` the way the experiment registry names a runner.  Of the
    frozen ``Knobs``' defaulted fields ``size`` is set by keyword and
    ``tag`` through ``dataclasses.replace``; ``rate`` only once a call
    passes a second positional argument (the first is the inherited
    ``name``); nobody sets ``depth``.  The plain dataclass ``Loose`` and
    the non-``__init__`` fields are not knobs."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('RUNNER = "pkg.used:run"\n')
    (package / "used.py").write_text(
        "from dataclasses import dataclass, field, replace\n"
        "from typing import ClassVar\n\n"
        "def run(shift=0, scale=1, offset=0):\n    return Box(depth=2)\n\n"
        "class Box:\n"
        "    def __init__(self, unit=1, **options):\n"
        "        self.unit = unit\n\n"
        "    def grow(self, depth=1):\n        return depth\n\n"
        "@dataclass(frozen=True)\n"
        "class Named:\n    name: str\n\n"
        "@dataclass(frozen=True)\n"
        "class Knobs(Named):\n"
        "    rate: float = 1.0\n"
        "    size: int = field(default=2)\n"
        "    depth: int = 3\n"
        "    tag: str = ''\n"
        "    seen: list = field(init=False)\n"
        "    LIMIT: ClassVar[int] = 4\n\n"
        "@dataclass\n"
        "class Loose:\n    width: int = 5\n\n"
        "def knobs():\n"
        "    return replace(Knobs('a', size=4), tag='b'), Loose()\n"
    )
    root = tmp_path / "run.py"
    root.write_text(
        "import pkg\n"
        "from pkg.used import Box, knobs\n"
        "print(pkg.RUNNER, Box().grow(**{'depth': 3}), knobs())\n"
    )
    src = tmp_path / "src"
    assert unreached(src, "pkg", [root]) == set()
    assert unset_parameters(src, "pkg", [root], "pkg") == {
        "pkg.used.run(shift)", "pkg.used.run(scale)", "pkg.used.run(offset)",
        "pkg.used.Box.__init__(unit)", "pkg.used.Knobs.rate",
        "pkg.used.Knobs.depth",
    }
    root.write_text(root.read_text() + "pkg.used.run(4, scale=2)\n"
                    "pkg.used.Knobs('c', 0.5)\n")
    assert unset_parameters(src, "pkg", [root], "pkg") == {
        "pkg.used.run(offset)", "pkg.used.Box.__init__(unit)",
        "pkg.used.Knobs.depth",
    }


def test_walker_flags_the_planted_module_and_function(tmp_path):
    """Three modules: ``planted`` is re-exported by the package but
    imported by no root; ``used.stray`` is public but mentioned by none."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.planted import orphan\nfrom pkg.used import helper\n"
        "__all__ = ['helper', 'orphan', 'stray']\n"
    )
    (package / "used.py").write_text(
        "def helper():\n    return _inner()\n\n"
        "def _inner():\n    return 1\n\n"
        "def stray():\n    return helper()\n"
    )
    (package / "planted.py").write_text("def orphan():\n    return 2\n")
    root = tmp_path / "run.py"
    root.write_text("from pkg import helper\nprint(helper())\n")
    assert unreached(tmp_path / "src", "pkg", [root]) == {
        "pkg.planted", "pkg.used.stray",
    }
    root.write_text(
        "from pkg import helper, orphan\nimport pkg.used\n"
        "print(helper(), orphan(), pkg.used.stray())\n"
    )
    assert unreached(tmp_path / "src", "pkg", [root]) == set()


def test_design_layout_names_every_package():
    design = (REPO / "DESIGN.md").read_text()
    layout = design[design.index("## 6. Repository layout"):]
    packages = sorted(
        path.parent.name
        for path in (REPO / "src" / "repro").glob("*/__init__.py")
    )
    missing = [name for name in packages if f"  {name}/" not in layout]
    assert not missing, f"DESIGN.md §6 omits {missing}"


def test_module_map_key_types_exist_in_their_package():
    """Every back-ticked identifier in the "Key types" column of
    docs/architecture.md's module map is defined in the package (or
    module) its row names."""
    modules = parse_package(REPO / "src", "repro")
    text = (REPO / "docs" / "architecture.md").read_text()
    rows = re.findall(r"^\| `(repro\.\w+)` \|.*\|(.*)\|$",
                      text[text.index("## Module map"):], flags=re.M)
    assert len(rows) >= 15
    for package, key_types in rows:
        defined = set()
        for name, tree in modules.items():
            if name == package or name.startswith(package + "."):
                defined |= {node.name for node in tree.body if _is_def(node)}
        wanted = re.findall(r"`([A-Za-z_]\w*)`", key_types)
        assert wanted, package
        assert not set(wanted) - defined, (package, set(wanted) - defined)
