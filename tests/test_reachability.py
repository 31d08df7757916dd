"""Every definition in src/weaklind is reached by something a run executes.

An AST walk starts at cli.main, at module-level code, at the documented
one-point API (evolve, weak_value_dissipative, weak_value_limit_infinite) and
at the module attributes that bench/tracing.py patches (its LAYERS). It
follows every name a reached definition's source mentions: a bare name
through the module's own definitions and its `from .x import` aliases, an
attribute of a module alias to that module, and any other attribute name to
every method of that name (attribute lookups are not resolved by type, so
this errs towards reaching). A class reaches its dunder methods. A function,
class, method or module-level constant that none of this reaches is code
only tests call, and the test fails naming it.
"""

import ast
import importlib.util
import pathlib
import sys

import weaklind

SRC = pathlib.Path(weaklind.__file__).resolve().parent
TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
API = ("lindblad.evolve", "weakvalue.weak_value_dissipative",
       "weakvalue.weak_value_limit_infinite")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _targets(stmt: ast.stmt) -> list[str]:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


class Program:
    """The definitions of every module of a package directory, each with the
    source nodes it runs when reached."""

    def __init__(self, src: pathlib.Path):
        self.bodies: dict[str, list[ast.AST]] = {}   # qualified name -> nodes
        self.methods: dict[str, list[str]] = {}      # method name -> qualified names
        self.dunders: dict[str, list[str]] = {}      # class -> its dunder methods
        self.aliases: dict[str, dict[str, str]] = {}  # module -> local name -> target
        self.module_code: list[tuple[str, ast.AST]] = []
        for path in sorted(src.glob("*.py")):
            self._add_module(path.stem, ast.parse(path.read_text(encoding="utf-8")))

    def _add_module(self, mod: str, tree: ast.Module) -> None:
        aliases = self.aliases.setdefault(mod, {})
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for a in stmt.names:
                    # `from . import x` names a module, `from .x import y` a member of x
                    target = a.name if stmt.module is None else f"{stmt.module}.{a.name}"
                    aliases[a.asname or a.name] = target
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                self._add_definition(mod, stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _targets(stmt):
                for name in _targets(stmt):
                    if not _is_dunder(name):
                        self.bodies[f"{mod}.{name}"] = [stmt]
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self.module_code.append((mod, stmt))

    def _add_definition(self, mod: str, node) -> None:
        qual = f"{mod}.{node.name}"
        if isinstance(node, ast.FunctionDef):
            self.bodies[qual] = [node]
            return
        # a class runs its bases, decorators and body statements when defined
        self.bodies[qual] = [*node.bases, *node.decorator_list, *node.keywords]
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                method = f"{qual}.{stmt.name}"
                self.bodies[method] = [stmt]
                if _is_dunder(stmt.name):
                    self.dunders.setdefault(qual, []).append(method)
                else:
                    self.methods.setdefault(stmt.name, []).append(method)
            else:
                self.bodies[qual].append(stmt)

    def resolve(self, mod: str, name: str) -> str | None:
        """The definition a name of module mod stands for, through re-exports."""
        seen = set()
        while (mod, name) not in seen:
            seen.add((mod, name))
            if f"{mod}.{name}" in self.bodies:
                return f"{mod}.{name}"
            target = self.aliases.get(mod, {}).get(name)
            if target is None or "." not in target:
                return None
            mod, name = target.split(".", 1)
        return None

    def _module_alias(self, mod: str, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            target = self.aliases.get(mod, {}).get(node.id)
            if target is not None and target in self.aliases:
                return target
        return None

    def mentions(self, mod: str, nodes) -> set[str]:
        """The definitions that the names in nodes (code of module mod) reach."""
        out = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    out.add(self.resolve(mod, sub.id))
                elif isinstance(sub, ast.Attribute):
                    owner = self._module_alias(mod, sub.value)
                    if owner is not None:
                        out.add(self.resolve(owner, sub.attr))
                    else:
                        out.update(self.methods.get(sub.attr, ()))
        out.discard(None)
        return out

    def reached(self, roots) -> set[str]:
        seen = set()
        todo = list(roots)
        for mod, stmt in self.module_code:
            todo.extend(self.mentions(mod, [stmt]))
        while todo:
            qual = todo.pop()
            if qual in seen:
                continue
            seen.add(qual)
            mod = qual.split(".", 1)[0]
            todo.extend(self.mentions(mod, self.bodies[qual]))
            todo.extend(self.dunders.get(qual, ()))
        return seen


def layer_roots(monkeypatch) -> list[tuple[str, str]]:
    """The (module, attribute) pairs that bench/tracing.py patches, from its
    LAYERS, loaded as test_benchmark_tracing_layers_resolve loads it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclass looks itself up
    spec.loader.exec_module(tracing)
    return [(module.removeprefix("weaklind."), attr)
            for modules, attr, *_ in tracing.LAYERS for module in modules]


def unreached(src: pathlib.Path, layers) -> list[str]:
    program = Program(src)
    roots = ["cli.main", *API, *(program.resolve(mod, attr) for mod, attr in layers)]
    assert None not in roots, roots
    return sorted(set(program.bodies) - program.reached(roots))


def test_every_source_definition_is_reached(monkeypatch):
    assert unreached(SRC, layer_roots(monkeypatch)) == []


def test_a_definition_nothing_calls_is_reported(tmp_path, monkeypatch):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "meter.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _orphan():\n    return invert_weak_value\n")
    assert unreached(tmp_path, layer_roots(monkeypatch)) == ["meter._orphan"]


def test_oracles_import_nothing_from_the_library():
    # a reference that imports the code it checks is not independent
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and not [m for m in imported if m.split(".")[0] == "weaklind"]
