"""Per-file and project-wide analysis context.

:class:`ModuleContext` wraps one parsed source file: the ``ast`` tree
with parent links, the comment table from ``tokenize`` (which is where
``# repro-lint:`` pragmas and the ``# guarded-by:`` / ``# holds-lock:``
lock annotations live), the ``symtable`` (lazily built — it is the one
stdlib facility that knows a nested function's *free variables*, i.e.
whether it is a closure), and the module-level import map rules use to
resolve names like ``threading.Lock`` no matter how they were imported.

:class:`ProjectContext` holds every module of one lint run plus a class
index, so project-scoped rules (pickle-safety reachability) can chase
names across files.
"""

from __future__ import annotations

import ast
import io
import symtable
import tokenize
from pathlib import Path

#: Pragma vocabulary, all carried in comments:
#:   # repro-lint: disable=rule-a,rule-b      (this line / next line)
#:   # repro-lint: disable-file=rule-a        (whole file)
#:   # repro-lint: wire-root                  (extra pickle-reachability seed)
PRAGMA_PREFIX = "repro-lint:"
#: Lock-annotation vocabulary (see docs/lint.md):
#:   self._jobs: dict = {}   # guarded-by: _lock
#:   def _retire(self):      # holds-lock: _lock
GUARDED_BY = "guarded-by:"
HOLDS_LOCK = "holds-lock:"


def _rule_list(payload: str) -> list[str]:
    """The comma-separated rule names at the head of a pragma payload.

    Everything after the first whitespace is justification prose:
    ``disable=silent-except -- reaper loop must survive anything``
    disables exactly ``silent-except``.  (Hence: no spaces inside the
    rule list itself.)
    """
    head = payload.split(None, 1)[0] if payload.split() else ""
    return [rule.strip() for rule in head.split(",") if rule.strip()]


def _parse_comment_directive(comment: str, key: str) -> "str | None":
    """The payload of ``key`` inside a comment, or ``None``.

    ``# guarded-by: _lock`` → ``"_lock"``; tolerant of extra prose
    after the payload only for pragma lists (the caller splits).
    """
    text = comment.lstrip("#").strip()
    if not text.startswith(key):
        return None
    return text[len(key):].strip()


class ModuleContext:
    """One parsed source file plus everything rules ask about it."""

    def __init__(self, path: Path, source: str, *, root: "Path | None" = None):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.dotted_name = self._dotted_name(path)
        #: Repo-relative display path (what findings carry).
        self.display_path = str(path)
        if root is not None:
            try:
                self.display_path = str(path.relative_to(root))
            except ValueError:
                pass
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        #: line -> list of comment strings on that line.
        self.comments: dict[int, list[str]] = {}
        #: lines where the comment is the only content (standalone).
        self._standalone_comments: set[int] = set()
        self._scan_comments()
        self._file_disabled: set[str] = set()
        self._line_disabled: dict[int, set[str]] = {}
        #: Lines carrying a ``# repro-lint: wire-root`` marker.
        self.wire_root_lines: set[int] = set()
        #: line -> lock name from a ``# guarded-by:`` annotation.
        self.guarded_by: dict[int, str] = {}
        #: line -> lock name from a ``# holds-lock:`` annotation.
        self.holds_lock: dict[int, str] = {}
        self._scan_directives()
        self._symtable: "symtable.SymbolTable | None" = None
        self.imports = _module_imports(self.tree, self.dotted_name)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _dotted_name(path: Path) -> "str | None":
        """``repro.engine.pool`` for files inside a package, else None."""
        try:
            resolved = path.resolve()
        except OSError:
            return None
        if resolved.suffix != ".py":
            return None
        parts = [resolved.stem] if resolved.stem != "__init__" else []
        package = resolved.parent
        while (package / "__init__.py").exists():
            parts.insert(0, package.name)
            package = package.parent
        return ".".join(parts) if parts else None

    def _scan_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                line = token.start[0]
                self.comments.setdefault(line, []).append(token.string)
                before = self.lines[line - 1][: token.start[1]]
                if not before.strip():
                    self._standalone_comments.add(line)
        except tokenize.TokenError:
            # A file that parses but will not tokenize cleanly keeps
            # its AST-based findings; only comment pragmas are lost.
            return

    def _scan_directives(self) -> None:
        for line, comments in self.comments.items():
            for comment in comments:
                guarded = _parse_comment_directive(comment, GUARDED_BY)
                if guarded:
                    self.guarded_by[line] = guarded.split()[0]
                holds = _parse_comment_directive(comment, HOLDS_LOCK)
                if holds:
                    self.holds_lock[line] = holds.split()[0]
                pragma = _parse_comment_directive(comment, PRAGMA_PREFIX)
                if pragma is None:
                    continue
                if pragma.startswith("disable-file="):
                    rules = _rule_list(pragma[len("disable-file="):])
                    self._file_disabled.update(rules)
                elif pragma.startswith("disable="):
                    rules = set(_rule_list(pragma[len("disable="):]))
                    targets = [line]
                    if line in self._standalone_comments:
                        # A pragma on a line of its own covers the next
                        # line (the statement it annotates).
                        targets.append(line + 1)
                    for target in targets:
                        self._line_disabled.setdefault(target, set()).update(rules)
                elif pragma == "wire-root":
                    self.wire_root_lines.add(line)

    # -- what rules ask -------------------------------------------------------

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether a pragma disables ``rule`` at ``line``."""
        if rule in self._file_disabled:
            return True
        return rule in self._line_disabled.get(line, set())

    def parent(self, node: ast.AST) -> "ast.AST | None":
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST):
        """The chain of enclosing nodes, innermost first."""
        current = self._parents.get(id(node))
        while current is not None:
            yield current
            current = self._parents.get(id(current))

    def symbol_table(self) -> "symtable.SymbolTable | None":
        """The module's ``symtable`` (lazily built, None if it fails)."""
        if self._symtable is None:
            try:
                self._symtable = symtable.symtable(
                    self.source, str(self.path), "exec"
                )
            except (SyntaxError, ValueError):
                return None
        return self._symtable

    def qualified_name(self, node: ast.AST) -> "str | None":
        """Resolve a Name/Attribute chain through the import map.

        ``Lock`` imported via ``from threading import Lock`` resolves
        to ``"threading.Lock"``; ``t.Lock`` under ``import threading as
        t`` likewise.  Returns ``None`` for anything that is not a
        plain dotted chain.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.insert(0, current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.imports.get(current.id, current.id)
        return ".".join([head, *parts])

    def package_relpath(self) -> "str | None":
        """Path relative to the innermost package root, ``/``-joined
        (``engine/pool.py``), or None for files outside any package."""
        if self.dotted_name is None or "." not in self.dotted_name:
            return None
        return "/".join(self.dotted_name.split(".")[1:]) + ".py"

    def __repr__(self) -> str:
        return f"ModuleContext({self.display_path!r})"


def _module_imports(tree: ast.Module, dotted: "str | None") -> dict[str, str]:
    """Local name -> fully qualified dotted name, module level only."""
    imports: dict[str, str] = {}
    package_parts = dotted.split(".")[:-1] if dotted else []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    # ``import x.y`` binds the top-level name ``x``.
                    top = alias.name.split(".")[0]
                    imports[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if not package_parts or node.level > len(package_parts):
                    # Relative import with no resolvable package (e.g. a
                    # loose file): the names are still bound at module
                    # level, which is what most rules ask about.
                    base = node.module or ""
                else:
                    base_parts = package_parts[: len(package_parts) - node.level + 1]
                    base = ".".join(
                        base_parts + ([node.module] if node.module else [])
                    )
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


class ProjectContext:
    """Every module of one lint run, plus cross-file indexes."""

    def __init__(self, modules: list[ModuleContext]):
        self.modules = modules
        #: (dotted module name, class name) -> (module, ClassDef).
        self.classes: dict[tuple[str, str], tuple[ModuleContext, ast.ClassDef]] = {}
        #: dotted module name -> module.
        self.by_name: dict[str, ModuleContext] = {}
        for module in modules:
            if module.dotted_name is None:
                continue
            self.by_name[module.dotted_name] = module
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    self.classes[(module.dotted_name, node.name)] = (module, node)

    def resolve_class(
        self, module: ModuleContext, name_node: ast.AST
    ) -> "tuple[ModuleContext, ast.ClassDef] | None":
        """The project class a Name/Attribute in ``module`` refers to."""
        qualified = module.qualified_name(name_node)
        if qualified is None:
            return None
        head, _, tail = qualified.rpartition(".")
        if not head:
            # A bare local name: a class defined in this module?
            if module.dotted_name is not None:
                return self.classes.get((module.dotted_name, qualified))
            for key, value in self.classes.items():
                if key[1] == qualified and value[0] is module:
                    return value
            return None
        found = self.classes.get((head, tail))
        if found is not None:
            return found
        # ``from pkg import module`` followed by ``module.Class``.
        return self.classes.get((qualified.rpartition(".")[0], tail))
