"""Wire-protocol rules: authenticate before unpickling, ship names not code.

The transport's security story rests on two invariants:

* **Token before pickle** — every accept path reads the raw token
  preamble (``recv_raw``) and checks it with
  ``secrets.compare_digest`` *before* the first ``recv()`` (which
  unpickles).  An unauthenticated peer must never get bytes into
  ``pickle.loads``.  ``unpickle-before-auth`` checks the ordering
  inside every function that performs the digest comparison.

* **The task map ships names, not code** — workers map the wire names
  ``"map"``/``"reduce"`` to the module-level functions
  ``execute_map_task``/``execute_reduce_task`` (``TASK_UNITS`` in
  ``repro.worker``, the one registry; the driver derives its
  function → name map from it).  ``task-whitelist`` pins the registry
  to exactly those whitelisted module-level names: a lambda, call
  result, attribute lookup or unlisted function in the map would widen
  what a driver can make a worker execute.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import ModuleContext
from .findings import Finding
from .registry import register_rule

#: The only functions the worker task registry may reference.
ALLOWED_TASK_UNITS = {"execute_map_task", "execute_reduce_task"}
#: Module-level names that *are* task registries.
TASK_REGISTRY_NAMES = {"TASK_UNITS"}
#: The receive method that unpickles (vs ``recv_raw``, which does not).
UNPICKLING_RECV = "recv"


def _first_digest_line(function: ast.AST) -> "int | None":
    """Line of the first ``compare_digest`` call inside ``function``."""
    best: "int | None" = None
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "compare_digest"
        ):
            if best is None or node.lineno < best:
                best = node.lineno
    return best


@register_rule(
    "unpickle-before-auth",
    family="wire-protocol",
    description="recv() (which unpickles) before the token digest check",
)
def check_unpickle_before_auth(module: ModuleContext) -> "Iterator[Finding]":
    for function in ast.walk(module.tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        digest_line = _first_digest_line(function)
        if digest_line is None:
            continue  # not an authentication path
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == UNPICKLING_RECV
                and node.lineno < digest_line
            ):
                yield Finding(
                    path=module.display_path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="unpickle-before-auth",
                    message=(
                        f"{ast.unparse(node.func)}() unpickles, but the "
                        f"token check (compare_digest, line {digest_line}) "
                        "has not run yet; read the raw preamble with "
                        "recv_raw() and verify it first"
                    ),
                )


def _module_level_functions(module: ModuleContext) -> set[str]:
    """Names bound at module level to defs or imports (pickle-by-name
    safe and auditable)."""
    names = set(module.imports)
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


@register_rule(
    "task-whitelist",
    family="wire-protocol",
    description="worker task registry references a non-whitelisted callable",
)
def check_task_whitelist(module: ModuleContext) -> "Iterator[Finding]":
    module_level = _module_level_functions(module)
    for node in module.tree.body:
        targets: list[ast.AST] = []
        value: "ast.AST | None" = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        is_registry = any(
            isinstance(target, ast.Name) and target.id in TASK_REGISTRY_NAMES
            for target in targets
        )
        if not is_registry or not isinstance(value, ast.Dict):
            continue
        registry = next(
            target.id for target in targets if isinstance(target, ast.Name)
        )
        for element in [*value.keys, *value.values]:
            if element is None:
                continue  # ``**splat`` key
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                continue  # the wire name side of the mapping
            ok = (
                isinstance(element, ast.Name)
                and element.id in ALLOWED_TASK_UNITS
                and element.id in module_level
            )
            if ok:
                continue
            yield Finding(
                path=module.display_path,
                line=element.lineno,
                col=element.col_offset,
                rule="task-whitelist",
                message=(
                    f"{registry} may only reference the module-level "
                    f"whitelisted task units "
                    f"({', '.join(sorted(ALLOWED_TASK_UNITS))}); found "
                    f"{ast.unparse(element)!r}"
                ),
            )
