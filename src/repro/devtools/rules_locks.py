"""Lock-discipline rules: annotated shared state is touched only under
its lock, and nothing blocks while a lock is held.

The serve layer and the engine document their locking contracts inline:

* ``self._jobs: dict = {}  # guarded-by: _lock`` on the line that
  creates an attribute declares which lock protects it;
* ``def _retire(self):  # holds-lock: _lock`` on a ``def`` line marks a
  method whose *caller* must already hold the lock.

``unguarded-attribute`` then checks every access (read **and** write —
the PR 7 ``_handle_cancel`` race was an unguarded *read*) textually:
an access ``R.attr`` needs an enclosing ``with R.<lock>`` whose
receiver text matches exactly.  ``__init__`` of any class is exempt
(objects are constructed before they are shared), as is any enclosing
method annotated ``# holds-lock:`` with the right lock.

``blocking-under-lock`` flags calls that can block indefinitely inside
a lock-shaped ``with`` block — socket ``recv``/``accept``/``connect``,
timeout-less queue ``get()``, timeout-less ``join()``/``wait()`` and
``time.sleep`` — because a blocked lock holder stalls every other
thread at that lock.  ``Condition.wait``/``wait_for`` on the held
condition itself is the one legitimate pattern (it releases the lock
while sleeping) and is exempt — but only when the condition is the
*sole* lock held.

``unchecked-join-timeout`` is the other half of that advice: once a
wait has a ``timeout=``, its expiry must not pass silently.
``Thread.join(timeout=…)`` returns ``None`` either way, so the same
function must ask ``<that thread>.is_alive()`` afterwards; an
``Event`` / execution-handle ``.wait(timeout=…)`` returns whether it
was satisfied, so calling it as a bare statement throws the answer
away.  (``Popen.wait(timeout=…)`` *raises* on expiry: a bare wait in a
``try`` that handles ``TimeoutExpired`` is checked by construction.)

Matching is textual, not alias-aware: ``s = self.session`` followed by
``s.jobs`` defeats the check.  The convention (documented in
docs/lint.md) is to access guarded state through the same receiver
expression the lock is taken on.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import ModuleContext
from .findings import Finding
from .registry import register_rule

#: Method calls that block until the peer acts, regardless of arguments.
BLOCKING_METHODS = {"recv", "recv_raw", "recv_into", "accept", "connect"}
#: Method calls that block only when called without a ``timeout=``.
TIMEOUT_METHODS = {"get", "join", "wait", "wait_for"}
#: ``wait``-style calls that *release* the lock they are called on.
RELEASING_WAITS = {"wait", "wait_for"}


def _is_lock_like(expr: ast.AST) -> bool:
    """Whether a ``with`` context expression looks like a lock.

    Matches by name: the final component (attribute, call target or
    bare name) contains ``lock`` or ``cond``, e.g. ``self._lock``,
    ``session.lock``, ``self._cond``, ``self._state_lock(name)``.
    """
    target = expr
    if isinstance(target, ast.Call):
        target = target.func
    if isinstance(target, ast.Attribute):
        name = target.attr
    elif isinstance(target, ast.Name):
        name = target.id
    else:
        return False
    lowered = name.lower()
    return "lock" in lowered or "cond" in lowered


def _guard_declarations(module: ModuleContext) -> dict[str, set[str]]:
    """attribute name -> lock names, from ``# guarded-by:`` lines.

    The annotation sits on the line of the ``self.attr = ...`` (or
    class-level ``attr: T``) statement that introduces the attribute.
    """
    guards: dict[str, set[str]] = {}
    if not module.guarded_by:
        return guards
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        lock = module.guarded_by.get(node.lineno)
        if lock is None:
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Attribute):
                guards.setdefault(target.attr, set()).add(lock)
            elif isinstance(target, ast.Name):
                guards.setdefault(target.id, set()).add(lock)
    return guards


def _enclosing_functions(
    module: ModuleContext, node: ast.AST
) -> "list[ast.FunctionDef | ast.AsyncFunctionDef]":
    return [
        ancestor
        for ancestor in module.ancestors(node)
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _held_lock_texts(module: ModuleContext, node: ast.AST) -> list[str]:
    """Unparsed context expressions of lock-like enclosing ``with``s."""
    held: list[str] = []
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if _is_lock_like(item.context_expr):
                    held.append(ast.unparse(item.context_expr))
    return held


@register_rule(
    "unguarded-attribute",
    family="lock-discipline",
    description="access to '# guarded-by:' state outside 'with <lock>'",
)
def check_unguarded_attribute(module: ModuleContext) -> "Iterator[Finding]":
    guards = _guard_declarations(module)
    if not guards:
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Attribute) or node.attr not in guards:
            continue
        # The declaring line itself (``self.x = {}  # guarded-by: _lock``).
        if node.lineno in module.guarded_by:
            continue
        functions = _enclosing_functions(module, node)
        if any(fn.name == "__init__" for fn in functions):
            continue  # construction precedes sharing
        locks = guards[node.attr]
        if any(
            module.holds_lock.get(fn.lineno) in locks for fn in functions
        ):
            continue  # caller-must-hold method, annotated as such
        receiver = ast.unparse(node.value)
        required = {f"{receiver}.{lock}" for lock in locks}
        if required & set(_held_lock_texts(module, node)):
            continue
        wanted = " or ".join(sorted(f"with {text}" for text in required))
        yield Finding(
            path=module.display_path,
            line=node.lineno,
            col=node.col_offset,
            rule="unguarded-attribute",
            message=(
                f"{receiver}.{node.attr} is '# guarded-by: "
                f"{'/'.join(sorted(locks))}' but this access is not "
                f"inside '{wanted}'"
            ),
        )


def _is_blocking_call(module: ModuleContext, call: ast.Call) -> "str | None":
    """A human-readable reason when ``call`` can block indefinitely."""
    if module.qualified_name(call.func) == "time.sleep":
        return "time.sleep() stalls the lock holder"
    if not isinstance(call.func, ast.Attribute):
        return None
    method = call.func.attr
    if method in BLOCKING_METHODS:
        return f".{method}() blocks on the peer"
    if method in TIMEOUT_METHODS:
        has_timeout = any(
            keyword.arg == "timeout" and not (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is None
            )
            for keyword in call.keywords
        )
        if has_timeout:
            return None
        if method == "get" and call.args:
            return None  # ``d.get(key)`` — dict access, never blocks
        if method == "join" and call.args:
            return None  # ``sep.join(parts)`` — string join
        if method == "join" and any(k.arg for k in call.keywords):
            return None
        return f".{method}() has no timeout"
    return None


@register_rule(
    "blocking-under-lock",
    family="lock-discipline",
    description="indefinitely blocking call while holding a lock",
)
def check_blocking_under_lock(module: ModuleContext) -> "Iterator[Finding]":
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        held = _held_lock_texts(module, node)
        if not held:
            continue
        reason = _is_blocking_call(module, node)
        if reason is None:
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in RELEASING_WAITS
        ):
            receiver = ast.unparse(node.func.value)
            if all(text == receiver for text in held):
                # Condition.wait() releases the condition it is called
                # on — safe when that condition is the only lock held.
                continue
        yield Finding(
            path=module.display_path,
            line=node.lineno,
            col=node.col_offset,
            rule="blocking-under-lock",
            message=(
                f"{reason} while holding "
                f"{' and '.join(sorted(set(held)))}; release the lock "
                "first or add a timeout"
            ),
        )


def _raises_on_expiry(module: ModuleContext, statement: ast.AST) -> bool:
    """Whether ``statement`` is directly in a ``try`` body that handles
    ``TimeoutExpired`` (``Popen.wait(timeout=…)`` raises on expiry)."""
    block = module.parent(statement)
    return (
        isinstance(block, ast.Try)
        and statement in block.body
        and any(
            handler.type is not None
            and "TimeoutExpired" in ast.unparse(handler.type)
            for handler in block.handlers
        )
    )


@register_rule(
    "unchecked-join-timeout",
    family="lock-discipline",
    description="join(timeout=)/wait(timeout=) whose expiry passes silently",
)
def check_unchecked_join_timeout(module: ModuleContext) -> "Iterator[Finding]":
    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and any(keyword.arg == "timeout" for keyword in node.keywords)
        ):
            continue
        receiver = ast.unparse(node.func.value)
        if node.func.attr == "join":
            functions = _enclosing_functions(module, node)
            scope = functions[0] if functions else module.tree
            checked = any(
                isinstance(later, ast.Call)
                and isinstance(later.func, ast.Attribute)
                and later.func.attr == "is_alive"
                and ast.unparse(later.func.value) == receiver
                and later.lineno > node.lineno
                for later in ast.walk(scope)
            )
            if checked:
                continue
            message = (
                f"{receiver}.join(timeout=...) returns None whether or not "
                f"the thread stopped; check {receiver}.is_alive() afterwards "
                "and raise or log when the deadline passed"
            )
        elif node.func.attr == "wait":
            statement = module.parent(node)
            if not isinstance(statement, ast.Expr):
                continue  # the returned flag is used
            if _raises_on_expiry(module, statement):
                continue
            message = (
                f"{receiver}.wait(timeout=...) reports expiry through its "
                "return value, which this bare statement discards; test it "
                "and raise or log when the deadline passed"
            )
        else:
            continue
        yield Finding(
            path=module.display_path,
            line=node.lineno,
            col=node.col_offset,
            rule="unchecked-join-timeout",
            message=message,
        )
