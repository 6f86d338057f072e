"""Project-specific static analysis (``repro-er lint``).

The repo's core guarantee — every backend and the delta path produce
byte-identical results — is enforced dynamically by the equivalence
suites.  :mod:`repro.devtools` turns the *invariants behind* that
guarantee into machine-checked rules that run in milliseconds, on every
commit, before a single test starts:

* **determinism** — no unordered-set iteration, unsorted directory
  walks, clock/RNG-derived values or ``id()``-keyed containers inside
  result-affecting modules;
* **pickle-safety** — nothing reachable from the worker task whitelist
  or the serve protocol carries locks, sockets, lambdas or closures
  across the wire without declaring ``__getstate__``/``__reduce__``;
* **lock discipline** — attributes annotated ``# guarded-by: <lock>``
  are only touched under ``with <lock>``, and no blocking call happens
  while a lock is held;
* **wire-protocol safety** — no unpickling before the token-auth
  preamble, and the worker task map stays a closed whitelist;
* **resource hygiene** — files, sockets and memory maps are closed on
  every path;
* **style invariants** — no runtime ``assert`` on control-flow paths
  (they vanish under ``python -O``), no silent ``except Exception``.

Everything is pure standard library (``ast`` + ``symtable`` +
``tokenize``).  Run ``python -m repro.devtools.lint`` or
``repro-er lint``; see ``docs/lint.md`` for the rule catalog, the
``# repro-lint: disable=RULE`` pragma syntax and the baseline workflow.
"""

from .. import _lazy

#: Public name → the module that defines it, imported on first access.
_EXPORTS = {
    "Baseline": ".baseline",
    "Finding": ".findings",
    "LintReport": ".lint",
    "ModuleContext": ".context",
    "ProjectContext": ".context",
    "Rule": ".registry",
    "all_rules": ".registry",
    "get_rule": ".registry",
    "lint_paths": ".lint",
    "lint_source": ".lint",
    "load_baseline": ".baseline",
    "main": ".lint",
    "register_rule": ".registry",
    "write_baseline": ".baseline",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
