"""A worker process imports only what its task units run.

The distributed backend and the serve daemon start every worker with
``python -m repro.worker``.  The package namespaces resolve their
exports on first access (:mod:`repro._lazy`), so a worker starts on
the MapReduce runtime and its transport alone, and imports a strategy's
modules when the first frame naming them is unpickled.  One eager
import in a package ``__init__`` would bring back the whole package on
every worker start, so the import sets are pinned here, each in a fresh
interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def _env() -> dict[str, str]:
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        PACKAGE_ROOT if not existing else PACKAGE_ROOT + os.pathsep + existing
    )
    return env


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_env()
    )


def _modules_after(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    proc = _run(
        "-c",
        f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))",
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _loaded(modules: set[str], names: tuple[str, ...]) -> list[str]:
    return [name for name in names if name in modules]


class TestWorkerImportSet:
    def test_worker_start_skips_the_package(self):
        modules = _modules_after("import repro.worker")
        assert _loaded(modules, (
            "repro.engine", "repro.analysis", "repro.cluster", "repro.core",
            "repro.datasets", "repro.serve", "repro.devtools", "numpy",
        )) == []
        assert "repro.mapreduce.runtime" in modules
        assert "repro.mapreduce.transport" in modules

    @pytest.mark.parametrize(
        "statement",
        ["import repro.core.bdm", "import repro.core.blocksplit",
         "import repro.core.pairrange", "import repro.core.basic"],
    )
    def test_task_unit_classes_skip_the_driver(self, statement):
        """What a Job 1 or Job 2 frame unpickles in a worker."""
        modules = _modules_after(f"import repro.worker\n{statement}")
        assert _loaded(modules, (
            "repro.engine", "repro.analysis", "repro.serve", "repro.cluster",
            "repro.datasets", "repro.devtools",
        )) == []

    @pytest.mark.parametrize("module", ["repro.worker", "repro.devtools.lint"])
    def test_run_as_main_without_double_import(self, module):
        """runpy warns when ``-m pkg.mod`` finds ``pkg.mod`` already
        imported by its own package's ``__init__``."""
        proc = _run("-W", "error::RuntimeWarning", "-m", module, "--help")
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestLazyNamespaces:
    def test_exports_resolve_on_first_access(self):
        modules = _modules_after(
            "import repro\nassert repro.ERPipeline.__name__ == 'ERPipeline'"
        )
        assert "repro.engine" in modules
        assert "repro.serve" not in modules

    def test_star_import_resolves_all(self):
        proc = _run(
            "-c",
            "from repro import *\nimport repro\n"
            "missing = [n for n in repro.__all__ if n not in globals()]\n"
            "assert missing == [], missing",
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "package, name",
        [("repro.core", "sorted_neighborhood"), ("repro.mapreduce", "shuffle")],
    )
    def test_export_outranks_its_submodule(self, package, name):
        """The export named like its defining submodule stays the export
        when the submodule is imported first (as the task runtime
        imports ``repro.mapreduce.shuffle``)."""
        proc = _run(
            "-c",
            f"import types\nimport {package}.{name}\nimport {package} as pkg\n"
            f"from {package} import {name} as value\n"
            "assert not isinstance(value, types.ModuleType), value\n"
            f"assert pkg.{name} is value",
        )
        assert proc.returncode == 0, proc.stderr

    def test_submodules_resolve_as_attributes(self):
        """``import repro`` still reaches the modules behind its exports,
        as it did when the package imported them eagerly."""
        proc = _run(
            "-c",
            "import repro\n"
            "assert repro.core.bdm.__name__ == 'repro.core.bdm'\n"
            "assert repro.engine.ERPipeline.__name__ == 'ERPipeline'",
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_name_is_an_attribute_error(self):
        import repro.io

        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.io.nope
        assert not hasattr(repro, "cli_nope")

    def test_dir_lists_every_export(self):
        import repro.analysis

        assert set(repro.analysis.__all__) <= set(dir(repro.analysis))
