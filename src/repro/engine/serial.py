"""The serial backend: the deterministic single-threaded reference path."""

from __future__ import annotations

from ..mapreduce.dfs import DistributedFileSystem
from ..mapreduce.runtime import LocalRuntime
from .backend import register_backend
from .executing import ExecutingBackendBase


@register_backend
class SerialBackend(ExecutingBackendBase):
    """Runs every task in-process, in task-index order.

    This wraps :class:`~repro.mapreduce.runtime.LocalRuntime` and is the
    ground truth the backend-equivalence tests compare the parallel
    backend against, and the hot-path equivalence suite compares the
    bit-parallel kernel / packed-key shuffle against their reference
    paths on (see ``tests/test_hotpath_equivalence.py``).
    """

    name = "serial"

    def __init__(self, dfs: DistributedFileSystem | None = None):
        self._dfs = dfs

    def make_runtime(self) -> LocalRuntime:
        return LocalRuntime(self._dfs)
