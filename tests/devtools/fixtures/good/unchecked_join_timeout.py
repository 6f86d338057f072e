"""GOOD: an expired deadline is surfaced, naming what did not stop
(and a wait that *raises* on expiry needs no extra check)."""

import subprocess
import threading


class Service:
    def __init__(self, process: subprocess.Popen):
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._stopped.wait)
        self._process = process

    def stop(self):
        if not self._stopped.wait(timeout=30):
            raise RuntimeError("the service did not stop within 30s")
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError(
                f"thread {self._thread.name} did not stop within 10s"
            )
        try:
            self._process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._process.kill()
