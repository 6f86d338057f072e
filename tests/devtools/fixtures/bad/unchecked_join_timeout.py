"""BAD: both waits can run out on a clean path and nobody notices."""

import threading


class Service:
    def __init__(self):
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._stopped.wait)

    def stop(self):
        self._stopped.wait(timeout=30)
        self._thread.join(timeout=10)
