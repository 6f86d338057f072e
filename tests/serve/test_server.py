"""The ER service daemon end to end: real sockets, real workers.

Covers the acceptance battery of the serve subsystem: concurrent
clients byte-identical to serial, per-session cancellation on
disconnect, worker-crash survival behind the service, authentication
before deserialization, graceful shutdown (drain and cancel flavours),
and the JSONL workload log.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import threading
import time

import pytest

from repro.datasets.generators import generate_products
from repro.engine import ERPipeline
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher
from repro.mapreduce.events import PipelineCancelled
from repro.mapreduce.transport import ConnectionClosed, TransportError, connect
from repro.serve import (
    ERServer,
    ServeClient,
    ServeConnectionError,
    SubmissionRejected,
)
from repro.serve.protocol import TOKEN_BYTES, encode_token
from repro.worker import ENV_FAULT, ENV_FAULT_WORKERS

from .conftest import key_entities
from .matchers import SlowMatcher

TOKEN = "serve-test-token"


def _pipeline(matcher=None, **kwargs):
    kwargs.setdefault("num_map_tasks", 3)
    kwargs.setdefault("num_reduce_tasks", 5)
    return ERPipeline(
        "blocksplit",
        PrefixBlocking("title"),
        matcher if matcher is not None else ThresholdMatcher("title", 0.8),
        **kwargs,
    )


def _fingerprint(result):
    return (
        [(p.id1, p.id2, p.similarity) for p in result.matches],
        result.reduce_comparisons(),
        result.job2.counters.as_dict(),
        None if result.job1 is None else result.job1.counters.as_dict(),
    )


def _service_threads(since):
    """Live daemon/pool threads that are not in the ``since`` snapshot
    (the module-scoped ``server`` fixture keeps its own running)."""
    return [
        thread.name for thread in threading.enumerate()
        if thread not in since
        and thread.name.startswith(("repro-serve-", "repro-pool-"))
    ]


@pytest.fixture(scope="module")
def server():
    with ERServer(num_workers=2, token=TOKEN) as daemon:
        yield daemon


class TestConcurrentClients:
    def test_two_clients_byte_identical_to_serial(self, server):
        entities_a = generate_products(160, seed=81)
        entities_b = generate_products(140, seed=82)
        ref_a = _pipeline().run(entities_a)
        ref_b = _pipeline().run(entities_b)
        host, port = server.address
        with ServeClient(host, port, token=TOKEN) as c1, \
                ServeClient(host, port, token=TOKEN) as c2:
            # Both jobs in flight before either result is read: they
            # share the pool concurrently.
            e1 = c1.submit(_pipeline(), entities_a)
            e2 = c2.submit(_pipeline(), entities_b)
            streamed = [
                (p.id1, p.id2, p.similarity) for p in e1.iter_matches()
            ]
            r1, r2 = e1.result(), e2.result()
        assert _fingerprint(r1) == _fingerprint(ref_a)
        assert _fingerprint(r2) == _fingerprint(ref_b)
        # The remote stream is the serial reduce-output order exactly.
        assert streamed == [
            (r.value.id1, r.value.id2, r.value.similarity)
            for r in ref_a.job2.output
        ]

    def test_one_client_many_jobs(self, server):
        datasets = [generate_products(100, seed=s) for s in (83, 84, 85)]
        references = [_fingerprint(_pipeline().run(e)) for e in datasets]
        host, port = server.address
        with ServeClient(host, port, token=TOKEN) as client:
            handles = [client.submit(_pipeline(), e) for e in datasets]
            results = [_fingerprint(h.result()) for h in handles]
        assert results == references

    def test_remote_progress_matches_local(self, server):
        entities = generate_products(120, seed=86)
        local = _pipeline().submit(entities)
        local.result()
        host, port = server.address
        with ServeClient(host, port, token=TOKEN) as client:
            remote = client.submit(_pipeline(), entities)
            remote.result()
            remote_progress = remote.progress()
        local_progress = local.progress()
        assert remote_progress == local_progress
        assert remote_progress.comparisons > 0


class TestDisconnect:
    def test_disconnect_cancels_only_that_session(self, server):
        host, port = server.address
        good_entities = generate_products(130, seed=87)
        reference = _fingerprint(_pipeline().run(good_entities))
        slow_entities = key_entities(40, keys=2)

        survivor = ServeClient(host, port, token=TOKEN)
        doomed = ServeClient(host, port, token=TOKEN)
        try:
            slow = doomed.submit(
                _pipeline(matcher=SlowMatcher(delay=0.05)), slow_entities
            )
            good = survivor.submit(_pipeline(), good_entities)
            # Wait until the slow job is really executing on the pool.
            deadline = time.monotonic() + 30
            while not slow.progress().stages:
                assert time.monotonic() < deadline, "slow job never started"
                time.sleep(0.02)
            # The client process "dies": connection drops, no goodbye.
            doomed._conn.close()
            # The other session's job is untouched.
            assert _fingerprint(good.result(timeout=120)) == reference
            # The dead session's job gets cancelled server-side.
            deadline = time.monotonic() + 60
            while server.active_jobs:
                assert time.monotonic() < deadline, "job was not cancelled"
                time.sleep(0.05)
        finally:
            survivor.close()
            doomed.close()

    def test_lost_connection_fails_local_handles(self, server):
        host, port = server.address
        client = ServeClient(host, port, token=TOKEN)
        execution = client.submit(
            _pipeline(matcher=SlowMatcher(delay=0.05)), key_entities(40, keys=2)
        )
        client._conn.close()
        with pytest.raises(ServeConnectionError):
            execution.result(timeout=60)


class TestWorkerCrash:
    def test_crash_during_served_job_requeues_and_completes(self, monkeypatch):
        entities = generate_products(160, seed=88)
        reference = _fingerprint(_pipeline().run(entities))
        # Worker 0 dies mid-protocol at its 2nd task; armed before the
        # daemon starts so the pool workers inherit the fault hooks.
        monkeypatch.setenv(ENV_FAULT, "crash:2")
        monkeypatch.setenv(ENV_FAULT_WORKERS, "0")
        with ERServer(num_workers=2, token=TOKEN) as server:
            host, port = server.address
            with ServeClient(host, port, token=TOKEN) as client:
                result = client.submit(_pipeline(), entities).result(timeout=180)
        assert _fingerprint(result) == reference

    def test_pool_heals_for_later_jobs(self, monkeypatch):
        entities = generate_products(120, seed=89)
        reference = _fingerprint(_pipeline().run(entities))
        monkeypatch.setenv(ENV_FAULT, "crash:1")
        monkeypatch.setenv(ENV_FAULT_WORKERS, "0")
        with ERServer(num_workers=2, token=TOKEN) as server:
            host, port = server.address
            with ServeClient(host, port, token=TOKEN) as client:
                first = client.submit(_pipeline(), entities).result(timeout=180)
                # The crashed worker was respawned: the pool is back at
                # full strength and the next job sees a healthy pool.
                second = client.submit(_pipeline(), entities).result(timeout=180)
        assert _fingerprint(first) == reference
        assert _fingerprint(second) == reference


class TestAuthentication:
    def test_bad_token_is_dropped_before_any_unpickling(self, server, tmp_path):
        host, port = server.address
        marker = tmp_path / "pwned"
        failures_before = server.auth_failures

        class Evil:
            """Pickle payload that would create ``marker`` on loads."""

            def __reduce__(self):
                return (open, (str(marker), "w"))

        payload = pickle.dumps(("hello", Evil()))
        conn = connect(host, port)
        try:
            conn.send_bytes(encode_token("wrong-token-entirely"))
            conn.send_bytes(struct.pack(">Q", len(payload)) + payload)
            # The server must close on us without reading the pickle.
            with pytest.raises((ConnectionClosed, TransportError)):
                conn.recv(timeout=30)
        finally:
            conn.close()
        deadline = time.monotonic() + 30
        while server.auth_failures == failures_before:
            assert time.monotonic() < deadline, "auth failure not recorded"
            time.sleep(0.02)
        assert not marker.exists(), "malicious pickle was deserialized!"
        # The daemon is unharmed: a legitimate client still works.
        with ServeClient(host, port, token=TOKEN) as client:
            assert client.server_info["num_workers"] == 2

    def test_wrong_token_client_fails_handshake(self, server):
        host, port = server.address
        with pytest.raises(ServeConnectionError, match="handshake"):
            ServeClient(host, port, token="not-the-token", timeout=10)

    def test_client_requires_a_token(self, server, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_TOKEN", raising=False)
        host, port = server.address
        with pytest.raises(ValueError, match="no service token"):
            ServeClient(host, port)

    def test_oversized_token_rejected_loudly(self):
        with pytest.raises(ValueError, match="longer than"):
            encode_token("x" * (TOKEN_BYTES + 1))


class TestShutdown:
    def test_graceful_shutdown_drains_running_jobs(self):
        entities = generate_products(120, seed=90)
        reference = _fingerprint(_pipeline().run(entities))
        server = ERServer(num_workers=2, token=TOKEN, drain_timeout=120).start()
        host, port = server.address
        client = ServeClient(host, port, token=TOKEN)
        try:
            execution = client.submit(_pipeline(), entities)
            server.shutdown()  # drain: the in-flight job completes
            assert _fingerprint(execution.result(timeout=60)) == reference
            assert client.server_draining
        finally:
            client.close()

    def test_zero_drain_timeout_cancels_running_jobs(self):
        server = ERServer(num_workers=2, token=TOKEN, drain_timeout=0).start()
        host, port = server.address
        client = ServeClient(host, port, token=TOKEN)
        try:
            execution = client.submit(
                _pipeline(matcher=SlowMatcher(delay=0.05)),
                key_entities(40, keys=2),
            )
            deadline = time.monotonic() + 30
            while not execution.progress().stages:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.02)
            server.shutdown()
            with pytest.raises((PipelineCancelled, ServeConnectionError)):
                execution.result(timeout=60)
        finally:
            client.close()

    def test_draining_server_rejects_new_submissions(self):
        server = ERServer(num_workers=1, token=TOKEN).start()
        host, port = server.address
        client = ServeClient(host, port, token=TOKEN)
        try:
            server._draining = True  # as during shutdown, before close
            with pytest.raises(SubmissionRejected, match="shutting down"):
                client.submit(_pipeline(), generate_products(40, seed=91))
        finally:
            client.close()
            server.shutdown()

    def test_idle_shutdown_is_prompt_and_leaves_no_threads(self):
        # Closing the listener must wake the accept thread: an idle
        # daemon used to sit out the full 10 s join timeout here.
        before = threading.enumerate()
        server = ERServer(num_workers=1, token=TOKEN).start()
        assert _service_threads(before)
        began = time.monotonic()
        server.shutdown()
        assert time.monotonic() - began < 1.0
        # Receiver threads exit on their closed connection, just after
        # shutdown() returns.
        deadline = time.monotonic() + 1.0
        while _service_threads(before) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _service_threads(before) == []

    def test_overdue_job_wait_and_retire_poll_raise(self, monkeypatch):
        # A job that neither finishes after cancel() nor leaves the
        # registry used to let both deadlines pass silently.  The clock
        # is faked so the 10 s retire poll costs nothing.
        import repro.serve.server as server_module

        class StuckExecution:
            def wait(self, timeout=None):
                return False

            def cancel(self):
                return True

        class FakeClock:
            now = time.monotonic()

            def monotonic(self):
                return self.now

            def sleep(self, seconds):
                self.now += seconds

        server = ERServer(num_workers=1, token=TOKEN, drain_timeout=0).start()
        server._jobs[99] = server_module._ServedJob(
            job_id=99, session=None, request=None,
            execution=StuckExecution(), started_at=0.0,
        )
        monkeypatch.setattr(server_module, "time", FakeClock())
        with pytest.raises(RuntimeError) as excinfo:
            server.shutdown()
        message = str(excinfo.value)
        assert "job 99 did not finish within 30s of cancel()" in message
        assert "jobs [99] were not retired from the registry" in message
        # The teardown still went all the way: the pool is down.
        assert server._pool.alive_workers == 0

    def test_client_close_raises_when_the_receiver_outlives_it(self, server):
        host, port = server.address
        client = ServeClient(host, port, token=TOKEN)
        receiver = client._receiver

        class StuckThread:
            name = receiver.name

            def join(self, timeout=None):
                return None

            def is_alive(self):
                return True

        client._receiver = StuckThread()
        with pytest.raises(RuntimeError, match="repro-serve-client receiver "
                                               "thread did not stop within 10s"):
            client.close()
        receiver.join(timeout=5)
        assert not receiver.is_alive()

    def test_refused_connection_after_shutdown(self):
        server = ERServer(num_workers=1, token=TOKEN).start()
        host, port = server.address
        server.shutdown()
        with pytest.raises((ServeConnectionError, TransportError, OSError)):
            ServeClient(host, port, token=TOKEN, timeout=5)


class TestWorkloadLog:
    def test_jsonl_entries_for_succeeded_and_cancelled_jobs(self, tmp_path):
        log_path = tmp_path / "workload.jsonl"
        entities = generate_products(110, seed=92)
        with ERServer(
            num_workers=2, token=TOKEN, workload_log=log_path
        ) as server:
            host, port = server.address
            with ServeClient(host, port, token=TOKEN) as client:
                client.submit(_pipeline(), entities).result(timeout=120)
                slow = client.submit(
                    _pipeline(matcher=SlowMatcher(delay=0.05)),
                    key_entities(40, keys=2),
                )
                deadline = time.monotonic() + 30
                while not slow.progress().stages:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                slow.cancel()
                with pytest.raises(PipelineCancelled):
                    slow.result(timeout=60)
                # The log is written by the job waiter thread; wait for
                # the daemon to retire both jobs.
                deadline = time.monotonic() + 30
                while server.active_jobs:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
        entries = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(entries) == 2
        done, cancelled = entries
        assert done["state"] == "succeeded"
        assert done["strategy"] == "blocksplit"
        assert done["comparisons"] > 0 and done["matches"] >= 0
        assert done["params"]["num_reduce_tasks"] == 5
        assert set(done["stages"]) == {"bdm", "matching"}
        assert done["stages"]["matching"]["comparisons"] == done["comparisons"]
        assert done["wall_s"] > 0
        assert cancelled["state"] == "cancelled"
        assert cancelled["job_id"] != done["job_id"]


class TestDeltaIngest:
    """The ``submit-delta`` job kind: server-resident corpus states."""

    @pytest.fixture(scope="class")
    def delta_server(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("states")
        with ERServer(
            num_workers=2, token=TOKEN, state_root=root
        ) as daemon:
            yield daemon, root

    def test_ingests_equal_full_recompute(self, delta_server):
        from repro.engine.persistence import load_state

        server, root = delta_server
        entities = generate_products(200, seed=95)
        full = _pipeline().run(entities)
        host, port = server.address
        with ServeClient(host, port, token=TOKEN) as client:
            first = client.submit_delta(
                _pipeline(), entities[:130], "corpus"
            ).result(timeout=120)
            handle = client.submit_delta(_pipeline(), entities[130:], "corpus")
            streamed = [
                (p.id1, p.id2, p.similarity) for p in handle.iter_matches()
            ]
            second = handle.result(timeout=120)
        # The remote handle streams exactly the delta run's matches
        # (stream order is reduce-task order; the result sorts).
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == {
            (p.id1, p.id2, p.similarity) for p in second.matches
        }
        # ...the two ingests together are the full recompute, and the
        # state on disk has committed both (cumulative counters too).
        state = load_state(root / "corpus")
        assert state.num_ingests == 2
        assert {
            (p.id1, p.id2, p.similarity) for p in state.matches
        } == {(p.id1, p.id2, p.similarity) for p in full.matches}
        assert (
            first.total_comparisons() + second.total_comparisons()
            == full.total_comparisons()
        )
        assert state.comparisons == full.total_comparisons()
        assert second.total_comparisons() < full.total_comparisons()

    def test_concurrent_states_do_not_interfere(self, delta_server):
        from repro.engine.persistence import load_state

        server, root = delta_server
        a = generate_products(90, seed=96)
        b = generate_products(90, seed=97)
        host, port = server.address
        with ServeClient(host, port, token=TOKEN) as client:
            handles = [
                client.submit_delta(_pipeline(), a, "state-a"),
                client.submit_delta(_pipeline(), b, "state-b"),
            ]
            for handle in handles:
                handle.result(timeout=120)
        expected_a = _pipeline().run(a)
        state_a = load_state(root / "state-a")
        assert {
            (p.id1, p.id2) for p in state_a.matches
        } == {(p.id1, p.id2) for p in expected_a.matches}
        assert load_state(root / "state-b").num_ingests == 1

    def test_failed_ingest_leaves_state_untouched(self, delta_server):
        from repro.engine.persistence import load_state
        from .matchers import ExplodingMatcher

        server, root = delta_server
        entities = generate_products(80, seed=98)
        host, port = server.address
        with ServeClient(host, port, token=TOKEN) as client:
            client.submit_delta(
                _pipeline(), entities[:50], "fragile"
            ).result(timeout=120)
            snapshot = {
                path.name: path.read_bytes()
                for path in sorted((root / "fragile").iterdir())
            }
            broken = client.submit_delta(
                _pipeline(matcher=ExplodingMatcher()),
                entities[50:],
                "fragile",
            )
            with pytest.raises(Exception, match="exploding matcher"):
                broken.result(timeout=120)
            # Untouched on disk — and the retried ingest still lands.
            assert {
                path.name: path.read_bytes()
                for path in sorted((root / "fragile").iterdir())
            } == snapshot
            client.submit_delta(
                _pipeline(), entities[50:], "fragile"
            ).result(timeout=120)
        assert load_state(root / "fragile").num_ingests == 2

    def test_corrupt_state_fails_cleanly_and_server_survives(
        self, delta_server
    ):
        server, root = delta_server
        (root / "rotten").mkdir()
        (root / "rotten" / "state.json").write_text("not json at all")
        host, port = server.address
        with ServeClient(host, port, token=TOKEN) as client:
            doomed = client.submit_delta(
                _pipeline(), generate_products(40, seed=99), "rotten"
            )
            with pytest.raises(Exception, match="not valid JSON"):
                doomed.result(timeout=60)
            # The daemon took the failure in stride: a healthy ingest
            # on the same connection still works.
            client.submit_delta(
                _pipeline(), generate_products(40, seed=99), "healthy"
            ).result(timeout=120)

    def test_rejects_bad_state_names(self, delta_server):
        server, _ = delta_server
        host, port = server.address
        entities = generate_products(30, seed=99)
        with ServeClient(host, port, token=TOKEN) as client:
            for name in ("../escape", "a/b", "", "..", "x" * 201):
                with pytest.raises(
                    SubmissionRejected, match="invalid state name"
                ):
                    client.submit_delta(_pipeline(), entities, name)

    def test_rejects_without_state_root(self, server):
        host, port = server.address
        with ServeClient(host, port, token=TOKEN) as client:
            with pytest.raises(
                SubmissionRejected, match="no corpus states"
            ):
                client.submit_delta(
                    _pipeline(), generate_products(30, seed=99), "corpus"
                )

    def test_workload_log_keeps_lifecycle_state_for_ingests(self, tmp_path):
        # The corpus-state name must not clobber the entry's lifecycle
        # ``state`` field ("succeeded"/"failed"/...): it gets its own
        # ``corpus_state`` key.
        log_path = tmp_path / "workload.jsonl"
        entities = generate_products(60, seed=97)
        with ERServer(
            num_workers=2,
            token=TOKEN,
            state_root=tmp_path / "states",
            workload_log=log_path,
        ) as daemon:
            host, port = daemon.address
            with ServeClient(host, port, token=TOKEN) as client:
                client.submit_delta(
                    _pipeline(), entities, "corpus"
                ).result(timeout=120)
                deadline = time.monotonic() + 30
                while daemon.active_jobs:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
        (entry,) = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert entry["state"] == "succeeded"
        assert entry["corpus_state"] == "corpus"
