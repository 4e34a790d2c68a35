"""Server behavior over real loopback sockets: admission, backpressure, events.

The tier-1 smoke contract lives here too
(:func:`test_smoke_submit_round_trip`): start a server, submit a
fast-engine job, get the bit-exact result back through the wire.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.errors import ProtocolError, SerializationError, ServerBusy
from repro.runtime import job_to_json, replica_jobs, run_ensemble
from repro.service import protocol
from repro.service.state import ServiceState, job_fingerprint


def make_jobs(replicas=2, iterations=400, seed=5, n=16):
    return replica_jobs(n=n, lam=4.0, iterations=iterations, seed=seed, replicas=replicas)


def raw_connection(server, hello=True):
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    if hello:
        protocol.send_frame(
            sock, {"type": "hello", "versions": [1], "client_id": "raw"}
        )
        welcome = protocol.read_frame(sock)
        assert welcome["type"] == "welcome"
    return sock


# --------------------------------------------------------------------- #
# Tier-1 smoke: server + client round trip
# --------------------------------------------------------------------- #
def test_smoke_submit_round_trip(service, connect):
    server = service()
    client = connect(server)
    jobs = make_jobs(replicas=2)
    run = client.run_jobs(jobs, timeout=60)
    assert len(run.results) == 2 and not run.failures
    direct = run_ensemble(jobs)
    for via_service, direct_result in zip(run.results, direct.results):
        assert via_service.job.job_id == direct_result.job.job_id
        assert via_service.iterations == direct_result.iterations
        assert via_service.accepted_moves == direct_result.accepted_moves
        assert via_service.rejection_counts == direct_result.rejection_counts
    # Whole-table equality modulo wall clock.
    strip = lambda rows: [
        {k: v for k, v in row.items() if k != "wall_seconds"} for row in rows
    ]
    assert strip(run.table.rows) == strip(direct.table.rows)


# --------------------------------------------------------------------- #
# Negotiation
# --------------------------------------------------------------------- #
def test_unsupported_version_answered_not_disconnected(service):
    server = service()
    sock = raw_connection(server, hello=False)
    protocol.send_frame(sock, {"type": "hello", "versions": [99]})
    reply = protocol.read_frame(sock)
    assert reply["type"] == "error" and reply["code"] == "unsupported_version"
    assert reply["versions"] == [1]
    # Connection still alive: negotiate properly on the same socket.
    protocol.send_frame(sock, {"type": "hello", "versions": [1]})
    assert protocol.read_frame(sock)["type"] == "welcome"
    sock.close()


def test_requests_before_hello_are_refused(service):
    server = service()
    sock = raw_connection(server, hello=False)
    protocol.send_frame(sock, {"type": "status"})
    reply = protocol.read_frame(sock)
    assert reply["type"] == "error" and reply["code"] == "hello_required"
    sock.close()


# --------------------------------------------------------------------- #
# Malformed frames never kill the connection loop
# --------------------------------------------------------------------- #
def test_malformed_payloads_keep_connection_alive(service):
    server = service()
    sock = raw_connection(server)
    import struct

    # Bad JSON in a well-formed frame.
    body = b"{ nope"
    sock.sendall(struct.pack(">I", len(body)) + body)
    reply = protocol.read_frame(sock)
    assert reply["type"] == "error" and reply["code"] == "protocol"
    # Unknown request type.
    protocol.send_frame(sock, {"type": "make-coffee"})
    reply = protocol.read_frame(sock)
    assert reply["type"] == "error" and reply["code"] == "protocol"
    # Submit without a job object.
    protocol.send_frame(sock, {"type": "submit"})
    reply = protocol.read_frame(sock)
    assert reply["type"] == "error" and reply["code"] == "protocol"
    # And the connection still works.
    protocol.send_frame(sock, {"type": "status"})
    assert protocol.read_frame(sock)["type"] == "status_reply"
    sock.close()


def test_undecodable_job_payload_is_bad_job(service, connect):
    server = service()
    client = connect(server)
    with pytest.raises(SerializationError):
        client.submit({"job_id": "x", "not_a_field": True})


def test_nonpositive_lambda_job_is_bad_job(service, connect):
    """``job_from_json`` maps the job's ConfigurationError to a
    SerializationError, so the job is refused at submit instead of
    failing later in a worker."""
    server = service()
    client = connect(server)
    payload = job_to_json(make_jobs(replicas=1)[0])
    payload["lam"] = -1.0
    with pytest.raises(SerializationError, match="lambda must be positive"):
        client.submit(payload)


def test_float_iterations_job_is_bad_job(service, connect):
    """A JSON client can send ``1000.0`` for a count; the job is refused
    at submit instead of failing later in a worker."""
    server = service()
    client = connect(server)
    payload = job_to_json(make_jobs(replicas=1)[0])
    payload["iterations"] = 1000.0
    with pytest.raises(SerializationError, match="iterations must be an integer"):
        client.submit(payload)


def test_stored_nonpositive_lambda_job_is_skipped_on_recovery(tmp_path):
    """A job document stored before jobs checked lambda takes the
    unreadable-document path of ``recover``: it is skipped, and the
    other jobs are requeued."""
    state = ServiceState(tmp_path / "svc")
    jobs = make_jobs(replicas=2)
    for job in jobs:
        state.submit(job_to_json(job), "c")
    stored = state.jobs_dir / f"{jobs[0].job_id}.json"
    document = json.loads(stored.read_text())
    document["job"]["lam"] = 0.0
    stored.write_text(json.dumps(document))
    restarted = ServiceState(tmp_path / "svc")
    assert restarted.recover() == (0, 1)
    assert list(restarted.records) == [jobs[1].job_id]


# --------------------------------------------------------------------- #
# Idempotent submission
# --------------------------------------------------------------------- #
def test_duplicate_submission_is_deduplicated(service, connect):
    server = service()
    client = connect(server)
    job = make_jobs(replicas=1)[0]
    first = client.submit(job)
    assert first["duplicate"] is False
    again = client.submit(job)
    assert again["duplicate"] is True
    assert again["fingerprint"] == first["fingerprint"]
    client.wait([job.job_id], timeout=60)
    # Resubmission after completion still acknowledges idempotently.
    after = client.submit(job)
    assert after["duplicate"] is True and after["state"] == "completed"


def test_conflicting_job_id_is_refused(service, connect):
    server = service()
    client = connect(server)
    job, other = make_jobs(replicas=1, seed=5)[0], make_jobs(replicas=1, seed=6)[0]
    payload = job_to_json(other)
    payload["job_id"] = job.job_id  # same id, different specification
    client.submit(job)
    with pytest.raises(SerializationError, match="different job specification"):
        client.submit(payload)


def test_fingerprint_is_canonical(service):
    job = make_jobs(replicas=1)[0]
    payload = job_to_json(job)
    assert job_fingerprint(payload) == job_fingerprint(dict(reversed(payload.items())))


# --------------------------------------------------------------------- #
# Backpressure: explicit busy frames, never silent drops
# --------------------------------------------------------------------- #
def test_queue_full_backpressure(tmp_path):
    state = ServiceState(tmp_path / "svc", queue_capacity=2, client_quota=10)
    jobs = make_jobs(replicas=3)
    state.submit(job_to_json(jobs[0]), "c")
    state.submit(job_to_json(jobs[1]), "c")
    with pytest.raises(ServerBusy) as excinfo:
        state.submit(job_to_json(jobs[2]), "c")
    assert excinfo.value.reason == "queue_full"
    assert excinfo.value.queued == 2 and excinfo.value.capacity == 2


def test_client_quota_backpressure(tmp_path):
    state = ServiceState(tmp_path / "svc", queue_capacity=100, client_quota=2)
    jobs = make_jobs(replicas=3)
    state.submit(job_to_json(jobs[0]), "greedy")
    state.submit(job_to_json(jobs[1]), "greedy")
    with pytest.raises(ServerBusy) as excinfo:
        state.submit(job_to_json(jobs[2]), "greedy")
    assert excinfo.value.reason == "quota_exceeded"
    # Another client still gets in: the quota is per client.
    record, duplicate = state.submit(job_to_json(jobs[2]), "patient")
    assert not duplicate and record.state == "queued"


def test_saturating_client_receives_server_busy(service, connect):
    # A paused executor (drain the batch thread by grabbing the queue
    # capacity) makes saturation deterministic: capacity 3, then the 4th
    # submission must come back as an explicit busy frame.
    server = service(queue_capacity=3, batch_limit=1)
    # Stall the executor with slow-ish jobs so the queue actually fills.
    jobs = make_jobs(replicas=6, iterations=300_000, n=40)
    client = connect(server)
    saw_busy = None
    submitted = 0
    for job in jobs:
        try:
            client.submit(job)
            submitted += 1
        except ServerBusy as busy:
            saw_busy = busy
            break
    assert saw_busy is not None, "queue never filled; got no backpressure"
    assert saw_busy.reason in ("queue_full", "quota_exceeded")
    assert saw_busy.capacity > 0


def test_draining_refuses_new_submissions(service, connect):
    server = service()
    client = connect(server)
    jobs = make_jobs(replicas=2)
    client.submit(jobs[0])
    client.drain()
    with pytest.raises(ServerBusy) as excinfo:
        client.submit(jobs[1])
    assert excinfo.value.reason == "draining"
    # The already-admitted job still completes.
    assert client.wait([jobs[0].job_id], timeout=60) == {jobs[0].job_id: "completed"}
    assert server.wait_drained(timeout=30)


# --------------------------------------------------------------------- #
# Cancel / status / fetch
# --------------------------------------------------------------------- #
def test_cancel_queued_job(service, connect):
    # batch_limit=1 plus a long-running head job keeps the tail queued.
    server = service(batch_limit=1)
    jobs = make_jobs(replicas=3, iterations=200_000, n=40)
    client = connect(server)
    for job in jobs:
        client.submit(job)
    state = client.cancel(jobs[2].job_id)
    assert state in ("cancelled", "running", "completed")
    if state == "cancelled":
        assert client.status(jobs[2].job_id)["state"] == "cancelled"
    assert client.cancel("no-such-job") == "unknown"


def test_fetch_unfinished_is_not_found(service, connect):
    server = service()
    client = connect(server)
    assert client.fetch_document("never-submitted") is None


def test_status_summary_counts(service, connect):
    server = service()
    client = connect(server)
    jobs = make_jobs(replicas=2)
    client.run_jobs(jobs, timeout=60)
    summary = client.status()
    assert summary["jobs"]["completed"] == 2
    assert summary["draining"] is False


# --------------------------------------------------------------------- #
# Event streaming
# --------------------------------------------------------------------- #
def test_subscriber_receives_result_events(service, connect):
    server = service()
    client = connect(server)
    jobs = make_jobs(replicas=2)
    sock = raw_connection(server)
    protocol.send_frame(
        sock, {"type": "subscribe", "job_ids": [job.job_id for job in jobs]}
    )
    assert protocol.read_frame(sock)["type"] == "subscribed"
    for job in jobs:
        client.submit(job)
    seen = set()
    deadline = time.monotonic() + 60
    while len(seen) < 2 and time.monotonic() < deadline:
        frame = protocol.read_frame(sock)
        assert frame is not None
        if frame.get("type") == "event" and frame.get("event") == "result":
            seen.add(frame["job_id"])
            assert frame["state"] == "completed"
    assert seen == {job.job_id for job in jobs}
    sock.close()


def test_late_subscriber_gets_catch_up_events(service, connect):
    server = service()
    client = connect(server)
    job = make_jobs(replicas=1)[0]
    client.submit(job)
    client.wait([job.job_id], timeout=60)
    sock = raw_connection(server)
    protocol.send_frame(sock, {"type": "subscribe", "job_ids": [job.job_id]})
    ack = protocol.read_frame(sock)
    assert ack["type"] == "subscribed" and ack["backlog"] == 1
    event = protocol.read_frame(sock)
    assert event["event"] == "result" and event["catch_up"] is True
    sock.close()
