"""Predict bodies: the envelope split, where a fleet decodes, what it
counts, and every error reply of a 2-replica fleet, pinned.

Each pinned case's status and JSON body were recorded from a front door
that decoded every body itself; a front door that hands a sequence's
decode to the serving replica must answer every case byte for byte the
same.  Two rows were changed on purpose since: a body that is not UTF-8
and one nested past the recursion limit are malformed JSON, so both now
answer ``invalid JSON body: ...`` (the nested one was a 500).  ``{model_id}`` in a pinned message stands for the published
model's id.  The double faults pair a malformed body with a refusal the
fleet checks after the decode: the decode's 400 must still come first.
"""

import http.client
import json
import threading
import time
from contextlib import ExitStack, contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.backoff import RetryPolicy
from repro.runtime.errors import RegistryError
from repro.runtime.telemetry import metrics
from repro.serve import (
    EngineConfig,
    FleetConfig,
    ServerConfig,
    build_server,
    predict,
    predict_with_retry,
)
from repro.serve import client as client_module
from repro.serve import fleet as fleet_module
from repro.serve import http as http_module
from repro.serve.client import _predict_body
from repro.serve.http import parse_predict_body, split_predict_body

from .conftest import NUM_FRAMES
from .test_fleet import wait_for

GOOD = np.full((NUM_FRAMES, 16, 16), 0.25, dtype=np.float32)
NAN = GOOD.copy()
NAN[3, 4, 5] = np.nan
INF = GOOD.copy()
INF[0, 0, 0] = np.inf
RAGGED = [[1.0, 2.0], [3.0]]
WRONG_SHAPE = [[[0.0, 1.0], [1.0, 0.0]]]
UNKNOWN = "m-000000000000"


def _body(sequence, **fields) -> bytes:
    if isinstance(sequence, np.ndarray):
        sequence = sequence.tolist()
    return json.dumps({"sequence": sequence, **fields}).encode()


BROKEN_INSIDE = b'{"sequence": [[1.0,, 2.0]], "model": "latest"}'

#: (case id, fault, body).  A fault is set up around the request.
CASES = [
    ("empty body", None, b""),
    ("broken JSON", None, b"not json"),
    ("broken JSON inside the sequence", None, BROKEN_INSIDE),
    ("truncated body", None, _body(GOOD)[:1000]),
    ("non-object body", None, b"[1, 2, 3]"),
    ("no sequence", None, b'{"model": "latest"}'),
    ("unknown field", None, _body(GOOD, bogus=1)),
    ("ragged sequence", None, _body(RAGGED)),
    ("string-valued sequence", None, _body([[["a"]]])),
    ("numeric strings of the wrong shape", None, _body([["1.5"]])),
    ("NaN sequence", None, _body(NAN)),
    ("infinite sequence", None, _body(INF)),
    ("wrong-shape sequence", None, _body(WRONG_SHAPE)),
    ("scalar sequence", None, _body(5)),
    ("bad screen", None, _body(GOOD, screen="yes")),
    ("negative deadline_ms", None, _body(GOOD, deadline_ms=-5)),
    ("string deadline_ms", None, _body(GOOD, deadline_ms="soon")),
    ("deadline_ms that underflows", None, _body(GOOD, deadline_ms=5e-324)),
    ("bad model", None, _body(GOOD, model=5)),
    ("unknown model", None, _body(GOOD, model=UNKNOWN)),
    ("sequence twice", None, b'{"sequence": [[[1.0]]], "sequence": "text"}'),
    (
        "sequence twice, one escaped", None,
        b'{"sequence": [[1.0, 2.0], [3.0]], "sequenc\\u0065": 5}',
    ),
    (
        "sequence not first", None,
        b'{"model": "latest", "sequence": [[1.0, 2.0], [3.0]]}',
    ),
    (
        "whitespace around the envelope", None,
        b'\r\n\t {\n  "sequence" :\t[[1.0, 2.0], [3.0]]\n}\n',
    ),
    (
        "compact separators", None,
        b'{"sequence":[[1.0,2.0],[3.0]],"model":"latest"}',
    ),
    (
        "whitespace inside the sequence", None,
        b'{"sequence": [ [ 1.0 ,\n2.0 ] ,\t[ 3.0 ] ] , "screen": false}',
    ),
    ("invalid UTF-8 inside the sequence", None, b'{"sequence": [[1.0, \xff]]}'),
    ("deeply nested sequence", None, b'{"sequence": ' + b"[" * 5000 + b"]" * 5000 + b"}"),
    ("ragged sequence, unknown model", None, _body(RAGGED, model=UNKNOWN)),
    ("ragged sequence, deadline_ms too large to wait", None, _body(RAGGED, deadline_ms=1e300)),
    ("NaN sequence, unknown model", None, _body(NAN, model=UNKNOWN)),
    (
        "broken JSON inside the sequence, unknown model", None,
        BROKEN_INSIDE.replace(b"latest", UNKNOWN.encode()),
    ),
] + [
    (f"{name}, {fault}", fault, body)
    for fault in ("draining", "breaker open", "saturated")
    for name, body in (
        ("valid sequence", _body(GOOD)),
        ("ragged sequence", _body(RAGGED)),
        ("wrong-shape sequence", _body(WRONG_SHAPE)),
        ("NaN sequence", _body(NAN)),
        ("broken JSON inside the sequence", BROKEN_INSIDE),
    )
]

#: case id -> (status, error type, message) as the decoding front door
#: answered; ``{ragged}`` is NumPy's text for a ragged nested list.
EXPECTED = {
    "empty body": (400, "ValidationError", "request body required"),
    "broken JSON": (400, "ValidationError", "invalid JSON body: Expecting value: line 1 column 1 (char 0)"),
    "broken JSON inside the sequence": (400, "ValidationError", "invalid JSON body: Expecting value: line 1 column 20 (char 19)"),
    "truncated body": (400, "ValidationError", "invalid JSON body: Expecting ',' delimiter: line 1 column 1001 (char 1000)"),
    "non-object body": (400, "ValidationError", 'body must be an object with a "sequence" key'),
    "no sequence": (400, "ValidationError", 'body must be an object with a "sequence" key'),
    "unknown field": (400, "ValidationError", "unknown request fields: ['bogus']"),
    "ragged sequence": (400, "ValidationError", "sequence is not a numeric array: {ragged}"),
    "string-valued sequence": (400, "ValidationError", "sequence is not a numeric array: could not convert string to float: 'a'"),
    "numeric strings of the wrong shape": (400, "ValidationError", "sequence shape (1, 1) does not match model {model_id} input (8, 16, 16)"),
    "NaN sequence": (400, "ValidationError", "sequence contains non-finite values"),
    "infinite sequence": (400, "ValidationError", "sequence contains non-finite values"),
    "wrong-shape sequence": (400, "ValidationError", "sequence shape (1, 2, 2) does not match model {model_id} input (8, 16, 16)"),
    "scalar sequence": (400, "ValidationError", "sequence shape () does not match model {model_id} input (8, 16, 16)"),
    "bad screen": (400, "ValidationError", "screen must be a boolean"),
    "negative deadline_ms": (400, "ValidationError", "deadline_ms must be a positive number"),
    "string deadline_ms": (400, "ValidationError", "deadline_ms must be a positive number"),
    "deadline_ms that underflows": (400, "ValidationError", "deadline_s must be > 0, got 0.0"),
    "bad model": (400, "ValidationError", "model must be a string id or alias"),
    "unknown model": (404, "ModelNotFoundError", "unknown model reference 'm-000000000000'"),
    "sequence twice": (400, "ValidationError", "sequence is not a numeric array: could not convert string to float: 'text'"),
    "sequence twice, one escaped": (400, "ValidationError", "sequence shape () does not match model {model_id} input (8, 16, 16)"),
    "sequence not first": (400, "ValidationError", "sequence is not a numeric array: {ragged}"),
    "whitespace around the envelope": (400, "ValidationError", "sequence is not a numeric array: {ragged}"),
    "compact separators": (400, "ValidationError", "sequence is not a numeric array: {ragged}"),
    "whitespace inside the sequence": (400, "ValidationError", "sequence is not a numeric array: {ragged}"),
    "invalid UTF-8 inside the sequence": (400, "ValidationError", "invalid JSON body: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"),
    "deeply nested sequence": (400, "ValidationError", "invalid JSON body: maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    "ragged sequence, unknown model": (400, "ValidationError", "sequence is not a numeric array: {ragged}"),
    "ragged sequence, deadline_ms too large to wait": (400, "ValidationError", "sequence is not a numeric array: {ragged}"),
    "NaN sequence, unknown model": (404, "ModelNotFoundError", "unknown model reference 'm-000000000000'"),
    "broken JSON inside the sequence, unknown model": (400, "ValidationError", "invalid JSON body: Expecting value: line 1 column 20 (char 19)"),
    "valid sequence, draining": (503, "DrainingError", "fleet is draining; not admitting requests"),
    "ragged sequence, draining": (400, "ValidationError", "sequence is not a numeric array: {ragged}"),
    "wrong-shape sequence, draining": (503, "DrainingError", "fleet is draining; not admitting requests"),
    "NaN sequence, draining": (503, "DrainingError", "fleet is draining; not admitting requests"),
    "broken JSON inside the sequence, draining": (400, "ValidationError", "invalid JSON body: Expecting value: line 1 column 20 (char 19)"),
    "valid sequence, breaker open": (503, "CircuitOpenError", "circuit breaker open for model {model_id} (5 consecutive failures)"),
    "ragged sequence, breaker open": (400, "ValidationError", "sequence is not a numeric array: {ragged}"),
    "wrong-shape sequence, breaker open": (400, "ValidationError", "sequence shape (1, 2, 2) does not match model {model_id} input (8, 16, 16)"),
    "NaN sequence, breaker open": (400, "ValidationError", "sequence contains non-finite values"),
    "broken JSON inside the sequence, breaker open": (400, "ValidationError", "invalid JSON body: Expecting value: line 1 column 20 (char 19)"),
    "valid sequence, saturated": (429, "OverloadError", "every READY replica is at its in-flight cap (0); retry later"),
    "ragged sequence, saturated": (400, "ValidationError", "sequence is not a numeric array: {ragged}"),
    "wrong-shape sequence, saturated": (400, "ValidationError", "sequence shape (1, 2, 2) does not match model {model_id} input (8, 16, 16)"),
    "NaN sequence, saturated": (400, "ValidationError", "sequence contains non-finite values"),
    "broken JSON inside the sequence, saturated": (400, "ValidationError", "invalid JSON body: Expecting value: line 1 column 20 (char 19)"),
}


def _fleet_config() -> FleetConfig:
    return FleetConfig(
        replicas=2,
        engine=EngineConfig(max_batch=4, screen_by_default=False),
        heartbeat_interval_s=0.05,
        heartbeat_miss_dead=6,
        respawn=RetryPolicy(max_attempts=4, base_delay_s=0.05, max_delay_s=0.25),
        reload_poll_s=0.1,
    )


def _serving(registry):
    server = build_server(registry.root, None, ServerConfig(port=0), _fleet_config())
    with server:
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        yield server
        server.shutdown()
        thread.join()


@pytest.fixture(scope="module")
def fleet_server(published_registry):
    registry, _ = published_registry
    yield from _serving(registry)


@pytest.fixture(scope="module")
def draining_server(published_registry):
    registry, _ = published_registry
    for server in _serving(registry):
        server.engine.drain()
        yield server


def post(server, body: bytes) -> "tuple[int, bytes]":
    """One raw ``POST /v1/predict`` -> ``(status, response body)``."""
    conn = http.client.HTTPConnection(*server.server_address, timeout=30)
    try:
        conn.request(
            "POST", "/v1/predict", body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@contextmanager
def open_breaker(fleet, model_id: str, monkeypatch):
    """Hold ``model_id``'s breaker open for the block (probe not yet
    taken), then close it and forget the faults it recorded."""
    monkeypatch.setattr(fleet_module, "BREAKER_COOLDOWN_S", 60.0)
    replica = fleet._slots[0].replica
    for _ in range(fleet_module.BREAKER_FAILURES):
        fleet._record_outcome(
            replica, model_id, RegistryError(model_id, "boom"), 0.01
        )
    try:
        yield fleet._breaker(model_id)
    finally:
        with fleet._breaker_lock:
            fleet._breakers.clear()
        with replica.lock:
            replica.window.clear()


def _ragged_message() -> str:
    try:
        np.asarray(RAGGED, dtype=np.float32)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("NumPy accepted a ragged list")


@pytest.mark.parametrize(
    "case_id, fault, body", CASES, ids=[case[0] for case in CASES]
)
def test_error_reply_matches_the_pinned_table(
    request, published_registry, monkeypatch, case_id, fault, body
):
    _, model_id = published_registry
    server = request.getfixturevalue(
        "draining_server" if fault == "draining" else "fleet_server"
    )
    with ExitStack() as stack:
        if fault == "breaker open":
            stack.enter_context(open_breaker(server.engine, model_id, monkeypatch))
            server.engine._check_breaker(model_id)  # another request probes
        elif fault == "saturated":
            monkeypatch.setattr(fleet_module, "MAX_INFLIGHT_PER_REPLICA", 0)
        status, reply = post(server, body)
    expected_status, error_type, message = EXPECTED[case_id]
    message = message.replace("{model_id}", model_id)
    message = message.replace("{ragged}", _ragged_message())
    expected = json.dumps({"error": {"type": error_type, "message": message}})
    assert (status, reply) == (expected_status, expected.encode())


def test_every_case_is_pinned():
    assert sorted(EXPECTED) == sorted(case[0] for case in CASES)


def test_malformed_request_leaves_the_half_open_probe(
    fleet_server, published_registry, monkeypatch
):
    """A body the serving replica rejects gives back the probe it took,
    so the next well-formed request is still admitted as the probe."""
    _, model_id = published_registry
    with open_breaker(fleet_server.engine, model_id, monkeypatch) as breaker:
        for malformed in (_body(NAN), BROKEN_INSIDE):
            assert post(fleet_server, malformed)[0] == 400
            assert breaker.half_open_probe is False
        status, reply = post(fleet_server, _body(GOOD))
        assert status == 200, reply
        assert (breaker.failures, breaker.open_until) == (0, 0.0)


# ----------------------------------------------------------------------
# The split
# ----------------------------------------------------------------------
_WHITESPACE = st.sampled_from(["", " ", "\n", "\t", " \r\n "])
_NUMBERS = st.one_of(
    st.integers(-9, 9), st.floats(allow_nan=True, allow_infinity=True, width=32)
)
_STRINGS = st.text(alphabet='ab"]\\[,:{} ', max_size=4)
_NUMERIC_ARRAYS = st.recursive(
    _NUMBERS, lambda inner: st.lists(inner, max_size=3), max_leaves=8
)
_ARRAYS = st.recursive(
    st.one_of(_NUMBERS, _STRINGS), lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
#: Members as written in the body (keys with escapes included): valid
#: envelope fields, and any key with any value.
_MEMBERS = st.one_of(
    st.tuples(st.just('"model"'), st.sampled_from(["latest", "m-0", 'a"]'])),
    st.tuples(st.just('"screen"'), st.booleans()),
    st.tuples(st.just('"deadline_ms"'), st.integers(1, 9) | st.floats(0.5, 1e4)),
    st.tuples(
        st.sampled_from([
            '"sequence"', '"sequenc\\u0065"', '"model"', '"mod\\u0065l"',
            '"screen"', '"deadline_ms"', '"bogus"',
        ]),
        st.one_of(st.none(), st.booleans(), _NUMBERS, _STRINGS, _ARRAYS),
    ),
)


@st.composite
def predict_bodies(draw) -> bytes:
    """Mostly plainly shaped bodies, some reordered, some with a byte
    inserted or deleted anywhere."""
    members = draw(st.lists(_MEMBERS, max_size=3))
    if draw(st.integers(0, 4)):
        sequence = draw(st.one_of(_NUMERIC_ARRAYS, _ARRAYS))
        members.insert(0, ('"sequence"', sequence))
    if not draw(st.integers(0, 4)):
        members = draw(st.permutations(members))
    text = draw(_WHITESPACE) + "{" + ",".join(
        f"{draw(_WHITESPACE)}{key}{draw(_WHITESPACE)}:{draw(_WHITESPACE)}"
        f"{json.dumps(value)}{draw(_WHITESPACE)}"
        for key, value in members
    ) + "}" + draw(_WHITESPACE)
    body = text.encode()
    if not draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(body)))
        if draw(st.booleans()):
            body = body[:at] + body[at + 1:]
        else:
            byte = draw(st.sampled_from([bytes([b]) for b in b'[]{},:"\\ 1n']))
            body = body[:at] + byte + body[at:]
    return body


def _same(a, b) -> bool:
    """Equal, NaN included."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@settings(max_examples=500, deadline=None)
@given(body=predict_bodies())
def test_split_gives_todays_envelope_or_declines(body):
    envelope = split_predict_body(body)
    if envelope is None:
        return
    try:
        today = parse_predict_body(body)
    except ValueError as exc:
        # The masked envelope parsed and passed: only the sequence, its
        # text or its values, can be at fault.
        assert str(exc).startswith(
            ("invalid JSON body", "sequence is not a numeric array")
        ), exc
        return
    assert list(json.loads(body))[0] == "sequence"
    assert _same({key: today[key] for key in envelope}, envelope)


@pytest.mark.parametrize("body", [
    b'{"model": "latest", "sequence": [[1.0]]}',
    b'{"sequence": [[1.0]], "sequence": [[2.0]]}',
    b'{"sequence": [[1.0]], "mod\\u0065l": "latest"}',
    b'{"sequence": [[1.0], "a"], "model": "latest"}',
    b'{"sequence": [[1.0]], "bogus": 1}',
    b'{"sequence": [[1.0]], "screen": "yes"}',
    b'{"sequence": 5}',
], ids=[
    "sequence not first", "sequence twice", "backslash after the array",
    "string in the array", "unknown field", "bad screen", "not an array",
])
def test_split_declines_a_body_that_is_not_plainly_shaped(body):
    assert split_predict_body(body) is None


def test_client_bodies_take_the_split():
    for fields in (
        {}, {"model": "m-0"}, {"screen": True}, {"deadline_ms": 250.0},
        {"model": "latest", "screen": False, "deadline_ms": 1},
    ):
        body = _predict_body(GOOD, **fields)
        envelope = split_predict_body(body)
        assert envelope is not None, fields
        today = parse_predict_body(body)
        assert envelope == {key: today[key] for key in envelope}
        assert np.array_equal(today["sequence"], GOOD)


def test_predict_and_retry_send_the_one_body(monkeypatch):
    sent = []

    def fake(url, body=None, timeout_s=30.0, request_id=None):
        sent.append(body)
        return 200, {}, {}

    monkeypatch.setattr(client_module, "_request", fake)
    predict("http://x", GOOD, screen=True, deadline_ms=100)
    predict_with_retry("http://x", GOOD, screen=True, deadline_ms=100)
    assert sent == [_predict_body(GOOD, "latest", True, 100)] * 2


# ----------------------------------------------------------------------
# Where the decode runs
# ----------------------------------------------------------------------
@pytest.fixture()
def front_door_decodes(monkeypatch) -> list:
    """Count the bodies this process decodes: the front door's parser
    and the fleet's, which share it (replicas run in other processes)."""
    calls = []

    def counted(raw):
        calls.append(raw)
        return parse_predict_body(raw)

    monkeypatch.setattr(http_module, "parse_predict_body", counted)
    monkeypatch.setattr(fleet_module, "parse_predict_body", counted)
    return calls


def test_fleet_replicas_decode_plainly_shaped_bodies(
    fleet_server, front_door_decodes
):
    status, reply = post(fleet_server, _predict_body(GOOD))
    assert status == 200, reply
    assert front_door_decodes == []
    reordered = json.dumps({"model": "latest", "sequence": GOOD.tolist()}).encode()
    status, reply = post(fleet_server, reordered)
    assert status == 200, reply
    assert front_door_decodes == [reordered]


def test_in_process_engine_decodes_in_the_front_door(
    live_server, front_door_decodes
):
    body = _predict_body(GOOD)
    status, reply = post(live_server, body)
    assert status == 200, reply
    assert front_door_decodes == [body]


def test_a_long_body_is_decoded_in_the_front_door(
    fleet_server, published_registry, front_door_decodes
):
    """A body with more bytes per input value than a client writes never
    goes to a replica: its decode there could hold up the replica's
    heartbeat replies.  It gets the reply the decoding front door gave."""
    _, model_id = published_registry
    bound = fleet_module.SHIPPED_BYTES_PER_VALUE * GOOD.size
    deaths = metrics().counter("fleet.replica_deaths").value
    wrong_shape = _body(np.full((4 * NUM_FRAMES, 16, 16), 0.1, np.float32))
    indented = json.dumps({"sequence": GOOD.tolist()}, indent=8).encode()
    assert min(len(wrong_shape), len(indented)) > bound
    assert split_predict_body(wrong_shape) and split_predict_body(indented)
    status, reply = post(fleet_server, wrong_shape)
    assert (status, json.loads(reply)["error"]["message"]) == (
        400,
        f"sequence shape (32, 16, 16) does not match model {model_id} "
        "input (8, 16, 16)",
    )
    status, reply = post(fleet_server, indented)
    assert status == 200, reply
    assert front_door_decodes == [wrong_shape, indented]
    assert metrics().counter("fleet.replica_deaths").value == deaths


def test_a_shipped_nested_body_gets_its_400_and_kills_no_replica(
    fleet_server, front_door_decodes
):
    """A replica that decodes an array nested past the recursion limit
    fails it as malformed JSON, the client gets a 400, and the replica
    keeps serving."""
    fleet = fleet_server.engine
    deaths = metrics().counter("fleet.replica_deaths").value
    pids = sorted(slot.replica.pid for slot in fleet._slots)
    nested = b'{"sequence": ' + b"[" * 5000 + b"]" * 5000 + b"}"
    # Plainly shaped and short: the front door ships it whole.
    assert split_predict_body(nested) is not None
    assert len(nested) <= fleet_module.SHIPPED_BYTES_PER_VALUE * GOOD.size
    status, reply = post(fleet_server, nested)
    assert status == 400, reply
    assert json.loads(reply)["error"]["message"].startswith("invalid JSON body: ")
    # The fleet decodes a shipped body itself only once its replica has
    # failed it, to give the reply a decoding front door would.
    assert front_door_decodes == [nested]
    status, reply = post(fleet_server, _predict_body(GOOD))
    assert status == 200, reply
    assert metrics().counter("fleet.replica_deaths").value == deaths
    assert sorted(slot.replica.pid for slot in fleet._slots) == pids


@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("deadline", ["NaN", "Infinity", "1e300", "true"])
def test_a_deadline_no_wait_can_hold_is_a_400(
    request, deadline, replicas
):
    """``deadline_ms`` must be a finite number, not a boolean, that a
    wait can hold; anything else is refused before it is admitted."""
    server = request.getfixturevalue(
        "live_server" if replicas == 1 else "fleet_server"
    )
    body = _predict_body(GOOD)[:-1] + f', "deadline_ms": {deadline}}}'.encode()
    status, reply = post(server, body)
    assert status == 400, reply
    assert json.loads(reply)["error"]["message"].startswith("deadline_ms must be")
    assert server.engine.queue_depth() == 0


def _latency_count() -> int:
    return metrics().snapshot().get(
        "fleet.request_latency_s", {"count": 0}
    )["count"]


def _merged_engine_requests(fleet) -> "tuple[int, int]":
    """The replicas' ``serve.requests_total`` and ``serve.predictions_total``
    as their last pongs reported them."""
    merged = fleet.metrics_snapshot()["merged"]
    return tuple(
        int(merged.get(name, {"value": 0})["value"])
        for name in ("serve.requests_total", "serve.predictions_total")
    )


def test_a_malformed_body_counts_where_the_decoding_front_door_counted_it(
    fleet_server,
):
    """``fleet.requests_total`` counts an admitted body once it decodes;
    the latency histogram and the replicas' engines see well-formed
    requests only, wherever the decode ran."""
    fleet = fleet_server.engine
    requests_total = metrics().counter("fleet.requests_total")
    cases = [
        (BROKEN_INSIDE, 400, 0, 0),
        (_body(WRONG_SHAPE), 400, 1, 0),
        (_body(NAN), 400, 1, 0),
        (_predict_body(GOOD), 200, 1, 1),
    ]
    time.sleep(0.3)  # six heartbeats: earlier requests' pongs have landed
    engine_before = _merged_engine_requests(fleet)
    for body, status, counted, observed in cases:
        before = (requests_total.value, _latency_count())
        assert post(fleet_server, body)[0] == status
        assert (requests_total.value, _latency_count()) == (
            before[0] + counted, before[1] + observed
        )
    # The replicas' snapshots ride their next pongs.
    expected = (engine_before[0] + 1, engine_before[1] + 1)
    assert wait_for(lambda: _merged_engine_requests(fleet) == expected)
