"""Property test: ``POST /select`` answers any body exactly or with a 4xx.

Hypothesis writes request bodies of every JSON type, at the top level and
in ``representation``, ``features``, ``labels`` and ``timeout_ms``: NaN,
±Infinity, ``1e400``, integers beyond float range, nested, ragged and
empty lists, wrong widths, and raw bytes that are not UTF-8.  Every answer
is either a 200 whose subset is the engine's own answer for the body's
task, or a 4xx carrying a JSON error; never a 5xx.

One server runs for the whole test, in a thread with its own event loop,
and requests go one at a time.  Each flush then holds one row, as the
reference does: BLAS rounds a row's Q differently with the number of rows
in its forward, so a near-tie could break differently in a shared flush.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import threading
from typing import Iterator

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import load_model, save_model
from repro.data.stats import pearson_representation
from repro.serve import BatchedGreedyEngine, ModelRegistry, SelectionServer

WIDTH = 12  # the tiny suite's feature count, the served model's width

#: Strings json.dumps writes quoted, swapped afterwards for number tokens
#: it cannot write: ``1e400`` parses as Infinity.
RAW_TOKENS = {"@1e400@": "1e400", "@-1e400@": "-1e400"}

huge_ints = st.integers(min_value=10**309, max_value=10**400) | st.integers(
    min_value=-(10**400), max_value=-(10**309)
)
numbers = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    huge_ints,
    st.sampled_from(sorted(RAW_TOKENS)),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)

valid_reps = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=WIDTH, max_size=WIDTH
)
valid_tasks = st.integers(min_value=2, max_value=6).flatmap(
    lambda rows: st.tuples(
        st.lists(
            st.lists(
                st.floats(min_value=-10.0, max_value=10.0),
                min_size=WIDTH, max_size=WIDTH,
            ),
            min_size=rows, max_size=rows,
        ),
        st.lists(st.integers(min_value=0, max_value=1), min_size=rows, max_size=rows),
    )
)
#: At least 10 s, so no valid request can time out.
valid_timeouts = st.integers(min_value=10_000, max_value=10**12) | st.floats(
    min_value=10_000.0, max_value=1e300
)
#: Never a positive number below 10 s: that is a valid budget that may expire.
bad_timeouts = st.one_of(
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), *sorted(RAW_TOKENS)]),
    huge_ints,
    st.floats(max_value=0.0),
    st.integers(max_value=0),
    st.text(max_size=4),
    st.lists(numbers, max_size=3),
    st.dictionaries(st.text(max_size=3), numbers, max_size=2),
)

#: Values a valid body never holds where a number belongs.
odd_values = st.one_of(
    st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), *sorted(RAW_TOKENS),
         10**400, -(10**400), 1.5e308, -0.5, 2.0, True, None, "0.5", [0.5]]
    ),
    numbers,
)


def one_cell(values: list, value: object, index: int) -> list:
    """``values`` with entry ``index`` (wrapped to its length) replaced."""
    index %= len(values)
    return [*values[:index], value, *values[index + 1 :]]


def one_feature_cell(task: tuple, value: object, row: int, column: int) -> tuple:
    """``task`` with one cell of its feature matrix replaced."""
    features, labels = task
    row %= len(features)
    return one_cell(features, one_cell(features[row], value, column), row), labels


reps = st.one_of(
    st.builds(one_cell, valid_reps, odd_values, st.integers(min_value=0)),
    st.lists(numbers, min_size=WIDTH, max_size=WIDTH),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=WIDTH + 3),
    st.lists(st.lists(numbers, max_size=3), max_size=WIDTH),
    json_values,
)
tasks = st.one_of(
    st.builds(
        one_feature_cell,
        valid_tasks, odd_values, st.integers(min_value=0), st.integers(min_value=0),
    ),
    st.builds(
        lambda task, value, row: (task[0], one_cell(task[1], value, row)),
        valid_tasks, odd_values, st.integers(min_value=0),
    ),
    st.tuples(
        st.lists(st.lists(numbers, max_size=WIDTH + 1), max_size=4),
        st.lists(numbers, max_size=6),
    ),
    st.tuples(json_values, json_values),
)


def render(value: object) -> bytes:
    """``value`` as a JSON body, with the raw number tokens swapped in."""
    text = json.dumps(value)
    for placeholder, token in RAW_TOKENS.items():
        text = text.replace(json.dumps(placeholder), token)
    return text.encode()


#: Bodies the server must answer with a 200.
valid_bodies = (
    st.one_of(
        valid_reps.map(lambda rep: {"representation": rep}),
        valid_tasks.map(lambda task: {"features": task[0], "labels": task[1]}),
    )
    .flatmap(
        lambda body: st.just(body)
        | valid_timeouts.map(lambda timeout: {**body, "timeout_ms": timeout})
    )
    .map(render)
)

#: Bodies of any shape: each may be answered with a 200 or a 4xx.
any_bodies = st.one_of(
    reps.map(lambda rep: {"representation": rep}),
    tasks.map(lambda task: {"features": task[0], "labels": task[1]}),
    st.builds(
        lambda rep, timeout: {"representation": rep, "timeout_ms": timeout},
        valid_reps, bad_timeouts,
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "representation": json_values,
            "features": json_values,
            "labels": json_values,
            "timeout_ms": valid_timeouts | bad_timeouts,
            "extra": json_values,
        },
    ),
    json_values,
).map(render) | st.binary(max_size=16)


@pytest.fixture(scope="module")
def model_artifact(fitted_tiny_model, tmp_path_factory):
    root = tmp_path_factory.mktemp("property-artifact")
    return save_model(fitted_tiny_model, root / "model")


@contextlib.contextmanager
def server_thread(registry: ModelRegistry) -> Iterator[tuple[str, int]]:
    """A server on its own event loop in a thread; yields its address."""
    started = threading.Event()
    state: dict = {}

    async def main() -> None:
        server = SelectionServer(registry, port=0, request_timeout_ms=None)
        await server.start()
        state["loop"] = asyncio.get_running_loop()
        state["stop"] = stop = asyncio.Event()
        state["address"] = server.address
        started.set()
        try:
            await stop.wait()
        finally:
            await server.stop()

    thread = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
    thread.start()
    assert started.wait(timeout=60), "server did not start"
    try:
        yield state["address"]
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(timeout=60)
    assert not thread.is_alive()


def post_select(address: tuple[str, int], body: bytes) -> tuple[int, dict]:
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        connection.request("POST", "/select", body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def engine_subset(engine: BatchedGreedyEngine, body: bytes) -> list[int]:
    """The engine's answer for the body's representation (given, or the
    |Pearson| vector of its features and labels), alone in its batch."""
    payload = json.loads(body)
    if "representation" in payload:
        rep = np.asarray(payload["representation"], dtype=np.float64)
    else:
        rep = pearson_representation(
            np.asarray(payload["features"], dtype=np.float64),
            np.asarray(payload["labels"], dtype=np.float64),
        )
    return list(engine.select_representations([rep])[0])


def test_select_answers_exactly_or_with_a_4xx(model_artifact):
    engine = BatchedGreedyEngine.from_model(load_model(model_artifact))
    registry = ModelRegistry(model_artifact)

    with server_thread(registry) as address:

        @settings(
            max_examples=150,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        )
        @given(
            st.one_of(
                valid_bodies.map(lambda body: (body, True)),
                any_bodies.map(lambda body: (body, False)),
            )
        )
        @example((b"\xff\xfe{}", False))
        @example((render({"representation": [10**400] + [0.5] * 11}), False))
        @example((render({"features": [[0.5], [1.5]], "labels": [0, 10**400]}), False))
        @example((render({"representation": [0.5] * WIDTH, "timeout_ms": 10**400}), False))
        @example((render({"representation": [float("nan")] + [0.5] * 11}), False))
        @example((render({"representation": ["@1e400@"] + [0.5] * 11}), False))
        @example((render({"representation": [0.5] * WIDTH, "timeout_ms": True}), False))
        @example((render({"representation": [0.5] * WIDTH, "timeout_ms": float("nan")}), False))
        def check(case: tuple[bytes, bool]) -> None:
            body, valid = case
            status, reply = post_select(address, body)
            assert status < 500, (body, status, reply)
            if status == 200:
                assert reply["subset"] == engine_subset(engine, body), body
            else:
                assert 400 <= status < 500 and isinstance(reply["error"], str)
                assert not valid, (body, status, reply)

        check()
