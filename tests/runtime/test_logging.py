"""Structured logging configuration and helpers."""

import io
import logging

from repro.runtime.logging import (
    configure_logging,
    format_fields,
    get_logger,
    level_for_verbosity,
)


def test_get_logger_namespaces_under_repro():
    assert get_logger().name == "repro"
    assert get_logger("datasets.cache").name == "repro.datasets.cache"
    assert get_logger("repro.models").name == "repro.models"


def test_level_for_verbosity_mapping():
    assert level_for_verbosity(-1) == logging.ERROR
    assert level_for_verbosity(0) == logging.WARNING
    assert level_for_verbosity(1) == logging.INFO
    assert level_for_verbosity(2) == logging.DEBUG
    assert level_for_verbosity(5) == logging.DEBUG


def test_configure_logging_is_idempotent():
    stream = io.StringIO()
    root = configure_logging(0, stream=stream)
    configure_logging(0, stream=stream)
    configure_logging(0, stream=stream)
    assert len(root.handlers) == 1


def test_messages_respect_level_and_reach_stream():
    stream = io.StringIO()
    configure_logging(1, stream=stream)
    log = get_logger("test.module")
    log.debug("hidden at -v")
    log.info("visible info")
    log.warning("visible warning")
    out = stream.getvalue()
    assert "hidden at -v" not in out
    assert "visible info" in out
    assert "visible warning" in out
    assert "[repro.test.module]" in out
    configure_logging(0)  # restore default for other tests


def test_format_fields_quotes_awkward_values():
    assert format_fields(msg="two words") == 'msg="two words"'
    assert format_fields(empty="") == 'empty=""'
    assert format_fields(tabby="a\tb") == 'tabby="a\tb"'
    assert format_fields(quoted='say "hi"') == 'quoted="say \\"hi\\""'
    assert format_fields(backslash="a\\b c") == 'backslash="a\\\\b c"'
    # Plain values stay unquoted.
    assert format_fields(n=3, path="/a/b.npz") == "n=3 path=/a/b.npz"


def test_timestamps_flag_prefixes_asctime():
    stream = io.StringIO()
    configure_logging(0, stream=stream, timestamps=True)
    get_logger("ts").warning("stamped")
    line = stream.getvalue().splitlines()[0]
    # asctime like "2026-08-05 12:34:56,789" precedes the [name] prefix.
    assert not line.startswith("[repro.ts]")
    assert "[repro.ts] WARNING stamped" in line
    configure_logging(0)


def test_timestamps_env_opt_in(monkeypatch):
    from repro.runtime.logging import TIMESTAMP_ENV

    monkeypatch.setenv(TIMESTAMP_ENV, "1")
    stream = io.StringIO()
    configure_logging(0, stream=stream)
    get_logger("ts.env").warning("stamped")
    assert not stream.getvalue().startswith("[repro.ts.env]")

    monkeypatch.setenv(TIMESTAMP_ENV, "false")
    stream = io.StringIO()
    configure_logging(0, stream=stream)
    get_logger("ts.env").warning("bare")
    assert stream.getvalue().startswith("[repro.ts.env]")
    configure_logging(0)
