"""Structured, leveled logging for the experiment pipeline.

A thin layer over :mod:`logging`: every pipeline module asks for a child of
the ``repro`` root logger via :func:`get_logger`, and the CLI maps
``--verbose``/``--quiet`` onto :func:`configure_logging`.  Messages carry
optional ``key=value`` fields appended in a stable order so log lines stay
grep-able::

    [repro.datasets.cache] WARNING quarantined corrupt archive path=... reason=truncated
"""

from __future__ import annotations

import logging
import os
import sys

_ROOT_NAME = "repro"
_FORMAT = "[%(name)s] %(levelname)s %(message)s"
_TIMESTAMP_FORMAT = "%(asctime)s " + _FORMAT
#: Set to a non-empty value (other than 0/false/no) to prefix log lines
#: with a timestamp; the CLI's ``--log-timestamps`` flag sets the same.
TIMESTAMP_ENV = "REPRO_LOG_TIMESTAMPS"


def get_logger(name: str = "") -> logging.Logger:
    """The ``repro`` logger, or a dotted child of it (``repro.<name>``)."""
    if not name:
        return logging.getLogger(_ROOT_NAME)
    if name.startswith(_ROOT_NAME + ".") or name == _ROOT_NAME:
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def configure_logging(
    verbosity: int = 0, stream=None, timestamps: "bool | None" = None
) -> logging.Logger:
    """Install a stderr handler on the ``repro`` root logger.

    ``verbosity`` maps CLI flags to levels: ``-1`` (``--quiet``) shows only
    errors, ``0`` warnings (the default), ``1`` (``-v``) info, and ``>=2``
    (``-vv``) debug.  ``timestamps`` opts each line into an ``asctime``
    prefix; None defers to the :data:`TIMESTAMP_ENV` environment variable.
    Idempotent: reconfiguring replaces the handler rather than stacking
    duplicates.
    """
    if timestamps is None:
        timestamps = os.environ.get(TIMESTAMP_ENV, "").lower() not in (
            "", "0", "false", "no",
        )
    root = logging.getLogger(_ROOT_NAME)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(
        logging.Formatter(_TIMESTAMP_FORMAT if timestamps else _FORMAT)
    )
    root.addHandler(handler)
    root.setLevel(level_for_verbosity(verbosity))
    root.propagate = False
    return root


def level_for_verbosity(verbosity: int) -> int:
    """CLI verbosity counter -> :mod:`logging` level."""
    if verbosity <= -1:
        return logging.ERROR
    if verbosity == 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG


def _format_value(value) -> str:
    """Quote values that would break ``key=value key2=...`` parsing."""
    text = str(value)
    if not text or any(c.isspace() for c in text) or '"' in text:
        escaped = text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return text


def format_fields(**fields) -> str:
    """Render ``key=value`` pairs in insertion order for log messages.

    Values containing whitespace (or quotes, or nothing at all) are
    double-quoted with backslash escaping so log lines stay splittable on
    spaces.
    """
    return " ".join(f"{key}={_format_value(value)}" for key, value in fields.items())
