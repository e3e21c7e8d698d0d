"""Structured logging for the runtime components (serve, training, io).

Every component logs through a :class:`StructuredLogger` obtained from
:func:`get_logger`.  The logger wraps a stdlib ``logging.Logger`` named
``repro.<component>`` — handlers, levels, propagation and pytest's
``caplog`` all keep working — and stamps each record with:

* ``component`` — the dotted component name (``serve.batcher``, ...);
* ``run_id`` — optional correlation id threaded from the entry point;
* ``fields`` — arbitrary structured key/values passed per call.

Default output is unchanged stdlib formatting (the fields ride along on
the record for any formatter that wants them); :func:`configure_json`
swaps in a JSON-lines formatter for log collectors.

Bare ``print(...)`` is the anti-pattern this replaces: it is invisible
to handlers, levels and collectors.  repolint rule OBS1101 bans it in
``src/repro`` outside the CLI boundary.
"""

from __future__ import annotations

import json
import logging
from typing import IO, Any

__all__ = ["JsonFormatter", "StructuredLogger", "configure_json", "get_logger"]


class StructuredLogger:
    """%-style logging with component/run-id context and keyword fields.

    ``logger.warning("retry %d failed", n, reason=str(exc))`` logs the
    formatted message through stdlib logging while attaching
    ``{"reason": ...}`` as structured data on the record.
    """

    def __init__(
        self,
        component: str,
        run_id: str | None = None,
        logger: logging.Logger | None = None,
    ) -> None:
        self.component = component
        self.run_id = run_id
        self._logger = logger or logging.getLogger(f"repro.{component}")

    def bind(self, run_id: str) -> "StructuredLogger":
        """A copy of this logger stamped with a correlation id."""
        return StructuredLogger(self.component, run_id=run_id, logger=self._logger)

    # -- level methods --------------------------------------------------
    def debug(self, msg: str, *args: object, **fields: Any) -> None:
        self._log(logging.DEBUG, msg, args, fields)

    def info(self, msg: str, *args: object, **fields: Any) -> None:
        self._log(logging.INFO, msg, args, fields)

    def warning(self, msg: str, *args: object, **fields: Any) -> None:
        self._log(logging.WARNING, msg, args, fields)

    def error(self, msg: str, *args: object, **fields: Any) -> None:
        self._log(logging.ERROR, msg, args, fields)

    def exception(self, msg: str, *args: object, **fields: Any) -> None:
        fields.setdefault("exc_info", True)
        self._log(logging.ERROR, msg, args, fields)

    def isEnabledFor(self, level: int) -> bool:
        return self._logger.isEnabledFor(level)

    # -- plumbing -------------------------------------------------------
    def _log(
        self,
        level: int,
        msg: str,
        args: tuple[object, ...],
        fields: dict[str, Any],
    ) -> None:
        if not self._logger.isEnabledFor(level):
            return
        exc_info = fields.pop("exc_info", None)
        extra = {
            "component": self.component,
            "run_id": self.run_id,
            "fields": fields,
        }
        self._logger.log(
            level, msg, *args, exc_info=exc_info, extra=extra, stacklevel=3
        )


def get_logger(component: str, run_id: str | None = None) -> StructuredLogger:
    """The component's structured logger (``repro.<component>`` underneath)."""
    return StructuredLogger(component, run_id=run_id)


class JsonFormatter(logging.Formatter):
    """One JSON object per record: level, component, run id, fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        component = getattr(record, "component", None)
        if component is not None:
            payload["component"] = component
        run_id = getattr(record, "run_id", None)
        if run_id is not None:
            payload["run_id"] = run_id
        fields = getattr(record, "fields", None)
        if fields:
            payload["fields"] = fields
        if record.exc_info and record.exc_info[0] is not None:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


def configure_json(
    stream: IO[str] | None = None, level: int = logging.INFO
) -> logging.Handler:
    """Attach a JSON-lines handler to the ``repro`` logger tree.

    Returns the handler so callers (the CLI, tests) can detach it again
    with ``logging.getLogger("repro").removeHandler(handler)``.
    """
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonFormatter())
    root = logging.getLogger("repro")
    root.addHandler(handler)
    root.setLevel(level)
    return handler
