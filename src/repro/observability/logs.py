"""Structured logging for the distributed runtime.

One namespace — ``repro.distributed`` — with a stdout handler carrying
timestamps and levels, replacing the free-form ``print`` diagnostics so
worker output (the ``listening on H:P`` start-up line, the per-job
lines ``launch_worker_process`` drains) stays line-oriented and
greppable while gaining severity and timing.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["get_logger", "configure_logging", "ensure_handler"]

_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"
_ROOT_NAME = "repro.distributed"


def get_logger(name: str | None = None) -> logging.Logger:
    """A logger under the ``repro.distributed`` namespace."""
    if not name:
        return logging.getLogger(_ROOT_NAME)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def ensure_handler() -> logging.Logger:
    """Attach the stdout handler + default INFO level exactly once.

    Called lazily by the worker/dispatcher log paths so library users
    who configure logging themselves are left alone (we only add a
    handler if the namespace has none and nothing propagates to a
    configured root).
    """
    logger = logging.getLogger(_ROOT_NAME)
    if not logger.handlers and not logging.getLogger().handlers:
        handler = logging.StreamHandler(sys.stdout)
        handler.setFormatter(logging.Formatter(_FORMAT))
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    return logger


def configure_logging(level: str = "info") -> logging.Logger:
    """CLI entry: install the handler and set the namespace level.

    ``level`` is a case-insensitive name (``debug``/``info``/``warning``
    /``error``); unknown names raise ``ValueError`` so argparse surfaces
    a clean message.
    """
    numeric = logging.getLevelName(level.upper())
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level: {level!r}")
    logger = logging.getLogger(_ROOT_NAME)
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stdout)
        handler.setFormatter(logging.Formatter(_FORMAT))
        logger.addHandler(handler)
    logger.setLevel(numeric)
    return logger
