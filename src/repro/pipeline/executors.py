"""The executor registry: one spec grammar for CLI, env and constructor.

One :class:`ExecutorSpec` string configures the batch executor
everywhere — the ``executor=`` constructor kwarg, the ``--executor`` CLI
flag and the ``$REPRO_EXECUTOR`` variable::

    serial
    threaded:workers=4
    process:workers=4,batch=64,queue=128
    process:workers=4,detect=local

Grammar: ``name[:key=value,...]`` where the keys are

* ``workers`` — parallel lanes for the threaded/process executors;
* ``batch`` — documents per stream batch;
* ``queue`` — bound of the ingest queue between the stream and the
  executor (backpressure);
* ``detect`` — ``local`` or ``workers``; process executor only;
* ``watchdog`` — seconds before a hung worker future times the sweep
  out (degrading the batch to the serial path); process executor only.

Precedence for the batch size and queue bound (most specific wins):

1. the ``SubscriptionSystem(batch_size=, queue_bound=)`` kwargs;
2. the field parsed from the spec string;
3. the ``$REPRO_EXECUTOR`` spec (consulted only when no spec was given);
4. the built-in default (serial, batch 32, queue 2×batch).

:func:`create` turns a spec (string, :class:`ExecutorSpec`, instance or
``None``) into a ready :class:`~repro.pipeline.executor.BatchExecutor`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional, Tuple, Union

from ..errors import PipelineError
from .executor import (
    BatchExecutor,
    EXECUTOR_ENV,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
)

__all__ = [
    "ExecutorSpec",
    "available",
    "create",
    "resolve",
]

#: Spec keys that take positive integers.
_INT_KEYS = ("workers", "batch", "queue", "watchdog")

_DETECT_VALUES = ("local", "workers")


@dataclass(frozen=True)
class ExecutorSpec:
    """One parsed executor configuration (see the module docstring)."""

    name: str = SerialExecutor.name
    workers: Optional[int] = None
    batch: Optional[int] = None
    queue: Optional[int] = None
    detect: Optional[str] = None
    watchdog: Optional[int] = None

    @classmethod
    def parse(cls, text: str) -> "ExecutorSpec":
        """Parse ``name[:key=value,...]`` into a spec."""
        text = text.strip()
        name, _, options = text.partition(":")
        name = name.strip().lower()
        if not name:
            raise PipelineError(f"empty executor name in spec {text!r}")
        values: Dict[str, Union[int, str]] = {}
        if options.strip():
            for item in options.split(","):
                key, sep, value = item.partition("=")
                key = key.strip().lower()
                value = value.strip()
                if not sep or not value:
                    raise PipelineError(
                        f"malformed option {item.strip()!r} in executor spec"
                        f" {text!r} (expected key=value)"
                    )
                if key in _INT_KEYS:
                    try:
                        number = int(value)
                    except ValueError:
                        raise PipelineError(
                            f"executor spec option {key!r} needs an integer,"
                            f" got {value!r}"
                        ) from None
                    if number < 1:
                        raise PipelineError(
                            f"executor spec option {key!r} must be >= 1,"
                            f" got {number}"
                        )
                    values[key] = number
                elif key == "detect":
                    if value.lower() not in _DETECT_VALUES:
                        raise PipelineError(
                            f"executor spec option detect= must be one of"
                            f" {', '.join(_DETECT_VALUES)}, got {value!r}"
                        )
                    values["detect"] = value.lower()
                else:
                    known = sorted((*_INT_KEYS, "detect"))
                    raise PipelineError(
                        f"unknown executor spec option {key!r}"
                        f" (choose from {', '.join(known)})"
                    )
        return cls(name=name, **values)

    def render(self) -> str:
        """The canonical spec string (parse/render round-trips)."""
        options = []
        for spec_field in fields(self):
            if spec_field.name == "name":
                continue
            value = getattr(self, spec_field.name)
            if value is not None:
                options.append(f"{spec_field.name}={value}")
        if not options:
            return self.name
        return f"{self.name}:{','.join(options)}"


def _reject(spec: ExecutorSpec, *options: str) -> None:
    for option in options:
        if getattr(spec, option) is not None:
            raise PipelineError(
                f"executor {spec.name!r} takes no {option}= option"
            )


def _build_serial(spec: ExecutorSpec) -> BatchExecutor:
    _reject(spec, "workers", "detect", "watchdog")
    return SerialExecutor()


def _build_threaded(spec: ExecutorSpec) -> BatchExecutor:
    _reject(spec, "detect", "watchdog")
    return ThreadedExecutor(max_workers=spec.workers)


def _build_process(spec: ExecutorSpec) -> BatchExecutor:
    return ProcessExecutor(
        workers=spec.workers,
        detect_locally=spec.detect == "local",
        watchdog=spec.watchdog,
    )


_FACTORIES: Dict[str, Callable[[ExecutorSpec], BatchExecutor]] = {
    SerialExecutor.name: _build_serial,
    ThreadedExecutor.name: _build_threaded,
    ProcessExecutor.name: _build_process,
}


def available() -> Tuple[str, ...]:
    """The registered executor names, sorted."""
    return tuple(sorted(_FACTORIES))


def resolve(
    spec: Union[str, ExecutorSpec, None] = None,
) -> ExecutorSpec:
    """Normalise any spec input into an :class:`ExecutorSpec`.

    ``None`` falls back to ``$REPRO_EXECUTOR`` (itself a full spec
    string) and then to the serial default — precedence rules 3 and 4.
    """
    if isinstance(spec, ExecutorSpec):
        return spec
    if spec is None:
        spec = os.environ.get(EXECUTOR_ENV) or SerialExecutor.name
    return ExecutorSpec.parse(str(spec))


def create(
    spec: Union[str, ExecutorSpec, BatchExecutor, None] = None,
) -> BatchExecutor:
    """Build a :class:`BatchExecutor` from any accepted spec form.

    An instance passes through untouched; anything else goes through
    :func:`resolve` and the registered factory for the name.
    """
    if isinstance(spec, BatchExecutor):
        return spec
    resolved = resolve(spec)
    factory = _FACTORIES.get(resolved.name)
    if factory is None:
        known = ", ".join(available())
        raise PipelineError(
            f"unknown executor {resolved.name!r} (choose from {known})"
        )
    return factory(resolved)
