"""Constraint-extension registry: the formalized version of the
reference's only extension surface — unknown keywords preserved in Extras
(reference interface.go:133, schema_test.go:107-123, README.md:44-47
"inspect, modify").

A handler registered for an ``x-*`` keyword receives the keyword's raw
value and the pipeline context and returns a result dict merged into the
job report. The built-in global constraint classes (uniqueness,
referential, stats, drift, decode) are themselves registered here, so user
extensions are first-class peers of the built-ins. The built-ins no longer
call ``ctx.dataset()``, except x-uniqueness for its exchange: they finish
from the partials of the pipeline's one scan
(pipelines/validate_pipeline.py). User extensions still read the input
through ``ctx.dataset()``.

    @register_constraint("x-freshness")
    def check_freshness(spec, ctx):
        # ctx.dataset() -> full-input ray Dataset (payload column pruned)
        # ctx.schema    -> the raw schema dict
        ...
        return {"stale_rows": ...}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class ConstraintContext:
    schema: dict[str, Any]
    input_files: list[str]
    batch_size: int
    dataset_factory: Callable[..., Any]  # (with_partition=False) -> Dataset
    output_dir: Optional[str] = None
    pipeline: Any = None  # owning ValidationPipeline (drift profile, key col)

    def dataset(self, with_partition: bool = False):
        return self.dataset_factory(with_partition)


_HANDLERS: dict[str, Callable[[Any, ConstraintContext], Any]] = {}


def register_constraint(keyword: str):
    """Decorator registering a handler for an ``x-*`` schema keyword."""
    if not keyword.startswith("x-"):
        raise ValueError(f"extension keywords must start with 'x-': {keyword!r}")

    def deco(fn: Callable[[Any, ConstraintContext], Any]):
        _HANDLERS[keyword] = fn
        return fn

    return deco


def get_handler(keyword: str) -> Optional[Callable[[Any, ConstraintContext], Any]]:
    return _HANDLERS.get(keyword)


def registered_keywords() -> list[str]:
    return sorted(_HANDLERS)
