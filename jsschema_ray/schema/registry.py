"""Constraint-extension registry: the formalized version of the
reference's only extension surface — unknown keywords preserved in Extras
(reference interface.go:133, schema_test.go:107-123, README.md:44-47
"inspect, modify").

A handler registered for an ``x-*`` keyword receives the keyword's raw
value and the pipeline context and returns a result dict merged into the
job report. The built-in global constraint classes (uniqueness,
referential, stats, drift, decode) are themselves registered here, so user
extensions are first-class peers of the built-ins. The built-ins do not
call ``ctx.dataset()``: they finish from the partials of the pipeline's one
scan (pipelines/validate_pipeline.py), and x-uniqueness reduces the
pre-count files that scan wrote. User extensions read the input through
``ctx.dataset()``, a plain Ray read of the input shards.

    @register_constraint("x-freshness")
    def check_freshness(spec, ctx):
        # ctx.dataset() -> full-input ray Dataset (payload columns pruned)
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
    output_dir: Optional[str] = None
    pipeline: Any = None  # owning ValidationPipeline (read, partials, profile)

    def dataset(self):
        """The whole input, payload columns pruned."""
        return self.pipeline._read(self.input_files)


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
