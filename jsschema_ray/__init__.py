"""jsschema_ray — a Ray-Data-native schema + constraint validation engine.

Re-expresses the JSON Schema draft-04 semantics of lestrrat-go/jsschema
(reference at /root/reference, cited per-module as file:line) as a compiled
constraint DAG evaluated with vectorized pyarrow.compute kernels over
zero-copy Arrow batches of a `ray.data.Dataset`, extended with the global
constraint classes (column statistics, uniqueness, referential integrity,
distribution drift, decode) and training-data-pipeline operators (dedup,
similarity search, text analysis, image-metadata plans) that a 10^12-row
table needs.

Layout:
  schema/    dict -> ConstraintDAG compiler (+ to_json round-trip, registry)
  kernels/   row-wise JSON evaluator (conformance parity) + columnar Arrow kernels
  stages/    Ray Data stages: validate, stats, uniqueness, referential, drift,
             dedup, similarity, text, multimodal, join (hash/broadcast/
             as-of/range), windows (tumbling/hopping/session)
  state/     mergeable sketches (HyperLogLog, t-digest, Count-Min)
  sources/   deterministic image-table synthesis (input_hint shape), IO helpers
  pipelines/ end-to-end validation pipeline + checkpoint manifest
"""

from jsschema_ray.schema.compiler import compile_schema
from jsschema_ray.schema.nodes import ConstraintNode

__all__ = ["compile_schema", "ConstraintNode"]
__version__ = "0.1.0"
