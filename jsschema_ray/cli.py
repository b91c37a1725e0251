"""CLI entry point — the distributed analogue of the reference CLI
(cmd/jsschema/jsschema.go:34-91): `jsschema schema.json [data.json]` dumps
the parsed schema and exit-codes the verdict. Ours:

  python -m jsschema_ray.cli dump --schema s.json
  python -m jsschema_ray.cli validate --schema s.json --input DIR \
      --output DIR [--no-resume] [--num-cpus N] [--profile drift.json]

Exit code 0 = valid, 1 = violations found (matching the reference's
exit-1-on-failure contract). This module OWNS its Ray session (guarded
init + shutdown); library code never does.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys


def _cmd_dump(args: argparse.Namespace) -> int:
    from jsschema_ray.schema import compile_schema, to_json

    dag = compile_schema(args.schema)
    json.dump(to_json(dag), sys.stdout, indent=2, sort_keys=False)
    print()
    return 0


@contextlib.contextmanager
def _ray_session(num_cpus):
    """This command's Ray session: started unless one is running, quiet
    progress bars, shut down on exit."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        yield
    finally:
        ray.shutdown()


def _cmd_validate(args: argparse.Namespace) -> int:
    with _ray_session(args.num_cpus):
        from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline
        from jsschema_ray.stages.drift import DriftProfile

        with open(args.schema) as f:
            schema = json.load(f)
        profile = None
        if args.profile:
            with open(args.profile) as f:
                profile = DriftProfile.from_json(f.read())
        pipe = ValidationPipeline(
            schema,
            args.input,
            args.output,
            key_column=args.key_column,
            drift_profile=profile,
        )
        report = pipe.run(resume=not args.no_resume)
        print(json.dumps({
            "valid": report["valid"],
            "partitions_total": report["partitions_total"],
            "partitions_resumed": report["partitions_resumed"],
            "report": f"{args.output}/report.json",
        }))
        return 0 if report["valid"] else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Build a drift reference profile (per-column t-digests) from a clean
    dataset and save it as JSON for later `validate --profile` runs."""
    with _ray_session(args.num_cpus):
        import ray.data as rd

        from jsschema_ray.stages.drift import build_profile

        columns = [c.strip() for c in args.columns.split(",") if c.strip()]
        src_cols = sorted({c[:-4] if c.endswith("_len") else c
                           for c in columns})
        ds = rd.read_parquet(args.input, columns=src_cols)
        profile = build_profile(ds, columns)
        with open(args.output, "w") as f:
            f.write(profile.to_json())
        print(json.dumps({"profile": args.output, "columns": columns}))
        return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="jsschema_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("dump", help="parse a schema and dump canonical JSON")
    d.add_argument("--schema", required=True)
    d.set_defaults(fn=_cmd_dump)

    v = sub.add_parser("validate", help="run the validation pipeline")
    v.add_argument("--schema", required=True)
    v.add_argument("--input", required=True, help="dir of parquet shards")
    v.add_argument("--output", required=True, help="report/checkpoint dir")
    v.add_argument("--key-column", default="image_id")
    v.add_argument("--profile", default=None, help="drift profile JSON file")
    v.add_argument("--no-resume", action="store_true")
    v.add_argument("--num-cpus", type=int, default=None)
    v.set_defaults(fn=_cmd_validate)

    pr = sub.add_parser("profile",
                        help="build a drift reference profile from clean data")
    pr.add_argument("--input", required=True, help="dir of parquet shards")
    pr.add_argument("--columns", required=True,
                    help="comma-separated (use col_len for string lengths)")
    pr.add_argument("--output", required=True, help="profile JSON path")
    pr.add_argument("--num-cpus", type=int, default=None)
    pr.set_defaults(fn=_cmd_profile)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # `... | head` closed the pipe: normal Unix behavior, not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
