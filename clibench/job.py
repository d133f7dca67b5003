"""Run one rangepolymer CLI command in this fresh interpreter and time it.

    python3 clibench/job.py RECORD TRACE JOB_ID CLI_ARGS...

The process imports ``rangepolymer.cli`` the way the console script does,
reads the clock when it enters ``main`` and when ``main`` returns, and writes
those times (plus, with TRACE=1, its spans and counters) to RECORD as JSON.
RECORD lives outside the command's ``--out`` directory, so no timing ever
reaches an artifact or the manifest.  An exception escaping ``main`` is
re-raised after the record is written, so it prints its traceback and exits
nonzero exactly as the console script would.
"""

import json
import sys
import time

import rangepolymer.cli


def run(record_path: str, trace: bool, job: str, argv: list[str]) -> int:
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(job)
        tracing.install(tracer)
    entered = time.monotonic()
    code = None
    try:
        code = rangepolymer.cli.main(argv)
    finally:
        left = time.monotonic()
        record = {"job": job, "entered": entered, "left": left, "code": code}
        if tracer is not None:
            record["spans"] = tracer.spans
            record["counts"] = tracer.counts
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    path, flag, job_id, *cli_args = sys.argv[1:]
    raise SystemExit(run(path, flag == "1", job_id, cli_args))
