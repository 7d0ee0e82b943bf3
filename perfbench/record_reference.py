"""Record the reference outputs the benchmark checks every job against.

    python3 perfbench/record_reference.py

Runs every job of every workload twice in the benchmark's pinned
environment, refuses to record if the two runs differ, and writes the
exit code, output size and sha256 of each job to ``reference.json``.
Re-record only when a change is meant to alter the CLI output.
"""

import json
import sys
import time

from run import (REFERENCE, RUN_DEADLINE_S, WORKLOADS, child_env, cli_cmd,
                 job_argv, resolve_package, run_job)


def main():
    env = child_env()
    info = resolve_package(env)
    print(f"fglthh: {info['file']} (python {info['python']})")
    reference = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            first, second = (run_job(job, cli_cmd(job_argv(job)), env,
                                     time.perf_counter() + RUN_DEADLINE_S)
                             for _ in range(2))
            if (first.status, first.digest) != (second.status, second.digest):
                print(f"{job}: two runs disagree", file=sys.stderr)
                return 1
            reference[job] = {"argv": " ".join(job_argv(job)), "exit": first.status,
                              "bytes": first.out_bytes, "sha256": first.digest}
            print(f"{job:<16} exit {first.status}  {first.out_bytes:>8} bytes  "
                  f"{first.digest}")
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
