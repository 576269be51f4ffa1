"""Self-test: a corrupted op result must fail the run.

    python3 wallbench/selftest.py [workload ...]

Runs each named workload (default: all) for one second with its first
op's output corrupted after the op returns, and checks that the run
reports ``"correct": false`` with a failed op and exits non-zero.
Exits 0 when every workload caught the corruption.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def corrupted_run(name: str) -> tuple[int, dict]:
    import workloads

    cls = workloads.WORKLOADS[name]
    reduce = cls.reduce

    def corrupt(self, state, item, output):
        reduced = reduce(self, state, item, output)
        if not getattr(self, "corrupted", False):
            self.corrupted = True
            reduced.digest = "corrupt:" + reduced.digest
        return reduced

    cls.reduce = corrupt
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = run.main(["--workload", name, "--seed", "1",
                               "--seconds", "1", "--trace", "0"])
    finally:
        cls.reduce = reduce
    return status, json.loads(out.getvalue().strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    names = argv or list(workloads.WORKLOADS)
    ok = True
    for name in names:
        status, result = corrupted_run(name)
        caught = (status != 0 and result["correct"] is False
                  and result["failed"] >= 1)
        ok &= caught
        print(f"{name}: exit {status}, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']} -> "
              f"{'caught' if caught else 'MISSED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
