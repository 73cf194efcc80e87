"""Self-test of the output checks: ``python3 bench/selftest.py`` from the
repository root.

For each workload, runs one job, then feeds its checker the clean outputs
and a copy with one output corrupted (one Fraction changed, a mean
shifted by 1e-6, a moment off by 1e-2, a counterexample record added).
The clean copy must pass, the control-character invert aside, and the
corrupted one must be rejected.  Exits 1 if a checker is vacuous.
"""

import os
import shutil
import sys

import run


def main() -> int:
    run.import_program()
    import checks
    from workloads import WORKLOADS
    problems = 0
    for name, cls in WORKLOADS.items():
        workdir = run.WORK / f"selftest-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            w = cls(0, workdir)
            loaded = checks.load_outputs(w, 0, w.job(0))
            found = checks.self_test(w, loaded, 0)
            bad = checks.verify(w, [checks.corrupt(w, loaded)], 0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        verdict = bad.wrong[0] if bad.wrong else f"{bad.failed} operations failed"
        print(f"{name}: corrupted output -> {verdict}")
        for p in found:
            print(f"{name}: PROBLEM: {p}")
        problems += len(found)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
