"""Write references.json: the checked content of every seed-independent job.

The benchmark compares each exact and asymptotic job (and the exhaustive
Monte Carlo job) against these stored outputs.  Regenerate them only when a
change of output is intended, and say so where the change is recorded:

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
import workloads


def main() -> int:
    run.neutralize_knobs()
    package = run.import_package()
    jobs = workloads.exact_jobs() + workloads.asymptotic_jobs()
    jobs += [job for job in workloads.montecarlo_jobs(0) if workloads.needs_reference(job)]
    outputs = {}
    with tempfile.TemporaryDirectory() as workdir:
        out_path = os.path.join(workdir, "job.out")
        for job in jobs:
            outcome = workloads.run_job(job, package, out_path)
            outputs[job.name], _ = workloads.content(job, outcome)
    env = run.environment({})
    doc = {
        "generated_with": {k: env[k] for k in ("python", "numpy", "numba_importable")},
        "float_tol": workloads.FLOAT_TOL,
        "outputs": outputs,
    }
    path = os.path.join(run.HERE, "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outputs)} references to {os.path.relpath(path, run.ROOT_DIR)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
