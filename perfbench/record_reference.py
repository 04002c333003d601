"""Record the dense_grid reference reports at the seed-0 configs.

    python3 perfbench/record_reference.py

Writes reference.json next to this file, one entry per size profile. Record
it only from a commit whose reports are known good: the benchmark fails a
run whose seed-0 reports leave this reference by more than 1e-12.
"""

import json

from run import import_program

import_program()

import workloads  # noqa: E402

reference = {profile: workloads.run_configs(workloads.dense_configs(sizes, 0, 0))
             for profile, sizes in workloads.SIZES.items()}
workloads.REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")
print(f"wrote {workloads.REFERENCE}")
