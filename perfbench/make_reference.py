"""Write perfbench/reference.json: the instance specs the workloads use and
the traversal times of the commit that generates it.

The specs come from toppkit.instances (the bundled instances and
random_table_instance(k) as "table_<k>"); storing them keeps the inputs
fixed when that module changes. Times are stored for every grid size a
workload or its smoke run uses, except on instances with a closed-form
optimum, which the gate checks against the closed form instead.

Run from the root of a checkout of the reference commit:

    python3 perfbench/make_reference.py
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import toppkit as tk  # noqa: E402

from bench import HERE, SMOKE_N, WORKLOADS, closed_form_time  # noqa: E402


def main() -> int:
    specs = {name: p.to_json_dict() for name, p in tk.bundled_instances().items()}
    for k in range(32):
        specs[f"table_{k}"] = tk.random_table_instance(k).to_json_dict()
    sizes = {}
    for workload in WORKLOADS.values():
        for name, n in workload["cycle"]:
            sizes.setdefault(name, set()).update((n, SMOKE_N[n]))
    instances = {}
    for name in sorted(sizes):
        entry = {"spec": specs[name]}
        if closed_form_time(specs[name]) is None:
            path = tk.PathSpec.from_json_dict(specs[name])
            model = tk.build_model(path)
            entry["time"] = {
                str(n): tk.solve(path.grid(n), model,
                                 endpoints=path.endpoints).traversal_time
                for n in sorted(sizes[name])}
        instances[name] = entry
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or "unknown"
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"commit": commit, "instances": instances}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
