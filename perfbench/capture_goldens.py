#!/usr/bin/env python3
"""Record the outputs of the program's bundled jobs as goldens.

    python3 perfbench/capture_goldens.py

The small-docs workload runs the bundled jobs named in goldens.json and
compares each one's exit code and results with it; run this only when an
output change is intended, and say why in the change that commits the new
goldens.  The sphere job is left out: sphere-charts covers that path.
"""

import json

from run import import_program, run_document
from workloads import BUNDLED, GOLDENS

import yaml


def capture(cli, path):
    code, stdout, _ = run_document(cli, path, deadline_s=60.0)
    tolerances = {c.get("label"): c.get("tolerance", 1e-9)
                  for c in yaml.safe_load(path.read_text())["computations"]}
    results = []
    for item in json.loads(stdout)["results"]:
        entry = {"label": item["label"], "ok": item["ok"]}
        if item["ok"]:
            entry["result"] = item["result"]
            entry["tolerance"] = tolerances[item["label"]]
        results.append(entry)
    return {"exit_code": code, "results": results}


def main():
    cli = import_program()
    goldens = {path.stem: capture(cli, path) for path in sorted(BUNDLED.glob("*.yaml"))
               if path.stem != "sphere-stereographic"}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {GOLDENS}")


if __name__ == "__main__":
    main()
