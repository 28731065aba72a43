"""Set-up step of the benchmark, run as its own process and timed whole.

Imports cmarr, builds the workload's base arrangements with its generators,
applies the seed and writes one .arr file per job with its arrfile emitter.
Prints one JSON line: the imported cmarr.__file__ and a sha256 per file.

    python3 bench/setup_inputs.py --workload NAME --seed N --out DIR
"""

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    import cmarr
    texts = workloads.emit_inputs(args.workload, args.seed)
    os.makedirs(args.out, exist_ok=True)
    digests = {}
    for job_id, text in texts.items():
        data = text.encode()
        with open(os.path.join(args.out, job_id + ".arr"), "wb") as fh:
            fh.write(data)
        digests[job_id] = hashlib.sha256(data).hexdigest()
    print(json.dumps({"cmarr_file": os.path.abspath(cmarr.__file__),
                      "files": digests}))


if __name__ == "__main__":
    main()
