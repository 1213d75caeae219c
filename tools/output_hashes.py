"""Hash every output file of a benchmark workload, to compare two source trees.

    PYTHONPATH=src python3 tools/output_hashes.py full3000 1 2 > after.txt

For each seed, the workload's datasets and config files are written to a
temporary directory with ``perfbench/workloads.write_inputs``, and each
dataset goes through the workload's pipeline call (``ablate`` or ``run``),
as in a benchmark pass. One line is printed per output file, sorted by name:
``<seed>/<dsNN>/<path under the run's out directory> <sha256>``.
``run_info.txt`` is left out, because it records the wall time.

The package is imported from ``PYTHONPATH`` if it is there, else from this
tree's ``src``. Run once per tree and ``diff`` the two listings: a refactor
that keeps the math must leave them identical.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = ("run_info.txt",)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_hashes(workload, seed):
    """``(name, sha256)`` for every output file of one seed's datasets."""
    from mvclust import pipeline
    from workloads import write_inputs

    with tempfile.TemporaryDirectory() as work:
        for config in write_inputs(workload, seed, work):
            cfg = pipeline.load_config(config)
            if workload.ablate:
                pipeline.ablate(cfg)
            else:
                pipeline.run(cfg)
        for ds in os.listdir(work):
            out = os.path.join(work, ds, "out")
            for parent, _, files in os.walk(out):
                for name in files:
                    if name in SKIPPED:
                        continue
                    path = os.path.join(parent, name)
                    rel = os.path.relpath(path, out).replace(os.sep, "/")
                    yield f"{seed}/{ds}/{rel}", _digest(path)


def main(argv):
    if len(argv) < 2 or not all(seed.isdecimal() for seed in argv[1:]):
        sys.exit("usage: output_hashes.py <workload> <seed>...")
    sys.path.append(os.path.join(ROOT, "src"))       # after PYTHONPATH
    sys.dont_write_bytecode = True                    # keep perfbench/ untouched
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    if argv[0] not in WORKLOADS:
        sys.exit(f"unknown workload {argv[0]!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[argv[0]]
    for seed in argv[1:]:
        for name, digest in sorted(output_hashes(workload, int(seed))):
            print(name, digest)


if __name__ == "__main__":
    main(sys.argv[1:])
