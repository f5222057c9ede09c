"""SHA-256 of every benchmark report, one line each.

    PYTHONPATH=src python3 tests/report_digests.py [--float-tables | --distinct-tables]

Builds the inputs of every workload in ``bench/workloads.py`` in a
temporary directory, runs each workload's warm-ups and then one pass of its
operations through ``graphhvi.cli.main`` in this process, and prints
``workload label exit-code sha256`` for each report (137 lines).  The
workload inputs do not depend on the seed, so one fixed seed is used.  Two
checkouts write the same bytes when their outputs are identical, so a
change that must keep every report can be checked with one ``diff``.
With ``--float-tables`` every node table is formatted from its floats
(``reports.DISTINCT_FROM`` above any table), so a ``diff`` against the
default output checks the distinct-value path on the installed numpy.
With ``--distinct-tables`` (``reports.DISTINCT_FROM`` 0) every node table
whose values form at most n / 2 runs is formatted from its distinct values,
small tables included, so a ``diff`` checks that path on every report.
Pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from graphhvi import cli, reports  # noqa: E402

SEED = 3


def run(op, root: str) -> tuple[int, str]:
    """Exit code and report digest of one operation (``-`` if no report)."""
    argv = op.argv_in(root)
    out = argv[argv.index("--out") + 1]
    if os.path.exists(out):
        os.unlink(out)
    try:
        code = cli.main(argv)
    except SystemExit as exc:      # argparse rejected the argv
        code = exc.code if isinstance(exc.code, int) else 2
    if not os.path.exists(out):
        return code, "-"
    with open(out, "rb") as fh:
        return code, hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    if sys.argv[1:] == ["--float-tables"]:
        reports.DISTINCT_FROM = sys.maxsize
    elif sys.argv[1:] == ["--distinct-tables"]:
        reports.DISTINCT_FROM = 0
    elif sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--float-tables | --distinct-tables]")
    for name, make in workloads.WORKLOADS.items():
        wl = make(SEED)
        with tempfile.TemporaryDirectory() as root:
            workloads.write_files(wl, root)
            for op in wl.warmup + wl.ops:
                code, digest = run(op, root)
                print(name, op.label, code, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
