"""intervalcl benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload blobs_mlp --seed 1 --seconds 40 --trace 0

Fixes the BLAS thread count, checks that the intervalcl sources of this
checkout are importable, then hands over to ``harness.main``. Exit codes:
0 when every check passed, 1 when a correctness check failed, 2 when the
sources are missing or another copy of intervalcl would be imported.
"""

import os

# Fixed before numpy loads: on these small shapes a threaded BLAS measures
# its thread pool more than this program.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "intervalcl"


def import_program() -> None:
    """Import intervalcl from this checkout's sources, or exit with 2."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"error: no intervalcl sources at {PACKAGE}\n")
        sys.exit(2)
    sys.path.insert(0, str(PACKAGE.parent))
    import intervalcl

    if Path(intervalcl.__file__).resolve().parent != PACKAGE.resolve():
        sys.stderr.write(f"error: imported intervalcl from "
                         f"{intervalcl.__file__}, not from {PACKAGE}\n")
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time to spend repeating sessions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args()
    import_program()
    import harness

    sys.exit(harness.main(arguments, out_dir=ROOT / ".perfbench",
                          blas_threads=BLAS_THREADS))
