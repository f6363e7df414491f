"""One set-up of a workload in a fresh interpreter, for the ``setup_s`` metric.

numpy and scipy are imported first and left out of the timing: on a shared
virtual machine their import time (page faults of a fresh 60 MB process)
shifts by a third between stretches of the same day, which would drown the
set-up cost that belongs to anisosym.  The timed part is importing anisosym
and building the workload's grid, law and data function, so work moved into
import or construction shows, and so does any new third-party import.

Prints two ``time.monotonic()`` readings: before ``import anisosym`` and
after the build.  The caller reads the clock just before starting this
process, which also gives the time since process start.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401  (untimed, see above)
import scipy.linalg  # noqa: E402,F401
import scipy.sparse  # noqa: E402,F401
import scipy.sparse.linalg  # noqa: E402,F401

start = time.monotonic()
from workloads import WORKLOADS  # noqa: E402  (imports anisosym)

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(repr(start), repr(time.monotonic()))
