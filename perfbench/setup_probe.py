"""What every ``repro run`` pays before simulating: import and kernel load.

Imports the CLI (and through it the experiment registry and the engine),
loads both native kernels and runs their self-tests, then exits.
``run.py`` times this process from start to exit as ``setup_s``; its first
call compiles the kernels into the artifact cache, which later calls
reuse.  Exits non-zero when a kernel is not running.
"""

import repro.cli  # noqa: F401  (the import is the measured work)
from iteration import check_kernels

check_kernels()
