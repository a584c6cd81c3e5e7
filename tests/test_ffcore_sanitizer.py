"""The emit kernel under UndefinedBehaviorSanitizer.

Builds :data:`repro.workloads._ffcore._SOURCE` with ``-fsanitize=undefined
-fno-sanitize-recover`` into a temporary kernel cache directory, under the
artifact name the loader looks for, then runs the window-partition and
event-overrun equivalence tests in a subprocess whose ``REPRO_FFCORE_DIR``
points there.  Any undefined behaviour aborts the subprocess; a kernel that
failed to load would only skip those tests, so the subprocess first checks
that the sanitized artifact is the one in use.  Skipped where the compiler
cannot build a sanitized shared object.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.native import build
from repro.workloads import _ffcore

UBSAN_FLAGS = ("-O2", "-fPIC", "-shared", "-fsanitize=undefined",
               "-fno-sanitize-recover")

#: The tests exercising window partitions, 1-op splits of allocation events,
#: every event-overrun length and the sliding cold-pool window, native
#: against the Python emitter.
SELECTION = ("partitions or splits_allocation or every_window_size "
             "or native_kernel_matches or cold_pool_window")

CHECK = """
import sys
import pytest
from repro.workloads import _ffcore
assert _ffcore.load() is not None, _ffcore.status()
assert _ffcore.status().artifact == sys.argv[1], _ffcore.status()
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[2],
                      "-k", sys.argv[3]]))
"""


def _build_sanitized(directory: Path, monkeypatch) -> Path:
    compiler = shutil.which("gcc")
    if compiler is None:
        pytest.skip("gcc not available")
    source = directory / "ffcore-ubsan.c"
    source.write_text(_ffcore._SOURCE, encoding="utf-8")
    # The name the loader looks for in that directory.
    monkeypatch.setenv("REPRO_FFCORE_DIR", str(directory))
    so_path = build.artifact_path("ffcore", _ffcore._SOURCE,
                                  "REPRO_FFCORE_DIR")
    result = subprocess.run([compiler, *UBSAN_FLAGS, "-o", str(so_path),
                             str(source)], capture_output=True, timeout=120)
    if result.returncode != 0:
        pytest.skip("gcc -fsanitize=undefined unavailable: "
                    + result.stderr.decode(errors="replace")[-200:])
    return so_path


def test_emit_kernel_is_clean_under_ubsan(tmp_path, monkeypatch):
    directory = tmp_path / "kernels"
    directory.mkdir(mode=0o700)
    so_path = _build_sanitized(directory, monkeypatch)
    env = dict(os.environ)
    env["REPRO_FFCORE_DIR"] = str(directory)
    env.pop("REPRO_FFCORE", None)
    env["UBSAN_OPTIONS"] = "print_stacktrace=1:halt_on_error=1"
    src = Path(_ffcore.__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), env.get("PYTHONPATH"))))
    test_file = Path(__file__).with_name("test_fast_forward.py")
    result = subprocess.run(
        [sys.executable, "-c", CHECK, str(so_path), str(test_file),
         SELECTION],
        capture_output=True, timeout=600, env=env,
        cwd=str(test_file.parent.parent))
    output = (result.stdout + result.stderr).decode(errors="replace")
    assert result.returncode == 0, output[-4000:]
    assert "runtime error" not in output, output[-4000:]
    assert " passed" in output and "skipped" not in output, output[-2000:]
