"""What the timed and the traced runs share: paths, the import of the
program from this checkout, one operation per forked child, and the tally of
attempted and failed operations."""

from __future__ import annotations

import ctypes
import os
import pickle
import select
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

OP_TIMEOUT_S = 120

# Operations are timed in CPU time of the process that runs them.  On an idle
# machine it equals elapsed time (the library neither waits nor starts
# threads), but on a shared 2-vCPU host elapsed time also counts the slices
# the host gives to other guests: the same operation, forked from the same
# state 15 times, spread 43-52% (interquartile range over median) in elapsed
# time and 16-18% in CPU time.
clock = time.process_time


def import_program() -> None:
    """Put this checkout's sources first on the path and import braidwalks.

    Exits with an error when the checkout has no sources, rather than
    measuring some other installed copy.
    """
    package = SRC / "braidwalks"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: braidwalks sources not found in {package}")
    sys.path.insert(0, str(SRC))
    import braidwalks

    if Path(braidwalks.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported braidwalks from {braidwalks.__file__}")


_MADV_POPULATE_WRITE = 23  # Linux 5.14 and later
try:
    _madvise = ctypes.CDLL(None, use_errno=True).madvise
    _madvise.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    _madvise.restype = ctypes.c_int
except (OSError, AttributeError):
    _madvise = None


def unshare_memory() -> None:
    """Give this forked child a private copy of every writable page now.

    A child shares its parent's pages until it writes to them, and CPython
    writes to every object it touches (reference counts, specialized
    bytecode).  Without this, the first stage an operation calls pays about
    150 copy-on-write faults, 1 ms or more of noisy system time that a fresh
    process does not pay: building C for the figure-eight took 1.2-3.9 ms
    in a fork against 0.35 ms in a fresh process, and 0.45 ms after this.
    It costs about 13 ms per child, outside the timed section, and adds
    about 2 MB to the child's RSS.  Where the kernel lacks the call, the
    faults stay in the timings.
    """
    if _madvise is None:
        return
    try:
        with open("/proc/self/maps") as f:
            maps = f.read().splitlines()
    except OSError:
        return
    for line in maps:
        fields = line.split()
        if fields[1] != "rw-p" or (len(fields) > 5 and fields[5].startswith("[")
                                   and fields[5] != "[heap]"):
            continue
        lo, hi = (int(x, 16) for x in fields[0].split("-"))
        _madvise(lo, hi - lo, _MADV_POPULATE_WRITE)


def run_in_child(task, timeout: float = OP_TIMEOUT_S):
    """Run task() in a child forked from this process; return (ok, value).

    The child starts from this process's memory, so its peak RSS and its
    caches are those of one operation in a fresh program.  A task that
    raises, dies or outlives the timeout gives (False, reason).
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            unshare_memory()
            try:
                payload = (True, task())
            except Exception as exc:  # the parent counts it as a failed operation
                payload = (False, f"{type(exc).__name__}: {exc}"[:300])
            with os.fdopen(w, "wb") as f:
                f.write(pickle.dumps(payload))
        finally:
            os._exit(0)
    os.close(w)
    chunks = []
    deadline = time.monotonic() + timeout
    with os.fdopen(r, "rb") as f:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([f], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return False, f"no result within {timeout} s"
            chunk = os.read(f.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if not chunks:
        return False, f"child ended with wait status {status} and no result"
    return pickle.loads(b"".join(chunks))


class Tally:
    """Attempted and failed operations, and the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed because an output did not pass its check
        self.reasons: list[str] = []

    def fail(self, case, reason: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.reasons) < 10:
            self.reasons.append(f"{case.label()}: {reason}")

    def result(self, metrics: dict) -> dict:
        """The benchmark's result line; `correct` is false only when some
        output failed its check."""
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
