"""Host-speed references: two fixed kernels, timed by CPU time, between units of work.

On a shared VM the speed of the whole guest drifts with its neighbours' load.
On a 2-vCPU VM (2.1 GHz vCPUs, CPU steal
under 0.5%), a fixed JSON encode on a pinned CPU, timed in 20 s windows,
ranged over 10.7-18.9 ms within 150 s.  A wall-clock median taken in a slow
window reads up to 1.8x one taken in a fast window, whatever the program does.

Every run times a reference kernel right before the units of work it scales
(outside the timed regions) and divides each timed sample, which is
wall-clock time, by ``rolling median / nominal`` of the kernel that does the
same kind of work:

* ``cpu`` mixes JSON text, interpreted Python, small numpy operations in a
  Python loop and a pass over a 1.3 MB array.  It scales CPU-bound units:
  ingest epochs, bulk requests, sweep cells and set-up.  Without the
  large-array pass it did not track d=20 sweep cells.
* ``wake`` is 20 round trips of a 16-byte message to an echo thread over a
  socket pair.  It scales interactive HTTP requests, whose latency is mostly
  thread wake-ups and socket calls; it tracked them about twice as closely as
  ``cpu`` did.

Both kernels are timed by the CPU time of their own threads (``wake``: the
client thread plus the echo thread), never by the wall clock.  Other
runnable work on the pinned CPU (a serving worker or front thread that burns
CPU in the background) therefore does not slow a kernel: it slows the
wall-clock samples of the program and shows, instead of cancelling out.  The
guest's Linux kernel accounts steal (``CONFIG_PARAVIRT_TIME_ACCOUNTING``), so
the kernels' CPU times exclude steal as well, as the long samples do (see
``workloads.seconds_since``); every run prints its steal share.

Every ``cpu`` sample also keeps its wall-clock twin.  On an otherwise idle
pinned CPU the two differ only by steal; :func:`offcpu_share` gives the part
of the twins' wall time the kernel spent off the CPU, and a run flags itself
when that exceeds its steal share by more than :data:`CONTENTION_LIMIT`:
something else was runnable on its CPU.

Neither kernel runs repro code, so a change to the program moves the
workload's samples and not the kernels.  Reports print raw medians and both
factors too.
"""

from __future__ import annotations

import json
import socket
import statistics
import threading
import time

import numpy as np

#: Each kernel's CPU time on a quiet host, in ms, which scaled samples are
#: expressed at; they set the scale, not the spread.
NOMINAL_MS = {"cpu": 2.0, "wake": 0.15}
#: Kernel samples in the rolling median (about one second of work).
WINDOW = 9
#: The kernels that scale samples.
KINDS = tuple(NOMINAL_MS)
#: Key of the wall-clock twin of each ``cpu`` sample (never used for scaling).
CPU_WALL = "cpu_wall"
#: A run whose reference kernel was off the CPU this much more than steal
#: explains shared its CPU with other runnable work, and is flagged.
CONTENTION_LIMIT = 0.05

_rng = np.random.default_rng(20251018)
_ROWS = _rng.random((160, 4)).tolist()
_MATRIX = _rng.random((48, 48))
_VECTOR = _rng.random(48)
_LARGE = _rng.random((400, 400))
_ROUND_TRIPS = 20
_MESSAGE = b"perfbench-wake-0"


def reference_kernel() -> None:
    """Fixed CPU-bound work that touches no repro code (about 2 ms)."""
    json.loads(json.dumps(_ROWS))
    theta = _VECTOR
    for _ in range(40):
        theta = _MATRIX @ theta
        theta = theta / theta.sum()
    counts: dict[int, int] = {}
    for index in range(2500):
        counts[index % 61] = counts.get(index % 61, 0) + index
    shifted = _LARGE - _LARGE.max(axis=1, keepdims=True)
    np.exp(shifted, out=shifted)
    np.log(shifted.sum(axis=1))
    (_LARGE @ _LARGE[:, :40]).sum()


def offcpu_share(cpu_ms, wall_ms) -> float:
    """Share of the ``cpu`` kernel's wall time its thread was not running."""
    wall = sum(wall_ms)
    return 1.0 - sum(cpu_ms) / wall if wall > 0 else 0.0


def _echo(sock: socket.socket) -> None:
    while True:
        message = sock.recv(64)
        if not message:
            return
        sock.sendall(message)


class HostSpeed:
    """Rolling measurements of both reference kernels; :meth:`close` ends the echo thread."""

    def __init__(self) -> None:
        self.samples_ms: dict[str, list[float]] = {kind: [] for kind in (*KINDS, CPU_WALL)}
        self._client, self._server = socket.socketpair()
        self._echo = threading.Thread(
            target=_echo, args=(self._server,), name="perfbench-echo", daemon=True
        )
        self._echo.start()
        self._echo_clock = time.pthread_getcpuclockid(self._echo.ident)

    def _wake_cpu(self) -> float:
        """CPU seconds used so far by the two threads of the ``wake`` kernel."""
        return time.thread_time() + time.clock_gettime(self._echo_clock)

    def _wake_kernel(self) -> None:
        for _ in range(_ROUND_TRIPS):
            self._client.sendall(_MESSAGE)
            received = 0
            while received < len(_MESSAGE):
                received += len(self._client.recv(64))

    def sample(self, kernel: str | None = None) -> dict[str, float]:
        """Time the ``cpu`` or ``wake`` kernel once (both when ``None``); returns ``{key: ms}``.

        Sample a kernel right before the units it scales.
        """
        sample = {}
        if kernel in (None, "cpu"):
            start, start_cpu = time.perf_counter(), time.thread_time()
            reference_kernel()
            end_cpu, end = time.thread_time(), time.perf_counter()
            sample["cpu"] = (end_cpu - start_cpu) * 1e3
            sample[CPU_WALL] = (end - start) * 1e3
        if kernel in (None, "wake"):
            start = self._wake_cpu()
            self._wake_kernel()
            sample["wake"] = (self._wake_cpu() - start) * 1e3
        for key, ms in sample.items():
            self.samples_ms[key].append(ms)
        return sample

    def factor(self, kind: str = "cpu", window: int = WINDOW) -> float:
        """Current slowdown versus the nominal host (``> 1``: the host is slow)."""
        if not self.samples_ms[kind]:
            self.sample()
        return statistics.median(self.samples_ms[kind][-window:]) / NOMINAL_MS[kind]

    def calibrate(self, samples: int = WINDOW, warmup: int = 2) -> None:
        """Fill the window (first calls in a fresh process pay one-off costs)."""
        for _ in range(warmup):
            reference_kernel()
            self._wake_kernel()
        for _ in range(samples):
            self.sample()

    def close(self) -> None:
        # shutdown, not just close: forked serving workers hold copies of the
        # descriptor, and the echo thread only sees end-of-stream once the
        # socket itself is shut down.
        self._client.shutdown(socket.SHUT_RDWR)
        self._echo.join(timeout=10)
        self._client.close()
        self._server.close()
