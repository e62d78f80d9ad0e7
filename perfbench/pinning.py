"""Pin the benchmark's process tree to one CPU and read that CPU's steal time.

Stdlib only: this module must be importable, and :func:`pin_to_one_cpu` must
run, before numpy is imported.  OpenBLAS sizes its thread pool from the CPU
affinity mask it sees when it is loaded, so pinning first gives a one-thread
BLAS pool that matches the one CPU the run owns.  The affinity mask is
inherited across ``fork`` and ``exec``, so serving workers, the HTTP front's
threads and cold-start probes all run on the same CPU.
"""

from __future__ import annotations

import os
import sys


class PinningError(RuntimeError):
    """Pinning was attempted too late (numpy already loaded) or is impossible."""


def choose_cpu() -> int:
    """The CPU a run pins to: the highest-numbered CPU this process may use.

    CPU 0 is where most hosts route device interrupts and system daemons, so
    the last allowed CPU is the quieter choice, and it is deterministic for a
    given affinity mask.
    """
    return max(os.sched_getaffinity(0))


def pin_to_one_cpu() -> int:
    """Restrict this process (and every process it starts later) to one CPU.

    Raises :class:`PinningError` when numpy is already imported, because its
    BLAS pool would then be sized for the unpinned mask.
    """
    if "numpy" in sys.modules:
        raise PinningError(
            "numpy is already imported; pin before importing it so the BLAS "
            "thread pool sizes itself to the pinned CPU"
        )
    target = choose_cpu()
    os.sched_setaffinity(0, {target})
    if os.sched_getaffinity(0) != {target}:
        raise PinningError(f"could not pin to CPU {target}")
    return target


def cpu_ticks(cpu: int) -> tuple[int, int]:
    """``(total, steal)`` jiffies of one CPU from ``/proc/stat``.

    Steal is time the hypervisor ran another guest while this vCPU had work;
    a run whose steal share is high measured the host, not the program.
    Returns ``(0, 0)`` where ``/proc/stat`` is unavailable.
    """
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                fields = line.split()
                if fields and fields[0] == f"cpu{cpu}":
                    values = [int(value) for value in fields[1:]]
                    steal = values[7] if len(values) > 7 else 0
                    # guest/guest_nice (fields 9-10) are already counted in user.
                    return sum(values[:8]), steal
    except OSError:
        pass
    return 0, 0


#: ``/proc/stat`` counts CPU time in ticks of 1/USER_HZ seconds (10 ms at 100).
USER_HZ = os.sysconf("SC_CLK_TCK")


def stolen_seconds() -> float:
    """Seconds stolen so far from the one CPU this process is pinned to (0 when unpinned).

    The resolution is one ``/proc/stat`` tick, 1/USER_HZ seconds.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) != 1:
        return 0.0
    return cpu_ticks(next(iter(cpus)))[1] / USER_HZ


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of a CPU's elapsed jiffies that were stolen between two readings."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0
