"""Host-speed calibration: a fixed pure-Python loop run beside the workload.

Raw CPU time on a shared host moves with its neighbours (the same code
measured 27% apart run to run), so every CPU figure the benchmark reports
is converted to *calibrated CPU-seconds* (``cal_s``): CPU time scaled by
how fast this loop ran at the same moment, relative to ``REF_STEPS_PER_S``.
One ``cal_s`` is about one CPU-second on the host the constant was frozen
on (a 2-vCPU x86-64 VM, CPython 3.11).

The loop is interleaved finely with the workload rather than run between
repetitions: a ``SIGALRM`` interval timer fires every ``PERIOD_S`` and
the handler runs one slice of the loop on the main thread.  Host speed
changes within a fraction of a second on a shared box, so only slices
taken in the same milliseconds as the work track it.  (A CPU-time timer,
``ITIMER_PROF``, would be the natural choice, but while one is armed
Linux serves the process CPU clock at tick granularity, which wipes out
sub-millisecond set-up times.)

The loop mixes what the workloads spend their time on (heap push/pop,
deque rotation, dict reads and writes, small-function calls, pointer
chasing through a working set larger than the L1 cache) and allocates no
GC-tracked objects, so it never triggers a collection of workload
garbage.  Never change it or the constant: doing so moves every figure.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from heapq import heappop, heappush

#: Calibration steps per CPU-second on the reference host.  Frozen.
REF_STEPS_PER_S = 900_000.0
#: Steps per slice (about 1 ms on the reference host).
SLICE_STEPS = 1000
#: Time between slices.
PERIOD_S = 0.01


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next = None


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


class _LoopState:
    """The loop's persistent working set, built once per process."""

    def __init__(self, cells: int = 1 << 16) -> None:
        # A fixed pseudo-random cyclic permutation (LCG, no RNG module).
        order = list(range(cells))
        x = 12345
        for i in range(cells - 1, 0, -1):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            j = x % (i + 1)
            order[i], order[j] = order[j], order[i]
        nodes = [_Cell(i) for i in range(cells)]
        for i in range(cells):
            nodes[order[i]].next = nodes[order[(i + 1) % cells]]
        self.cell = nodes[0]
        self.heap = [i << 8 | i for i in range(64)]
        self.queue = deque(range(64))
        self.table = {k: k for k in range(64)}


def calibration_loop(state: _LoopState, steps: int) -> int:
    heap = state.heap
    queue = state.queue
    table = state.table
    cell = state.cell
    acc = 0
    for _ in range(steps):
        v = heappop(heap)
        heappush(heap, (v + (((v & 7) + 1) << 8)) & 0xFFFFFFFF)
        queue.append(queue.popleft() ^ 1)
        k = v & 63
        acc = table[k] = _mix(table[k], cell.value)
        cell = cell.next
    state.cell = cell
    return acc


class Calibrator:
    """Runs loop slices on an interval timer and keeps their totals.

    ``steps`` and ``cpu_s`` only grow; callers take differences over a
    window.  ``on_slice`` (if set) receives each slice's CPU time, so a
    span tracer can keep the slice out of whatever span it interrupted.
    """

    def __init__(self) -> None:
        self._state = _LoopState()
        self.steps = 0
        self.cpu_s = 0.0
        self.on_slice = None

    def _tick(self, _signum, _frame) -> None:
        start = time.thread_time()
        calibration_loop(self._state, SLICE_STEPS)
        elapsed = time.thread_time() - start
        self.steps += SLICE_STEPS
        self.cpu_s += elapsed
        if self.on_slice is not None:
            self.on_slice(elapsed)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> "Window":
        return Window(self)


class Window:
    """Process CPU and calibration progress since construction."""

    __slots__ = ("_cal", "_cpu0", "_steps0", "_loop0", "_wall0")

    def __init__(self, cal: Calibrator) -> None:
        self._cal = cal
        self._cpu0 = time.process_time()
        self._steps0 = cal.steps
        self._loop0 = cal.cpu_s
        self._wall0 = time.perf_counter()

    def close(self) -> "Measured":
        cal = self._cal
        cpu = time.process_time() - self._cpu0
        loop = cal.cpu_s - self._loop0
        return Measured(
            work_cpu_s=max(cpu - loop, 0.0),
            loop_cpu_s=loop,
            loop_steps=cal.steps - self._steps0,
            wall_s=time.perf_counter() - self._wall0,
        )


class Measured:
    """One measured window: its workload CPU and the loop speed beside it."""

    __slots__ = ("work_cpu_s", "loop_cpu_s", "loop_steps", "wall_s")

    def __init__(self, work_cpu_s, loop_cpu_s, loop_steps, wall_s) -> None:
        self.work_cpu_s = work_cpu_s
        self.loop_cpu_s = loop_cpu_s
        self.loop_steps = loop_steps
        self.wall_s = wall_s

    def speed(self, fallback_speed: float) -> float:
        """Loop steps per CPU-second inside the window.

        ``fallback_speed`` is used when the window was too short for a
        slice to fire.
        """
        if self.loop_steps and self.loop_cpu_s > 0:
            return self.loop_steps / self.loop_cpu_s
        return fallback_speed

    def cal_s(self, fallback_speed: float) -> float:
        """Workload CPU in calibrated seconds."""
        return self.work_cpu_s * self.speed(fallback_speed) / REF_STEPS_PER_S
