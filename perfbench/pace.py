"""The pace of a shared machine, to time operations against.

On a machine shared with other tenants, the same pure-Python code runs up
to 2x slower from one moment to the next, and the machine's speed also
drifts over an hour. A raw time then says as much about the neighbours as
about asmtree. So the benchmark also times a small fixed kernel of
pure-Python work (bit tricks, dict look-ups and calls, the kind of work
asmtree's DPs do, but none of asmtree's code), and reports times at a
reference pace.

- A call into the API is paced by the kernel, run right before and right
  after it in the same interpreter:

      paced time = raw time * REFERENCE_S / (mean of the two kernel times)

  The kernel fits in the processor's caches. A call whose time is bound
  by memory instead, such as the first tree of K8, which builds 660,032
  trees first, did not follow it: over 14 alternating calls, that call's
  raw time spread by 9% between quartiles and its paced time by 23%. Such
  a call is paced by a second kernel that builds and scatters 150,000
  small tuples (REFERENCE_MEMORY_S), which it did follow (8%).

- A child process (an `asmtree` invocation, a set-up) is timed by its CPU
  time, user and system; its wall time also holds the time it waited to
  run. The kernel run in the parent did not follow a child's speed, so
  children are paced by other children: right before and right after
  each one, a fresh interpreter runs this file, which runs the kernel
  CHILD_KERNELS times. This pace child's CPU time is the sample:

      paced time = CPU time * REFERENCE_CHILD_S / (mean of the two pace children)

The references are the usual times on the 2-vCPU machine the benchmark
was built on, so paced times read as seconds on that machine. A change to
asmtree moves the raw time and leaves the kernel alone, so it moves the
paced time by the same share.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time

clock = time.perf_counter
REFERENCE_S = 0.002
REFERENCE_MEMORY_S = 0.12
REFERENCE_CHILD_S = 0.06
CHILD_KERNELS = 5


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _kernel() -> int:
    memo: dict[int, int] = {}
    acc = 0
    for mask in range(1, 1 << 11):
        low = mask & -mask
        acc += memo.get(mask ^ low, 1) + _popcount(mask)
        memo[mask] = acc & 0xFFFF
    return acc


def _memory_kernel() -> int:
    items = [(i, (i, i + 1)) for i in range(150_000)]
    scattered = {i: items[(i * 7919) % 150_000] for i in range(0, 150_000, 3)}
    return len(scattered)


def sample(memory: bool = False) -> float:
    """Seconds the kernel (with `memory`, the memory kernel) takes now, once
    its code and data are back in the processor's caches: right after a
    child process, the first pass runs cold and reads slow by a varying
    share."""
    kernel = _memory_kernel if memory else _kernel
    kernel()
    t0 = clock()
    kernel()
    return clock() - t0


def scale(before: float, after: float, memory: bool = False) -> float:
    """The factor from raw seconds to paced seconds, for an operation with
    the kernel samples taken right before and right after it."""
    return (REFERENCE_MEMORY_S if memory else REFERENCE_S) * 2 / (before + after)


def child_cpu() -> float:
    """CPU seconds, user and system, of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def child_sample() -> float:
    """CPU seconds of a fresh interpreter that runs the kernel CHILD_KERNELS times."""
    used = child_cpu()
    subprocess.run([sys.executable, __file__], check=True)
    return child_cpu() - used


def child_scale(before: float, after: float) -> float:
    """The factor from a child's CPU seconds to paced seconds, given the
    pace children run right before and right after it."""
    return REFERENCE_CHILD_S * 2 / (before + after)


if __name__ == "__main__":
    for _ in range(CHILD_KERNELS):
        _kernel()
