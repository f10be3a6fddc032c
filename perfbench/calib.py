"""Host-speed calibration for the timed runs.

The shared host this benchmark runs on changes speed by up to 1.7x within
seconds (a fixed loop of eigensolves takes 4 ms in one second and 6 ms in
the next), and the two vCPUs drift independently. A raw wall time therefore
measures the host as much as the program. Every timed interval is instead
bracketed and sampled by a fixed calibration kernel that runs in the
benchmark's process on the CPU that it and its children are pinned to, and
the interval is scaled by ``REF_S / (mean kernel time)``: seconds at the host speed at which the
kernel takes ``REF_S``. A change in the program's own speed scales the
result one for one; a change in host speed cancels.

The kernel is the benchmark's own code (plain Python and numpy, nothing from
qphi) and mixes what the program spends its time on: interpreter loops,
per-call overhead of small numpy operations, and a dense Hermitian
eigensolve.
"""
from __future__ import annotations

import os
import signal
from time import perf_counter, thread_time

import numpy as np

REF_S = 0.020  # the kernel's CPU time at the reference host speed
SAMPLE_EVERY_S = 0.25  # sampling period inside a timed interval

_rng = np.random.default_rng(20250217)
_g = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_BIG = _g @ _g.conj().T
_SMALL = []
for _ in range(4):
    _h = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
    _h = _h @ _h.conj().T
    _SMALL.append(_h / np.real(np.trace(_h)))


def kernel() -> float:
    """Run the fixed calibration work once; return the CPU time it took.

    CPU time rather than wall time, so that a sample taken while a child
    process shares the CPU counts only the kernel's own running time."""
    t0 = thread_time()
    acc = 0
    for i in range(90000):
        acc += i * i % 7
    table: dict = {}
    for i in range(15000):
        table[i % 997] = table.get(i % 997, 0) + 1
    for _ in range(18):
        for m in _SMALL:
            w = np.linalg.eigvalsh(m)
            w = w[w > 1e-12]
            float(-(w * np.log(w)).sum())
            np.einsum("ijkj->ik", m.reshape(2, 4, 2, 4))
            np.kron(m[:2, :2], m[:4, :4])
    for _ in range(5):
        np.linalg.eigvalsh(_BIG)
    return thread_time() - t0


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU, so that
    the kernel measures the CPU the work runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Clock:
    """Times intervals and scales them to the reference host speed.

    ``span`` runs the kernel before and after an interval and, while the
    interval runs, every ``SAMPLE_EVERY_S`` from a SIGALRM handler. Python
    runs the handler in the main thread between bytecodes, so the kernel
    never interleaves with the program's own C calls in this process; when
    the work is in child processes pinned to the same CPU, the kernel's CPU
    time is the time they lost. Either way the kernel's CPU time is taken
    off the interval. The interval is then scaled by ``REF_S`` over the
    time-weighted mean kernel time (a trapezoid: the two end samples carry
    half weight).
    """

    def __init__(self):
        self.last = kernel()
        self._inside: list = []

    def _on_alarm(self, signum, frame):
        self._inside.append(kernel())

    def span(self, call, settle=None):
        """Time ``call()``; run ``settle(result)``, untimed, before the end
        sample (to reap a child, say). Returns (result, exception or None,
        net seconds, reference seconds, kernel samples)."""
        before = self.last
        self._inside = []
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        res = error = None
        t0 = perf_counter()
        try:
            res = call()
        except Exception as exc:  # the caller counts it as a failed op
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = perf_counter() - t0
            signal.signal(signal.SIGALRM, old)
        if settle is not None and error is None:
            settle(res)
        net = elapsed - sum(self._inside)
        self.last = kernel()
        samples = [before, *self._inside, self.last]
        weights = [0.5] + [1.0] * len(self._inside) + [0.5]
        mean = sum(w * s for w, s in zip(weights, samples)) / sum(weights)
        return res, error, net, net * REF_S / mean, samples
