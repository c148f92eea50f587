"""Host-speed probe that scales a pass's wall time to a fixed reference speed.

On a shared host the same pass can take twice as long from one second to
the next, as neighbours on the same physical cores come and go; measured
on a 2-vCPU VM, a fixed pure-Python loop ran at 1.1x, 1.8x and 2.1x its
best time in one-second stretches that switched within seconds.  No
statistic over whole passes removes that: a run of the benchmark may never
see a quiet second.

While a pass runs, a ``SIGALRM`` handler runs ``probe`` every ``PERIOD_S``
seconds of wall time and times it, so the probes sample the host's speed at
the moments the program ran.  The pass's wall time less the probes' own
time, multiplied by the mean of ``REFERENCE_S / probe time``, is the time
the pass would have taken had the host run at the speed where one probe
takes ``REFERENCE_S``.  The probe is fixed code of this benchmark: it never
calls ``vrpl``, so a change to the program moves the scaled time by as much
as it moves the program's own wall time.  On the same VM the scaling brought
the pass-to-pass spread (std/mean) within one process from 0.09-0.23 down
to 0.02-0.04 on the three workloads.
"""

import signal
import time

#: Wall time between two probes in a pass; the probes cost about 3% of it.
PERIOD_S = 0.04
#: Probe time that defines the reference speed, about a probe's time in a
#: quiet stretch on the VM above.
REFERENCE_S = 1e-3
PROBE_STEPS = 700


class _Record:
    """A frozen record, written out by hand: this module must not import
    ``dataclasses`` (or ``statistics``), whose import cost ``setup_s``
    measures when ``vrpl`` pays it."""

    def __init__(self, a: float, b: float, kind: str) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError(name)


def _make(x: float, y: float, *, scale: float = 1.0) -> _Record:
    return _Record(x * scale, y, "p" if x > y else "q")


def _use(r: _Record) -> float:
    return r.a + r.b if r.kind == "p" else r.a - r.b


def probe() -> float:
    """Fixed work of about 1 ms: calls with keywords, construction of a
    frozen record, attribute reads, branches and float formatting.

    Of the kernels tried (a float-math loop, a walk through a 32 MiB
    permuted list, this), this one's slowdown under contention followed
    that of all three workloads most closely.
    """
    acc = 0.0
    for i in range(PROBE_STEPS):
        r = _make(i * 0.01, 3.0, scale=1.5)
        acc += _use(r) + len(f"{r.a:.3f}")
    return acc


class SpeedProbe:
    """Context manager: probes the host's speed while the body runs.

    After exit, ``spent`` is the probes' own wall time and ``speed`` the
    mean of ``REFERENCE_S / probe time`` (above 1 when the host runs
    faster than the reference).  A body shorter than ``period`` gets one
    probe at exit.
    """

    def __init__(self, period: float = PERIOD_S, on_sample=None) -> None:
        self.period = period
        #: Called with each probe's wall time, e.g. to keep it out of a
        #: tracer's self times.
        self.on_sample = on_sample
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        if self.on_sample is not None:
            self.on_sample(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            spent = self.spent
            self._probe()
            self.spent = spent

    @property
    def speed(self) -> float:
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)

    def scaled(self, wall: float) -> float:
        """``wall`` (which includes the probes) at the reference speed."""
        return (wall - self.spent) * self.speed
