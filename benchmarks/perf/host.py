"""Host speed, from a fixed reference loop timed next to the work.

A shared VM switches between speed states that last from seconds to
minutes.  On a 2-vCPU VM the same pass of 64 ``PAFeat.select`` calls took
0.36 s in one state and 0.57 s in the other, so whole runs can land in
either, and no statistic over a run's raw timings removes that.  Each
block of timed work is therefore bracketed by :func:`reference_loop`, a
fixed mix of interpreter, small-array and BLAS work like the program's
own.  A sample's host-scaled time is its raw time times the loop's
reference time over the mean of the two loop times around its block:
the time it would have taken on a host where the loop takes its
reference time.

The loop is benchmark code, so no change to the program moves it; it
runs between blocks, while the program is idle.

Work made of one kind of operation can be scaled by the matching part of
the loop alone (:data:`PARTS`): select's single-row inference by the
small-array part.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.obs.clock import monotonic

_RNG = np.random.default_rng(20240601)
_SQUARE = _RNG.standard_normal((128, 128)) / 12.0
_MATRIX = _RNG.standard_normal((72, 72)) / 9.0
_VECTOR = _RNG.standard_normal(72)


def _interpreter() -> None:
    table: dict[int, int] = {}
    total = 0
    for i in range(20000):  # dict and integer work
        table[i & 255] = total
        total += i * 3 % 7


def _small_arrays() -> None:
    vector = _VECTOR
    for _ in range(300):  # as in single-row inference
        hidden = np.maximum(_MATRIX @ vector, 0.0)
        vector = hidden / (1.0 + float(hidden[int(np.argmax(hidden))]))


def _blas() -> None:
    square = _SQUARE
    for _ in range(10):  # as in batched inference and Q updates
        square = np.tanh(square @ square)


#: The reference loop's parts, each with the time scaled timings are
#: reported at: about the part's time on a 2-vCPU Xeon VM in that host's
#: fast state.  The whole loop takes 6 ms there.
PARTS = {
    "interpreter": (_interpreter, 0.0025),
    "small_arrays": (_small_arrays, 0.0020),
    "blas": (_blas, 0.0015),
}
WHOLE = tuple(PARTS)


def reference_loop(parts: tuple[str, ...] = WHOLE, repeats: int = 3) -> float:
    """Seconds of the fastest of ``repeats`` runs of the loop's ``parts``."""
    best = float("inf")
    for _ in range(repeats):
        start = monotonic()
        for part in parts:
            PARTS[part][0]()
        best = min(best, monotonic() - start)
    return best


class HostSpeed:
    """Timed samples, each filed with the reference-loop time around it.

    :meth:`mark` times the loop's ``parts`` before a block of work;
    :meth:`block` ends the block: it times them again and files every
    sample of the block with the mean of the two times.  With
    ``probe=False`` (traced runs, whose timings are not reported scaled)
    the loop is not run and every sample is filed at
    :attr:`reference_s`.
    """

    def __init__(self, probe: bool = True, parts: tuple[str, ...] = WHOLE) -> None:
        self.probe = probe
        self.parts = parts
        #: loop seconds the scaled timings are reported at
        self.reference_s = sum(PARTS[part][1] for part in parts)
        #: raw seconds of every sample, in order
        self.raw_s: list[float] = []
        #: reference-loop seconds filed with each sample
        self.loop_s: list[float] = []
        self._before: float | None = None

    def _loop(self) -> float:
        return reference_loop(self.parts) if self.probe else self.reference_s

    def mark(self) -> None:
        self._before = self._loop()

    def block(self, samples: list[float]) -> None:
        if self._before is None:
            raise RuntimeError("HostSpeed.block called before mark")
        after = self._loop()
        loop = (self._before + after) / 2
        self.raw_s.extend(samples)
        self.loop_s.extend([loop] * len(samples))
        self._before = after

    def scaled_median(self) -> float:
        """Median host-scaled sample, in seconds."""
        return statistics.median(
            raw * self.reference_s / loop
            for raw, loop in zip(self.raw_s, self.loop_s)
        )
