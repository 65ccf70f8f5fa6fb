"""A fixed CPU probe that reads the machine's speed between timed units.

The benchmark shares its cores with other tenants of the host, and the
host's load changes how fast the same code runs by up to 1.7x, for
stretches of seconds to minutes. The probe is a fixed piece of work of the
kind the package spends its time on (a Python loop over small numpy row
operations, then a large sort) that never touches the package. It runs
after every timed unit for a set share of that unit's time, so its mean
duration over a set of passes reads the machine's mean speed over the same
stretch. ``corrected_wall_s`` scales measured wall time by the ratio of
the probe's reference time to that mean.
"""

import statistics
import time

import numpy as np

# Seconds one probe takes on an otherwise idle core of the 2-core x86_64
# VM the benchmark's baseline comes from (the fastest probes seen there).
REFERENCE_S = 0.005

# Probe time spent after a unit, as a share of the unit's wall time.
SHARE = 0.1


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((600, 8))
        self._nbrs = rng.integers(0, 600, (600, 12))
        self._big = rng.random(200_000)
        self.samples = []

    def _once(self):
        t0 = time.perf_counter()
        rows = self._rows.copy()
        for i in range(rows.shape[0]):
            c = rows[self._nbrs[i]].sum(axis=0)
            c /= np.linalg.norm(c)
            rows[i] = c
        np.sort(self._big)
        self.samples.append(time.perf_counter() - t0)

    def after(self, seconds):
        """Probe for SHARE of ``seconds`` (at least once) after a timed unit."""
        end = time.perf_counter() + SHARE * seconds
        self._once()
        while time.perf_counter() < end:
            self._once()

    def take(self):
        """The samples since the last call."""
        out, self.samples = self.samples, []
        return out


def corrected_wall_s(walls, probes):
    """Mean wall time of the passes, at the probe's reference speed."""
    return statistics.mean(walls) * REFERENCE_S / statistics.mean(probes)
