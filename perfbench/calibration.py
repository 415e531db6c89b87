"""Machine-speed calibration for the end-to-end timings.

On a shared host the same run can take anywhere from 1x to 2x its
undisturbed time, in phases lasting from a fraction of a second to minutes,
and CPU time slows as much as wall time does. The benchmark therefore times
fixed pure-Python work on the same CPU as each sample and scales the
sample's time by how fast that work ran, relative to a reference time:

- a short probe every PROBE_EVERY_S while a CLI run is in progress, which
  tracks changes within runs of several seconds;
- a longer task just before and just after each short sample (a set-up
  spawn or a round of the API loop), which tracks those samples better
  than the probe.

Both run the reference transliterator on fixed words and text, sharing no
code with the package; the probe mixes the two kinds of work, which tracked
the CLI runs better than either alone. Reference times are typical CPU times on the host the
benchmark was defined on (x86-64, 2 vCPUs, Python 3.11), so calibrated
times stay close to wall-clock times there.
"""

import random
import time

import reference
import workloads

REFERENCE_PROBE_S = 0.0015
REFERENCE_TASK_S = 0.125
PROBE_EVERY_S = 0.05


class Calibration:
    def __init__(self):
        self.text = workloads.unique_words(random.Random(20211023), 0.06)
        self.words = reference.distinct_words(self.text)
        probe_words = self.words[:25]
        self.probe_table = {word: reference.word(word) for word in probe_words}
        self.probe_text = " ".join(probe_words) + ", " + " ".join(probe_words) + ".\n"
        # Every probe and task time, for the record.
        self.probe_s = []
        self.task_s = []

    def probe(self):
        """Run the probe once: rewrite 25 words, then a short text made of
        them, three times. Returns its CPU time in seconds."""
        start = time.thread_time()
        reference.clear_cache()
        for word in self.probe_table:
            reference.word(word)
        for _ in range(3):
            reference.text(self.probe_text, self.probe_table)
        elapsed = time.thread_time() - start
        self.probe_s.append(elapsed)
        return elapsed

    def task(self):
        """Run the task (every word, then the whole text) once; return its
        CPU time in seconds."""
        start = time.thread_time()
        reference.clear_cache()
        table = {word: reference.word(word) for word in self.words}
        reference.text(self.text, table)
        elapsed = time.thread_time() - start
        self.task_s.append(elapsed)
        return elapsed

    def around(self, sample):
        """Call ``sample()`` between the last task and a new one; return its
        result and the scale factor for it. Start a series with task()."""
        before = self.task_s[-1]
        result = sample()
        return result, REFERENCE_TASK_S * 2 / (before + self.task())
