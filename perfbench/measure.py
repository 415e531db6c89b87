"""Process timing, peak-memory sampling and summary statistics."""

import os
import select
import statistics
import subprocess
import time
from dataclasses import dataclass, field

import calibration

# How often the peak-memory sampler wakes while a child runs.
_POLL_S = 0.01


@dataclass
class ProcessRun:
    wall_s: float
    peak_kb: int  # VmHWM, the kernel's resident-set high-water mark
    returncode: int
    stdout: bytes
    stderr: str
    probe_s: list = field(default_factory=list)  # probes during the run, then one after
    probing_s: float = 0.0  # CPU time the probes took from the run

    def calibrated_s(self):
        """Spawn-to-exit time less the probes' time, at reference speed."""
        mean_probe = sum(self.probe_s) / len(self.probe_s)
        return (self.wall_s - self.probing_s) * calibration.REFERENCE_PROBE_S / mean_probe


def read_hwm_kb(pid):
    """VmHWM of a live process in kB, or 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_process(argv, *, env, cwd, calibrate=None, timeout_s=170.0):
    """Run ``argv`` from spawn to exit, sampling its peak resident memory
    and, given a Calibration, probing machine speed while it runs.

    getrusage's ru_maxrss is not used: on Linux it can report the parent's
    footprint inherited at fork time. VmHWM is a high-water mark, so the
    last sample taken before exit is the peak up to that sample.
    """
    probe_s = []
    probing_s = 0.0
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    # The pipes are drained after exit; the children write little to them.
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        peak_kb = read_hwm_kb(proc.pid)
        next_probe = start + calibration.PROBE_EVERY_S
        while not poller.poll(_POLL_S * 1000):
            peak_kb = max(peak_kb, read_hwm_kb(proc.pid))
            now = time.perf_counter()
            if calibrate is not None and now >= next_probe:
                probe_s.append(calibrate.probe())
                probing_s += probe_s[-1]
                next_probe = now + calibration.PROBE_EVERY_S
            if now > start + timeout_s:
                proc.kill()
        wall_s = time.perf_counter() - start
    finally:
        os.close(pidfd)
    stdout, stderr = proc.communicate()
    if calibrate is not None:
        probe_s.append(calibrate.probe())
    return ProcessRun(
        wall_s, peak_kb, proc.returncode, stdout, stderr.decode("utf-8", "replace"),
        probe_s, probing_s,
    )


def median(values):
    return statistics.median(values)


def histogram_percentile(histogram, bucket_ns, q):
    """Percentile ``q`` of latencies binned as {bucket index: count}, in µs.

    Returns the middle of the bucket holding the q-th sample.
    """
    total = sum(histogram.values())
    target = max(1, -(-total * q // 100))
    seen = 0
    for index in sorted(histogram):
        seen += histogram[index]
        if seen >= target:
            return (index + 0.5) * bucket_ns / 1000.0
    raise ValueError("empty histogram")
