"""hawar2sorani benchmark: seeded workloads, checked outputs, named metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

The package is run from the repository's ``src/`` (it need not be
installed); the repository root is the parent of this file's directory.
Inputs are generated from ``--seed`` (see workloads.py) and every output
of every run is compared with the reference in reference.py.

CLI workloads spawn ``python -m hawar2sorani.cli [flags] IN -o OUT`` again
and again for ``--seconds``; api-short runs one closed-loop library caller
(api_worker.py) for ``--seconds``. End-to-end times are calibrated for
machine speed by work timed on the same CPU (calibration.py); the raw
times are kept in the record. With ``--trace 1`` traced and untraced runs
alternate and the per-layer metrics come from the traced ones (tracer.py):
per CLI run, or per api worker making the warm-up pass and one more pass.
``--smoke`` shrinks every input for a quick functional check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``). The line before
it is the full record: environment, input description, every raw sample
and the checks. The record is also written under ``.perfbench_work/``.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import api_worker
import measure
import reference
from calibration import Calibration
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# (name, unit) of every metric, in BENCHMARK.json order.
END_TO_END = (
    ("throughput_mb_s", "MB/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("call_p50_us", "us"),
)
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.batches", "count"),
    ("engine.self_s", "s"),
    ("engine.calls", "count"),
    ("engine.words", "count"),
    ("engine.symbols_s", "s"),
    ("engine.fold_s", "s"),
    ("engine.word_misses", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("scanner.self_s", "s"),
    ("scanner.tokens", "count"),
    ("rules.lookup_s", "s"),
    ("rules.lookups", "count"),
    ("rules.lookup_match_ratio", "ratio"),
    ("rules.lookups_per_miss", "ratio"),
    ("rules.default_rules_s", "s"),
    ("trace.overhead_s", "s"),
)

SETUP_SPAWNS = 7
SMOKE_SCALE = 0.02
API_SETUP = (
    "import sys, hawar2sorani;"
    "sys.stdout.buffer.write(hawar2sorani.transliterate(sys.argv[1]).encode('utf-8'))"
)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.output_sha256 = set()

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def check_process(self, run, output_path, want_sha):
        """A CLI or setup run: exit 0 and output bytes equal to the reference.

        Returns the output's sha256, or None if the run failed.
        """
        if run.returncode != 0:
            self.check(False, f"exit {run.returncode}: {run.stderr.strip()[:300]}")
            return None
        got = sha256(output_path.read_bytes()) if output_path else sha256(run.stdout)
        self.check(got == want_sha, f"output sha256 {got} != reference {want_sha}")
        return got


def _environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    """sha256 over the package's source files, so results name the code run."""
    digest = hashlib.sha256()
    package = SRC / "hawar2sorani"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Bench:
    def __init__(self, workload, seed, seconds, smoke, work):
        self.workload = workload
        self.seconds = seconds
        self.work = work
        self.tally = Tally()
        self.samples = {}
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
        self.min_runs = 1 if smoke else 3
        self.setup_spawns = 2 if smoke else SETUP_SPAWNS
        self.calibration = Calibration()
        self._prepare(random.Random(seed), SMOKE_SCALE if smoke else 1.0)

    # ---------------------------------------------------------------- inputs

    def _prepare(self, rng, scale):
        w = self.workload
        generated = w.generate(rng, scale)
        if w.api:
            self.sentences = generated
            text = "\n".join(generated)
        else:
            text = generated
        distinct = reference.distinct_words(text)
        words = {token: reference.word(token) for token in distinct}
        self.word_count = reference.word_count(text)
        data = text.encode("utf-8")
        self.input_path = self.work / "input.txt"
        self.input_path.write_bytes(data)
        self.input_bytes = len(data)
        if w.api:
            self.expected = [reference.text(s, words) for s in self.sentences]
            self.expected_sha256 = sha256("\n".join(self.expected).encode("utf-8"))
        else:
            expected = reference.text(
                text, words, digits_arabic=w.digits_arabic, rlm=w.rlm, strip_bom=True
            ).encode("utf-8")
            self.expected_sha256 = sha256(expected)
        self.input_record = {
            "why": w.why,
            "flags": list(w.cli_flags),
            "bytes": self.input_bytes,
            "lines": text.count("\n") + (not text.endswith("\n")),
            "words": self.word_count,
            "distinct_words": len(distinct),
            "sha256": sha256(data),
            "reference_output_sha256": self.expected_sha256,
        }
        if w.api:
            self.input_record["sentences"] = len(self.sentences)

    # ------------------------------------------------------------------- CLI

    def _cli_argv(self, source, output, trace_path=None):
        if trace_path is None:
            head = [sys.executable, "-m", "hawar2sorani.cli"]
        else:
            head = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path)]
        return head + list(self.workload.cli_flags) + [str(source), "-o", str(output)]

    def _run_cli(self, source, want_sha, trace_path=None, calibrate=False):
        output = self.work / "output.txt"
        run = measure.run_process(
            self._cli_argv(source, output, trace_path), env=self.env, cwd=ROOT,
            calibrate=self.calibration if calibrate else None,
        )
        got = self.tally.check_process(run, output, want_sha)
        if source == self.input_path and got:
            self.tally.output_sha256.add(got)
        return run

    def _budget(self, minimum=1):
        """Yield until ``minimum`` iterations are done and another, as long
        as the last, would overrun ``--seconds``."""
        start = time.perf_counter()
        done = 0
        while True:
            before = time.perf_counter()
            yield
            done += 1
            now = time.perf_counter()
            if done >= minimum and now - start + (now - before) > self.seconds:
                return

    def _setup(self, spawn):
        """Calibrated spawn-to-exit times of ``spawn()`` set-up runs, after
        one untimed run that writes the bytecode caches."""
        spawn()
        self.calibration.task()
        runs, factors = zip(*(self.calibration.around(spawn) for _ in range(self.setup_spawns)))
        calibrated = [run.wall_s * f for run, f in zip(runs, factors)]
        self.samples["setup"] = {"wall_s": [run.wall_s for run in runs], "calibrated_s": calibrated}
        return calibrated

    def cli_end_to_end(self):
        empty = self.work / "empty.txt"
        empty.write_bytes(b"")
        setup = self._setup(lambda: self._run_cli(empty, sha256(b"")))
        runs = [
            self._run_cli(self.input_path, self.expected_sha256, calibrate=True)
            for _ in self._budget(self.min_runs)
        ]
        walls = [run.calibrated_s() for run in runs]
        peaks = [run.peak_kb for run in runs]
        self.samples["runs"] = {
            "wall_s": [run.wall_s for run in runs],
            "calibrated_s": walls,
            "probes": [len(run.probe_s) for run in runs],
            "peak_kb": peaks,
        }
        return {
            "throughput_mb_s": self.input_bytes / 1e6 / measure.median(walls),
            "peak_rss_mb": measure.median(peaks) / 1024,
            "setup_s": measure.median(setup),
            "call_p50_us": measure.median(walls) * 1e6,
        }

    def cli_traced(self):
        trace_path = self.work / "trace.json"
        traced, plain, layers = [], [], []
        for _ in self._budget():
            traced.append(self._run_cli(self.input_path, self.expected_sha256, trace_path).wall_s)
            layers.append(json.loads(trace_path.read_text())["layers"])
            plain.append(self._run_cli(self.input_path, self.expected_sha256).wall_s)
        return self._layer_metrics(layers, traced, plain, self.word_count)

    # ------------------------------------------------------------------- API

    def _api_worker(self, mode):
        """Run api_worker.py in ``mode`` and check its outputs."""
        result_path = self.work / f"api-{mode}.json"
        argv = [sys.executable, str(HERE / "api_worker.py"), mode, str(self.input_path), str(result_path)]
        rounds = []
        if mode == "loop":
            returncode, stderr = self._api_rounds(argv, rounds)
        else:
            run = measure.run_process(argv, env=self.env, cwd=ROOT)
            returncode, stderr = run.returncode, run.stderr
        if returncode != 0:
            raise RuntimeError(f"api worker exited {returncode}: {stderr[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        outputs = result.pop("outputs")
        self.tally.output_sha256.add(sha256("\n".join(map(str, outputs)).encode("utf-8")))
        for got, want in zip(outputs, self.expected):
            self.tally.check(got == want, f"output {got!r} != reference {want!r}")
        result["rounds"] = rounds
        return result

    def _api_rounds(self, argv, rounds):
        """Drive the loop worker round by round, running the calibration
        task between rounds while the worker waits. Appends each round's record
        to ``rounds``; returns the worker's exit status and stderr."""
        proc = subprocess.Popen(
            argv, env=self.env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            if proc.stdout.readline().strip() == "ready":
                self.calibration.task()
                for _ in self._budget():
                    round_, scale = self.calibration.around(lambda: self._api_round(proc))
                    round_["scale"] = scale
                    rounds.append(round_)
        except BrokenPipeError:
            pass
        finally:
            # EOF on stdin ends the worker's loop; it then writes its result.
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
            stderr = proc.stderr.read()
            proc.stdout.read()
            proc.wait(timeout=60)
        return proc.returncode, stderr

    @staticmethod
    def _api_round(proc):
        proc.stdin.write("go\n")
        proc.stdin.flush()
        return json.loads(proc.stdout.readline())

    def api_end_to_end(self):
        argv = [sys.executable, "-c", API_SETUP, self.sentences[0]]
        want = sha256(self.expected[0].encode("utf-8"))

        def spawn():
            run = measure.run_process(argv, env=self.env, cwd=ROOT)
            self.tally.check_process(run, None, want)
            return run

        setup = self._setup(spawn)
        result = self._api_worker("loop")
        rounds = result["rounds"]
        histogram = {}
        for round_ in rounds:
            self.tally.attempted += round_["calls"]
            self.tally.failed += round_["failed"]
            for bucket, count in round_["histogram"].items():
                scaled = int((int(bucket) + 0.5) * round_["scale"])
                histogram[scaled] = histogram.get(scaled, 0) + count
        percentile = measure.histogram_percentile
        bucket_ns = api_worker.BUCKET_NS
        self.samples.update(
            rounds=rounds,
            peak_kb=result["peak_kb"],
            # Not a declared metric: a CLI run is one call, so the CLI
            # workloads make too few calls per run for a 99th percentile.
            call_p99_us=percentile(histogram, bucket_ns, 99),
        )
        return {
            "throughput_mb_s": measure.median(
                [r["bytes"] / 1e6 / (r["round_s"] * r["scale"]) for r in rounds]
            ),
            "peak_rss_mb": result["peak_kb"] / 1024,
            "setup_s": measure.median(setup),
            "call_p50_us": percentile(histogram, bucket_ns, 50),
        }

    def api_traced(self):
        traced, plain, layers = [], [], []
        for _ in self._budget():
            for mode, walls in (("trace", traced), ("plain", plain)):
                result = self._api_worker(mode)
                self.tally.attempted += len(self.sentences)
                self.tally.failed += result["failed"]
                walls.append(result["wall_s"])
            trace_path = self.work / "api-trace.json.trace"
            layers.append(json.loads(trace_path.read_text())["layers"])
        # Each worker makes a warm-up pass and one more pass.
        return self._layer_metrics(layers, traced, plain, 2 * self.word_count)

    # ---------------------------------------------------------------- layers

    def _layer_metrics(self, layers, traced_walls, plain_walls, words):
        self.samples = {"traced_wall_s": traced_walls, "plain_wall_s": plain_walls, "layers": layers}
        metrics = {key: measure.median([run[key] for run in layers]) for key in layers[0]}
        for key, value in layers[0].items():
            if isinstance(value, int):  # counts repeat exactly; keep them whole
                metrics[key] = value
        misses = metrics["engine.word_misses"]
        lookups = metrics["rules.lookups"]
        metrics["engine.words"] = words
        metrics["engine.cache_hit_ratio"] = 1 - misses / words if words else 0.0
        metrics["rules.lookup_match_ratio"] = metrics.pop("rules.lookup_matches") / lookups if lookups else 0.0
        metrics["rules.lookups_per_miss"] = lookups / misses if misses else 0.0
        metrics["trace.overhead_s"] = measure.median(traced_walls) - measure.median(plain_walls)
        return metrics


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, fewer samples")
    return parser.parse_args(argv)


def main(argv=None):
    args = _arguments(argv)
    if not (SRC / "hawar2sorani" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    environment = _environment()
    # Samples and calibration share one CPU, so the calibration sees the
    # same interference as the samples it scales.
    environment["pinned_cpu"] = cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    bench = Bench(workload, args.seed, args.seconds, args.smoke, work)
    if workload.api:
        values = bench.api_traced() if args.trace else bench.api_end_to_end()
    else:
        values = bench.cli_traced() if args.trace else bench.cli_end_to_end()
    environment["loadavg_end"] = os.getloadavg()
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    tally = bench.tally
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment,
        "input": bench.input_record,
        "samples": bench.samples,
        "calibration_probe_s": bench.calibration.probe_s,
        "calibration_task_s": bench.calibration.task_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "errors": tally.errors,
        "output_sha256": sorted(tally.output_sha256),
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1))
    for scratch in ("input.txt", "output.txt", "empty.txt"):
        (work / scratch).unlink(missing_ok=True)
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
