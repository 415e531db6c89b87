"""One closed-loop library caller for the api-short workload.

    python api_worker.py MODE SENTENCES RESULT_JSON

SENTENCES holds one input per line. Every mode first makes a warm-up pass,
calling ``hawar2sorani.transliterate`` once per sentence, and records the
outputs. Then:

- ``loop`` prints ``ready`` and, for each ``go`` line read from stdin,
  calls on through the sentences (wrapping around) for ROUND_S seconds,
  timing each call and checking its output against the warm-up output,
  then prints the round's counts and latency histogram as one JSON line.
  Any other line ends the loop. The benchmark runs its calibration task
  between rounds, while this process waits.
- ``plain`` makes one more pass;
- ``trace`` is ``plain`` under the layer tracer, whose spans are written to
  RESULT_JSON with ``.trace`` appended.

RESULT_JSON receives the warm-up outputs, the process's peak resident
memory and, except in ``loop`` mode, the failure count and wall time.
"""

import json
import sys
import time

from tracer import Tracer

ROUND_S = 0.25
# Latencies are counted in buckets this wide, so memory does not grow with
# the number of calls.
BUCKET_NS = 50


def _peak_kb():
    # Read here rather than through measure.py, whose imports would add to
    # the footprint being measured.
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _rounds(transliterate, sentences, expected):
    sizes = [len(s.encode("utf-8")) for s in sentences]
    clock_ns = time.perf_counter_ns
    index = 0
    print("ready", flush=True)
    while sys.stdin.readline().strip() == "go":
        histogram = {}
        failed = calls = nbytes = 0
        start = clock_ns()
        deadline = start + int(ROUND_S * 1e9)
        while clock_ns() < deadline:
            for _ in range(100):
                sentence = sentences[index]
                begin = clock_ns()
                try:
                    out = transliterate(sentence)
                except Exception:
                    out = None
                bucket = (clock_ns() - begin) // BUCKET_NS
                histogram[bucket] = histogram.get(bucket, 0) + 1
                if out != expected[index]:
                    failed += 1
                nbytes += sizes[index]
                calls += 1
                index = (index + 1) % len(sentences)
        record = {
            "round_s": (clock_ns() - start) / 1e9,
            "calls": calls,
            "bytes": nbytes,
            "failed": failed,
            "histogram": histogram,
        }
        print(json.dumps(record), flush=True)


def main():
    mode, sentences_path, result_path = sys.argv[1:4]
    with open(sentences_path, encoding="utf-8") as handle:
        sentences = handle.read().split("\n")
    import hawar2sorani

    tracer = Tracer().install() if mode == "trace" else None
    transliterate = hawar2sorani.transliterate
    start = time.perf_counter()
    outputs = []
    for sentence in sentences:
        try:
            outputs.append(transliterate(sentence))
        except Exception:
            outputs.append(None)
    result = {"mode": mode, "outputs": outputs}
    if mode == "loop":
        _rounds(transliterate, sentences, outputs)
    else:
        failed = 0
        for sentence, want in zip(sentences, outputs):
            try:
                failed += transliterate(sentence) != want
            except Exception:
                failed += 1
        result["failed"] = failed
        result["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(result_path + ".trace")
    result["peak_kb"] = _peak_kb()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, ensure_ascii=False)


if __name__ == "__main__":
    main()
