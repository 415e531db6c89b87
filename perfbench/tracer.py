"""Layer tracing from outside the package.

The tracer replaces, in every loaded ``hawar2sorani`` module, the names
through which one module calls into another, so the package's source is
left untouched. Coarse calls become spans (name, parent, start, end):
the front end (``cli.run`` or the library's ``transliterate``), the engine
entry ``transliterate_text`` and ``default_rules``. Calls made millions of
times per run (each item of ``token_runs``, ``lookup``, ``fold_word``,
``map_symbols``) are folded into their enclosing span as a call count, a
total time and a count of non-None results, which keeps memory bounded.
A name the package no longer has is skipped and reports zero calls.

A span's self time is its duration minus the time its child spans and
folded calls cover.
"""

import json
import sys
from time import perf_counter

FRONT_END = ("run", "transliterate")  # cli.run and the package's transliterate
SPANS = FRONT_END + ("transliterate_text", "default_rules")
FOLDED_CALLS = ("lookup", "fold_word", "map_symbols")
FOLDED_ITERATORS = ("token_runs",)


class Tracer:
    def __init__(self):
        # Each span is [name, parent index or -1, start, end, folded], where
        # folded maps a folded call's name to [calls, seconds, non-None].
        self.spans = []
        self._open = []  # indices of the spans not yet ended
        self._root = {}  # folded calls made outside any span
        self._patched = []  # (module, attribute, original)

    def install(self, package="hawar2sorani"):
        """Wrap the traced names in every loaded module of ``package``."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        makers = {name: self._span for name in SPANS}
        makers.update({name: self._call for name in FOLDED_CALLS})
        makers.update({name: self._iterator for name in FOLDED_ITERATORS})
        for name, make in makers.items():
            wrappers = {}
            for module in modules:
                original = module.__dict__.get(name)
                if not callable(original) or isinstance(original, type):
                    continue
                # One wrapper per function object, shared by every module
                # that imported it.
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = wrappers[id(original)] = make(name, original)
                setattr(module, name, wrapper)
                self._patched.append((module, name, original))
        return self

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, perf_counter(), None, {}])
        self._open.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self._open.pop()][3] = perf_counter()

    def _folded(self, name):
        folded = self.spans[self._open[-1]][4] if self._open else self._root
        entry = folded.get(name)
        if entry is None:
            entry = folded[name] = [0, 0.0, 0]
        return entry

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()

        return wrapper

    def _call(self, name, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            entry = self._folded(name)
            entry[0] += 1
            entry[1] += elapsed
            if result is not None:
                entry[2] += 1
            return result

        return wrapper

    def _iterator(self, name, fn):
        # Times each next(); calls counts items, non-None counts iterators.
        def wrapper(*args, **kwargs):
            start = perf_counter()
            iterator = iter(fn(*args, **kwargs))
            entry = self._folded(name)
            entry[2] += 1
            entry[1] += perf_counter() - start
            while True:
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    entry[1] += perf_counter() - start
                    return
                entry[1] += perf_counter() - start
                entry[0] += 1
                yield item

        return wrapper

    def layers(self):
        """Per-layer totals computed from the spans."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, folded in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}

        def add(key, value):
            totals[key] = totals.get(key, 0) + value

        folded_all = [self._root] + [span[4] for span in self.spans]
        for index, (name, parent, start, end, folded) in enumerate(self.spans):
            duration = end - start
            self_s = duration - child_time[index] - sum(e[1] for e in folded.values())
            if name in FRONT_END:
                add("cli.self_s", self_s)
            elif name == "transliterate_text":
                add("engine.self_s", self_s)
                add("engine.calls", 1)
                if parent >= 0 and self.spans[parent][0] in FRONT_END:
                    add("cli.batches", 1)
            elif name == "default_rules":
                add("rules.default_rules_s", duration)
        for folded in folded_all:
            for name, (calls, seconds, non_none) in folded.items():
                add(name + ".calls", calls)
                add(name + ".seconds", seconds)
                add(name + ".non_none", non_none)
        return {
            "cli.self_s": totals.get("cli.self_s", 0.0),
            "cli.batches": totals.get("cli.batches", 0),
            "engine.self_s": totals.get("engine.self_s", 0.0),
            "engine.calls": totals.get("engine.calls", 0),
            "engine.symbols_s": totals.get("map_symbols.seconds", 0.0),
            "engine.fold_s": totals.get("fold_word.seconds", 0.0),
            "engine.word_misses": totals.get("fold_word.calls", 0),
            "scanner.self_s": totals.get("token_runs.seconds", 0.0),
            "scanner.tokens": totals.get("token_runs.calls", 0),
            "rules.lookup_s": totals.get("lookup.seconds", 0.0),
            "rules.lookups": totals.get("lookup.calls", 0),
            "rules.lookup_matches": totals.get("lookup.non_none", 0),
            "rules.default_rules_s": totals.get("rules.default_rules_s", 0.0),
        }

    def dump(self, path):
        """Write the spans and the per-layer totals as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": self.layers(), "root": self._root, "spans": self.spans}, handle)

