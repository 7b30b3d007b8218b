"""Spans around the library's public functions, recorded from outside it.

``Tracer`` replaces each traced function at every module attribute that
holds it, which is where callers look it up when they call (``from .perm
import arc_set`` binds ``arcdiagrams.words.arc_set``, and so on).  Each
call records a span: name, start, end and parent.  Spans stay in memory;
``layer_metrics`` turns them into per-layer counts and self times, and
``write`` saves them once at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, function, what the result counts): the layer boundaries.
TRACED = (
    ("perm", "all_cyclic_perms", "items"),
    ("perm", "arc_set", None),
    ("perm", "classify", None),
    ("words", "cycle_word", None),
    ("words", "word_of_classes", None),
    ("words", "check_cycle_word", None),
    ("words", "degree_vector", None),
    ("words", "path_steps", None),
    ("inversion", "perms_from_word", "perms_out"),
    ("inversion", "neighbor_candidates", None),
    ("bdiagram", "validate_block_word", "verdict"),
    ("bdiagram", "block_word", None),
    ("bdiagram", "parse_bdiagram", None),
    ("bdiagram", "max_crossing", None),
    ("bdiagram", "complement", None),
    ("generation", "enumerate_generators", "perms_out"),
    ("generation", "complete_table", "perms_out"),
    ("cli", "census_report", None),
    ("cli", "main", None),
)

# name -> stats reported for it; every name appears for every workload.
REPORTED = {
    "perm.all_cyclic_perms": ("items", "self_s"),
    "perm.arc_set": ("calls", "self_s"),
    "perm.classify": ("calls", "self_s"),
    "words.cycle_word": ("calls", "self_s", "us_per_call"),
    "words.word_of_classes": ("self_s",),
    "words.check_cycle_word": ("self_s",),
    "words.degree_vector": ("self_s",),
    "words.path_steps": ("self_s",),
    "inversion.perms_from_word": ("calls", "self_s", "perms_out", "us_per_perm"),
    "inversion.neighbor_candidates": ("self_s",),
    "bdiagram.validate_block_word.reject": ("calls", "self_s"),
    "bdiagram.validate_block_word.accept": ("calls", "self_s"),
    "bdiagram.block_word": ("self_s",),
    "bdiagram.parse_bdiagram": ("self_s",),
    "bdiagram.max_crossing": ("self_s",),
    "bdiagram.complement": ("self_s",),
    "generation.enumerate_generators": ("calls", "self_s", "perms_out", "us_per_perm"),
    "generation.complete_table": ("calls", "self_s", "perms_out", "us_per_perm"),
    "cli.census_report": ("self_s",),
    "cli.main": ("calls", "self_s"),
}

UNITS = {
    "calls": "count",
    "items": "count",
    "perms_out": "count",
    "self_s": "s",
    "us_per_call": "us",
    "us_per_perm": "us",
}

PACKAGE = "arcdiagrams"


class Recorder:
    """Spans in parallel arrays, plus counts of what traced calls returned."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.names)


def self_times(rec: Recorder) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for start, end in zip(rec.starts, rec.ends)]
    result = list(own)
    for index, parent in enumerate(rec.parents):
        if parent >= 0:
            result[parent] -= own[index]
    return result


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Calls, self time, inclusive time and result counts per span name."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for name, start, end, own in zip(rec.names, rec.starts, rec.ends, self_times(rec)):
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
    out: dict[str, float] = {}
    for name, stats in REPORTED.items():
        made = rec.counts.get(f"{name}.perms_out", 0)
        values = {
            "calls": calls[name],
            "items": rec.counts.get(f"{name}.items", 0),
            "self_s": self_s[name],
            "perms_out": made,
            "us_per_call": 1e6 * total_s[name] / calls[name] if calls[name] else 0.0,
            "us_per_perm": 1e6 * total_s[name] / made if made else 0.0,
        }
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


class Tracer:
    """Installs wrappers around TRACED while active, restoring them on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == PACKAGE]
        for module_name, func_name, counted in TRACED:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(module, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counted)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, func, counted):
        rec = self.rec
        if counted == "items":
            return _wrap_generator(rec, name, func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = rec.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                rec.close(index)
            if counted == "perms_out":
                rec.counts[f"{name}.perms_out"] += len(result)
            elif counted == "verdict":
                rec.names[index] = f"{name}.{'accept' if result.ok else 'reject'}"
            return result

        return wrapper


def _wrap_generator(rec: Recorder, name: str, func):
    """Each ``next`` on the generator is a span of its own, under whoever asked."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        inner = func(*args, **kwargs)
        while True:
            index = rec.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.close(index)
            rec.counts[f"{name}.items"] += 1
            yield item

    return wrapper


def write(rec: Recorder, path: Path) -> None:
    """Save the spans as gzipped tab-separated lines: id, parent, name, start, end."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as out:
        out.write("id\tparent\tname\tstart_s\tend_s\n")
        for index, name in enumerate(rec.names):
            out.write(
                f"{index}\t{rec.parents[index]}\t{name}\t"
                f"{rec.starts[index]:.9f}\t{rec.ends[index]:.9f}\n"
            )
