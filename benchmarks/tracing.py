"""Spans around the library's public calls, for the traced run only.

``Tracer.install`` replaces each traced function with a wrapper in every
``zoneldp`` module that binds it, and each oracle class's
``perturb_batch``/``aggregate`` with a wrapper on the class;
``uninstall`` puts the originals back. Untraced passes run with nothing
installed.

A span is (name, start, end, parent span, round id). Spans are kept in
memory in flat columns and written out when the run ends. A span's self
time is its duration minus the durations of its direct children; calls
nest strictly because every workload is single-threaded.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from zoneldp import cli, dataio, metrics, oracles, simulator, zoning
from zoneldp.domain import MECHANISMS
from zoneldp.oracles import hashing

# (module, function name, span name); the span name is the metric stem
TRACED_FUNCTIONS = (
    (cli, "main", "cli.main"),
    (simulator, "run_sweep", "simulator.run_sweep"),
    (simulator, "run_round", "simulator.run_round"),
    (simulator, "summarize", "simulator.summarize"),
    (simulator, "write_results", "simulator.write_results"),
    (zoning, "build_zone_table", "zoning.build_zone_table"),
    (zoning, "assign_zones", "zoning.assign_zones"),
    (dataio, "synth_population", "dataio.synth_population"),
    (hashing, "family_member_seed", "oracles.hashing.family_member_seed"),
    (hashing, "hash_bucket_array", "oracles.hashing.hash_bucket_array"),
    (metrics, "metric_report", "metrics.metric_report"),
)


def batch_nbytes(batch) -> int:
    """Bytes held by the numpy arrays of a report batch."""
    fields = (
        vars(batch).values()
        if not dataclasses.is_dataclass(batch)
        else (getattr(batch, f.name) for f in dataclasses.fields(batch))
    )
    return sum(int(v.nbytes) for v in fields if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.round = array("q")
        self._stack: list = []
        self.round_id = -1
        self.hold_round = False  # set while a workload owns the round id
        self.counters = defaultdict(int)
        self._patches: list = []
        # oracle class -> mechanism name, found before anything is wrapped
        self._classes: dict = {}
        for mech in MECHANISMS:
            self._classes.setdefault(type(oracles.make_mechanism(mech, 8, 1.0)), mech)

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_round(self) -> None:
        self.round_id += 1

    def _wrap(self, fn, name_of, after=None, new_round=False):
        """Wrap ``fn`` in a span; ``name_of`` is the span name or a function of the args."""
        static = None if callable(name_of) else self._name_id(name_of)
        name_col, parent_col, round_col = self.name_id, self.parent, self.round
        start_col, end_col, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_round and not self.hold_round:
                self.round_id += 1
            idx = len(start_col)
            name_col.append(static if static is not None else self._name_id(name_of(args)))
            parent_col.append(stack[-1] if stack else -1)
            round_col.append(self.round_id)
            end_col.append(0.0)
            stack.append(idx)
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- installing -----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every zoneldp module-level binding of ``original`` at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "zoneldp" or mod_name.startswith("zoneldp.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, span in TRACED_FUNCTIONS:
            fn = getattr(module, attr)
            after = self._count_lookups if span == "zoning.assign_zones" else None
            self._rebind(fn, self._wrap(fn, span, after,
                                        new_round=span == "simulator.run_round"))
        make = oracles.make_mechanism
        self._rebind(make, self._wrap(make, lambda a: f"oracles.{a[0]}.make"))

        for cls, mech in self._classes.items():
            for method in ("perturb_batch", "aggregate"):
                original = cls.__dict__[method]
                after_fn = self._count_reports(mech) if method == "perturb_batch" else None
                wrapper = self._wrap(original, f"oracles.{mech}.{method}", after_fn)
                setattr(cls, method, wrapper)
                self._patches.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _count_lookups(self, args, result) -> None:
        _, insufficient, unmatched = result
        self.counters["zoning.lookups"] += len(args[1])
        self.counters["zoning.insufficient"] += insufficient
        self.counters["zoning.unmatched"] += unmatched

    def _count_reports(self, mech):
        def after(args, batch):
            self.counters[f"oracles.{mech}.reports"] += int(batch.n_reports)
            self.counters[f"oracles.{mech}.report_bytes"] += batch_nbytes(batch)

        return after

    # -- reading --------------------------------------------------------

    def mark(self) -> int:
        return len(self.start)

    def columns(self, lo: int = 0, hi: int = None):
        """Spans [lo, hi) as arrays: name ids, durations and self times."""
        hi = len(self.start) if hi is None else hi
        # slicing copies, so no numpy view pins the growing arrays
        name_id = np.frombuffer(self.name_id[lo:hi], dtype=np.int32)
        start = np.frombuffer(self.start[lo:hi], dtype=np.float64)
        end = np.frombuffer(self.end[lo:hi], dtype=np.float64)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int64)
        duration = end - start
        inside = parent >= lo
        child = np.bincount(parent[inside] - lo, weights=duration[inside],
                            minlength=hi - lo)
        return name_id, duration, duration - child

    def totals(self, lo: int, hi: int) -> dict:
        """Per span name over [lo, hi): {name: (calls, seconds, self seconds)}."""
        name_id, duration, self_time = self.columns(lo, hi)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        secs = np.bincount(name_id, weights=duration, minlength=k)
        selfs = np.bincount(name_id, weights=self_time, minlength=k)
        return {self.names[i]: (int(calls[i]), float(secs[i]), float(selfs[i]))
                for i in range(k) if calls[i]}

    def durations(self, name: str, ranges) -> np.ndarray:
        """Durations of every span called ``name`` inside the given index ranges."""
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0)
        out = []
        for lo, hi in ranges:
            name_id, duration, _ = self.columns(lo, hi)
            out.append(duration[name_id == nid])
        return np.concatenate(out) if out else np.zeros(0)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            round=np.array(self.round, dtype=np.int64),
        )
