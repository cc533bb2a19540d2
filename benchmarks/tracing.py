"""Span tracing of the usnc layers, installed by the benchmark only.

``Tracer.installed()`` replaces each public layer function named in
``WRAP_POINTS`` with a wrapper, at the attribute its callers look it up
through (``usnc.protocol.preimage_sample`` is the name ``alice_commit``
calls, ``LinearCode.contains`` the method every caller uses), and restores
the originals on exit. Each wrapped call records a span (name, start, end,
parent span) in flat arrays; nothing is written until the run ends.

A span's self time is its duration minus the durations of its direct
children, so self times over all spans sum to the root spans' wall time.
The wrapper's own bookkeeping lands in the caller's self time; the run
reports it as ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

from usnc import adversary, channel, entropy, gf2, hashing, oracle, protocol

LAYERS = ("gf2", "hashing", "channel", "entropy", "protocol", "adversary",
          "oracle")


def _hiding_cells(a) -> int:
    """Cells of the two exact view joints (one per message)."""
    cfg, view = a["cfg"], a["strategy"].view_channel
    seeds = hashing.count_full_rank(cfg.code.k, cfg.hash_m)
    return 2 * seeds * (1 << cfg.hash_m) * (1 << (cfg.n - cfg.code.k)) \
        * view.view_size


# (owner, attribute, span name, computed count: (name, fn of bound args))
WRAP_POINTS = (
    (gf2.LinearCode, "encode", "gf2.encode", None),
    (gf2.LinearCode, "contains", "gf2.contains", None),
    (gf2.LinearCode, "min_distance_exact", "gf2.min_distance",
     ("gf2.min_distance.words", lambda a: (1 << a["self"].k) - 1)),
    (gf2, "random_linear_code", "gf2.random_code", None),
    (hashing, "gf2_solution_space", "gf2.solution_space", None),
    (hashing, "gf2_rank", "gf2.rank", None),
    (protocol, "sample_seed", "hashing.sample_seed", None),
    (protocol, "preimage_sample", "hashing.preimage_sample", None),
    (protocol, "hash_codeword", "hashing.hash_codeword", None),
    (adversary, "hash_codeword", "hashing.hash_codeword", None),
    (hashing, "enumerate_full_rank_seeds", "hashing.enumerate_seeds", None),
    (adversary, "enumerate_full_rank_seeds", "hashing.enumerate_seeds", None),
    (oracle, "enumerate_full_rank_seeds", "hashing.enumerate_seeds", None),
    (protocol, "bsc_transmit", "channel.bsc_transmit",
     ("channel.bsc_transmit.bits", lambda a: len(a["x"]))),
    (protocol, "typical_membership", "channel.typical_membership", None),
    (channel, "bsc_law_dense", "channel.bsc_law_dense",
     ("channel.bsc_law_dense.bytes", lambda a: 8 << a["n"])),
    (channel.BobChannel, "joint_with_uniform_input", "channel.joint", None),
    (channel, "check_c2", "channel.check", None),
    (channel, "check_c3", "channel.check", None),
    (channel, "typicality_tail_exact", "channel.tail_exact", None),
    (oracle, "typicality_tail_exact", "channel.tail_exact", None),
    (channel, "smooth_min_entropy", "entropy.smooth_min_entropy", None),
    (channel, "smooth_cond_min_entropy", "entropy.smooth_cond_min_entropy",
     None),
    (entropy, "cond_min_entropy", "entropy.cond_min_entropy", None),
    (oracle, "cond_min_entropy", "entropy.cond_min_entropy", None),
    (entropy, "min_entropy", "entropy.min_entropy", None),
    (oracle, "min_entropy", "entropy.min_entropy", None),
    (adversary, "gtd", "entropy.gtd", None),
    (oracle, "gtd", "entropy.gtd", None),
    (protocol, "estimate_completeness", "protocol.estimate_completeness",
     None),
    (protocol, "run_honest", "protocol.run_honest", None),
    (protocol, "alice_commit", "protocol.alice_commit", None),
    (protocol, "bob_verify", "protocol.bob_verify", None),
    (adversary, "binding_success", "adversary.binding_exact",
     ("adversary.binding.atoms", lambda a: len(a["strategy"].atoms))),
    (adversary, "midpoint_attack", "adversary.midpoint_attack", None),
    (adversary, "hiding_advantage", "adversary.hiding_exact",
     ("adversary.hiding.cells", _hiding_cells)),
    (oracle, "verify_intersection_bound", "oracle.intersection",
     ("oracle.intersection.strings", lambda a: (a["n"] + 1) << a["n"])),
    (oracle, "clipped_bsc_construction", "oracle.clipped",
     ("oracle.clipped.pairs",
      lambda a: 1 << (2 * a["n"]) if a["with_conditional"] else 0)),
    (oracle, "lhl_check", "oracle.lhl", None),
)

# per-layer metrics the traced run reports: name -> (unit, better)
_CALLS_AND_SELF = ("gf2.encode", "gf2.contains", "gf2.solution_space",
                   "gf2.rank", "gf2.min_distance", "hashing.sample_seed",
                   "hashing.preimage_sample", "hashing.hash_codeword",
                   "channel.bsc_transmit", "channel.typical_membership",
                   "channel.bsc_law_dense", "channel.check",
                   "protocol.alice_commit", "protocol.bob_verify",
                   "protocol.run_honest", "adversary.binding_exact")
_SELF_ONLY = ("hashing.enumerate_seeds", "channel.tail_exact",
              "entropy.smooth_min_entropy", "entropy.cond_min_entropy",
              "entropy.smooth_cond_min_entropy", "entropy.gtd",
              "adversary.midpoint_attack", "adversary.hiding_exact",
              "oracle.intersection", "oracle.clipped", "oracle.lhl")
_COUNTS = {"gf2.min_distance.words": "count",
           "channel.bsc_transmit.bits": "bits",
           "channel.bsc_law_dense.bytes": "bytes",
           "adversary.binding.atoms": "count",
           "adversary.hiding.cells": "count",
           "oracle.intersection.strings": "count",
           "oracle.clipped.pairs": "count"}

PER_LAYER_METRICS = {}
for _fn in _CALLS_AND_SELF:
    PER_LAYER_METRICS[_fn + ".calls"] = ("count", "lower")
    PER_LAYER_METRICS[_fn + ".self_s"] = ("s", "lower")
for _fn in _SELF_ONLY:
    PER_LAYER_METRICS[_fn + ".self_s"] = ("s", "lower")
for _name, _unit in _COUNTS.items():
    PER_LAYER_METRICS[_name] = (_unit, "lower")
PER_LAYER_METRICS["hashing.sample_seed.accept_ratio"] = ("ratio", "higher")
PER_LAYER_METRICS["protocol.reject_ratio"] = ("ratio", "lower")
for _layer in LAYERS:
    PER_LAYER_METRICS[_layer + ".self_s"] = ("s", "lower")
    PER_LAYER_METRICS[_layer + ".share"] = ("ratio", "lower")
PER_LAYER_METRICS["trace.overhead_frac"] = ("ratio", "lower")


class Tracer:
    """In-memory span recorder with install/remove of the layer wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts = {name: 0 for name in _COUNTS}
        self._stack: list[int] = []
        self._patches: list = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, owner, attr: str, name: str, count) -> None:
        original = getattr(owner, attr)
        if count is None:
            def traced(*args, **kwargs):
                idx = self._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(idx)
        else:
            count_name, count_fn = count
            sig = inspect.signature(original)

            def traced(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[count_name] += count_fn(bound.arguments)
                idx = self._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(idx)
        functools.update_wrapper(traced, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextmanager
    def installed(self):
        """Wrap every point in WRAP_POINTS; restore the originals on exit."""
        try:
            for owner, attr, name, count in WRAP_POINTS:
                self._wrap(owner, attr, name, count)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays, plus the name table."""
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy()}

    def totals(self) -> dict:
        """Per span name: calls and summed self time; plus root wall time.

        Self time is a span's duration minus its direct children's.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child],
                              minlength=dur.size)
        nid = a["name_id"]
        calls = np.bincount(nid, minlength=len(self.names))
        selfs = np.bincount(nid, weights=dur - covered,
                            minlength=len(self.names))
        wall = float(dur[~child].sum())
        by_name = {name: {"calls": int(calls[i]), "self_s": float(selfs[i])}
                   for i, name in enumerate(self.names)}
        return {"wall_s": wall, "spans": int(nid.size), "by_name": by_name}

    def child_calls(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        a = self.arrays()
        is_child = a["name_id"] == self._ids[child]
        parents = a["parent"][is_child]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(
            a["name_id"][parents] == self._ids[parent]))


def per_layer_metrics(tracer: Tracer, reject_ratio: float,
                      overhead_frac: float) -> tuple[dict, dict]:
    """The PER_LAYER_METRICS values, and the per-layer self-time table."""
    tot = tracer.totals()
    by_name, wall = tot["by_name"], tot["wall_s"]
    empty = {"calls": 0, "self_s": 0.0}
    values = {}
    for fn in _CALLS_AND_SELF:
        values[fn + ".calls"] = by_name.get(fn, empty)["calls"]
    for fn in _CALLS_AND_SELF + _SELF_ONLY:
        values[fn + ".self_s"] = by_name.get(fn, empty)["self_s"]
    values.update(tracer.counts)
    rank_checks = tracer.child_calls("gf2.rank", "hashing.sample_seed")
    seeds = by_name.get("hashing.sample_seed", empty)["calls"]
    values["hashing.sample_seed.accept_ratio"] = \
        seeds / rank_checks if rank_checks else 0.0
    values["protocol.reject_ratio"] = reject_ratio
    layer_self = {}
    for name, row in by_name.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    for layer in LAYERS:
        values[layer + ".self_s"] = layer_self.get(layer, 0.0)
        values[layer + ".share"] = layer_self.get(layer, 0.0) / wall
    values["trace.overhead_frac"] = overhead_frac
    if set(values) != set(PER_LAYER_METRICS):
        raise RuntimeError("per-layer metrics out of step with the table")
    return values, {"wall_s": wall, "spans": tot["spans"],
                    "layer_self_s": layer_self, "by_name": by_name}
