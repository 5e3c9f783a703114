"""Span recorder for the traced run.

The layers are the modules of `sqsig`. Each wrapper goes at the name the
caller binds: `sqsig.register.measure` is the quantum layer's `measure` as
the register layer calls it, `Channel.send_qubits` is patched on the class
that the protocol and detection layers call through, and a function bound
as a default argument (`run_protocol_round(hash_fn=hash_message)`) is
replaced in that default. No file of the package changes.

Spans are kept in memory as flat arrays (name, parent span, start, end)
and turned into per-layer figures after each pass, outside its timing. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("quantum", "register", "parties", "keys", "detection",
          "adversary", "roles", "protocol", "harness")

# (layer, span name, module of the caller's binding, attribute there).
BINDINGS = (
    ("quantum", "measure", "sqsig.register", "measure"),
    ("quantum", "apply_unitary", "sqsig.register", "apply_unitary"),
    ("quantum", "prepare_single", "sqsig.parties", "prepare_single"),
    ("quantum", "prepare_bell", "sqsig.parties", "prepare_bell"),
    ("register", "new_qubit", "sqsig.parties", "new_qubit"),
    ("register", "measure_qubit", "sqsig.parties", "measure_qubit"),
    ("register", "measure_qubit", "sqsig.adversary", "measure_qubit"),
    ("register", "apply_gate", "sqsig.adversary", "apply_gate"),
    ("register", "attach_ancilla", "sqsig.adversary", "attach_ancilla"),
    ("register", "probe_cnot", "sqsig.adversary", "probe_cnot"),
    ("parties", "quantum_party", "sqsig.protocol", "quantum_party"),
    ("parties", "classical_party", "sqsig.protocol", "classical_party"),
    ("parties", "prepare", "sqsig.parties", "Party.prepare"),
    ("parties", "prepare_bell_pair", "sqsig.parties", "Party.prepare_bell_pair"),
    ("parties", "measure", "sqsig.parties", "Party.measure"),
    ("parties", "reflect", "sqsig.parties", "Party.reflect"),
    ("parties", "reorder", "sqsig.parties", "Party.reorder"),
    ("parties", "delay", "sqsig.parties", "Party.delay"),
    ("parties", "classical_compute", "sqsig.parties", "Party.classical_compute"),
    ("keys", "keygen_init", "sqsig.protocol", "keygen_init"),
    ("keys", "compute_g", "sqsig.roles", "compute_g"),
    ("keys", "otp_encrypt", "sqsig.detection", "otp_encrypt"),
    ("keys", "otp_decrypt", "sqsig.detection", "otp_decrypt"),
    ("detection", "build_decoys", "sqsig.roles", "build_decoys"),
    ("detection", "assemble_transmission", "sqsig.roles", "assemble_transmission"),
    ("detection", "run_detection_round", "sqsig.protocol", "run_detection_round"),
    ("adversary", "send_qubits", "sqsig.adversary", "Channel.send_qubits"),
    ("adversary", "send_classical", "sqsig.adversary", "Channel.send_classical"),
    ("roles", "alice_sign", "sqsig.protocol", "alice_sign"),
    ("roles", "trent_receive", "sqsig.protocol", "trent_receive"),
    ("roles", "bob_measure", "sqsig.protocol", "bob_measure"),
    ("roles", "trent_conclude", "sqsig.protocol", "trent_conclude"),
    ("roles", "bob_accept", "sqsig.protocol", "bob_accept"),
    ("roles", "hash_message", "sqsig.protocol", "hash_message"),
    ("protocol", "run_protocol_round", "sqsig.harness", "run_protocol_round"),
    ("harness", "run_trials", "sqsig.harness", "run_trials"),
    ("harness", "emit_report", "sqsig.harness", "emit_report"),
    ("harness", "run_matrix", "sqsig.harness", "run_matrix"),
)

# Modules whose functions may hold a wrapped function as a default argument.
DEFAULT_HOLDERS = ("sqsig.protocol", "sqsig.roles")


def _count_measure(counts, args, result) -> None:
    counts[f"quantum.measure.calls.k{args[0].num_qubits}"] += 1


def _count_round(counts, args, result) -> None:
    ops = len(result.alice.op_log) + len(result.bob.op_log) + len(result.trent.op_log)
    counts["parties.ops"] += ops
    counts["keys.bits_generated"] += len(result.store.key_bits)
    counts["keys.bits_consumed"] += sum(s.stop - s.start for s in result.store.segments)


def _count_detection(counts, args, result) -> None:
    rep = result.report
    counts["detection.decoys_checked"] += (
        rep.bob_z_checked + rep.alice_z_checked + rep.alice_x_checked)


def _count_sent(counts, args, result) -> None:
    counts["adversary.qubits_sent"] += len(args[2])


def _count_report(counts, args, result) -> None:
    counts["harness.report_bytes"] += len(result.encode())


COUNTERS = {
    "quantum.measure": _count_measure,
    "protocol.run_protocol_round": _count_round,
    "detection.run_detection_round": _count_detection,
    "adversary.send_qubits": _count_sent,
    "harness.emit_report": _count_report,
}

COUNT_KEYS = (
    "quantum.measure.calls.k1", "quantum.measure.calls.k2",
    "quantum.measure.calls.k3", "quantum.measure.calls.k4",
    "parties.ops", "keys.bits_generated", "keys.bits_consumed",
    "detection.decoys_checked", "adversary.qubits_sent", "harness.report_bytes",
)


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class SpanRecorder:
    """Installs the wrappers and keeps the spans of the current pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_ix = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self._wrappers: dict[int, object] = {}
        for layer, name, module_name, attr in BINDINGS:
            owner, leaf = _resolve(module_name, attr)
            original = inspect.getattr_static(owner, leaf)
            if id(original) not in self._wrappers:
                full = f"{layer}.{name}"
                self.names.append(full)
                self.layer_of.append(layer)
                self._wrappers[id(original)] = self._wrap(
                    original, len(self.names) - 1, COUNTERS.get(full))

    def _wrap(self, fn, ix: int, counter):
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(counts, args, result)
                return result
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding for the duration of the block, then restore."""
        undo = []
        try:
            for _, _, module_name, attr in BINDINGS:
                owner, leaf = _resolve(module_name, attr)
                original = inspect.getattr_static(owner, leaf)
                setattr(owner, leaf, self._wrappers[id(original)])
                undo.append((owner, leaf, original))
            for module_name in DEFAULT_HOLDERS:
                for fn in vars(importlib.import_module(module_name)).values():
                    defaults = getattr(fn, "__defaults__", None)
                    if inspect.isfunction(fn) and defaults and any(
                            id(d) in self._wrappers for d in defaults):
                        fn.__defaults__ = tuple(
                            self._wrappers.get(id(d), d) for d in defaults)
                        undo.append((fn, "__defaults__", defaults))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def reset(self) -> None:
        for arr in (self.name_ix, self.parent, self.start, self.end):
            del arr[:]
        self.stack[:] = [-1]
        for key in self.counts:
            self.counts[key] = 0

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name_ix, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def pass_figures(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-span totals of the current pass: (times, counts).

        Times are seconds of self time per span name (and of duration for
        `.total_s`); counts are calls per span name plus the counters.
        """
        spans = self.spans()
        k = len(self.names)
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        covered = np.bincount(spans["parent"][has_parent],
                              weights=duration[has_parent], minlength=len(duration))
        self_time = duration - covered
        calls = np.bincount(spans["name"], minlength=k)
        self_by_name = np.bincount(spans["name"], weights=self_time, minlength=k)
        total_by_name = np.bincount(spans["name"], weights=duration, minlength=k)
        times: dict[str, float] = {}
        counts: dict[str, int] = dict(self.counts)
        for i, name in enumerate(self.names):
            times[f"{name}.self_s"] = float(self_by_name[i])
            times[f"{name}.total_s"] = float(total_by_name[i])
            counts[f"{name}.calls"] = int(calls[i])
        return times, counts


def layer_metrics(names: list[str], layer_of: list[str],
                  times: dict[str, float], counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one pass, as name -> (value, unit)."""
    def calls(span: str) -> int:
        return counts.get(f"{span}.calls", 0)

    def self_s(*spans: str) -> float:
        return sum(times.get(f"{s}.self_s", 0.0) for s in spans)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [n for n, lay in zip(names, layer_of) if lay == layer]
        out[f"{layer}.calls"] = (sum(calls(n) for n in mine), "count")
        out[f"{layer}.self_s"] = (self_s(*mine), "s")
    for k in range(1, 5):
        key = f"quantum.measure.calls.k{k}"
        out[key] = (counts[key], "count")
    out["quantum.measure.self_s"] = (self_s("quantum.measure"), "s")
    out["quantum.apply_unitary.calls"] = (calls("quantum.apply_unitary"), "count")
    out["quantum.apply_unitary.self_s"] = (self_s("quantum.apply_unitary"), "s")
    out["register.attach_ancilla.calls"] = (calls("register.attach_ancilla"), "count")
    out["parties.ops"] = (counts["parties.ops"], "count")
    generated, consumed = counts["keys.bits_generated"], counts["keys.bits_consumed"]
    out["keys.bits_generated"] = (generated, "count")
    out["keys.bits_consumed"] = (consumed, "count")
    out["keys.bits_used_ratio"] = (consumed / generated if generated else 0.0, "ratio")
    out["detection.run_detection_round.self_s"] = (
        self_s("detection.run_detection_round"), "s")
    out["detection.decoys_checked"] = (counts["detection.decoys_checked"], "count")
    out["adversary.qubits_sent"] = (counts["adversary.qubits_sent"], "count")
    out["adversary.send_qubits.self_s"] = (self_s("adversary.send_qubits"), "s")
    out["roles.alice_sign.self_s"] = (self_s("roles.alice_sign"), "s")
    out["roles.verify.self_s"] = (self_s("roles.trent_conclude", "roles.bob_accept"), "s")
    out["roles.hash_message.calls"] = (calls("roles.hash_message"), "count")
    rounds = calls("protocol.run_protocol_round")
    out["protocol.rounds"] = (rounds, "count")
    out["protocol.verified_ratio"] = (
        calls("roles.trent_conclude") / rounds if rounds else 0.0, "ratio")
    out["harness.run_trials.self_s"] = (self_s("harness.run_trials"), "s")
    out["harness.emit_report_s"] = (times.get("harness.emit_report.total_s", 0.0), "s")
    out["harness.report_bytes"] = (counts["harness.report_bytes"], "bytes")
    return out
