"""Spans recorded from outside the program, at each layer's public entry.

The traced pass replaces a layer's entry point — on the instance where one
object owns it, on the class or module where objects come and go — with a
wrapper that appends ``(name, start, end, parent)`` to an in-memory list.
Nothing is written or aggregated while the run is timed; :meth:`per_op`
folds the list afterwards.  Every replacement is undone by
:meth:`Patcher.restore`, and the untraced pass never imports this module's
wrappers at all, so end-to-end numbers carry none of their cost.
"""

from __future__ import annotations

import sys
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

from benchmarks.perf import spec


class SpanRecorder:
    """In-memory span list plus the few counts taken at the same boundaries."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_index)``; ``parent_index`` is ``-1``
        #: for a span opened directly by the run loop.
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.counts = {"send_batch_links": 0, "send_batch_messages": 0}

    def reset_counts(self) -> None:
        """Start the boundary counts over (called when the timed ops begin)."""
        for key in self.counts:
            self.counts[key] = 0

    def wrap(self, name: str, function: Callable) -> Callable:
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve: children index above their parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        traced.__perf_span__ = name  # lets a test find a wrapper left behind
        return traced

    def per_op(self, ops: list[tuple[float, float]]) -> dict[str, dict[str, float]]:
        """Self time (ms) and calls per op for every span name, over ``ops``.

        ``ops`` are the timed ``(start, end)`` intervals; spans that began
        outside all of them (set-up, warm-up, checks between ops) are left
        out.  A span's self time is its duration minus its direct children;
        ``runner.self`` is the op time no top-level span covers, so the self
        times of one run add up to its op time exactly.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {name: [0.0, 0] for name in spec.SPANS}
        covered = 0.0
        op_index = 0
        for index, (name, start, end, parent) in enumerate(self.spans):
            while op_index < len(ops) and start >= ops[op_index][1]:
                op_index += 1
            if op_index == len(ops):
                break
            if start < ops[op_index][0]:
                continue
            row = totals[name]
            row[0] += end - start - child_time[index]
            row[1] += 1
            if parent < 0:
                covered += end - start
        count = max(1, len(ops))
        op_time = sum(end - start for start, end in ops)
        result = {
            name: {
                "self_ms_per_op": 1000.0 * self_time / count,
                "calls_per_op": calls / count,
            }
            for name, (self_time, calls) in totals.items()
        }
        result[spec.RUNNER_SELF] = {
            "self_ms_per_op": 1000.0 * (op_time - covered) / count
        }
        return result


class Patcher:
    """Attribute replacements that can all be put back."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def replace(self, owner: Any, attribute: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attribute = make(current value)``, remembering the old."""
        original = getattr(owner, attribute)
        shadows_class = not isinstance(owner, (type, ModuleType)) and (
            attribute not in vars(owner)
        )
        setattr(owner, attribute, make(original))
        self._undo.append((owner, attribute, shadows_class, original))

    def replace_function(self, function: Callable, make: Callable) -> None:
        """Rebind a module-level function in every ``repro`` module naming it.

        ``from x import f`` copies the binding, so patching the defining
        module alone would miss every caller that imported the name.
        """
        replacement = make(function)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self.replace(module, attribute, lambda _old: replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, shadows_class, original = self._undo.pop()
            if shadows_class:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def install_network_spans(
    recorder: SpanRecorder, patcher: Patcher, network
) -> None:
    """Spans shared by every workload: send, radio, ledger, flat-tree rewire."""
    from repro.network import FlatTree

    ledger = network.ledger
    counts = recorder.counts

    def count_send_batch(send_batch):
        traced = recorder.wrap("network.send_batch", send_batch)

        def counted(links, sizes, protocol="unknown", require_edge=True):
            before = ledger.total_messages
            try:
                return traced(
                    links, sizes, protocol=protocol, require_edge=require_edge
                )
            finally:
                counts["send_batch_links"] += len(links)
                counts["send_batch_messages"] += ledger.total_messages - before

        return counted

    patcher.replace(network, "send_batch", count_send_batch)
    patcher.replace(
        network.radio,
        "filter_batch",
        lambda f: recorder.wrap("network.radio.filter_batch", f),
    )
    for method in ("charge_batch", "charge_array"):
        patcher.replace(
            ledger, method, lambda f: recorder.wrap("network.accounting.charge", f)
        )
    patcher.replace(
        FlatTree, "rewire", lambda f: recorder.wrap("network.flat_tree.rewire", f)
    )


def install_stream_spans(recorder: SpanRecorder, patcher: Patcher, case) -> None:
    """Wrap the entry points one ``run_faulty_stream`` epoch goes through."""
    from repro.streaming.vector_kernels import sweep_levels

    install_network_spans(recorder, patcher, case.network)
    faults = case.faults
    engine = case.engine
    targets = [
        (faults, "step", "faults.step"),
        (faults.detector, "charge_sweep", "faults.detection.charge_sweep"),
        (faults.repair, "repair", "faults.repair.repair"),
        (faults.election, "elect", "faults.election.elect"),
        (engine, "apply_repair", "streaming.apply_repair"),
        (engine, "apply_root_change", "streaming.apply_repair"),
        (engine, "advance_epoch", "streaming.advance_epoch"),
        (case.network, "attached_items", "faults.runner.truth"),
    ]
    split = getattr(engine, "split", None)
    if split is not None:
        targets.append((split, "split_epoch", "tenancy.split_epoch"))
    if case.telemetry is not None and case.telemetry.attribution is not None:
        targets.append(
            (case.telemetry.attribution, "observe", "telemetry.attribution.observe")
        )
    for owner, attribute, span in targets:
        patcher.replace(
            owner, attribute, lambda f, span=span: recorder.wrap(span, f)
        )
    patcher.replace_function(
        sweep_levels, lambda f: recorder.wrap("streaming.sweep_levels", f)
    )


def install_oneshot_spans(recorder: SpanRecorder, patcher: Patcher, network) -> None:
    """Wrap the tree primitives every one-shot protocol is built from."""
    from repro.protocols import broadcast, convergecast

    install_network_spans(recorder, patcher, network)
    patcher.replace_function(
        broadcast, lambda f: recorder.wrap("protocols.broadcast", f)
    )
    patcher.replace_function(
        convergecast, lambda f: recorder.wrap("protocols.convergecast", f)
    )
