"""Span tracer that wraps the public entry points of each layer.

The tracer patches names where the program looks them up (a module global
such as ``repro.core.pem.clear_market`` or a method on a class) and records
one span per call: id, parent span, name, start, end, window label, phase,
thread and an optional count.  Spans stay in memory and are written out
once, when the run ends.  Nothing under ``src/`` is edited; uninstalling
restores every original.

Spans are recorded only while ``Tracer.window`` is set, so the untimed
correctness oracle and the untraced half of each pair cost one attribute
read per wrapped call.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import pem
from repro.core.protocols import context as protocol_context
from repro.core.protocols import engine as protocol_engine
from repro.crypto import otext
from repro.crypto.accel import RandomizerPool
from repro.crypto.gc_pool import ComparisonPool
from repro.crypto.paillier import PaillierPrivateKey
from repro.data import traces
from repro.net import transport as net_transport
from repro.net.message import Message
from repro.net.network import SimulatedNetwork

#: Span record layout (a tuple keeps millions of spans cheap to hold).
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "window", "phase", "thread", "value")


def _one(_args: tuple, _result: Any) -> int:
    return 1


def _result_int(_args: tuple, result: Any) -> int:
    return int(result)


def _result_len(_args: tuple, result: Any) -> int:
    return len(result)


def _frame_bytes(args: tuple, _result: Any) -> int:
    # 4-byte length prefix + payload, exactly what ``send_frame`` writes.
    return 4 + len(args[1])


#: (owner, attribute, span name, count extractor).  Owners are the modules
#: or classes the program looks the name up on at call time.
def _entry_points() -> List[Tuple[object, str, str, Optional[Callable]]]:
    engine_cls = protocol_engine.PrivateTradingEngine
    return [
        # data
        (traces, "generate_dataset", "data.generate", None),
        # core (plaintext engine and the helpers both engines share)
        (pem.PlainTradingEngine, "run_window", "core.engine", None),
        (pem, "states_for_window", "core.states", None),
        (pem, "form_coalitions", "core.coalitions", None),
        (pem, "grid_only_window", "core.coalitions", None),
        (pem, "solve_stackelberg", "core.pricing", None),
        (pem, "clear_market", "core.clearing", _one),
        (pem, "assemble_market_result", "core.assemble", None),
        (pem, "assemble_no_market_result", "core.assemble", None),
        # core.protocols
        (engine_cls, "run_window", "protocols.engine", None),
        (engine_cls, "build_network", "net.setup", None),
        (protocol_engine, "form_coalitions", "core.coalitions", None),
        (protocol_engine, "grid_only_window", "core.coalitions", None),
        (protocol_engine, "assemble_market_result", "core.assemble", None),
        (protocol_engine, "assemble_no_market_result", "core.assemble", None),
        (protocol_engine, "run_market_evaluation", "protocols.evaluation", None),
        (protocol_engine, "run_private_pricing", "protocols.pricing", None),
        (protocol_engine, "run_private_distribution", "protocols.distribution", None),
        (protocol_context.ProtocolContext, "__init__", "protocols.context", None),
        # crypto
        (protocol_context, "generate_keypair", "crypto.keygen", _one),
        (otext, "establish_correlation", "crypto.base_ot", None),
        (RandomizerPool, "refill", "crypto.obfuscator", _result_int),
        (RandomizerPool, "stock", "crypto.obfuscator", _result_int),
        (RandomizerPool, "encrypt", "crypto.encrypt", _one),
        (PaillierPrivateKey, "decrypt", "crypto.decrypt", _one),
        (PaillierPrivateKey, "decrypt_many", "crypto.decrypt", _result_len),
        (ComparisonPool, "refill", "crypto.gc.prepare", _result_int),
        (protocol_context, "prepared_less_than", "crypto.gc.online", None),
        # net
        (SimulatedNetwork, "deliver", "net.deliver", _one),
        (SimulatedNetwork, "close", "net.close", None),
        (Message, "byte_size", "net.byte_size", _result_int),
        # net.transport
        (net_transport.LocalTransport, "deliver", "transport.deliver", None),
        (net_transport.SocketTransport, "__init__", "transport.lifecycle", None),
        (net_transport.SocketTransport, "close", "transport.lifecycle", None),
        (net_transport.SocketTransport, "deliver", "transport.deliver", None),
        (net_transport, "send_frame", "transport.frame", _frame_bytes),
    ]


class Tracer:
    """Records spans around the layers' entry points while installed.

    ``window`` and ``phase`` label every span recorded while they are set;
    the benchmark sets them around the code it wants traced.  The span
    buffer is shared with ``SocketTransport``'s receiver thread (which runs
    wrapped code), so every append holds ``_lock``.
    """

    def __init__(self) -> None:
        self.window: Optional[object] = None
        self.phase: str = ""
        self._spans: List[tuple] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: List[Tuple[object, str, Any]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        for owner, attribute, name, counter in _entry_points():
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, counter))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            window = tracer.window
            if window is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = counter(args, result) if counter is not None else None
            record = (
                span_id, parent, name, start, end, window, tracer.phase,
                threading.get_ident(), value,
            )
            with tracer._lock:
                tracer._spans.append(record)
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def spans(self) -> List[tuple]:
        with self._lock:
            return list(self._spans)

    def write_jsonl(self, path: str) -> int:
        """Write the spans as gzipped JSON lines; returns the span count.

        The first line names the fields; every further line is one span as
        a JSON array in that order.
        """
        spans = self.spans()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(SPAN_FIELDS) + "\n")
            for record in spans:
                handle.write(json.dumps(record) + "\n")
        return len(spans)


class SpanSummary:
    """Per-name totals over a set of spans: calls, busy time, self time.

    Busy time is the summed duration of a name's spans; self time subtracts
    the time their child spans cover.  Children run on the parent's thread
    and never overlap each other, so covered time is the sum of child
    durations.  Spans on other threads (``SocketTransport``'s receiver) are
    roots of their own and are counted only through their values.
    """

    def __init__(self, spans: List[tuple]) -> None:
        child_time: Dict[int, float] = defaultdict(float)
        for _id, parent, _name, start, end, *_rest in spans:
            if parent:
                child_time[parent] += end - start
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.value: Dict[str, int] = defaultdict(int)
        self.parent_name: Dict[int, str] = {}
        names = {record[0]: record[2] for record in spans}
        for span_id, parent, name, start, end, _w, _p, _t, value in spans:
            duration = end - start
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += duration - child_time[span_id]
            if value is not None:
                self.value[name] += value
            if parent:
                self.parent_name[span_id] = names.get(parent, "")
        self._spans = spans

    def value_under(self, name: str, parent: str) -> Tuple[int, int]:
        """(calls, summed value) of ``name`` spans whose parent is ``parent``."""
        calls = total = 0
        for span_id, _parent, span_name, *_rest, value in self._spans:
            if span_name == name and self.parent_name.get(span_id) == parent:
                calls += 1
                total += value or 0
        return calls, total
