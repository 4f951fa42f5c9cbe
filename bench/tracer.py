"""Traced run of one appcap command, for the benchmark's per-layer metrics.

    python3 bench/tracer.py SPANS.json -- <appcap arguments>

Calls ``appcap.cli.main(argv)`` in this process with timing wrappers around
every public function that ``appcap.cli`` imports from another appcap module
(the layer is that module's name) and around ``FlowTable.classify``. Each
wrapper replaces the function in every appcap module that holds it, so a
call from one layer into another is a child span, not double-counted time.
Per-packet ``classify`` calls are folded into one span per capture (per
``FlowTable``) holding a call count and total time.

Spans and counters stay in memory and are written to SPANS.json when the
command ends, with the names of the boundaries that were wrapped. A boundary
that no longer exists is simply not wrapped rather than failing the run;
``bench/run.py`` names the metrics that read 0 for it.
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _length(seq) -> int:
    try:
        return len(seq)
    except TypeError:
        return 0


def _packets_in(args: tuple, kwargs: dict) -> int:
    """Packets handed to an analytics call: a packet list, or (label, list) pairs."""
    total = 0
    for arg in (*args, *kwargs.values()):
        if not isinstance(arg, (list, tuple)) or not arg:
            continue
        head = arg[0]
        if isinstance(head, tuple) and len(head) == 2:
            total += sum(_length(pkts) for _, pkts in arg)
        elif hasattr(head, "record"):
            total += len(arg)
    return total


class Tracer:
    """Span recorder: one instance per traced command."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent_counters: set[str] = set()
        self.wrapped: set[str] = set()
        self._table = None  # FlowTable of the capture being classified
        self._table_span: dict | None = None
        self._acc = [0, 0, 0]  # its busy ns, calls and last end ns

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, layer: str, name: str, fn, after=None):
        """Time ``fn`` as a span; ``after(args, kwargs, result)`` counts work."""

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self.stack[-1] if self.stack else None,
                "layer": layer,
                "name": name,
            }
            self.spans.append(span)
            self.stack.append(span["id"])
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                span.update(start_ns=start, end_ns=end, busy_ns=end - start, calls=1)
            if after is not None:
                try:
                    after(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    self.absent_counters.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_classify(self, fn):
        """Fold per-packet calls into one span per FlowTable (capture).

        The per-call bookkeeping runs outside the timed interval, in the
        caller's self time, so it is kept to a few list updates.
        """
        clock = time.perf_counter_ns

        def classify(table, record):
            start = clock()
            result = fn(table, record)
            end = clock()
            acc = self._acc
            if table is not self._table:
                acc = self._open_table(table, start)
            acc[0] += end - start
            acc[1] += 1
            acc[2] = end
            return result

        classify.__wrapped__ = fn
        return classify

    def _open_table(self, table, start: int) -> list[int]:
        self._close_table()
        self._table, self._acc = table, [0, 0, start]
        self._table_span = {
            "id": len(self.spans),
            "parent": self.stack[-1] if self.stack else None,
            "layer": "classify",
            "name": "FlowTable.classify",
            "start_ns": start,
        }
        self.spans.append(self._table_span)
        return self._acc

    def _close_table(self) -> None:
        table, self._table = self._table, None
        if table is None:
            return
        busy, calls, end = self._acc
        self._table_span.update(busy_ns=busy, calls=calls, end_ns=end)
        self.count("classify.calls", calls)
        try:
            states = table.states.values()
            self.count("classify.flows", len(states))
            self.count("classify.tls_flows_unresolved", sum(1 for s in states if _unresolved(s)))
        except AttributeError:
            self.absent_counters.add("FlowTable.states")
        else:
            self.wrapped.add("FlowTable.states")

    def finish(self) -> None:
        self._close_table()


def _unresolved(state) -> bool:
    """A TLS or DoT flow whose version never resolved (reported as ``SSL``)."""
    protocol = state.last_protocol
    return (
        protocol is not None
        and protocol.tag.name in ("TLS", "DOT")
        and protocol.tls_version is not None
        and protocol.tls_version.name == "UNKNOWN"
    )


def _counting_hooks(tracer: Tracer) -> dict:
    def read_capture(args, kwargs, stream):
        tracer.count("ingest.bytes", len(args[0]) if args else len(kwargs["data"]))
        tracer.count("ingest.frames", len(stream.frames))

    def decode_stream(args, kwargs, records):
        tracer.count("ingest.records", len(records))

    def scan_directory(args, kwargs, manifest):
        tracer.count("dataset.captures", len(manifest.entries))

    def make_envelope(args, kwargs, envelope):
        inputs = args[1] if len(args) > 1 else kwargs["inputs"]
        tracer.count("reports.bytes_hashed", sum(Path(p).stat().st_size for p in inputs))

    def write_envelope(args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        if path is not None:
            tracer.count("reports.json_bytes", Path(path).stat().st_size)

    return {
        "read_capture": read_capture,
        "decode_stream": decode_stream,
        "scan_directory": scan_directory,
        "make_envelope": make_envelope,
        "write_envelope": write_envelope,
    }


def _analytics_hook(tracer: Tracer):
    def after(args, kwargs, result):
        # Count only the outermost analytics call; nested ones see the same packets.
        if not tracer.stack or tracer.spans[tracer.stack[-1]]["layer"] != "analytics":
            tracer.count("analytics.packets_in", _packets_in(args, kwargs))

    return after


def install(tracer: Tracer) -> None:
    """Wrap the boundaries that exist; ``tracer.wrapped`` names them."""
    import appcap
    import appcap.cli as cli

    modules = [m for n, m in sys.modules.items() if n == "appcap" or n.startswith("appcap.")]
    hooks = _counting_hooks(tracer)
    analytics_after = _analytics_hook(tracer)
    for name, fn in list(vars(cli).items()):
        module = getattr(fn, "__module__", "") or ""
        if not isinstance(fn, types.FunctionType) or not module.startswith("appcap.") or module == cli.__name__:
            continue
        layer = module.rsplit(".", 1)[1]
        after = analytics_after if layer == "analytics" else hooks.get(name)
        traced = tracer.wrap(layer, name, fn, after)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
        tracer.wrapped.add(name)

    flow_table = getattr(sys.modules.get("appcap.classify"), "FlowTable", None)
    if flow_table is not None and isinstance(getattr(flow_table, "classify", None), types.FunctionType):
        flow_table.classify = tracer.wrap_classify(flow_table.classify)
        tracer.wrapped.add("FlowTable.classify")
    if not Path(appcap.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tracer: imported appcap from {appcap.__file__}, not {SRC}")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    out = Path(argv[0])
    sys.path.insert(0, str(SRC))
    import appcap.cli as cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter_ns()
    code = cli.main(argv[2:])
    main_ns = time.perf_counter_ns() - start
    tracer.finish()
    out.write_text(
        json.dumps(
            {
                "argv": argv[2:],
                "exit_code": code,
                "main_ns": main_ns,
                "wrapped": sorted(tracer.wrapped),
                "absent_counters": sorted(tracer.absent_counters),
                "counters": tracer.counters,
                "spans": tracer.spans,
            }
        )
    )
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
