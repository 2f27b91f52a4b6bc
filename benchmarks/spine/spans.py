"""Outside-in spans: the benchmark's own tracing of calls into each layer.

Spans are recorded by the benchmark only — around the calls a workload
makes itself (``with spans.span("analyzer.parse"): ...``) and by timing
wrappers set on *instances* the workload owns (``spans.wrap(model,
"modify", "datalog.maintain")``).  Nothing under ``src/`` is edited; a
span name's first dotted segment is the ``src/repro`` package the call
went into.  Each row is ``[name, start, end, parent, op, value]``; a
span's self time is its duration minus its children's durations.

The untraced run uses :data:`NULL_SPANS`, whose ``span`` returns one
shared do-nothing context manager and whose ``wrap`` installs nothing,
so tracing cannot leak into the end-to-end numbers.
"""

import json
import time

NAME, START, END, PARENT, OP, VALUE = range(6)
#: Root span of one operation; its self time is benchmark glue that no
#: layer accounts for.
GLUE_LAYER = "bench"
ROOT = f"{GLUE_LAYER}.op"


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class NullSpans:
    """The untraced recorder: records nothing, wraps nothing."""

    enabled = False
    rows = ()

    def span(self, name):
        return _NULL_SPAN

    def wrap(self, owner, attr, name, value=None):
        pass


NULL_SPANS = NullSpans()


class _Span:
    __slots__ = ("recorder", "name", "row")

    def __init__(self, recorder, name):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        recorder = self.recorder
        stack = recorder._stack
        if not stack:
            recorder.op += 1
        self.row = row = [self.name, 0.0, 0.0,
                          stack[-1] if stack else -1, recorder.op, None]
        stack.append(len(recorder.rows))
        recorder.rows.append(row)
        row[START] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.row[END] = time.perf_counter()
        self.recorder._stack.pop()
        return False


class Spans:
    """In-memory span recorder for the single client thread."""

    enabled = True

    def __init__(self):
        self.rows = []
        self._stack = []
        #: Index of the operation whose root span is open (or last was).
        self.op = -1

    def span(self, name):
        return _Span(self, name)

    def reset(self):
        """Forget everything recorded so far (set-up's spans); only
        valid between operations, when no span is open."""
        self.rows.clear()
        self.op = -1

    def wrap(self, owner, attr, name, value=None):
        """Time every call of ``owner.attr`` as a span called *name*.

        *value* maps the call's result to the number stored on the row
        (how many repairs, whether a touch converted).
        """
        inner = getattr(owner, attr)

        def timed(*args, **kwargs):
            with _Span(self, name) as span:
                result = inner(*args, **kwargs)
                if value is not None:
                    span.row[VALUE] = value(result)
            return result

        setattr(owner, attr, timed)

    # -- analysis --------------------------------------------------------------

    def self_seconds(self):
        """Per row: duration minus the durations of its direct children."""
        rows = self.rows
        own = [row[END] - row[START] for row in rows]
        for row in rows:
            if row[PARENT] >= 0:
                own[row[PARENT]] -= row[END] - row[START]
        return own

    def by_name(self):
        """name -> {count, total_s, self_s} over every recorded span."""
        table = {}
        for row, own in zip(self.rows, self.self_seconds()):
            entry = table.setdefault(
                row[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += row[END] - row[START]
            entry["self_s"] += own
        return table

    def by_layer(self):
        """layer -> self seconds (the root's self time is layer 'bench')."""
        layers = {}
        for name, entry in self.by_name().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
        return layers

    def values(self, name):
        """The stored values of every span called *name*, with durations."""
        return [(row[VALUE], row[END] - row[START])
                for row in self.rows if row[NAME] == name]

    def export_chrome(self, path):
        """Write the spans as a Chrome ``trace_event`` document."""
        if not self.rows:
            events = []
        else:
            epoch = self.rows[0][START]
            events = [{"name": row[NAME], "ph": "X", "pid": 1, "tid": 1,
                       "ts": round((row[START] - epoch) * 1e6, 3),
                       "dur": round((row[END] - row[START]) * 1e6, 3),
                       "args": {"op": row[OP]}}
                      for row in self.rows]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


class OpClock:
    """Times the measured region of one operation.

    The same region is the operation's root span in the traced run, so
    span self times sum to exactly what the latency numbers measured.
    Untimed correctness checks go after the ``with`` block.
    """

    __slots__ = ("spans", "seconds", "_span", "_started")

    def __init__(self, spans):
        self.spans = spans
        self.seconds = 0.0

    def __enter__(self):
        self._span = self.spans.span(ROOT)
        self._span.__enter__()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.seconds = time.perf_counter() - self._started
        self._span.__exit__(*exc_info)
        return False
