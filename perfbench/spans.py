"""In-memory span recorder that times grespipe's layers from outside.

:meth:`Tracer.install` replaces each listed public function with a wrapper
that records a span, in every ``grespipe`` module that holds a reference to
it (``from .gres import parse_gres_expression`` copies the reference, so the
defining module alone is not enough).  Nothing inside the package changes;
:meth:`Tracer.uninstall` puts the originals back.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the enclosing span in the same thread (-1 at top level) and ``op`` the
identifier shared by all spans of one benchmark operation.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# Span name -> (module, attribute) of the public function it wraps.
LAYER_FUNCTIONS = {
    "lrms.load_fixture": ("grespipe.lrms", "load_fixture"),
    "lrms.collect": ("grespipe.lrms", "collect_cluster_info"),
    "gres.parse": ("grespipe.gres", "parse_gres_expression"),
    "infoprovider.build": ("grespipe.infoprovider", "build_computing_service"),
    "infoprovider.render": ("grespipe.infoprovider", "render_glue2_xml"),
    "client.fetch": ("grespipe.client", "fetch_info"),
    "client.parse": ("grespipe.client", "parse_execution_targets"),
    "client.format": ("grespipe.client", "format_arcinfo"),
    "xrsl.parse": ("grespipe.xrsl", "parse_xrsl"),
    "jobsubmit.load_registry": ("grespipe.jobsubmit", "load_rte_registry"),
    "jobsubmit.apply": ("grespipe.jobsubmit", "apply_rtes"),
    "jobsubmit.script": ("grespipe.jobsubmit", "generate_submit_script"),
    "jobsubmit.match": ("grespipe.jobsubmit", "match_target"),
    "jobsubmit.spool_write": ("grespipe.jobsubmit", "write_spool_script"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.true_results: list[tuple[str, int]] = []  # (span name, op) of calls returning True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        """Tag the spans this thread records next with ``op``."""
        self._local.op = op

    def wrap(self, name: str, fn):
        spans = self.spans
        stack_of = self._stack
        local = self._local
        lock = self._lock
        true_results = self.true_results
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            op = getattr(local, "op", 0)
            # Reserve the slot first so children can name it as parent.
            with lock:
                spans.append(None)
                index = len(spans) - 1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if result is True:
                true_results.append((name, op))
            return result

        return traced

    def install(self) -> None:
        for name, (module_name, attr) in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module_key, module in list(sys.modules.items()):
                if module_key.split(".")[0] != "grespipe" or module is None:
                    continue
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def self_times(self) -> list[int]:
        """Self time of each span: its duration minus its direct children's."""
        self_ns = [end - start for _name, start, end, _parent, _op in self.spans]
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        return self_ns

    def summary(self, keep) -> dict[str, dict]:
        """Per span name, over spans whose op passes ``keep(op)``: call
        count, ops touched, median self and inclusive time and total self
        time, all in nanoseconds."""
        self_ns = self.self_times()
        by_name: dict[str, list[tuple[int, int, int]]] = defaultdict(list)
        for (name, start, end, _parent, op), own in zip(self.spans, self_ns):
            if keep(op):
                by_name[name].append((own, end - start, op))
        out = {}
        for name, rows in by_name.items():
            out[name] = {
                "calls": len(rows),
                "ops": len({op for _s, _i, op in rows}),
                "self_ns_p50": statistics.median(s for s, _i, _op in rows),
                "incl_ns_p50": statistics.median(i for _s, i, _op in rows),
                "self_ns_total": sum(s for s, _i, _op in rows),
            }
        return out

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        self_ns = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\top\tself_ns\n")
            for index, ((name, start, end, parent, op), own) in enumerate(zip(self.spans, self_ns)):
                out.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\t{op}\t{own}\n")
