"""In-memory span recorder and the wrapping of library functions.

A span is (name, start, end, parent index).  Spans nest by call order on a
single thread, so a span's self time is its duration minus the durations of
its direct children.  Library functions are traced by replacing the module
attributes their callers look up at call time; nothing in the library
changes.  A name that no longer exists is reported as absent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from typespace import objective, optimize

# (module, attribute, span name) for everything optimize.train calls per
# epoch, plus the SVDs the objective takes inside total_objective.  The
# per-entry helpers adagrad_step and project_to_simplex are deliberately
# not wrapped: a span per call would dominate what it measures.
TRAIN_WRAPS = (
    (optimize, "init_parameters", "optimize.init_parameters"),
    (optimize, "_AdaState", "optimize.adagrad_state"),
    (optimize, "_prepare_text_entries", "optimize.prepare_text_entries"),
    (optimize, "_text_pass", "optimize.text_pass"),
    (optimize, "_type_pass", "optimize.type_pass"),
    (optimize, "_rel_dist_pass", "optimize.rel_dist_pass"),
    (optimize, "_rel_dim_pass", "optimize.rel_group_pass"),
    (optimize, "prox_nuclear", "optimize.prox_nuclear"),
    (optimize, "total_objective", "objective.total_objective"),
    (objective, "nuclear_norm", "objective.nuclear_norm"),
    (optimize, "effective_rank", "subspace.effective_rank"),
    (optimize, "clone_params", "params.clone_params"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.absent: list[str] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap_all(self, table=TRAIN_WRAPS) -> None:
        for module, attr, name in table:
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrapped(fn, name))

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrapped(self, fn, name):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total time and total self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            rec["count"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
        return out

    def children_time(self, name: str) -> float:
        """Time covered by the direct children of the spans called `name`."""
        ids = {i for i, s in enumerate(self.spans) if s[0] == name}
        return sum(s[2] - s[1] for s in self.spans if s[3] in ids)

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "absent": self.absent,
                    "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
                },
                fh,
            )
