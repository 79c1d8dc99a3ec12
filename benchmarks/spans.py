"""In-memory span recorder for the traced benchmark run.

A ``Recorder`` wraps public functions of the ``mzduality`` modules so that
every call records one span: ``(id, parent id, name, tag, start, end)``.
Patching a function rebinds it in every ``mzduality`` module namespace that
imported it (``linalg.hermitian_eig``, ``mzi.hermitian_eig``,
``jointmeas.hermitian_eig``, ...), so calls are seen whichever module makes
them.  Methods are patched on their class, which keeps ``isinstance`` checks
intact.  ``restore`` puts every original back.

The program runs single-threaded and calls nest, so the child spans of a
span never overlap one another: a span's self time is its duration minus the
summed durations of its direct children.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _package_modules(package: str):
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


class Recorder:
    """Records spans of patched calls; ``drain`` folds them into totals."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, tag=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, parent, name, tag(*args, **kwargs) if tag else None, start, end)
                )

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, package: str, module, attr: str, name: str, tag=None) -> None:
        """Trace ``module.attr`` under ``name``, in every namespace of ``package``.

        ``tag(*args, **kwargs)``, if given, labels each call (for example
        with the matrix size), and its result is kept with the span.
        """
        original = getattr(module, attr)
        traced = self._wrap(name, original, tag)
        for namespace in _package_modules(package):
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._set(namespace, key, traced)

    def patch_method(self, cls, attr: str, name: str) -> None:
        """Trace ``cls.attr`` under ``name`` by replacing it on the class."""
        self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def drain(self) -> dict[tuple[str, object], list]:
        """Fold the finished spans into ``{(name, tag): [calls, self_s, wall_s]}``
        and forget them.  Call only when no span is open."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[tuple[str, object], list] = {}
        for span_id, _, name, tag, start, end in self.spans:
            entry = totals.setdefault((name, tag), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child_time[span_id]
            entry[2] += end - start
        self.spans.clear()
        return totals

    def write(self, path: Path) -> None:
        """Write the spans not yet drained as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "tag", "start", "end")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
