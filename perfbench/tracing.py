"""In-memory spans around the program's public calls, from outside.

:class:`Tracer` replaces a set of public functions and methods of the
``repro`` package with wrappers that record one span per call: name,
start, end and the index of the enclosing span on the same thread.  The
program's source is untouched; :meth:`Tracer.uninstall` puts every
original back.  A layer's self time is its span time minus the part of
it covered by child spans.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Span record layout: [name, start, end, parent index or -1].
NAME, START, END, PARENT = range(4)


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Outcome statuses of traced repository stores, in call order.
        self.statuses: List[str] = []
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrapper(
        self,
        original: Callable,
        name: str,
        on_result: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> Callable:
        spans = self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = perf_counter()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def wrap_method(self, owner: type, attr: str, name: str, on_result=None):
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrapper(original, name, on_result))
        self._patches.append((owner, attr, original))

    def wrap_function(self, function: Callable, name: str, on_result=None):
        """Replace ``function`` in every ``repro`` module that binds it,
        so call sites that imported it by name are traced too."""
        traced = self.wrapper(function, name, on_result)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, function))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span[NAME]] += span[END] - span[START] - child_time[index]
        return totals

    def calls(self) -> Counter:
        return Counter(span[NAME] for span in self.spans)

    def durations(self, name: str) -> List[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]
