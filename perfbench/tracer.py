"""In-memory spans recorded around calls into the library.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span open when it started, and the id of the run it belongs
to. Spans are only kept in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional


@dataclass
class Span:
    name: str
    run_id: str
    parent: Optional[int]
    start: float
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, run_id: str):
        parent = self._open[-1] if self._open else None
        record = Span(name=name, run_id=run_id, parent=parent, start=time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def adopt(self, records: List[dict], parent: int) -> None:
        """Append spans recorded by a child process under the span ``parent``.

        ``perf_counter`` reads the system-wide monotonic clock on Linux, so
        the child's start and end times are comparable with ours.
        """
        offset = len(self.spans)
        for rec in records:
            own_parent = parent if rec["parent"] is None else rec["parent"] + offset
            self.spans.append(Span(name=rec["name"], run_id=rec["run_id"], parent=own_parent,
                                   start=rec["start"], end=rec["end"]))

    def by_name(self, name: str, run_id: Optional[str] = None) -> List[Span]:
        return [s for s in self.spans if s.name == name and (run_id is None or s.run_id == run_id)]

    def self_seconds(self) -> Dict[int, float]:
        """Each span's duration minus the time its direct children cover."""
        own = {i: s.seconds for i, s in enumerate(self.spans)}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def to_records(self) -> List[dict]:
        own = self.self_seconds()
        return [{"id": i, **asdict(s), "self_s": own[i]} for i, s in enumerate(self.spans)]
