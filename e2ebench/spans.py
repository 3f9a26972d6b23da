"""In-memory spans for the traced benchmark run, and their self-time
arithmetic.

A span is ``[name, start, end, parent, cell]``: ``parent`` is the index
of the enclosing span in :attr:`Tracer.spans` (``-1`` for a root) and
``cell`` is the identifier shared by every span of one cell (``None``
outside a cell).  Spans live in a plain list while the run measures and
are written out once, at exit (:func:`write_spans`).
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, CELL = range(5)


class Tracer:
    """Stack-based span recorder for one thread (the benchmark runs
    every layer inline, so one stack describes the whole call tree)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Identifier stamped on every span opened from now on.
        self.cell: Optional[str] = None
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.cell])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(
                f"span {self.spans[sid][NAME]!r} closed out of order"
            )

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the result never goes negative and
    a grandchild is charged to its own parent only.  ``parent`` indices
    are positions in ``spans``.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        lo_run = hi_run = None
        pieces = sorted(
            (max(spans[c][START], start), min(spans[c][END], end))
            for c in children.get(i, ())
        )
        for lo, hi in pieces:
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            elif hi > hi_run:
                hi_run = hi
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append((end - start) - covered)
    return out


def window(spans: Sequence[Sequence], lo: int, hi: int) -> List[list]:
    """Copy of ``spans[lo:hi]`` with parent indices relative to ``lo``.
    The range must be closed under parenthood: every parent of a span
    in it lies in it too, or is ``-1``."""
    out = [list(s) for s in spans[lo:hi]]
    for span in out:
        if span[PARENT] >= 0:
            span[PARENT] -= lo
            if span[PARENT] < 0:
                raise ValueError("span range is not closed under parenthood")
    return out


def layer_totals(
    spans: Sequence[Sequence],
) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float], float]:
    """Per-name self seconds, span counts and inclusive seconds, plus
    the summed duration of the root spans.  Self times of all spans
    add up to the root total exactly, so ``wall - roots`` is the time
    no span covers."""
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    incl_s: Dict[str, float] = defaultdict(float)
    roots = 0.0
    for span, own in zip(spans, self_times(spans)):
        self_s[span[NAME]] += own
        counts[span[NAME]] += 1
        incl_s[span[NAME]] += span[END] - span[START]
        if span[PARENT] < 0:
            roots += span[END] - span[START]
    return dict(self_s), dict(counts), dict(incl_s), roots


def write_spans(path: Path, sections: Dict[str, List[list]], meta: dict) -> Path:
    """Write span sections (each a list whose parent indices point into
    itself) and the run's metadata as gzip-compressed JSON.  Times are
    seconds relative to the earliest span start."""
    starts = [s[START] for spans in sections.values() for s in spans]
    origin = min(starts) if starts else 0.0
    body = {
        name: [
            [s[NAME], s[START] - origin, s[END] - origin, s[PARENT], s[CELL]]
            for s in spans
        ]
        for name, spans in sections.items()
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "cell"],
                "meta": meta,
                "sections": body,
            },
            fh,
        )
    return path
