"""Stream statistics that do not depend on how the stream is batched.

Chan's parallel update folds a batch's mean and M2 into a running
total.  It is exact in real arithmetic, but its floating-point rounding
depends on where each batch starts and ends: the same completions fed
one at a time (scalar ``des``), once per flush (``des-vec``) or once per
window round differently.  :class:`CutBuffer` removes that dependence.
It buffers the stream and hands it on in fixed chunks, one ending at
every :data:`CUT`-th value counted from the start of the stream, so
each chunk is the same contiguous array however the values arrived.
:class:`CutMoments` folds those chunks with :func:`chan_merge`: its
count, mean, M2 and paired sum are a function of the sequence alone.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["CUT", "CutBuffer", "CutMoments", "chan_merge"]

#: Values per chunk.  A cut falls after every ``CUT``-th value.
CUT = 4096


def chan_merge(
    count: int, mean: float, m2: float, n: int, batch_mean: float, batch_m2: float
) -> Tuple[int, float, float]:
    """Count, mean and M2 of two samples joined (Chan's pairwise update)."""
    if count == 0:
        return n, batch_mean, batch_m2
    total = count + n
    delta = batch_mean - mean
    return (
        total,
        mean + delta * n / total,
        m2 + batch_m2 + delta * delta * count * n / total,
    )


class CutBuffer:
    """Buffers array batches and hands them on in fixed-size chunks.

    :meth:`extend` appends a batch (with an optional paired column of
    the same length).  Every ``CUT``-th value closes a chunk, which is
    passed to ``on_cut(values, paired)`` as one contiguous array;
    :meth:`flush` hands on the partial tail early.  The caller must
    not modify an array after handing it in.
    """

    __slots__ = ("_on_cut", "_values", "_paired", "pending")

    def __init__(
        self, on_cut: Callable[[np.ndarray, Optional[np.ndarray]], None]
    ) -> None:
        self._on_cut = on_cut
        self._values: List[np.ndarray] = []
        self._paired: List[np.ndarray] = []
        #: Values buffered since the last cut.
        self.pending = 0

    def extend(self, values: np.ndarray, paired: Optional[np.ndarray] = None) -> None:
        """Append a batch; hand on every chunk it completes."""
        start, n = 0, values.size
        while start < n:
            stop = min(n, start + CUT - self.pending)
            self._values.append(values[start:stop])
            if paired is not None:
                self._paired.append(paired[start:stop])
            self.pending += stop - start
            start = stop
            if self.pending == CUT:
                self.flush()

    def peek(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The buffered values (and paired column) as contiguous arrays."""
        values = np.concatenate(self._values)
        paired = np.concatenate(self._paired) if self._paired else None
        return values, paired

    def flush(self) -> None:
        """Hand on the buffered values now, as one chunk."""
        if self.pending:
            values, paired = self.peek()
            self._values, self._paired, self.pending = [], [], 0
            self._on_cut(values, paired)


class CutMoments:
    """Count, mean and M2 of a value stream, merged only at fixed cuts.

    ``paired_sum`` sums an optional second column (the collector's
    service times) over the same chunks.  The attributes hold the
    folded chunks; :meth:`totals` adds the buffered tail without
    folding it, so reading never moves a cut.
    """

    __slots__ = ("count", "mean", "m2", "paired_sum", "buffer")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.paired_sum = 0.0
        self.buffer = CutBuffer(self._fold)

    def _fold(self, values: np.ndarray, paired: Optional[np.ndarray]) -> None:
        self.count, self.mean, self.m2, self.paired_sum = self._joined(values, paired)

    def _joined(
        self, values: np.ndarray, paired: Optional[np.ndarray]
    ) -> Tuple[int, float, float, float]:
        batch_mean = float(values.mean())
        batch_m2 = float(np.sum((values - batch_mean) ** 2))
        count, mean, m2 = chan_merge(
            self.count, self.mean, self.m2, values.size, batch_mean, batch_m2
        )
        paired_sum = self.paired_sum
        if paired is not None:
            paired_sum += float(np.sum(paired))
        return count, mean, m2, paired_sum

    def totals(self) -> Tuple[int, float, float, float]:
        """``(count, mean, M2, paired sum)`` over everything appended."""
        if not self.buffer.pending:
            return self.count, self.mean, self.m2, self.paired_sum
        return self._joined(*self.buffer.peek())

    def load(self, count: int, mean: float, m2: float) -> None:
        """Replace the state with given moments (drops the buffer)."""
        self.buffer = CutBuffer(self._fold)
        self.count, self.mean, self.m2 = int(count), float(mean), float(m2)
