"""Scalar numeric primitives: a clamped exponential, the fixed-step grid
settings, the check of a box that states are drawn from, the size check of
an array of rows, and the one CSV number writer of the trajectory and
dataset exports. Where two or more CPUs are usable, that writer has one
forked helper process format every other block of rows; the bytes written
are the same either way.

The primitives accept either floats or numpy arrays and operate elementwise,
so the same code serves both scalar unit tests and the vectorized simulation
loop. Stepping itself lives in the simulation engine (``fxtsmc.sim``).
"""
from __future__ import annotations

import gc
import os
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import ParameterError

# exp(50) ~ 5.18e21: comfortably representable, so exp(z^2)-weighted terms
# stay finite even when |z| transiently exceeds ~7.
EXP_CLAMP = 50.0

# Bound once for the step loop: the clamp as a 0-d array, since numpy
# converts a float operand on every call, and the ufuncs safe_exp calls.
_EXP_CLAMP = np.array(EXP_CLAMP)
_minimum, _exp = np.minimum, np.exp

# Relative slack when checking that t_end sits on the step grid.
_GRID_RTOL = 1e-9

# Rows per block of a CSV export: one format call and one write each, so an
# export holds the data plus one block.
CSV_BLOCK_ROWS = 256


def safe_exp(x):
    """exp(x) with the argument clamped at EXP_CLAMP so the result is finite.
    An array result is one new array, which the exponential fills in place."""
    y = _minimum(x, _EXP_CLAMP)
    return _exp(y, out=y) if y.ndim else _exp(y)


@dataclass(frozen=True)
class StepConfig:
    """Fixed-step integration settings.

    ``t_end`` must land on the step grid: the number of steps is
    round(t_end / step_size), and t_end must equal that multiple of
    step_size to within a 1e-9 relative tolerance. Both are positive and
    finite, as the config schema keeps them.
    """

    step_size: float
    t_end: float

    def __post_init__(self):
        steps = self.t_end / self.step_size
        if not np.isfinite(steps):
            raise ParameterError(f"t_end / step_size is not finite: {self.t_end} / {self.step_size}")
        n = round(steps)
        if abs(n * self.step_size - self.t_end) > _GRID_RTOL * max(1.0, self.t_end):
            raise ParameterError(
                f"t_end={self.t_end} is not an integer multiple of step_size={self.step_size}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.step_size)


def check_ic_box(box, n: int, name: str = "ic_box") -> np.ndarray:
    """``box`` as an (n, 2) array of ordered (low, high) pairs whose bounds
    and widths high - low are finite, or a ParameterError that calls it
    ``name``. Uniform draws need a finite width, and then stay in the box; a
    bound that is not finite makes its width not finite too."""
    box = np.asarray(box, dtype=float)
    if box.shape != (n, 2) or np.any(box[:, 1] < box[:, 0]):
        raise ParameterError(
            f"{name} must be {n} ordered (low, high) pairs, got {box.tolist()}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        width = box[:, 1] - box[:, 0]
    if not np.isfinite(width).all():
        raise ParameterError(
            f"{name} bounds and widths high - low must be finite, got {box.tolist()}"
        )
    return box


def check_rows(rows: int, n: int, what: str) -> int:
    """``rows``, or a MemoryError, not the ValueError numpy raises, when
    ``rows`` by ``n`` floats exceed numpy's index range. A Decimal prints
    ``rows`` beyond the float range too."""
    if rows * n * 8 > np.iinfo(np.intp).max:
        raise MemoryError(
            f"{what} of {Decimal(rows):.3g} rows by {n} columns exceeds numpy's array size"
        )
    return rows


def write_csv_rows(fh, columns) -> None:
    """Write ``columns`` (arrays of one length; a 2-D one is several columns)
    to ``fh``, a line of comma-separated ``%.17g`` values per row, in blocks of
    CSV_BLOCK_ROWS rows. 17 significant digits round-trip every float64.

    Where two or more CPUs are usable and there are two or more blocks, one
    forked helper process formats blocks 1, 3, 5, ... while this process
    formats blocks 0, 2, 4, ...; this process writes every block to ``fh`` in
    order, so the bytes, newline translation included, are the same as with
    no helper. An OSError naming the file is raised if the helper fails."""
    starts = range(0, len(columns[0]), CSV_BLOCK_ROWS)
    name = getattr(fh, "name", "CSV export")
    with _helper_blocks(columns, starts[1::2], name) as odd_blocks:
        for i, start in enumerate(starts):
            fh.write(next(odd_blocks) if odd_blocks and i % 2 else _format_block(columns, start))


def _format_block(columns, start: int) -> str:
    """The CSV text of the block of rows that begins at row ``start``."""
    block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns])
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (row * len(block)) % tuple(block.ravel().tolist())


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def _helper_blocks(columns, starts, name: str):
    """Yield an iterator over the text of the blocks at ``starts``, formatted
    by one forked helper process, or None where there are no such blocks, one
    CPU is usable or no process can be forked. The helper reads ``columns``
    from the memory fork shares and sends each block over a pipe as 8 bytes
    of length and the ASCII text; the pipe's capacity keeps it about one
    block ahead of its reader. The helper is reaped on every path out."""
    pid = None
    if starts and _usable_cpus() > 1:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # such as EAGAIN under a process limit
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        yield None
        return
    if pid == 0:
        # The helper touches nothing it inherited but the columns and the
        # pipe, and leaves by os._exit, so no inherited buffer is flushed. It
        # collects no garbage: a collection would write to every tracked
        # object's header, copying the parent's heap, and could finalize an
        # inherited object, such as an unclosed file, that the parent owns.
        status = 1
        try:
            gc.disable()
            os.close(read_fd)
            for start in starts:
                data = _format_block(columns, start).encode("ascii")
                _write_all(write_fd, len(data).to_bytes(8, "little") + data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            yield _read_blocks(pipe, name)
    finally:
        _, status = os.waitpid(pid, 0)
    if status:
        raise OSError(f"{name}: the CSV format helper failed "
                      f"(exit status {os.waitstatus_to_exitcode(status)})")


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_blocks(pipe, name: str):
    """The text of each length-prefixed block read from ``pipe``; an OSError
    naming ``name`` if the pipe ends within or before a block."""
    while True:
        head = pipe.read(8)
        size = int.from_bytes(head, "little")
        data = pipe.read(size) if len(head) == 8 else b""
        if len(head) < 8 or len(data) < size:
            raise OSError(f"{name}: the CSV format helper stopped before its last block")
        yield data.decode("ascii")
