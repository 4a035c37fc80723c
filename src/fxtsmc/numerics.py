"""Scalar numeric primitives: a clamped exponential, the fixed-step grid
settings, the check of a box that states are drawn from, the size check of
an array of rows, and the one CSV number writer of the trajectory and
dataset exports. A ``CsvStream`` lets one forked helper process format the
blocks of rows on a second CPU while a run fills them, into a spool that the
writer copies at export; the bytes written are the same either way.

The primitives accept either floats or numpy arrays and operate elementwise,
so the same code serves both scalar unit tests and the vectorized simulation
loop. Stepping itself lives in the simulation engine (``fxtsmc.sim``).
"""
from __future__ import annotations

import gc
import os
import signal
import tempfile
import warnings
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
# Bytes per read of a CSV spool, about one block of a trajectory's text.
_SPOOL_CHUNK = 2**17


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


def write_csv_rows(fh, columns, stream: CsvStream | None = None) -> None:
    """Write ``columns`` (arrays of one length; a 2-D one is several columns)
    to ``fh``, a line of comma-separated ``%.17g`` values per row, in blocks of
    CSV_BLOCK_ROWS rows. 17 significant digits round-trip every float64.

    Where ``stream`` has a helper formatting these columns, that helper is
    sent the last rows and reaped, and its spool is copied to ``fh`` in
    chunks of about one block; otherwise this process formats every block
    itself. Either way the text goes through ``fh``'s text layer, so the
    bytes, newline translation included, are the same. An OSError naming the
    file is raised if the helper failed."""
    rows = len(columns[0])
    spool = None if stream is None else stream.finish(rows, getattr(fh, "name", "CSV export"))
    if spool is None:
        for start in range(0, rows, CSV_BLOCK_ROWS):
            fh.write(_format_block(columns, start))
        return
    while chunk := spool.read(_SPOOL_CHUNK):
        fh.write(chunk.decode("ascii"))


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


class CsvStream:
    """The CSV text of columns whose rows are filled while it is formatted.

    ``start`` forks one helper process over the columns, which must lie in
    memory that fork shares (rows filled after the fork) or be final before
    it. ``note(rows)`` tells the helper that the first ``rows`` rows are
    final, by 8 bytes on a note pipe; the helper formats each block of
    CSV_BLOCK_ROWS rows once it is noted, into an unlinked spool file, so
    neither process holds the text in memory. ``write_csv_rows`` then sends
    the last note, reaps the helper and copies the spool. One stream serves
    one set of columns. Leaving the ``with`` block reaps a helper still
    running, on every path out, by killing it."""

    def __init__(self):
        self.pid = None
        self._notes = self._spool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def start(self, columns) -> bool:
        """Fork the helper over ``columns``; whether it runs. It does not with
        one usable CPU, or where the spool, the pipe or the fork fails (such
        as ENOSPC or EAGAIN): then ``write_csv_rows`` formats every block."""
        if _usable_cpus() < 2:
            return False
        try:
            self._spool = tempfile.TemporaryFile()
            read_fd, self._notes = os.pipe()
        except OSError:  # such as ENOSPC
            self.close()
            return False
        try:
            # From Python 3.12, a fork in a process with threads, such as
            # OpenBLAS's after a GP fit, warns of deadlocks in the child; the
            # helper calls no BLAS, only _format_block and os.write.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:  # such as EAGAIN under a process limit
            os.close(read_fd)
            self.close()
            return False
        if pid == 0:
            # The helper touches nothing it inherited but the columns, the
            # pipe and the spool's descriptor, and leaves by os._exit, so no
            # inherited buffer is flushed. It collects no garbage: a
            # collection would write to every tracked object's header,
            # copying the parent's heap, and could finalize an inherited
            # object, such as an unclosed file, that the parent owns.
            status = 1
            try:
                gc.disable()
                os.close(self._notes)
                _format_noted(columns, read_fd, self._spool.fileno())
                status = 0
            finally:
                os._exit(status)
        os.close(read_fd)
        self.pid = pid
        return True

    def note(self, rows: int) -> None:
        """Tell the helper that the first ``rows`` rows are final."""
        try:
            os.write(self._notes, rows.to_bytes(8, "little"))
        except BrokenPipeError:  # the helper has stopped; finish reports it
            pass

    def finish(self, rows: int, name: str):
        """The spool, read from its start, once the helper has formatted all
        ``rows`` rows and is reaped; None where no helper runs. An OSError
        naming ``name`` if the helper failed."""
        if self.pid is None:
            return None
        self.note(rows)
        os.close(self._notes)
        self._notes = None
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status:
            raise OSError(f"{name}: the CSV format helper stopped before its last block")
        self._spool.seek(0)
        return self._spool

    def close(self) -> None:
        if self._notes is not None:
            os.close(self._notes)
            self._notes = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self._spool is not None:
            self._spool.close()


def _format_noted(columns, notes_fd: int, spool_fd: int) -> None:
    """The helper's loop: each block of ``columns`` as soon as a note on
    ``notes_fd`` covers its rows, written to ``spool_fd``, until the notes
    end."""
    done = 0
    with open(notes_fd, "rb") as notes:
        while head := notes.read(8):
            rows = int.from_bytes(head, "little")
            while done < rows:
                _write_all(spool_fd, _format_block(columns, done).encode("ascii"))
                done += CSV_BLOCK_ROWS


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
