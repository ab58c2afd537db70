"""Output files are replaced whole, never left half-written.

Every file the CLI writes (datasets, metrics, checkpoints, reports) goes
through `_atomic_open`: the text is written to a temporary file beside
the target, which is renamed over the target only once the writer
finished without raising. If the process dies or the writer raises
mid-write, the previous file is left as it was. Nothing is fsynced, so
this does not protect against a power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def _atomic_open(path):
    """Text file handle whose contents replace `path` when the block exits cleanly.

    Text is written verbatim (no newline translation). If the block raises,
    the temporary file is removed and `path` is untouched.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
