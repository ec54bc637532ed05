"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_open(path) -> Iterator[IO[str]]:
    """Open `path` for text writing so that it is replaced only on success.

    The block writes to a temporary file beside `path`, which `os.replace`
    moves into place once the block exits cleanly. If the block raises, the
    temporary file is removed and any previous file at `path` is left as
    it was, so a later stage never reads a partly written output.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
