"""Framed files, the one layout of result-cache entries and checkpoints::

    magic   format tag (``b"repro-cache\\n"``, ``b"repro-ckpt\\n"``)
    u32 BE  header length
    header  canonical JSON (sorted keys, no spaces) with ``payload_sha256``
    payload bytes (JSON for a cache entry, a pickle for a checkpoint)

:func:`read_frame` checks the magic, the header and the digest before it
returns the payload, so a torn or damaged file never reaches a parser.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path

from .errors import ReproError

__all__ = ["FrameError", "read_frame", "write_frame"]

_LEN = struct.Struct(">I")


class FrameError(ReproError):
    """A framed file is torn, corrupt or of another format."""


def write_frame(path: "str | Path", magic: bytes, header: dict,
                payload: bytes) -> None:
    """Atomically write ``payload`` framed by ``magic`` and ``header``
    (plus the payload's sha256): a temp file, then :func:`os.replace`."""
    header = {**header, "payload_sha256": hashlib.sha256(payload).hexdigest()}
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(magic + _LEN.pack(len(head)) + head)
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_frame(raw: bytes, magic: bytes) -> tuple[dict, bytes]:
    """``(header, payload)`` of one framed file's bytes; raises
    :class:`FrameError` on another magic, a torn or corrupt header, or a
    payload whose sha256 is not the header's."""
    if not raw.startswith(magic):
        raise FrameError("bad magic")
    start = len(magic) + _LEN.size
    if len(raw) < start:
        raise FrameError("truncated header")
    end = start + _LEN.unpack_from(raw, len(magic))[0]
    if len(raw) < end:
        raise FrameError("truncated header")
    try:
        header = json.loads(raw[start:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"corrupt header ({exc})") from None
    if not isinstance(header, dict):
        raise FrameError("corrupt header (not an object)")
    payload = raw[end:]
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise FrameError("payload digest mismatch (corrupt)")
    return header, payload
