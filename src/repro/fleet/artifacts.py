"""Artifact I/O: atomic writes, checksum trailers, quarantine.

Helpers for files a worker persists and a reader must trust —
checkpoints, corpus snapshots, results, heartbeats:

* **atomicity** — payloads are written to a temp file, fsynced, and
  renamed into place, so a reader never observes a torn file, even
  when the writer was killed mid-write (the rename either happened or
  it did not);
* **integrity** — pickled payloads carry a *sealed trailer* (SHA-256
  digest + body length + magic), so a reader can distinguish a good
  artifact from a corrupt or truncated one *before* unpickling it.
  Detection routes to :func:`quarantine` — the bad file is renamed
  aside (evidence for post-mortems, never re-read) and the caller
  falls back to its last good state instead of crashing.

The multi-trial orchestrator these helpers were written for was
removed; the module is kept, with its tests, until its own deletion
(ROADMAP). Nothing outside its tests imports it.

The trailer rides at the *end* of the file because truncation is the
common corruption mode for killed writers: a truncated artifact loses
its trailer and is rejected by the cheap length/magic check without
hashing anything.

Heartbeats are small and latency-sensitive (the stall watchdog polls
them), so they use a one-line text format with an inline digest rather
than the pickle trailer; a torn or invalid heartbeat reads as "no beat
yet" (-1), which at worst makes the watchdog patient, never wrong.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from typing import List, Tuple

from ..core.errors import ArtifactIntegrityError

__all__ = [
    "seal", "unseal", "atomic_write_bytes", "write_artifact",
    "read_artifact", "quarantine", "write_heartbeat", "read_heartbeat",
    "log_integrity", "read_integrity_log",
    "HEARTBEAT_FILE", "INTEGRITY_LOG", "QUARANTINE_SUFFIX",
    "MAGIC", "TRAILER_SIZE",
]

#: Trailer magic: identifies a sealed fleet artifact (version 1).
MAGIC = b"RFA1"
#: Trailer layout: 32-byte SHA-256 digest, 8-byte LE body length, magic.
_TRAILER = struct.Struct(f"<32sQ{len(MAGIC)}s")
#: Bytes the trailer adds to every sealed artifact (public: the chaos
#: harness aims its truncation faults at the trailer region).
TRAILER_SIZE = _TRAILER.size

HEARTBEAT_FILE = "heartbeat"
INTEGRITY_LOG = "integrity.log"
#: Suffix appended to quarantined (corrupt) artifacts.
QUARANTINE_SUFFIX = ".quarantined"


def seal(body: bytes) -> bytes:
    """Append the integrity trailer to ``body``."""
    digest = hashlib.sha256(body).digest()
    return body + _TRAILER.pack(digest, len(body), MAGIC)


def unseal(data: bytes) -> bytes:
    """Validate the trailer and return the body.

    Raises :class:`ArtifactIntegrityError` naming the failure mode —
    ``missing trailer`` (legacy/foreign file), ``truncated`` (length
    mismatch), or ``digest mismatch`` (bit corruption).
    """
    if len(data) < _TRAILER.size:
        raise ArtifactIntegrityError(
            f"artifact too short for an integrity trailer "
            f"({len(data)} bytes)")
    body, trailer = data[:-_TRAILER.size], data[-_TRAILER.size:]
    digest, length, magic = _TRAILER.unpack(trailer)
    if magic != MAGIC:
        raise ArtifactIntegrityError(
            "artifact has no integrity trailer (missing magic)")
    if length != len(body):
        raise ArtifactIntegrityError(
            f"artifact truncated: trailer claims {length} body bytes, "
            f"found {len(body)}")
    if hashlib.sha256(body).digest() != digest:
        raise ArtifactIntegrityError(
            "artifact digest mismatch (corrupt body)")
    return body


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp file + fsync + rename."""
    tmp = path + ".tmp"
    # This IS the atomic-write helper: the non-atomic open targets the
    # temp file, and the rename below is the commit point.
    # statlint: disable=ERR002 (atomic-write implementation site)
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    # Make the rename itself durable where the platform allows it.
    try:
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass  # directory fsync is best-effort (not supported everywhere)
    finally:
        os.close(dir_fd)


def write_artifact(path: str, payload: object) -> None:
    """Pickle ``payload`` and persist it sealed + atomically."""
    atomic_write_bytes(path, seal(pickle.dumps(payload)))


def read_artifact(path: str) -> object:
    """Load a sealed artifact; integrity failures raise
    :class:`ArtifactIntegrityError` (``FileNotFoundError`` passes
    through untouched — absence and corruption are different signals).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    body = unseal(data)
    try:
        return pickle.loads(body)
    except Exception as exc:
        # A sealed-but-unpicklable body means the *writer* was broken,
        # not the disk; still an integrity failure from the reader's
        # point of view.
        raise ArtifactIntegrityError(
            f"artifact {os.path.basename(path)} unpicklable despite "
            f"valid seal: {exc!r}") from exc


def quarantine(path: str) -> str:
    """Move a corrupt artifact aside; returns the quarantine path.

    The original name becomes free for the next good write; the
    quarantined copy is never re-read by the fleet (post-mortem
    evidence only). Quarantining an already-missing file is a no-op.
    """
    target = path + QUARANTINE_SUFFIX
    try:
        os.replace(path, target)
    except FileNotFoundError:
        pass  # lost a race with another cleanup; nothing to preserve
    return target


# -- heartbeats --------------------------------------------------------


def _heartbeat_digest(segment: int) -> str:
    return hashlib.sha256(str(segment).encode("ascii")).hexdigest()[:12]


def write_heartbeat(workdir: str, segment: int) -> None:
    """Persist the monotone segment counter, atomically + checksummed."""
    line = f"{segment} {_heartbeat_digest(segment)}\n"
    atomic_write_bytes(os.path.join(workdir, HEARTBEAT_FILE),
                       line.encode("ascii"))


def read_heartbeat(workdir: str) -> int:
    """Last persisted segment counter (-1 before the first beat).

    A missing, torn, or checksum-invalid heartbeat reads as -1: the
    stall watchdog then simply waits for the next good beat, which is
    always safe (a stalled worker writes no further beats anyway).
    """
    path = os.path.join(workdir, HEARTBEAT_FILE)
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (FileNotFoundError, UnicodeDecodeError):
        return -1
    parts = text.split()
    if len(parts) != 2:
        return -1
    segment_text, digest = parts
    try:
        segment = int(segment_text)
    except ValueError:
        return -1
    if digest != _heartbeat_digest(segment):
        return -1
    return segment


# -- integrity log -----------------------------------------------------


def log_integrity(workdir: str, artifact: str, reason: str) -> None:
    """Append one integrity incident to the trial's durable log.

    Append-only text (one tab-separated line per incident): a crash
    mid-append loses at most the line being written, and the dispatcher
    reads the log only at trial completion, so torn tails are skipped
    rather than misread.
    """
    line = f"{artifact}\t{reason}".replace("\n", " ") + "\n"
    with open(os.path.join(workdir, INTEGRITY_LOG), "a",
              encoding="utf-8") as fh:
        fh.write(line)


def read_integrity_log(workdir: str) -> List[Tuple[str, str]]:
    """All (artifact, reason) incidents recorded for a trial."""
    path = os.path.join(workdir, INTEGRITY_LOG)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return []
    incidents: List[Tuple[str, str]] = []
    for line in lines:
        artifact, sep, reason = line.partition("\t")
        if sep:
            incidents.append((artifact, reason))
    return incidents
