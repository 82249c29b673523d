"""Content-addressed report store and on-ledger anchoring.

Reports live in a local content-addressed store (hash of the bytes is the
content id), in memory or in a directory with one file per report.  Anchoring a report submits a zero-amount self-payment whose
note is "<manage-app-id>+<content-id>".

Listing reads the ledger's per-sender index of committed noted transactions
(`Ledger.noted_by`) through an incremental view kept per ledger: for each
issuer, how many of its noted entries have been parsed and the content ids
found so far, grouped by the note's bytes before the first "+".  A listing
parses only the entries committed since the previous listing of that issuer,
then returns a fresh copy of the requested app's ids, in ledger order.  The
views live in a weak-keyed map, so they hold no reference to a ledger and die
with it.
"""
from __future__ import annotations

import hashlib
import re
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from .ledger import Address, Ledger, Payment, SubmitResult

ContentId = str

MAX_NOTE_BYTES = 1024
NOTE_SEPARATOR = "+"
_SEPARATOR_BYTES = NOTE_SEPARATOR.encode("ascii")
_CONTENT_ID_RE = re.compile(r"[0-9a-f]{64}")  # SHA-256 hex digest; never a path


class UnknownContent(KeyError):
    pass


class CorruptContent(ValueError):
    """A stored file whose bytes no longer hash to its content id."""


class NoteTooLong(ValueError):
    pass


def is_content_id(text: str) -> bool:
    return _CONTENT_ID_RE.fullmatch(text) is not None


class ReportStore:
    """Append-only blob store keyed by content hash.  Blobs live in memory,
    or, given a `directory`, one file per blob named by its content id: a
    fetch reads only a file so named and refuses one whose bytes no longer
    hash to its name."""

    def __init__(self, directory: Union[str, Path, None] = None):
        self._blobs: dict = {}
        self._dir = None if directory is None else Path(directory)

    def store(self, data: bytes) -> ContentId:
        cid = hashlib.sha256(data).hexdigest()
        if self._dir is None:
            self._blobs.setdefault(cid, bytes(data))
        else:
            self._dir.mkdir(parents=True, exist_ok=True)
            (self._dir / cid).write_bytes(data)
        return cid

    def fetch(self, cid: ContentId) -> bytes:
        if cid not in self:
            raise UnknownContent(cid)
        if self._dir is None:
            return self._blobs[cid]
        data = (self._dir / cid).read_bytes()
        if hashlib.sha256(data).hexdigest() != cid:
            raise CorruptContent(cid)
        return data

    def __contains__(self, cid: ContentId) -> bool:
        if self._dir is None:
            return cid in self._blobs
        return is_content_id(cid) and (self._dir / cid).is_file()

    def __len__(self) -> int:
        if self._dir is None:
            return len(self._blobs)
        return sum(is_content_id(path.name) for path in self._dir.glob("*"))


@dataclass(frozen=True)
class ReportNote:
    manage_app_id: int
    cid: ContentId

    def render(self) -> bytes:
        return f"{self.manage_app_id}{NOTE_SEPARATOR}{self.cid}".encode("ascii")

    @classmethod
    def parse(cls, note: bytes) -> Optional["ReportNote"]:
        try:
            text = note.decode("ascii")
        except UnicodeDecodeError:
            return None
        head, sep, cid = text.partition(NOTE_SEPARATOR)
        if not sep or not head.isdigit() or not cid or NOTE_SEPARATOR in cid:
            return None
        return cls(int(head), cid)


def note_prefix(manage_app_id: int) -> bytes:
    return f"{manage_app_id}{NOTE_SEPARATOR}".encode("ascii")


def build_anchor_txn(issuer: Address, manage_app_id: int, cid: ContentId) -> Payment:
    note = ReportNote(manage_app_id, cid).render()
    if len(note) > MAX_NOTE_BYTES:
        raise NoteTooLong(f"note is {len(note)} bytes, limit {MAX_NOTE_BYTES}")
    return Payment(sender=issuer, receiver=issuer, amount=0, note=note)


def anchor_report(ledger: Ledger, issuer: Address, manage_app_id: int, cid: ContentId) -> SubmitResult:
    return ledger.submit_group([build_anchor_txn(issuer, manage_app_id, cid)])


# Ledger -> {issuer: (entries of `noted_by(issuer)` parsed, {note head: [cid, ...]})}.
# A published snapshot is never mutated: readers may hold it while another
# reader publishes the next one.
_views: "weakref.WeakKeyDictionary[Ledger, dict]" = weakref.WeakKeyDictionary()


def list_reports(ledger: Ledger, issuer: Address, manage_app_id: int) -> List[ContentId]:
    # `noted_by` lists only grow and hold only committed entries (rollback of
    # a rejected group never reaches them), so entries parsed once stay valid
    # and only those appended since the last listing need parsing.
    views = _views.get(ledger)
    if views is None:
        views = _views.setdefault(ledger, {})
    noted = ledger.noted_by(issuer)
    seen, by_head = views.get(issuer, (0, {}))
    if seen < len(noted):
        end = len(noted)
        fresh: dict = {}
        for entry in noted[seen:end]:
            txn = entry.txn
            if not isinstance(txn, Payment):
                continue
            report = ReportNote.parse(txn.note)
            if report is not None:
                # the exact head bytes, so "010+x" never lists under app 10
                fresh.setdefault(txn.note.partition(_SEPARATOR_BYTES)[0], []).append(report.cid)
        by_head = {**by_head, **{head: by_head.get(head, []) + cids for head, cids in fresh.items()}}
        views[issuer] = (end, by_head)
    return list(by_head.get(note_prefix(manage_app_id)[: -len(_SEPARATOR_BYTES)], ()))
