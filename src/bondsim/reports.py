"""Content-addressed report store and on-ledger anchoring.

Reports live in a local content-addressed store (hash of the bytes is the
content id).  Anchoring a report submits a zero-amount self-payment whose
note is "<manage-app-id>+<content-id>"; listing reads the ledger's per-sender
index of committed noted transactions (`Ledger.noted_by`) for that prefix, in
ledger order, so it costs O(the issuer's noted transactions), not O(history).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional

from .ledger import Address, Ledger, Payment, SubmitResult

ContentId = str

MAX_NOTE_BYTES = 1024
NOTE_SEPARATOR = "+"


class UnknownContent(KeyError):
    pass


class NoteTooLong(ValueError):
    pass


class ReportStore:
    """Append-only blob store keyed by content hash."""

    def __init__(self):
        self._blobs: dict = {}

    def store(self, data: bytes) -> ContentId:
        cid = hashlib.sha256(data).hexdigest()
        self._blobs.setdefault(cid, bytes(data))
        return cid

    def fetch(self, cid: ContentId) -> bytes:
        try:
            return self._blobs[cid]
        except KeyError:
            raise UnknownContent(cid) from None

    def __contains__(self, cid: ContentId) -> bool:
        return cid in self._blobs

    def __len__(self) -> int:
        return len(self._blobs)


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


def list_reports(ledger: Ledger, issuer: Address, manage_app_id: int) -> List[ContentId]:
    prefix = note_prefix(manage_app_id)
    cids: List[ContentId] = []
    for entry in ledger.noted_by(issuer):
        txn = entry.txn
        if not isinstance(txn, Payment):
            continue
        if not txn.note.startswith(prefix):
            continue
        parsed = ReportNote.parse(txn.note)
        if parsed is not None and parsed.manage_app_id == manage_app_id:
            cids.append(parsed.cid)
    return cids
