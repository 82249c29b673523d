import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bondsim.ledger import FLAT_FEE, Ledger
from bondsim.reports import (
    MAX_NOTE_BYTES,
    CorruptContent,
    NoteTooLong,
    ReportNote,
    ReportStore,
    UnknownContent,
    anchor_report,
    build_anchor_txn,
    list_reports,
)


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    return ReportStore() if request.param == "memory" else ReportStore(tmp_path / "store")


def test_store_round_trip(store):
    cid = store.store(b"annual impact data")
    assert store.fetch(cid) == b"annual impact data"


def test_store_is_idempotent(store):
    assert store.store(b"same") == store.store(b"same")
    assert len(store) == 1


def test_distinct_content_distinct_ids(store):
    assert store.store(b"one") != store.store(b"two")


def test_empty_bytes_are_storable(store):
    cid = store.store(b"")
    assert store.fetch(cid) == b""


def test_fetch_unknown(store):
    with pytest.raises(UnknownContent):
        store.fetch("deadbeef")


def test_fetch_unaffected_by_other_stores(store):
    cid = store.store(b"original")
    for i in range(10):
        store.store(b"noise %d" % i)
    assert store.fetch(cid) == b"original"


def test_directory_store_keeps_one_file_per_blob_across_instances(tmp_path):
    cid = ReportStore(tmp_path / "store").store(b"annual impact data")
    assert [p.name for p in (tmp_path / "store").iterdir()] == [cid]
    reopened = ReportStore(tmp_path / "store")
    assert cid in reopened and len(reopened) == 1
    assert reopened.fetch(cid) == b"annual impact data"


def test_directory_store_fetches_nothing_it_would_not_have_named(tmp_path):
    (tmp_path / "secret").write_text("host file")
    store = ReportStore(tmp_path / "store")
    assert len(store) == 0
    for name in ("../secret", "secret", "F" * 64):
        assert name not in store
        with pytest.raises(UnknownContent):
            store.fetch(name)


def test_directory_store_refuses_a_tampered_blob(tmp_path):
    store = ReportStore(tmp_path / "store")
    cid = store.store(b"genuine impact data")
    (tmp_path / "store" / cid).write_bytes(b"forged impact data")
    with pytest.raises(CorruptContent):
        store.fetch(cid)
    assert store.store(b"genuine impact data") == cid == hashlib.sha256(b"genuine impact data").hexdigest()
    assert store.fetch(cid) == b"genuine impact data"


@given(st.binary(max_size=512))
def test_round_trip_property(data):
    store = ReportStore()
    assert store.fetch(store.store(data)) == data


# ---------------------------------------------------------------------------
# note format


def test_note_wire_format():
    note = ReportNote(1001, "ab12")
    assert note.render() == b"1001+ab12"
    assert ReportNote.parse(b"1001+ab12") == note


def test_note_parse_rejects_malformed():
    for raw in (b"", b"1001", b"+abc", b"12+", b"x12+abc", b"12+a+b", b"\xff\xfe+abc"):
        assert ReportNote.parse(raw) is None


@given(st.integers(min_value=0, max_value=10**9), st.text(alphabet="0123456789abcdef", min_size=1, max_size=64))
def test_note_round_trip_property(app_id, cid):
    note = ReportNote(app_id, cid)
    assert ReportNote.parse(note.render()) == note


def test_oversized_note_rejected():
    with pytest.raises(NoteTooLong):
        build_anchor_txn("issuer", 1001, "c" * (MAX_NOTE_BYTES + 1))


# ---------------------------------------------------------------------------
# anchoring


@pytest.fixture
def ledger():
    led = Ledger()
    for name in ("issuer", "other"):
        led.create_account(name)
        led.fund_algos(name, 10_000_000)
    return led


def test_anchor_and_list(ledger, store):
    cids = [store.store(b"report %d" % i) for i in range(3)]
    for cid in cids:
        assert anchor_report(ledger, "issuer", 1001, cid).approved
    assert list_reports(ledger, "issuer", 1001) == cids


def test_anchor_fees(ledger, store):
    for i in range(5):
        assert anchor_report(ledger, "issuer", 1001, store.store(b"r%d" % i)).approved
    assert ledger.fees_paid("issuer") == 5 * FLAT_FEE


def test_listing_is_isolated_by_app(ledger, store):
    cid_a = store.store(b"for app A")
    cid_b = store.store(b"for app B")
    assert anchor_report(ledger, "issuer", 1001, cid_a).approved
    assert anchor_report(ledger, "issuer", 1002, cid_b).approved
    assert list_reports(ledger, "issuer", 1001) == [cid_a]
    assert list_reports(ledger, "issuer", 1002) == [cid_b]


def test_listing_is_isolated_by_sender(ledger, store):
    cid = store.store(b"mine")
    foreign = store.store(b"not mine")
    assert anchor_report(ledger, "issuer", 1001, cid).approved
    assert anchor_report(ledger, "other", 1001, foreign).approved
    assert list_reports(ledger, "issuer", 1001) == [cid]


def test_no_anchors_empty_list(ledger):
    assert list_reports(ledger, "issuer", 1001) == []


def test_prefix_is_exact_not_substring(ledger, store):
    cid = store.store(b"x")
    assert anchor_report(ledger, "issuer", 100, cid).approved
    assert list_reports(ledger, "issuer", 10) == []
    assert list_reports(ledger, "issuer", 1001) == []
    assert list_reports(ledger, "issuer", 100) == [cid]


def test_anchor_listed_even_if_never_stored(ledger):
    # anchoring an unknown content id is legal; only fetch can fail
    assert anchor_report(ledger, "issuer", 1001, "f" * 64).approved
    assert list_reports(ledger, "issuer", 1001) == ["f" * 64]
