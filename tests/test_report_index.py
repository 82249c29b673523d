"""Report listing reads the ledger's per-sender index of noted entries.

`scan_list_reports` is the full-log listing the index replaced, kept as the
reference: after every group, approved or rejected, `list_reports` must agree
with it for every (sender, app id).  A count test checks that a listing parses
only the issuer's own noted transactions, however long the rest of the log.

`list_reports` keeps an incremental view per ledger: the tests at the end check
it against the full scan when listings meet many new entries at once, that it
parses only the entries anchored since the last listing, that views are per
ledger and die with it, and that no reader can change another's result."""
import gc
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from bondsim.ledger import AppCall, AssetTransfer, Ledger, Payment
from bondsim.programs import StatefulProgram, StateSchema
from bondsim import reports
from bondsim.reports import ReportNote, anchor_report, list_reports, note_prefix

from clone_ledger import CloneLedger

SENDERS = ("a0", "a1", "a2")
ACCOUNTS = SENDERS + ("ghost",)  # "ghost" is never funded: its groups are rejected
APP_IDS = (1, 10, 100, 1000, 1001)
ASSET, APP = 100, 1000  # ids a fresh ledger hands out first


def scan_list_reports(ledger, issuer, manage_app_id):
    """The listing before the index: a scan of the whole applied log."""
    prefix = note_prefix(manage_app_id)
    cids = []
    for entry in ledger.applied_log:
        txn = entry.txn
        if not isinstance(txn, Payment) or txn.sender != issuer:
            continue
        if not txn.note.startswith(prefix):
            continue
        parsed = ReportNote.parse(txn.note)
        if parsed is not None and parsed.manage_app_id == manage_app_id:
            cids.append(parsed.cid)
    return cids


def make_ledger(cls):
    led = cls()
    for name in ACCOUNTS:
        led.create_account(name)
    for name in SENDERS:
        led.fund_algos(name, 10**9)
    assert led.create_asset("a0", total=10**6, decimals=0) == ASSET
    for name in SENDERS[1:]:
        assert led.opt_in_asset(name, ASSET).approved
    program = StatefulProgram("accept-all", StateSchema(), approval=lambda ctx: None)
    assert led.register_app(program, "a0") == APP
    return led


cids = st.text(alphabet="0123456789abcdef+", min_size=0, max_size=6)
report_notes = st.builds(lambda app, cid: b"%d+%s" % (app, cid.encode()), st.sampled_from(APP_IDS), cids)
notes = st.one_of(
    report_notes,
    report_notes,
    st.sampled_from([b"", b"1001", b"+abc", b"10+", b"x10+abc", b"10+a+b", b"010+abc", b"10010+abc"]),
    st.builds(lambda app, tail: b"%d+" % app + tail.encode(), st.sampled_from(APP_IDS), st.text(max_size=4)),
    st.binary(max_size=8),
)
senders = st.sampled_from(SENDERS * 4 + ("ghost",))
payments = st.builds(
    lambda s, r, amount, note: Payment(sender=s, receiver=r, amount=amount, note=note),
    senders, senders, st.sampled_from([0, 0, 1, 10**12]), notes,
)
anchors = st.builds(lambda s, note: Payment(sender=s, receiver=s, amount=0, note=note), senders, notes)
asset_transfers = st.builds(
    lambda s, r, note: AssetTransfer(sender=s, asset_id=ASSET, receiver=r, amount=0, note=note),
    senders, senders, notes,
)
app_calls = st.builds(lambda s, note: AppCall(sender=s, app_id=APP, note=note), senders, notes)
txns = st.one_of(anchors, anchors, payments, asset_transfers, app_calls)
# a payment no account can afford: the group is rejected after its noted transactions
failing = st.builds(lambda s: Payment(sender=s, receiver=s, amount=10**15), st.sampled_from(SENDERS))
groups = st.builds(
    lambda body, tail: body + tail,
    st.lists(txns, min_size=1, max_size=5),
    st.one_of(st.just([]), st.just([]), st.just([]), failing.map(lambda t: [t])),
)


def assert_listings_match(ledger):
    for sender in ACCOUNTS:
        assert ledger.noted_by(sender) == [
            e for e in ledger.applied_log if e.txn.sender == sender and e.txn.note
        ]
        for app_id in APP_IDS:
            assert list_reports(ledger, sender, app_id) == scan_list_reports(ledger, sender, app_id)


@pytest.mark.parametrize("cls", [Ledger, CloneLedger])
@settings(max_examples=150, deadline=None)
@given(seq=st.lists(groups, min_size=1, max_size=12))
def test_listing_matches_full_scan(cls, seq):
    ledger = make_ledger(cls)
    for group in seq:
        before = len(ledger.applied_log)
        result = ledger.submit_group(group)
        if not result.approved:
            assert len(ledger.applied_log) == before
        assert_listings_match(ledger)


def test_rejected_group_leaves_no_index_entry():
    ledger = make_ledger(Ledger)
    anchor = Payment(sender="a1", receiver="a1", amount=0, note=b"10+abc")
    broke = Payment(sender="a1", receiver="a1", amount=10**15)
    assert not ledger.submit_group([anchor, anchor, broke]).approved
    assert ledger.noted_by("a1") == []
    assert list_reports(ledger, "a1", 10) == []
    assert ledger.submit_group([anchor, anchor]).approved
    assert list_reports(ledger, "a1", 10) == ["abc", "abc"]


def test_notes_on_asset_transfers_and_app_calls_are_not_listed():
    ledger = make_ledger(Ledger)
    assert ledger.submit_group(
        [
            AssetTransfer(sender="a1", asset_id=ASSET, receiver="a2", amount=0, note=b"10+xfer"),
            AppCall(sender="a1", app_id=APP, note=b"10+call"),
            Payment(sender="a1", receiver="a1", amount=0, note=b"10+pay"),
        ]
    ).approved
    assert len(ledger.noted_by("a1")) == 3
    assert list_reports(ledger, "a1", 10) == ["pay"]


@pytest.mark.parametrize("noise", [20, 2000])
def test_listing_parses_only_the_issuers_notes(noise, monkeypatch):
    ledger = make_ledger(Ledger)
    for i in range(5):
        assert anchor_report(ledger, "a0", 1001, "%064x" % i).approved
    for i in range(noise):
        sender = SENDERS[1 + i % 2]
        note = (b"1001+%064x" % i) if i % 3 == 0 else (b"" if i % 3 == 1 else b"noise")
        assert ledger.submit_group([Payment(sender=sender, receiver="a0", amount=1, note=note)]).approved

    parse = ReportNote.parse
    calls = []

    def counting_parse(note):
        calls.append(note)
        return parse(note)

    monkeypatch.setattr(ReportNote, "parse", staticmethod(counting_parse))
    assert list_reports(ledger, "a0", 1001) == ["%064x" % i for i in range(5)]
    assert len(calls) == len(ledger.noted_by("a0")) == 5


# ---------------------------------------------------------------------------
# the incremental view


listings = st.tuples(st.sampled_from(ACCOUNTS), st.sampled_from(APP_IDS))
actions = st.lists(st.one_of(groups.map(lambda g: ("submit", g)), listings.map(lambda l: ("list", l))), max_size=30)


@pytest.mark.parametrize("cls", [Ledger, CloneLedger])
@settings(max_examples=150, deadline=None)
@given(seq=actions)
def test_view_matches_full_scan_when_listed_at_random_points(cls, seq):
    """Listings run between arbitrary runs of groups, so one listing meets
    many new entries, rejected groups included; every listing agrees with
    the full scan, and so does every listing at the end."""
    ledger = make_ledger(cls)
    for kind, arg in seq:
        if kind == "submit":
            ledger.submit_group(arg)
        else:
            sender, app_id = arg
            assert list_reports(ledger, sender, app_id) == scan_list_reports(ledger, sender, app_id)
    assert_listings_match(ledger)


def counting_parse(monkeypatch):
    parse = ReportNote.parse
    calls = []

    def counting(note):
        calls.append(note)
        return parse(note)

    monkeypatch.setattr(ReportNote, "parse", staticmethod(counting))
    return calls


def test_listing_parses_only_what_was_anchored_since_the_last(monkeypatch):
    ledger = make_ledger(Ledger)
    calls = counting_parse(monkeypatch)
    expected = []
    for k, batch in enumerate([3, 0, 1, 5, 0, 2]):
        for _ in range(batch):
            cid = "%064x" % len(expected)
            assert anchor_report(ledger, "a0", 1001, cid).approved
            expected.append(cid)
        # other issuers' anchors cost this issuer's listing nothing
        assert anchor_report(ledger, "a1", 1001, "%064x" % k).approved
        del calls[:]
        assert list_reports(ledger, "a0", 1001) == expected
        assert len(calls) == batch
        del calls[:]
        assert list_reports(ledger, "a0", 1000) == []  # another app of the same issuer
        assert list_reports(ledger, "a0", 1001) == expected
        assert calls == []


def test_returned_lists_are_copies():
    ledger = make_ledger(Ledger)
    assert anchor_report(ledger, "a0", 10, "abc").approved
    first = list_reports(ledger, "a0", 10)
    first.append("forged")
    first.clear()
    assert list_reports(ledger, "a0", 10) == ["abc"]
    held = list_reports(ledger, "a0", 10)
    assert anchor_report(ledger, "a0", 10, "def").approved
    assert list_reports(ledger, "a0", 10) == ["abc", "def"]
    assert held == ["abc"]  # a later listing never grows a list a caller holds


def test_two_ledgers_keep_their_own_views():
    one, two = make_ledger(Ledger), make_ledger(Ledger)
    assert anchor_report(one, "a0", 10, "one").approved
    assert list_reports(one, "a0", 10) == ["one"]
    assert list_reports(two, "a0", 10) == []
    assert anchor_report(two, "a0", 10, "two").approved
    assert anchor_report(two, "a0", 10, "three").approved
    assert list_reports(one, "a0", 10) == ["one"]
    assert list_reports(two, "a0", 10) == ["two", "three"]


def test_dropped_ledger_frees_its_view_without_cyclic_collection():
    gc.collect()
    gc.disable()
    try:
        ledger = make_ledger(Ledger)
        assert anchor_report(ledger, "a0", 10, "abc").approved
        before = len(reports._views)
        assert list_reports(ledger, "a0", 10) == ["abc"]
        assert len(reports._views) == before + 1
        ref = weakref.ref(ledger)
        del ledger
        assert ref() is None
        assert len(reports._views) == before
    finally:
        gc.enable()


def test_concurrent_readers_agree_with_the_scan_and_keep_their_results():
    """Between writes, readers race on one view; each result equals the
    full scan, and no result changes after it was returned."""
    ledger = make_ledger(Ledger)
    pairs = [(sender, app_id) for sender in SENDERS for app_id in (10, 1001)]
    held = []  # (result, its contents when returned, the scan at that time)
    lock = threading.Lock()

    def reader(start, scans):
        start.wait(timeout=30)
        for _ in range(20):
            for sender, app_id in pairs:
                result = list_reports(ledger, sender, app_id)
                with lock:
                    held.append((result, tuple(result), scans[(sender, app_id)]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(8):
            for i, (sender, app_id) in enumerate(pairs * 3):
                assert anchor_report(ledger, sender, app_id, "%d-%d" % (round_, i)).approved
            scans = {pair: tuple(scan_list_reports(ledger, *pair)) for pair in pairs}
            start = threading.Barrier(6)  # all readers meet the new entries at once
            threads = [threading.Thread(target=reader, args=(start, scans)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(held) == 8 * 6 * 20 * len(pairs)
    for result, contents, scan in held:
        assert tuple(result) == contents == scan
