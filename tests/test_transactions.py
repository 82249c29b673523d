"""The transaction classes are frozen, slotted dataclasses whose `__init__`
stores each field through its slot: they must still behave as dataclasses do."""
import dataclasses

import pytest

from bondsim.ledger import AppCall, AssetTransfer, LogEntry, Payment, TransactionGroup
from bondsim.programs import LogicSig, OnComplete, SecretKey, StatelessProgram

LSIG = LogicSig(StatelessProgram("p", (1,), lambda group, idx, now: True))

# every field of each class set to a value other than its default
EXAMPLES = {
    Payment: dict(
        sender="a", receiver="b", amount=5, signature=SecretKey("a"), fee=2_000, note=b"n"
    ),
    AssetTransfer: dict(
        sender="a",
        asset_id=100,
        receiver="b",
        amount=7,
        revoke_target="c",
        signature=LSIG,
        fee=3_000,
        note=b"m",
    ),
    AppCall: dict(
        sender="a",
        app_id=1000,
        on_complete=OnComplete.OPT_IN,
        args=(b"buy", b"1"),
        accounts=("b",),
        apps=(1001,),
        signature=LSIG,
        fee=4_000,
        note=b"x",
    ),
    TransactionGroup: dict(txns=(Payment("a", "b", 1), AppCall("a", 1000))),
}
CLASSES = list(EXAMPLES)


@pytest.fixture(params=CLASSES, ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_assignment_raises(cls):
    txn = cls(**EXAMPLES[cls])
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(txn, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(txn, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        txn.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del txn.extra
    assert txn == cls(**EXAMPLES[cls])


def test_there_is_no_instance_dict(cls):
    txn = cls(**EXAMPLES[cls])
    assert not hasattr(txn, "__dict__")
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))


def test_replace_round_trips(cls):
    txn = cls(**EXAMPLES[cls])
    assert dataclasses.replace(txn) == txn
    first = dataclasses.fields(cls)[0].name
    changed = dataclasses.replace(txn, **{first: "z"})
    assert getattr(changed, first) == "z" and changed != txn
    assert dataclasses.replace(changed, **{first: getattr(txn, first)}) == txn


def test_equal_fields_give_equal_objects_with_equal_hashes(cls):
    a, b = cls(**EXAMPLES[cls]), cls(**EXAMPLES[cls])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != tuple(getattr(a, f.name) for f in dataclasses.fields(cls))


def test_positional_and_keyword_construction_agree(cls):
    values = EXAMPLES[cls]
    positional = cls(*values.values())
    assert positional == cls(**values)
    assert [getattr(positional, f.name) for f in dataclasses.fields(cls)] == list(values.values())


def test_every_default_matches_the_declared_fields(cls):
    required = {f.name: EXAMPLES[cls][f.name] for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}
    txn = cls(**required)
    for f in dataclasses.fields(cls):
        assert f.default_factory is dataclasses.MISSING
        expected = required[f.name] if f.default is dataclasses.MISSING else f.default
        assert getattr(txn, f.name) == expected


def test_log_entry_is_frozen_too():
    entry = LogEntry(0, 5, Payment("a", "b", 1))
    for name in ("seq", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(entry, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(entry, name)
    assert entry == LogEntry(0, 5, Payment("a", "b", 1))
