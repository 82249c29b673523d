"""Deterministic in-memory ledger core.

Accounts hold integer microAlgos and integer asset base units; a single
scalar clock gates time-dependent logic; every transaction pays a flat fee;
transaction groups of up to 16 transactions commit all-or-nothing: a group
writes the live state in place and saves what each write overwrites (an
account's balance and minimum, an app's flag, the previous value of each
dict key it sets or removes), and a rejected group writes the saved values
back into the same objects.  A group's cost therefore grows with what it
writes, not with the size of the ledger or of an account, and accounts and
app states keep their identity.  Stateless and stateful
approval programs from the `programs` module are evaluated during group
submission, each leg paying only for the checks that apply to it; a
stateful handler writes through the same record, so its group's later legs
read its writes and a rejection undoes them with the rest.

A committed group only appends its transactions and commit times to two
lists, not an object per transaction for the cyclic garbage collector to
count.  What is derived from them is made when it is read: `applied_log`
makes the `LogEntry` records, and each reader of a fee total or of
`noted_by` first folds the transactions committed since the last fold into
the senders' fee totals and the index of noted entries.  A group therefore
never journals a fee total, and a rejected one never reaches them.

All money arithmetic is integer arithmetic.  There is no randomness and no
wall-clock access anywhere, so identical operation sequences produce
identical ledgers.
"""
from __future__ import annotations

import threading
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from typing import Optional, Sequence, Union

from .programs import (
    CLEAR_STATE,
    CLOSE_OUT,
    DELETE_APPLICATION,
    NO_OP,
    OPT_IN,
    CallContext,
    Deny,
    MAX_GLOBAL_KEYS,
    MAX_LOCAL_KEYS,
    OnComplete,
    SecretKey,
    Signature,
    StatefulProgram,
    StatelessProgram,
    eval_logic_signature,
)

Address = str

FLAT_FEE = 1_000
BASE_MIN_BALANCE = 100_000
ASSET_CREATE_MIN_BALANCE = 100_000  # the creator's minimum-balance entry for an asset
ASSET_OPT_IN_MIN_BALANCE = 100_000  # a holder's, for opting into one
MAX_GROUP_SIZE = 16


class LedgerError(Exception):
    pass


class UnknownAddress(LedgerError):
    pass


class InsufficientBalance(LedgerError):
    pass


# ---------------------------------------------------------------------------
# transactions


def _frozen(self, name: str, *value) -> None:
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


def _slot_init(cls: type) -> type:
    """Give a frozen slotted dataclass, whose fields have no default factory,
    an `__init__` that stores each field through its slot: about half the
    time of the generated one, which calls `object.__setattr__` per field.
    Assigning or deleting any name raises `FrozenInstanceError`: the generated
    pair raises `TypeError` for a name that is not a field."""
    params, lines, namespace = [], [], {}
    for f in fields(cls):
        params.append(f.name if f.default is MISSING else f"{f.name}=_default_{f.name}")
        namespace[f"_default_{f.name}"] = f.default
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        lines.append(f"_set_{f.name}(self, {f.name})")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(lines), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


@_slot_init
@dataclass(frozen=True, slots=True)
class Payment:
    sender: Address
    receiver: Address
    amount: int
    signature: Optional[Signature] = None  # None = sender's own key
    fee: int = FLAT_FEE
    note: bytes = b""


@_slot_init
@dataclass(frozen=True, slots=True)
class AssetTransfer:
    sender: Address
    asset_id: int
    receiver: Address
    amount: int
    revoke_target: Optional[Address] = None  # set = clawback from this account
    signature: Optional[Signature] = None
    fee: int = FLAT_FEE
    note: bytes = b""


@_slot_init
@dataclass(frozen=True, slots=True)
class AppCall:
    sender: Address
    app_id: int
    on_complete: OnComplete = OnComplete.NO_OP
    args: tuple = ()
    accounts: tuple = ()
    apps: tuple = ()
    signature: Optional[Signature] = None
    fee: int = FLAT_FEE
    note: bytes = b""


Transaction = Union[Payment, AssetTransfer, AppCall]


@_slot_init
@dataclass(frozen=True, slots=True)
class TransactionGroup:
    txns: tuple


def as_group(txns: Union[TransactionGroup, Sequence[Transaction]]) -> TransactionGroup:
    if isinstance(txns, TransactionGroup):
        return txns
    return TransactionGroup(tuple(txns))


# ---------------------------------------------------------------------------
# results


@dataclass
class Rejection:
    code: str
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:
        sub = self.detail.get("code")
        return f"{self.code}:{sub}" if sub else self.code


@dataclass(frozen=True)
class SubmitResult:
    approved: bool
    rejection: Optional[Rejection] = None

    @property
    def rejected(self) -> bool:
        return not self.approved

    def reason(self) -> str:
        return "" if self.approved else str(self.rejection)


APPROVED = SubmitResult(True)  # every approved group's result


class _Reject(Exception):
    def __init__(self, code: str, detail: Optional[dict] = None, **extra):
        super().__init__(code)
        self.rejection = Rejection(code, {**(detail or {}), **extra})


# ---------------------------------------------------------------------------
# state


@dataclass(frozen=True)
class AssetDef:
    asset_id: int
    total: int
    decimals: int
    default_frozen: bool
    clawback_addr: Optional[Address]


@dataclass
class Account:
    balance: int = 0
    holdings: dict = field(default_factory=dict)  # asset_id -> base units
    local: dict = field(default_factory=dict)  # app_id -> {key: value}
    min_extra: int = 0  # minimum-balance entries above the base minimum


@dataclass
class AppState:
    """An app's global state and configuration.  No ledger flag makes an app
    immutable: its own program refuses updates and deletions, as on chain."""

    global_state: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _AppCode:
    app_id: int
    program: StatefulProgram
    creator: Address
    global_cap: int  # most global keys the app may hold
    local_cap: int  # most local keys it may hold per account


class _LedgerState:
    __slots__ = ("accounts", "apps", "fees_paid")

    def __init__(self):
        self.accounts: dict = {}
        self.apps: dict = {}
        self.fees_paid: dict = {}


_ABSENT = object()  # a journal entry's previous value for a key that was not there


class _Undo:
    """Rollback record of one group: it saves what each write overwrites.
    `account` and `charge` save an account's balance and minimum on the
    group's first write to it; fee totals are folded from the committed
    transactions when read, so a group never writes one.  `put`, `drop` and
    `move` journal each dict write (holdings, local state, an app's global
    state and config, the app map) as the key's previous value.  `rollback`
    replays the journal in reverse and restores the saved scalars, so
    accounts and app states keep their identity.  The saved accounts are
    exactly the accounts the group wrote, whose minimum balances the group
    must leave intact.  A clear-state call writes through a record of its
    own, which it rolls back or hands to the group's with `adopt`."""

    __slots__ = ("state", "accounts", "writes")

    def __init__(self, state: _LedgerState):
        self.state = state
        self.accounts: dict = {}  # address -> (Account, balance, min_extra) before the group
        self.writes: list = []  # (dict, key, previous value or _ABSENT), in write order

    def account(self, addr: Address) -> Account:
        acc = self.state.accounts[addr]
        if addr not in self.accounts:
            self.accounts[addr] = (acc, acc.balance, acc.min_extra)
        return acc

    def put(self, table: dict, key, value) -> None:
        self.writes.append((table, key, table.get(key, _ABSENT)))
        table[key] = value

    def drop(self, table: dict, key) -> None:
        self.writes.append((table, key, table.pop(key)))

    def move(self, asset_id: int, source: Address, target: Address, amount: int) -> None:
        held = self.account(source).holdings
        self.put(held, asset_id, held[asset_id] - amount)
        held = self.account(target).holdings
        self.put(held, asset_id, held[asset_id] + amount)

    def charge(self, addr: Address, acc: Account, fee: int) -> None:
        """Take a transaction fee from `acc`, the account at `addr`."""
        if addr not in self.accounts:
            self.accounts[addr] = (acc, acc.balance, acc.min_extra)
        acc.balance -= fee

    def adopt(self, inner: "_Undo") -> None:
        """Take over `inner`'s journal, and what it saved that this record has not."""
        self.writes += inner.writes
        for addr, old in inner.accounts.items():
            self.accounts.setdefault(addr, old)

    def rollback(self) -> None:
        for table, key, old in reversed(self.writes):
            if old is _ABSENT:
                del table[key]
            else:
                table[key] = old
        for acc, balance, min_extra in self.accounts.values():
            acc.balance, acc.min_extra = balance, min_extra


@_slot_init
@dataclass(frozen=True, slots=True)
class LogEntry:
    seq: int
    timestamp: int
    txn: Transaction


# ---------------------------------------------------------------------------
# cost accounting


@dataclass(slots=True)
class CostRow:
    actor: Address
    label: str
    amount: int = 0  # microAlgos paid out to escrows / contract accounts
    min_delta: int = 0  # minimum-balance increase
    fee: int = 0  # transaction fees
    tag: Optional[int] = None  # deployment this row belongs to, if any

    @property
    def total(self) -> int:
        return self.amount + self.min_delta + self.fee


class CostLedger:
    """Labelled per-action cost rows: what each actor paid in fees, into
    escrows and in minimum balance.  An approved group of an action leaves
    only its row specs, its tag and the log index of its first transaction in
    `pending`, and `rows` makes its rows from the committed transactions when
    read.  A spec is (payer leg, label, the legs whose fees the payer pays,
    those whose amounts it paid into an escrow, the minimum-balance entries
    they lock), as in `greenbond._Shape.costs`.  `record` makes a row at once:
    only issuance does, for its ledger operations and its published figure."""

    def __init__(self, txns: list):
        self._txns = txns  # the ledger's committed transactions
        self.pending: list = []  # a CostRow, or a group's (specs, tag, start), recorded since `rows` was read
        self._rows: list = []
        self._lock = threading.Lock()

    def record(self, actor: Address, label: str, *, min_delta: int = 0, fee: int = 0, tag: Optional[int] = None) -> None:
        self.pending.append(CostRow(actor, label, 0, min_delta, fee, tag))

    @property
    def rows(self) -> list:
        """Every row, in the order recorded.  The same list every time, grown
        on each read by the rows recorded since the previous one: read it
        again after submitting.  Readers make rows under a lock, so readers
        racing between two writes never add one twice."""
        pending, rows = self.pending, self._rows
        if pending:
            with self._lock:
                txns, stop = self._txns, len(pending)
                for entry in pending[:stop]:
                    if isinstance(entry, CostRow):
                        rows.append(entry)
                        continue
                    specs, tag, start = entry
                    for payer, label, paid, refunds, locked in specs:
                        amount = sum(txns[start + leg].amount for leg in refunds)
                        fee = sum(txns[start + leg].fee for leg in paid)
                        rows.append(CostRow(txns[start + payer].sender, label, amount, locked, fee, tag))
                del pending[:stop]  # only now: a reader that finds `pending` empty finds every row made
        return rows

    def rows_for(self, actor: Optional[Address] = None, tag: Optional[int] = None) -> list:
        return [row for row in self.rows if (actor is None or row.actor == actor) and (tag is None or row.tag == tag)]

    def total_for(self, actor: Address) -> int:
        return sum(row.total for row in self.rows_for(actor))


# ---------------------------------------------------------------------------
# the ledger


class Ledger:
    """Single-writer ledger value.  All mutation flows through the explicit
    operations below; concurrent read-only queries are safe between them."""

    def __init__(self):
        self._state = _LedgerState()
        self._assets: dict = {}
        self._app_code: dict = {}
        self._now = 0
        self._next_account = 1
        self._next_asset = 100
        self._next_app = 1000
        self._minted = 0
        self._txns: list = []  # committed transactions, in ledger order
        self._times: list = []  # the clock when each of them committed
        self._log: list = []  # LogEntry records of the first len(_log) of them, made on read
        self._folded = 0  # how many of them `_fold` has added to the fee totals and `_noted`
        self._fold_lock = threading.Lock()
        self._noted: dict = {}  # sender -> its folded entries that carry a note, in ledger order
        self.cost = CostLedger(self._txns)

    # -- accounts -----------------------------------------------------------

    def create_account(self, label: Optional[str] = None) -> Address:
        if label is None:
            label = f"acct{self._next_account}"
            self._next_account += 1
        if label in self._state.accounts:
            raise LedgerError(f"account label already in use: {label}")
        self._state.accounts[label] = Account()
        return label

    def register_contract_account(self, program: StatelessProgram) -> Address:
        addr = program.address
        self._state.accounts.setdefault(addr, Account())
        return addr

    def _account(self, addr: Address) -> Account:
        acc = self._state.accounts.get(addr)
        if acc is None:
            raise UnknownAddress(addr)
        return acc

    def fund_algos(self, addr: Address, amount: int) -> None:
        """Credit microAlgos out of thin air (dispenser plumbing, fee-free)."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self._account(addr).balance += amount
        self._minted += amount

    def algo_balance(self, addr: Address) -> int:
        return self._account(addr).balance

    def min_balance(self, addr: Address) -> int:
        return BASE_MIN_BALANCE + self._account(addr).min_extra

    def accounts(self) -> list:
        return list(self._state.accounts)

    # -- assets ------------------------------------------------------------

    def create_asset(
        self,
        creator: Address,
        total: int,
        decimals: int,
        default_frozen: bool = False,
        clawback_addr: Optional[Address] = None,
    ) -> int:
        if total <= 0 or decimals < 0:
            raise ValueError("bad asset parameters")
        acc = self._charge_creation(creator, ASSET_CREATE_MIN_BALANCE, "asset creation")
        asset_id = self._next_asset
        self._next_asset += 1
        self._assets[asset_id] = AssetDef(asset_id, total, decimals, default_frozen, clawback_addr)
        acc.holdings[asset_id] = total  # creator holds the full supply
        return asset_id

    def _charge_creation(self, creator: Address, entry: int, what: str) -> Account:
        """Charge the creator one fee for `what` and raise its minimum balance by `entry`."""
        acc = self._account(creator)
        new_extra = acc.min_extra + entry
        if acc.balance - FLAT_FEE < BASE_MIN_BALANCE + new_extra:
            raise InsufficientBalance(f"{creator} cannot cover {what}")
        acc.balance -= FLAT_FEE
        self._state.fees_paid[creator] = self._state.fees_paid.get(creator, 0) + FLAT_FEE
        acc.min_extra = new_extra
        return acc

    def asset(self, asset_id: int) -> AssetDef:
        a = self._assets.get(asset_id)
        if a is None:
            raise LedgerError(f"unknown asset {asset_id}")
        return a

    def asset_balance(self, addr: Address, asset_id: int) -> int:
        return self._account(addr).holdings.get(asset_id, 0)

    def grant_holding(self, addr: Address, asset_id: int) -> None:
        """Create an asset holding as deployment bookkeeping: no fee and no
        minimum-balance entry.  Used for contract-account escrows and the
        stablecoin dispenser; ordinary accounts opt in with a zero self-transfer."""
        self.asset(asset_id)
        self._account(addr).holdings.setdefault(asset_id, 0)

    def dispense_asset(self, asset_id: int, source: Address, target: Address, amount: int) -> None:
        """Fee-free asset move for dispenser plumbing; opts the target in."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        src = self._account(source)
        if src.holdings.get(asset_id, 0) < amount:
            raise InsufficientBalance(f"{source} holds too little of asset {asset_id}")
        self.grant_holding(target, asset_id)
        src.holdings[asset_id] -= amount
        self._account(target).holdings[asset_id] += amount

    # -- applications --------------------------------------------------------

    def register_app(self, program: StatefulProgram, creator: Address) -> int:
        self._charge_creation(creator, program.create_entry, "app creation")
        app_id = self._next_app
        self._next_app += 1
        s = program.schema
        caps = min(s.global_keys, MAX_GLOBAL_KEYS), min(s.local_keys, MAX_LOCAL_KEYS)
        self._app_code[app_id] = _AppCode(app_id, program, creator, *caps)
        self._state.apps[app_id] = AppState()
        return app_id

    def app_global(self, app_id: int, key: bytes):
        return self._app_state(app_id).global_state.get(key)

    def app_config(self, app_id: int, key: str):
        return self._app_state(app_id).config.get(key)

    def app_local(self, addr: Address, app_id: int, key: bytes):
        acc = self._account(addr)
        if app_id not in acc.local:
            return None
        return acc.local[app_id].get(key)

    def is_opted_in(self, addr: Address, app_id: int) -> bool:
        return app_id in self._account(addr).local

    def _app_state(self, app_id: int) -> AppState:
        st = self._state.apps.get(app_id)
        if st is None:
            raise LedgerError(f"unknown app {app_id}")
        return st

    # -- time ------------------------------------------------------------------

    @property
    def now(self) -> int:
        return self._now

    def advance_time(self, to: int) -> None:
        if to < self._now:
            raise ValueError(f"cannot move time backwards: {to} < {self._now}")
        self._now = to

    # -- group submission --------------------------------------------------------

    def submit_group(self, txns: Union[TransactionGroup, Sequence[Transaction]]) -> SubmitResult:
        group = as_group(txns)
        if not 1 <= len(group.txns) <= MAX_GROUP_SIZE:
            return SubmitResult(False, Rejection("bad_group_size", {"size": len(group.txns)}))
        undo = _Undo(self._state)
        try:
            for idx in range(len(group.txns)):
                self._apply_txn(undo, group, idx)
            self._check_min_balances(undo)
        except _Reject as r:
            undo.rollback()
            return SubmitResult(False, r.rejection)
        except BaseException:
            undo.rollback()
            raise
        self._record(group)
        return APPROVED

    def _record(self, group: TransactionGroup) -> None:
        self._txns += group.txns
        self._times += [self._now] * len(group.txns)  # last: `_fold` reads up to its length

    def _fold(self) -> None:
        """Add the fees and index the notes of the transactions committed
        since the last fold.  Every reader of a fee total or of `_noted`
        folds first; the fold runs under a lock, so readers racing between
        two writes never count a transaction twice."""
        if self._folded == len(self._times):
            return
        with self._fold_lock:
            txns, times, fees, noted = self._txns, self._times, self._state.fees_paid, self._noted
            stop = len(times)
            for seq in range(self._folded, stop):
                txn = txns[seq]
                fees[txn.sender] = fees.get(txn.sender, 0) + txn.fee
                if txn.note:
                    noted.setdefault(txn.sender, []).append(LogEntry(seq, times[seq], txn))
            self._folded = stop

    @property
    def applied_log(self) -> list:
        """Every committed transaction as a `LogEntry`, in ledger order.  The
        same list every time, grown on each read by the entries committed
        since the previous one: read it again after submitting."""
        log, txns, times = self._log, self._txns, self._times
        start, stop = len(log), len(txns)
        if start < stop:
            # a slice of equal entries, not an append, so that readers racing
            # between two writes cannot add an entry twice
            log[start:stop] = [LogEntry(seq, times[seq], txns[seq]) for seq in range(start, stop)]
        return log

    def noted_by(self, sender: Address) -> list:
        """Committed entries sent by `sender` that carry a note, in ledger
        order.  Each read first folds the commits since the last fold into
        the list kept for the sender (a sender with none yet gets a fresh
        empty one): read it again after submitting."""
        self._fold()
        return self._noted.get(sender, [])

    # -- transaction application (internal) ----------------------------------------

    def _apply_txn(self, undo: _Undo, group: TransactionGroup, idx: int) -> None:
        txn = group.txns[idx]
        acc = undo.state.accounts.get(txn.sender)
        if acc is None:
            raise _Reject("unknown_address", address=txn.sender)
        # a leg signed by its sender's own key that claws nothing back has
        # nothing to authorize
        if txn.signature is not None or (isinstance(txn, AssetTransfer) and txn.revoke_target is not None):
            auth = self._auth_failure(txn, group, idx)
            if auth is not None:
                raise _Reject(auth, txn_index=idx)
        if txn.fee < FLAT_FEE:
            raise _Reject("fee_too_low", txn_index=idx)
        if acc.balance < txn.fee:
            raise _Reject("insufficient_balance", txn_index=idx, address=txn.sender)
        undo.charge(txn.sender, acc, txn.fee)

        if isinstance(txn, Payment):
            self._apply_payment(undo, txn, idx)
        elif isinstance(txn, AssetTransfer):
            self._apply_asset_transfer(undo, txn, idx)
        else:
            self._apply_app_call(undo, group, idx)

    def _auth_failure(self, txn: Transaction, group: TransactionGroup, idx: int) -> Optional[str]:
        sig = txn.signature  # None: signed by the sender's own key
        if isinstance(sig, SecretKey):
            if sig.address != txn.sender:
                return "bad_signature"
        elif sig is not None:
            expected = sig.delegator if sig.delegator is not None else sig.program.address
            if txn.sender != expected:
                return "bad_signature"
            if not eval_logic_signature(sig, group, idx, self._now):
                return "logic_rejected"
        if isinstance(txn, AssetTransfer) and txn.revoke_target is not None:
            asset = self._assets.get(txn.asset_id)
            if asset is None:
                return "unknown_asset"
            if asset.clawback_addr != txn.sender:
                return "bad_signature"
        return None

    def _apply_payment(self, undo: _Undo, txn: Payment, idx: int) -> None:
        if txn.amount < 0:
            raise _Reject("bad_amount", txn_index=idx)
        if txn.receiver not in undo.state.accounts:
            raise _Reject("unknown_address", address=txn.receiver, txn_index=idx)
        acc = undo.account(txn.sender)
        if acc.balance < txn.amount:
            raise _Reject("insufficient_balance", txn_index=idx, address=txn.sender)
        acc.balance -= txn.amount
        undo.account(txn.receiver).balance += txn.amount

    def _apply_asset_transfer(self, undo: _Undo, txn: AssetTransfer, idx: int) -> None:
        if txn.amount < 0:
            raise _Reject("bad_amount", txn_index=idx)
        asset = self._assets.get(txn.asset_id)
        if asset is None:
            raise _Reject("unknown_asset", txn_index=idx)
        accounts = undo.state.accounts
        sender = accounts[txn.sender]
        recv = accounts.get(txn.receiver)
        if recv is None:
            raise _Reject("unknown_address", address=txn.receiver, txn_index=idx)

        if txn.revoke_target is not None:
            # clawback: authority moves funds out of revoke_target, frozen or not
            src = accounts.get(txn.revoke_target)
            if src is None:
                raise _Reject("unknown_address", address=txn.revoke_target, txn_index=idx)
            if txn.asset_id not in src.holdings:
                raise _Reject("not_opted_in", address=txn.revoke_target, txn_index=idx)
            if txn.asset_id not in recv.holdings:
                raise _Reject("not_opted_in", address=txn.receiver, txn_index=idx)
            if src.holdings[txn.asset_id] < txn.amount:
                raise _Reject("insufficient_balance", txn_index=idx, address=txn.revoke_target)
            undo.move(txn.asset_id, txn.revoke_target, txn.receiver, txn.amount)
            return

        if txn.receiver == txn.sender and txn.amount == 0 and txn.asset_id not in sender.holdings:
            # opt-in: zero self-transfer creates the holding
            sender = undo.account(txn.sender)
            undo.put(sender.holdings, txn.asset_id, 0)
            sender.min_extra += ASSET_OPT_IN_MIN_BALANCE
            return

        if txn.asset_id not in sender.holdings:
            raise _Reject("not_opted_in", address=txn.sender, txn_index=idx)
        if txn.asset_id not in recv.holdings:
            raise _Reject("not_opted_in", address=txn.receiver, txn_index=idx)
        if asset.default_frozen:
            raise _Reject("frozen_holding", txn_index=idx)
        if sender.holdings[txn.asset_id] < txn.amount:
            raise _Reject("insufficient_balance", txn_index=idx, address=txn.sender)
        undo.move(txn.asset_id, txn.sender, txn.receiver, txn.amount)

    def _apply_app_call(self, undo: _Undo, group: TransactionGroup, idx: int) -> None:
        txn = group.txns[idx]
        st = undo.state
        code = self._app_code.get(txn.app_id)
        if code is None or txn.app_id not in st.apps:
            raise _Reject("unknown_app", txn_index=idx)
        program = code.program
        oc = txn.on_complete

        if oc is OPT_IN:
            if txn.app_id in st.accounts[txn.sender].local:
                raise _Reject("already_opted_in", txn_index=idx)
            acc = undo.account(txn.sender)
            undo.put(acc.local, txn.app_id, {})
            acc.min_extra += program.opt_in_entry

        if oc is CLEAR_STATE:
            self._clear_state(undo, code, group, idx)
            return
        ctx = CallContext(txn, code, group, idx, self._now, undo)
        # keep the denial's fields, not the exception: its traceback (or its
        # context's) leads back to this frame, a cycle that would keep the
        # ledger alive until the cyclic collector runs
        denial: Optional[dict] = None
        if program.approval is not None:
            try:
                program.approval(ctx)
            except Deny as d:
                denial = {"code": d.code, **d.detail}
        if denial is not None:
            raise _Reject("app_rejected", {"txn_index": idx, "app": txn.app_id, **denial})
        if ctx.bad_write is not None:
            raise _Reject(*ctx.bad_write, txn_index=idx)
        if oc is NO_OP:
            return

        if oc is CLOSE_OUT:
            if txn.app_id not in st.accounts[txn.sender].local:
                raise _Reject("not_opted_in", txn_index=idx)
            acc = undo.account(txn.sender)
            undo.drop(acc.local, txn.app_id)
            acc.min_extra -= program.opt_in_entry
        elif oc is DELETE_APPLICATION:
            undo.drop(st.apps, txn.app_id)
            undo.account(code.creator).min_extra -= program.create_entry

    def _clear_state(self, undo: _Undo, code: _AppCode, group: TransactionGroup, idx: int) -> None:
        """A clear-state call removes the local state, approved or not; only an
        approved handler's writes stay, so it writes through a record of its own."""
        txn = group.txns[idx]
        inner = _Undo(undo.state)
        ctx = CallContext(txn, code, group, idx, self._now, inner)
        denied = False
        if code.program.clear_state is not None:
            try:
                code.program.clear_state(ctx)
            except Deny:
                denied = True
            finally:
                if denied:
                    inner.rollback()
                else:
                    undo.adopt(inner)
        if txn.app_id not in undo.state.accounts[txn.sender].local:
            raise _Reject("not_opted_in", txn_index=idx)
        if not denied and ctx.bad_write is not None:
            raise _Reject(*ctx.bad_write, txn_index=idx)
        acc = undo.account(txn.sender)
        undo.drop(acc.local, txn.app_id)
        acc.min_extra -= code.program.opt_in_entry

    def _check_min_balances(self, undo: _Undo) -> None:
        """Every account the group saved must keep its minimum balance, but for
        a dormant or pure-asset one (no balance, no minimum).  One pass, no
        sort: a rejection names the smallest failing address."""
        failing = None
        for addr, (acc, _, _) in undo.accounts.items():
            if acc.balance < BASE_MIN_BALANCE + acc.min_extra and (acc.balance or acc.min_extra):
                if failing is None or addr < failing:
                    failing = addr
        if failing is not None:
            acc = undo.accounts[failing][0]
            required = BASE_MIN_BALANCE + acc.min_extra
            raise _Reject("min_balance_violation", address=failing, required=required, available=acc.balance)

    # -- introspection ---------------------------------------------------------

    def fees_paid(self, addr: Address) -> int:
        self._fold()
        return self._state.fees_paid.get(addr, 0)

    def total_fees_burned(self) -> int:
        self._fold()
        return sum(self._state.fees_paid.values())

    def total_algos(self) -> int:
        return sum(acc.balance for acc in self._state.accounts.values())

    def total_minted(self) -> int:
        return self._minted

    def asset_supply_held(self, asset_id: int) -> int:
        return sum(acc.holdings.get(asset_id, 0) for acc in self._state.accounts.values())

    def observable_state(self) -> dict:
        """Canonical snapshot of everything a group submission may change.
        Two ledgers with equal snapshots are observably identical."""
        self._fold()
        return {
            "now": self._now,
            "accounts": {
                addr: (
                    acc.balance,
                    tuple(sorted(acc.holdings.items())),
                    tuple(sorted((app, tuple(sorted(kv.items()))) for app, kv in acc.local.items())),
                    acc.min_extra,
                )
                for addr, acc in sorted(self._state.accounts.items())
            },
            "apps": {
                app_id: (
                    tuple(sorted(s.global_state.items())),
                    tuple(sorted(s.config.items())),
                )
                for app_id, s in sorted(self._state.apps.items())
            },
            "fees": tuple(sorted(self._state.fees_paid.items())),
            "log_len": len(self._txns),
        }
