"""Approval-program framework.

Two program kinds plug into the ledger:

* stateless programs: pure predicates over a transaction group, used to
  authorize spends from contract accounts (escrows) or, when signed by a
  delegator, spends from an ordinary account;
* stateful programs: approval handlers with global and per-account local
  key-value state, invoked by application-call transactions.

Stateless programs never see ledger state: their predicate receives only the
group being evaluated, the index of the transaction they are signing, and the
submission time.  Stateful handlers read the live ledger state directly
through a `CallContext`, and each of their writes journals the value it
replaces in the enclosing group's rollback record: a rejected group writes
those values back.  The ledger evaluates every logic signature through
`eval_logic_signature` and every call through its program's `approval`.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NoReturn, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from .ledger import AppCall, TransactionGroup, _AppCode, _Undo

StateValue = Union[int, bytes]

MAX_GLOBAL_KEYS = 64
MAX_LOCAL_KEYS = 16
MAX_UINT = 2**64 - 1  # a uint in app state is a uint64
UINT_OUT_OF_RANGE = "uint_out_of_range"


class OnComplete(Enum):
    OPT_IN = "OptIn"
    NO_OP = "NoOp"
    UPDATE_APPLICATION = "UpdateApplication"
    DELETE_APPLICATION = "DeleteApplication"
    CLOSE_OUT = "CloseOut"
    CLEAR_STATE = "ClearState"


# the members as module globals, bound once: `OnComplete.X` is slow on 3.10 and 3.11
OPT_IN, NO_OP, UPDATE_APPLICATION, DELETE_APPLICATION, CLOSE_OUT, CLEAR_STATE = OnComplete


class Deny(Exception):
    """Raised by a stateful handler to reject the calling transaction."""

    def __init__(self, code: str, detail: Optional[dict] = None):
        super().__init__(code)
        self.code = code
        self.detail = detail or {}


@dataclass(frozen=True)
class StatelessProgram:
    """Pure group predicate.  Identity (name, params) determines the
    contract-account address, so two builds with equal parameters are the
    same program."""

    name: str
    params: tuple
    predicate: Callable[["TransactionGroup", int, int], bool]  # (group, index, now)

    @cached_property
    def address(self) -> str:
        """Contract-account address, hashed once per program object."""
        material = repr((self.name, self.params)).encode()
        return "lsig:" + hashlib.sha256(material).hexdigest()[:24]


@dataclass(frozen=True)
class SecretKey:
    """Authorization by the account's own key (modeled, not cryptographic)."""

    address: str


@dataclass(frozen=True)
class LogicSig:
    """Program-based authorization.

    Without a delegator the signature authorizes only transactions sent from
    the program's contract-account address.  With a delegator it authorizes
    transactions whose sender is the delegator, whenever the predicate holds.
    """

    program: StatelessProgram
    delegator: Optional[str] = None


Signature = Union[SecretKey, LogicSig]


def eval_logic_signature(sig: LogicSig, group: "TransactionGroup", txn_index: int, now: int) -> bool:
    """True iff `sig` authorizes transaction `txn_index` of `group` at `now`."""
    txn = group.txns[txn_index]
    expected = sig.delegator if sig.delegator is not None else sig.program.address
    if txn.sender != expected:
        return False
    return bool(sig.program.predicate(group, txn_index, now))


@dataclass(frozen=True)
class StateSchema:
    global_uints: int = 0
    global_bytes: int = 0
    local_uints: int = 0
    local_bytes: int = 0

    @property
    def global_keys(self) -> int:
        return self.global_uints + self.global_bytes

    @property
    def local_keys(self) -> int:
        return self.local_uints + self.local_bytes


@dataclass(frozen=True)
class StatefulProgram:
    """Approval + clear-state handlers plus the state schema.

    `min_balance_create` / `min_balance_opt_in` state the minimum-balance
    entries the app's creator and each opted-in account lock; None means
    "price the schema".  `create_entry` / `opt_in_entry` are the entries
    locked: the stated value, or else the schema's price.
    """

    name: str
    schema: StateSchema
    approval: Callable[["CallContext"], None]
    clear_state: Optional[Callable[["CallContext"], None]] = None
    min_balance_create: Optional[int] = None
    min_balance_opt_in: Optional[int] = None

    @staticmethod
    def _entry(stated: Optional[int], uints: int, byte_slices: int) -> int:
        return stated if stated is not None else 100_000 + 28_500 * uints + 50_000 * byte_slices

    @cached_property
    def create_entry(self) -> int:
        return self._entry(self.min_balance_create, self.schema.global_uints, self.schema.global_bytes)

    @cached_property
    def opt_in_entry(self) -> int:
        return self._entry(self.min_balance_opt_in, self.schema.local_uints, self.schema.local_bytes)


class CallContext:
    """Everything a stateful handler may see and touch for one call.

    Reads and writes go to the live ledger state, each write through the
    group's rollback record `undo`, so later legs see it and a rejection
    undoes it.  A write the app may not make is noted as `bad_write`, the
    rejection (code, detail) it earns, not raised: a global schema overflow,
    or else the first bad local write (a local overflow, or an account unknown
    or not opted in, which is left unwritten), or else the first uint written
    outside [0, 2**64) (`uint_out_of_range`, which fails a uint64 program).
    The ledger rejects the call with it once the handler returns, after any
    denial.
    Account and application references are enforced: a handler can only read
    balances/local state of its caller and the accounts listed on the
    transaction, and only read global state of its own app and the apps
    listed on the transaction.  `app_config` is the app's live configuration
    dict, to read; `config_put` writes it.  An app that must not change
    refuses updates and deletions itself, from its own state.
    """

    __slots__ = ("app_id", "creator", "sender", "on_complete", "args", "accounts", "apps", "group", "txn_index",
                 "now", "bad_write", "app_config", "_code", "_undo", "_accounts", "_app")

    def __init__(
        self, txn: "AppCall", code: "_AppCode", group: "TransactionGroup", txn_index: int, now: int, undo: "_Undo"
    ):
        self.app_id = txn.app_id
        self.creator = code.creator
        self.sender = txn.sender
        self.on_complete = txn.on_complete
        self.args = txn.args
        self.accounts = txn.accounts
        self.apps = txn.apps
        self.group = group
        self.txn_index = txn_index
        self.now = now
        self.bad_write: Optional[tuple] = None
        self._code = code  # the app's code record: creator and schema caps
        self._undo = undo
        self._accounts = undo.state.accounts
        self._app = undo.state.apps[txn.app_id]  # this app's live state
        self.app_config = self._app.config

    # -- control flow -----------------------------------------------------

    def deny(self, code: str, **detail) -> NoReturn:
        raise Deny(code, detail)

    def require(self, cond: bool, code: str, **detail) -> None:
        if not cond:
            self.deny(code, **detail)

    # -- arguments ---------------------------------------------------------

    def arg(self, index: int) -> bytes:
        if index >= len(self.args):
            self.deny("missing_arg", index=index)
        return self.args[index]

    def int_arg(self, index: int) -> int:
        raw = self.arg(index)
        try:
            return int(raw.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            self.deny("bad_arg", index=index)

    # -- global state --------------------------------------------------------

    def global_value(self, key: bytes, app_id: Optional[int] = None):
        if app_id is None or app_id == self.app_id:
            return self._app.global_state.get(key)
        if app_id not in self.apps:
            self.deny("app_not_referenced", app=app_id)
        app = self._undo.state.apps.get(app_id)
        return None if app is None else app.global_state.get(key)

    def global_uint(self, key: bytes, app_id: Optional[int] = None) -> int:
        if app_id is None or app_id == self.app_id:
            value = self._app.global_state.get(key)
        else:
            value = self.global_value(key, app_id)
        return value if isinstance(value, int) else 0

    def global_put(self, key: bytes, value: StateValue) -> None:
        state = self._app.global_state
        self._undo.put(state, key, value)
        if len(state) > self._code.global_cap:
            self.bad_write = ("app_rejected", {"app": self.app_id, "code": "global_schema_exceeded"})
        elif isinstance(value, int) and not 0 <= value <= MAX_UINT and self.bad_write is None:
            self.bad_write = ("app_rejected", {"app": self.app_id, "code": UINT_OUT_OF_RANGE, "key": key})

    # -- local state ---------------------------------------------------------

    def is_opted_in(self, addr: str) -> bool:
        if addr != self.sender and addr not in self.accounts:
            self.deny("account_not_referenced", account=addr)
        acc = self._accounts.get(addr)
        return acc is not None and self.app_id in acc.local

    def local_uint(self, addr: str, key: bytes) -> int:
        if addr != self.sender and addr not in self.accounts:
            self.deny("account_not_referenced", account=addr)
        acc = self._accounts.get(addr)
        local = None if acc is None else acc.local.get(self.app_id)
        value = None if local is None else local.get(key)
        return value if isinstance(value, int) else 0

    def local_put(self, addr: str, key: bytes, value: StateValue) -> None:
        if addr != self.sender and addr not in self.accounts:
            self.deny("account_not_referenced", account=addr)
        acc = self._accounts.get(addr)
        if acc is None or self.app_id not in acc.local:
            if self._first_bad_local():
                not_opted_in = ("app_rejected", {"app": self.app_id, "code": "not_opted_in", "account": addr})
                self.bad_write = ("unknown_address", {"address": addr}) if acc is None else not_opted_in
            return
        local = self._undo.account(addr).local[self.app_id]
        self._undo.put(local, key, value)
        if len(local) > self._code.local_cap:
            if self._first_bad_local():
                self.bad_write = ("app_rejected", {"app": self.app_id, "code": "local_schema_exceeded"})
        elif isinstance(value, int) and not 0 <= value <= MAX_UINT and self.bad_write is None:
            detail = {"app": self.app_id, "code": UINT_OUT_OF_RANGE, "account": addr, "key": key}
            self.bad_write = ("app_rejected", detail)

    def _first_bad_local(self) -> bool:
        """No bad write is noted yet that comes before a bad local one."""
        return self.bad_write is None or self.bad_write[1].get("code") == UINT_OUT_OF_RANGE

    # -- app configuration (written by the app's own program) ----------------

    def config(self, key: str, default=None):
        value = self._app.config.get(key)
        return default if value is None else value

    def config_put(self, key: str, value) -> None:
        self._undo.put(self._app.config, key, value)

    # -- balances --------------------------------------------------------------

    def asset_balance(self, addr: str, asset_id: int) -> int:
        if addr != self.sender and addr not in self.accounts:
            self.deny("account_not_referenced", account=addr)
        acc = self._accounts.get(addr)
        return 0 if acc is None else acc.holdings.get(asset_id, 0)
