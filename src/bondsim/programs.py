"""Approval-program framework.

Two program kinds plug into the ledger:

* stateless programs: pure predicates over a transaction group, used to
  authorize spends from contract accounts (escrows) or, when signed by a
  delegator, spends from an ordinary account;
* stateful programs: approval handlers with global and per-account local
  key-value state, invoked by application-call transactions.

Stateless programs never see ledger state: their predicate receives only the
group being evaluated, the index of the transaction they are signing, and the
submission time.  Stateful handlers run against a buffered `CallContext`;
their writes are discarded whenever the enclosing group is rejected.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NoReturn, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from .ledger import TransactionGroup

StateValue = Union[int, bytes]

MAX_GLOBAL_KEYS = 64
MAX_LOCAL_KEYS = 16


class OnComplete(Enum):
    OPT_IN = "OptIn"
    NO_OP = "NoOp"
    UPDATE_APPLICATION = "UpdateApplication"
    DELETE_APPLICATION = "DeleteApplication"
    CLOSE_OUT = "CloseOut"
    CLEAR_STATE = "ClearState"


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


def contract_account_address(program: StatelessProgram) -> str:
    return program.address


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
    expected = sig.delegator if sig.delegator is not None else contract_account_address(sig.program)
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

    `min_balance_create` / `min_balance_opt_in` override the schedule-derived
    minimum-balance increments; None means "derive from the schema".
    """

    name: str
    schema: StateSchema
    approval: Callable[["CallContext"], None]
    clear_state: Optional[Callable[["CallContext"], None]] = None
    min_balance_create: Optional[int] = None
    min_balance_opt_in: Optional[int] = None


class CallContext:
    """Everything a stateful handler may see and touch for one call.

    Reads go to the group's working ledger state through a port supplied by
    the evaluator; writes are buffered here and committed only if the handler
    approves and the whole group is approved.  Account and application
    references are enforced: a handler can only read balances/local state of
    its caller and the accounts listed on the transaction, and only read
    global state of its own app and the apps listed on the transaction.
    """

    def __init__(
        self,
        *,
        app_id: int,
        creator: str,
        sender: str,
        on_complete: OnComplete,
        args: tuple,
        accounts: tuple,
        apps: tuple,
        group: "TransactionGroup",
        txn_index: int,
        now: int,
        port,
    ):
        self.app_id = app_id
        self.creator = creator
        self.sender = sender
        self.on_complete = on_complete
        self.args = tuple(args)
        self.accounts = tuple(accounts)
        self.apps = tuple(apps)
        self.group = group
        self.txn_index = txn_index
        self.now = now
        self._port = port
        self.global_writes: dict = {}
        self.local_writes: dict = {}  # (addr, key) -> value
        self.config_writes: dict = {}
        self.finalize_requested = False

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

    # -- reference checks --------------------------------------------------

    def _check_account_ref(self, addr: str) -> None:
        if addr != self.sender and addr not in self.accounts:
            self.deny("account_not_referenced", account=addr)

    def _check_app_ref(self, app_id: int) -> None:
        if app_id != self.app_id and app_id not in self.apps:
            self.deny("app_not_referenced", app=app_id)

    # -- global state --------------------------------------------------------

    def global_value(self, key: bytes, app_id: Optional[int] = None):
        app = self.app_id if app_id is None else app_id
        self._check_app_ref(app)
        if app == self.app_id and key in self.global_writes:
            return self.global_writes[key]
        return self._port.global_get(app, key)

    def global_uint(self, key: bytes, app_id: Optional[int] = None) -> int:
        value = self.global_value(key, app_id)
        return value if isinstance(value, int) else 0

    def global_put(self, key: bytes, value: StateValue) -> None:
        self.global_writes[key] = value

    # -- local state ---------------------------------------------------------

    def is_opted_in(self, addr: str) -> bool:
        self._check_account_ref(addr)
        return self._port.local_exists(self.app_id, addr)

    def local_value(self, addr: str, key: bytes):
        self._check_account_ref(addr)
        if (addr, key) in self.local_writes:
            return self.local_writes[(addr, key)]
        return self._port.local_get(self.app_id, addr, key)

    def local_uint(self, addr: str, key: bytes) -> int:
        value = self.local_value(addr, key)
        return value if isinstance(value, int) else 0

    def local_put(self, addr: str, key: bytes, value: StateValue) -> None:
        self._check_account_ref(addr)
        self.local_writes[(addr, key)] = value

    # -- app configuration (set at deployment, then frozen) -------------------

    def config(self, key: str, default=None):
        if key in self.config_writes:
            return self.config_writes[key]
        value = self._port.config_get(self.app_id, key)
        return default if value is None else value

    def config_put(self, key: str, value) -> None:
        self.config_writes[key] = value

    @property
    def finalized(self) -> bool:
        return self.finalize_requested or self._port.app_finalized(self.app_id)

    def finalize(self) -> None:
        self.finalize_requested = True

    # -- balances --------------------------------------------------------------

    def asset_balance(self, addr: str, asset_id: int) -> int:
        self._check_account_ref(addr)
        return self._port.asset_balance(addr, asset_id)
