"""Clone-based reference ledger for differential tests.

`CloneLedger` evaluates a group on a copy of every account and app state
and adopts the copy only if the group is approved, so a rejected or raising
group cannot leave a trace by construction.  It tracks the accounts whose
minimum balance must be checked in an explicit `touched` set, and runs each
handler against the buffered `CallContext` below, whose writes it commits
only if the handler approves.  `Ledger` writes in place and rolls back
instead, its handlers writing through; the two must agree after every
group.
"""
from __future__ import annotations

from typing import NoReturn, Optional

from bondsim.ledger import (
    ASSET_OPT_IN_MIN_BALANCE,
    BASE_MIN_BALANCE,
    FLAT_FEE,
    MAX_GROUP_SIZE,
    Account,
    AppState,
    AssetTransfer,
    Ledger,
    Payment,
    Rejection,
    SubmitResult,
    TransactionGroup,
    _LedgerState,
    _Reject,
    as_group,
)
from bondsim.programs import MAX_GLOBAL_KEYS, MAX_LOCAL_KEYS, Deny, OnComplete, StateValue


class _StatePort:
    def __init__(self, state: _LedgerState):
        self._state = state

    def global_get(self, app_id: int, key: bytes):
        app = self._state.apps.get(app_id)
        return None if app is None else app.global_state.get(key)

    def config_get(self, app_id: int, key: str):
        app = self._state.apps.get(app_id)
        return None if app is None else app.config.get(key)

    def local_exists(self, app_id: int, addr: str) -> bool:
        acc = self._state.accounts.get(addr)
        return bool(acc and app_id in acc.local)

    def local_get(self, app_id: int, addr: str, key: bytes):
        acc = self._state.accounts.get(addr)
        if acc is None or app_id not in acc.local:
            return None
        return acc.local[app_id].get(key)

    def asset_balance(self, addr: str, asset_id: int) -> int:
        acc = self._state.accounts.get(addr)
        return 0 if acc is None else acc.holdings.get(asset_id, 0)


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
        group: TransactionGroup,
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

    # -- balances --------------------------------------------------------------

    def asset_balance(self, addr: str, asset_id: int) -> int:
        self._check_account_ref(addr)
        return self._port.asset_balance(addr, asset_id)


def clone_state(state: _LedgerState) -> _LedgerState:
    """A copy of `state` that shares no account, app state or dict with it."""
    st = _LedgerState()
    st.accounts = {
        a: Account(acc.balance, dict(acc.holdings), {app: dict(kv) for app, kv in acc.local.items()}, acc.min_extra)
        for a, acc in state.accounts.items()
    }
    st.apps = {i: AppState(dict(s.global_state), dict(s.config)) for i, s in state.apps.items()}
    st.fees_paid = dict(state.fees_paid)
    return st


class CloneLedger(Ledger):
    def submit_group(self, txns):
        group = as_group(txns)
        if not 1 <= len(group.txns) <= MAX_GROUP_SIZE:
            return SubmitResult(False, Rejection("bad_group_size", {"size": len(group.txns)}))
        working = clone_state(self._state)
        touched: set = set()
        try:
            for idx in range(len(group.txns)):
                self._ref_apply_txn(working, group, idx, touched)
            self._ref_check_min_balances(working, touched)
        except _Reject as r:
            return SubmitResult(False, r.rejection)
        # adopt the copy inside the same state object, which the cost ledger reads
        self._state.accounts = working.accounts
        self._state.apps = working.apps
        self._record(group)
        # the reference's own fee totals, in place of those the fold adds
        self._fold()
        self._state.fees_paid = working.fees_paid
        return SubmitResult(True)

    def _ref_apply_txn(self, st, group, idx, touched):
        txn = group.txns[idx]
        acc = st.accounts.get(txn.sender)
        if acc is None:
            raise _Reject("unknown_address", address=txn.sender)
        auth = self._auth_failure(txn, group, idx)
        if auth is not None:
            raise _Reject(auth, txn_index=idx)
        if txn.fee < FLAT_FEE:
            raise _Reject("fee_too_low", txn_index=idx)
        if acc.balance < txn.fee:
            raise _Reject("insufficient_balance", txn_index=idx, address=txn.sender)
        acc.balance -= txn.fee
        st.fees_paid[txn.sender] = st.fees_paid.get(txn.sender, 0) + txn.fee
        touched.add(txn.sender)

        if isinstance(txn, Payment):
            self._ref_apply_payment(st, txn, idx, touched)
        elif isinstance(txn, AssetTransfer):
            self._ref_apply_asset_transfer(st, txn, idx, touched)
        else:
            self._ref_apply_app_call(st, group, idx, touched)

    def _ref_apply_payment(self, st, txn, idx, touched):
        if txn.amount < 0:
            raise _Reject("bad_amount", txn_index=idx)
        recv = st.accounts.get(txn.receiver)
        if recv is None:
            raise _Reject("unknown_address", address=txn.receiver, txn_index=idx)
        acc = st.accounts[txn.sender]
        if acc.balance < txn.amount:
            raise _Reject("insufficient_balance", txn_index=idx, address=txn.sender)
        acc.balance -= txn.amount
        recv.balance += txn.amount
        touched.add(txn.receiver)

    def _ref_apply_asset_transfer(self, st, txn, idx, touched):
        if txn.amount < 0:
            raise _Reject("bad_amount", txn_index=idx)
        asset = self._assets.get(txn.asset_id)
        if asset is None:
            raise _Reject("unknown_asset", txn_index=idx)
        sender = st.accounts[txn.sender]
        recv = st.accounts.get(txn.receiver)
        if recv is None:
            raise _Reject("unknown_address", address=txn.receiver, txn_index=idx)

        if txn.revoke_target is not None:
            src = st.accounts.get(txn.revoke_target)
            if src is None:
                raise _Reject("unknown_address", address=txn.revoke_target, txn_index=idx)
            if txn.asset_id not in src.holdings:
                raise _Reject("not_opted_in", address=txn.revoke_target, txn_index=idx)
            if txn.asset_id not in recv.holdings:
                raise _Reject("not_opted_in", address=txn.receiver, txn_index=idx)
            if src.holdings[txn.asset_id] < txn.amount:
                raise _Reject("insufficient_balance", txn_index=idx, address=txn.revoke_target)
            src.holdings[txn.asset_id] -= txn.amount
            recv.holdings[txn.asset_id] += txn.amount
            touched.update((txn.revoke_target, txn.receiver))
            return

        if txn.receiver == txn.sender and txn.amount == 0 and txn.asset_id not in sender.holdings:
            sender.holdings[txn.asset_id] = 0
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
        sender.holdings[txn.asset_id] -= txn.amount
        recv.holdings[txn.asset_id] += txn.amount
        touched.add(txn.receiver)

    def _ref_apply_app_call(self, st, group, idx, touched):
        txn = group.txns[idx]
        code = self._app_code.get(txn.app_id)
        if code is None or txn.app_id not in st.apps:
            raise _Reject("unknown_app", txn_index=idx)
        program = code.program
        acc = st.accounts[txn.sender]
        oc = txn.on_complete

        if oc is OnComplete.OPT_IN:
            if txn.app_id in acc.local:
                raise _Reject("already_opted_in", txn_index=idx)
            acc.local[txn.app_id] = {}
            acc.min_extra += code.program.opt_in_entry

        ctx = CallContext(
            app_id=txn.app_id,
            creator=code.creator,
            sender=txn.sender,
            on_complete=oc,
            args=txn.args,
            accounts=txn.accounts,
            apps=txn.apps,
            group=group,
            txn_index=idx,
            now=self._now,
            port=_StatePort(st),
        )
        handler = program.clear_state if oc is OnComplete.CLEAR_STATE else program.approval
        denied = None
        if handler is not None:
            try:
                handler(ctx)
            except Deny as d:
                denied = d

        if oc is OnComplete.CLEAR_STATE:
            if txn.app_id not in acc.local:
                raise _Reject("not_opted_in", txn_index=idx)
            if denied is None:
                self._ref_commit_app_writes(st, code, ctx, idx, touched)
            del acc.local[txn.app_id]
            acc.min_extra -= code.program.opt_in_entry
            return

        if denied is not None:
            raise _Reject(
                "app_rejected",
                {"txn_index": idx, "app": txn.app_id, "code": denied.code, **denied.detail},
            )
        self._ref_commit_app_writes(st, code, ctx, idx, touched)

        if oc is OnComplete.CLOSE_OUT:
            if txn.app_id not in acc.local:
                raise _Reject("not_opted_in", txn_index=idx)
            del acc.local[txn.app_id]
            acc.min_extra -= code.program.opt_in_entry
        elif oc is OnComplete.DELETE_APPLICATION:
            del st.apps[txn.app_id]
            creator_acc = st.accounts[code.creator]
            creator_acc.min_extra -= code.program.create_entry
            touched.add(code.creator)

    def _ref_commit_app_writes(self, st, code, ctx, idx, touched):
        app_state = st.apps[code.app_id]
        if ctx.config_writes:
            app_state.config.update(ctx.config_writes)
        if ctx.global_writes:
            app_state.global_state.update(ctx.global_writes)
            cap = min(code.program.schema.global_keys, MAX_GLOBAL_KEYS)
            if len(app_state.global_state) > cap:
                raise _Reject("app_rejected", {"app": code.app_id, "code": "global_schema_exceeded"}, txn_index=idx)
        for (addr, key), value in ctx.local_writes.items():
            target = st.accounts.get(addr)
            if target is None:
                raise _Reject("unknown_address", address=addr, txn_index=idx)
            if code.app_id not in target.local:
                detail = {"app": code.app_id, "code": "not_opted_in", "account": addr}
                raise _Reject("app_rejected", detail, txn_index=idx)
            target.local[code.app_id][key] = value
            cap = min(code.program.schema.local_keys, MAX_LOCAL_KEYS)
            if len(target.local[code.app_id]) > cap:
                raise _Reject("app_rejected", {"app": code.app_id, "code": "local_schema_exceeded"}, txn_index=idx)
            touched.add(addr)

    def _ref_check_min_balances(self, st, touched):
        for addr in sorted(touched):
            acc = st.accounts[addr]
            if acc.balance == 0 and acc.min_extra == 0:
                continue
            required = BASE_MIN_BALANCE + acc.min_extra
            if acc.balance < required:
                raise _Reject("min_balance_violation", address=addr, required=required, available=acc.balance)
