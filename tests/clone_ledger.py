"""Clone-based reference ledger for differential tests.

`CloneLedger` evaluates a group on a copy of every account and app state
and adopts the copy only if the group is approved, so a rejected or raising
group cannot leave a trace by construction.  It tracks the accounts whose
minimum balance must be checked in an explicit `touched` set.  `Ledger`
writes in place and rolls back instead; the two must agree after every
group.
"""
from __future__ import annotations

from bondsim.ledger import (
    BASE_MIN_BALANCE,
    FLAT_FEE,
    MAX_GROUP_SIZE,
    AssetTransfer,
    Ledger,
    Payment,
    Rejection,
    SubmitResult,
    _LedgerState,
    _Reject,
    _StatePort,
    as_group,
)
from bondsim.programs import MAX_GLOBAL_KEYS, MAX_LOCAL_KEYS, CallContext, Deny, OnComplete


def clone_state(state: _LedgerState) -> _LedgerState:
    st = _LedgerState()
    st.accounts = {a: acc.clone() for a, acc in state.accounts.items()}
    st.apps = {i: s.clone() for i, s in state.apps.items()}
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
        self._state.fees_paid = working.fees_paid
        self._record(group)
        return SubmitResult(True)

    def _ref_apply_txn(self, st, group, idx, touched):
        txn = group.txns[idx]
        acc = st.accounts.get(txn.sender)
        if acc is None:
            raise _Reject("unknown_address", address=txn.sender)
        if txn.valid_from is not None and self._now < txn.valid_from:
            raise _Reject("clock_window", txn_index=idx)
        if txn.valid_until is not None and self._now > txn.valid_until:
            raise _Reject("clock_window", txn_index=idx)
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
            sender.min_extra += self.schedule.asset_opt_in
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
            acc.min_extra += self.schedule.app_opt_in_entry(program)

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
                self._ref_commit_app_writes(st, code, ctx, touched)
            del acc.local[txn.app_id]
            acc.min_extra -= self.schedule.app_opt_in_entry(program)
            return

        if denied is not None:
            raise _Reject(
                "app_rejected",
                {"txn_index": idx, "app": txn.app_id, "code": denied.code, **denied.detail},
            )
        self._ref_commit_app_writes(st, code, ctx, touched)

        if oc is OnComplete.CLOSE_OUT:
            if txn.app_id not in acc.local:
                raise _Reject("not_opted_in", txn_index=idx)
            del acc.local[txn.app_id]
            acc.min_extra -= self.schedule.app_opt_in_entry(program)
        elif oc is OnComplete.DELETE_APPLICATION:
            del st.apps[txn.app_id]
            creator_acc = st.accounts[code.creator]
            creator_acc.min_extra -= self.schedule.app_create_entry(program)
            touched.add(code.creator)

    def _ref_commit_app_writes(self, st, code, ctx, touched):
        app_state = st.apps[code.app_id]
        if ctx.config_writes:
            app_state.config.update(ctx.config_writes)
        if ctx.finalize_requested:
            app_state.finalized = True
        if ctx.global_writes:
            app_state.global_state.update(ctx.global_writes)
            cap = min(code.program.schema.global_keys, MAX_GLOBAL_KEYS)
            if len(app_state.global_state) > cap:
                raise _Reject("app_rejected", {"app": code.app_id, "code": "global_schema_exceeded"})
        for (addr, key), value in ctx.local_writes.items():
            target = st.accounts.get(addr)
            if target is None:
                raise _Reject("unknown_address", address=addr)
            if code.app_id not in target.local:
                raise _Reject("app_rejected", {"app": code.app_id, "code": "not_opted_in", "account": addr})
            target.local[code.app_id][key] = value
            cap = min(code.program.schema.local_keys, MAX_LOCAL_KEYS)
            if len(target.local[code.app_id]) > cap:
                raise _Reject("app_rejected", {"app": code.app_id, "code": "local_schema_exceeded"})
            touched.add(addr)

    def _ref_check_min_balances(self, st, touched):
        for addr in sorted(touched):
            acc = st.accounts[addr]
            if acc.balance == 0 and acc.min_extra == 0:
                continue
            required = BASE_MIN_BALANCE + acc.min_extra
            if acc.balance < required:
                raise _Reject("min_balance_violation", address=addr, required=required, available=acc.balance)
