"""Deterministic ledger simulator hosting a green-bond protocol."""

from .ledger import (
    AppCall,
    AssetTransfer,
    BASE_MIN_BALANCE,
    FLAT_FEE,
    InsufficientBalance,
    Ledger,
    LedgerError,
    Payment,
    Rejection,
    SubmitResult,
    TransactionGroup,
    UnknownAddress,
)
from .programs import (
    CallContext,
    Deny,
    LogicSig,
    OnComplete,
    SecretKey,
    StatefulProgram,
    StatelessProgram,
    StateSchema,
    eval_logic_signature,
)
from .greenbond import (
    BondDeployment,
    BondParams,
    TradeOffer,
    bonds_in_circulation,
    coupon_round_at,
    effective_coupon,
    format_usd,
    get_rating,
    issue,
    make_trade_offer,
    rating_slot_at,
    register_investor,
)
from .pricing import CurveRow, curve, penalty_multiplier, price, rated_price
from .reports import ContentId, ReportNote, ReportStore, anchor_report, list_reports

__all__ = [name for name in dir() if not name.startswith("_")]
