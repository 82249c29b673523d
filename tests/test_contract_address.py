"""Each stateless program hashes its contract-account address once."""
import hashlib
from collections import Counter

from bondsim import greenbond as gb
from bondsim import programs
from bondsim.ledger import Payment, TransactionGroup
from bondsim.programs import LogicSig, StatelessProgram, eval_logic_signature


def formula_address(program: StatelessProgram) -> str:
    material = repr((program.name, program.params)).encode()
    return "lsig:" + hashlib.sha256(material).hexdigest()[:24]


def _material(program: StatelessProgram) -> bytes:
    return repr((program.name, program.params)).encode()


def test_address_matches_the_formula(env):
    dep = env.deploy()
    samples = [
        StatelessProgram("open", (), lambda g, i, n: True),
        StatelessProgram("escrow", (1, "x"), lambda g, i, n: False),
        StatelessProgram("escrow", (2, "x"), lambda g, i, n: False),
        StatelessProgram("nested", ((1, 2), b"\x00", None), lambda g, i, n: True),
        dep.bond_escrow_lsig.program,
        dep.stablecoin_escrow_lsig.program,
    ]
    for program in samples:
        assert program.address == formula_address(program)
    assert dep.bond_escrow_lsig.program.address == dep.bond_escrow
    assert dep.stablecoin_escrow_lsig.program.address == dep.stablecoin_escrow


def _count_hashes(monkeypatch) -> Counter:
    hashed: Counter = Counter()
    real = hashlib.sha256

    def counting(data=b"", **kwargs):
        hashed[bytes(data)] += 1
        return real(data, **kwargs)

    monkeypatch.setattr(programs.hashlib, "sha256", counting)
    return hashed


def test_repeated_evaluations_hash_once(monkeypatch):
    hashed = _count_hashes(monkeypatch)
    program = StatelessProgram("open", (42,), lambda g, i, n: True)
    group = TransactionGroup((Payment(sender=program.address, receiver="bob", amount=1),))
    for _ in range(5):
        assert eval_logic_signature(LogicSig(program), group, 0, 0)
        assert program.address == group.txns[0].sender
    assert hashed[_material(program)] == 1


def test_escrow_programs_hash_at_most_once_across_groups(env, monkeypatch):
    dep = env.deploy()
    hashed = _count_hashes(monkeypatch)
    env.ledger.advance_time(100)
    for _ in range(3):
        investor = env.investor()
        assert gb.submit_buy(env.ledger, dep, investor, gb.UNIT).approved
    for lsig in (dep.bond_escrow_lsig, dep.stablecoin_escrow_lsig):
        assert hashed[_material(lsig.program)] <= 1
