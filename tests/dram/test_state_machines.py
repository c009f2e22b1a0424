"""Bank / bank-group / rank / data-bus state-machine rules."""

import pytest

from oracle import BankGroupState, BankState, DataBusState, RankState
from repro.dram.columnar import TURNAROUND_GAP
from repro.dram.commands import Command, CommandType
from repro.dram.timing import DDR4_2133
from repro.errors import SimulationError

T = DDR4_2133


def _act(row=0, bg=0, bank=0, rank=0):
    return Command(CommandType.ACT, rank=rank, bankgroup=bg, bank=bank,
                   row=row)


def _cmd(kind, row=0, col=0, bg=0, bank=0, rank=0):
    return Command(kind, rank=rank, bankgroup=bg, bank=bank, row=row,
                   col=col)


# ----------------------------------------------------------------------
class TestBankState:
    def test_act_then_column_waits_trcd(self):
        b = BankState(T)
        b.apply(_act(row=7), 0)
        assert b.earliest(_cmd(CommandType.RD, row=7)) == T.tRCD

    def test_act_then_pre_waits_tras(self):
        b = BankState(T)
        b.apply(_act(row=7), 0)
        assert b.earliest(_cmd(CommandType.PRE, row=7)) == T.tRAS

    def test_pre_then_act_waits_trp(self):
        b = BankState(T)
        b.apply(_act(row=7), 0)
        b.apply(_cmd(CommandType.PRE, row=7), 100)
        assert b.earliest(_act(row=8)) == 100 + T.tRP

    def test_read_extends_pre_by_trtp(self):
        b = BankState(T)
        b.apply(_act(row=7), 0)
        b.apply(_cmd(CommandType.SCALED_READ, row=7), 50)
        assert b.earliest(_cmd(CommandType.PRE, row=7)) == 50 + T.tRTP

    def test_write_extends_pre_by_twr(self):
        b = BankState(T)
        b.apply(_act(row=7), 0)
        b.apply(_cmd(CommandType.WR, row=7), 50)
        expected = 50 + T.tCWL + T.tBURST + T.tWR
        assert b.earliest(_cmd(CommandType.PRE, row=7)) == expected

    def test_writeback_has_no_cwl_delay(self):
        b = BankState(T)
        b.apply(_act(row=7), 0)
        b.apply(_cmd(CommandType.WRITEBACK, row=7), 50)
        expected = 50 + T.tBURST + T.tWR
        assert b.earliest(_cmd(CommandType.PRE, row=7)) == expected

    def test_qreg_store_behaves_like_writeback(self):
        b = BankState(T)
        b.apply(_act(row=7), 0)
        b.apply(_cmd(CommandType.QREG_STORE, row=7), 50)
        expected = 50 + T.tBURST + T.tWR
        assert b.earliest(_cmd(CommandType.PRE, row=7)) == expected

    def test_act_on_open_bank_is_structural_error(self):
        b = BankState(T)
        b.apply(_act(row=7), 0)
        with pytest.raises(SimulationError):
            b.earliest(_act(row=8))

    def test_column_to_closed_bank_is_structural_error(self):
        b = BankState(T)
        with pytest.raises(SimulationError):
            b.earliest(_cmd(CommandType.RD, row=7))

    def test_column_to_wrong_row_is_structural_error(self):
        b = BankState(T)
        b.apply(_act(row=7), 0)
        with pytest.raises(SimulationError):
            b.earliest(_cmd(CommandType.RD, row=8))

    def test_pre_on_closed_bank_is_structural_error(self):
        b = BankState(T)
        with pytest.raises(SimulationError):
            b.earliest(_cmd(CommandType.PRE))

    def test_alu_commands_ignore_bank(self):
        b = BankState(T)
        assert b.earliest(_cmd(CommandType.PIM_ADD)) == 0


# ----------------------------------------------------------------------
class TestBankGroupState:
    def test_column_accesses_spaced_tccd_l(self):
        g = BankGroupState(T, banks_per_group=4)
        g.apply(_cmd(CommandType.SCALED_READ), 10)
        assert g.earliest(_cmd(CommandType.WRITEBACK, bank=2)) == (
            10 + T.tCCD_L
        )

    def test_alu_spaced_tpim(self):
        g = BankGroupState(T, banks_per_group=4)
        g.apply(_cmd(CommandType.PIM_ADD), 10)
        assert g.earliest(_cmd(CommandType.PIM_SUB)) == 10 + T.tPIM

    def test_alu_does_not_block_column(self):
        # §IV-C: tPIM "does not interfere with any other commands".
        g = BankGroupState(T, banks_per_group=4)
        g.apply(_cmd(CommandType.PIM_ADD), 10)
        assert g.earliest(_cmd(CommandType.SCALED_READ)) == 0

    def test_column_does_not_block_alu(self):
        g = BankGroupState(T, banks_per_group=4)
        g.apply(_cmd(CommandType.SCALED_READ), 10)
        assert g.earliest(_cmd(CommandType.PIM_ADD)) == 0

    def test_writeback_to_read_turnaround(self):
        g = BankGroupState(T, banks_per_group=4)
        g.apply(_cmd(CommandType.WRITEBACK), 10)
        expected = 10 + T.tBURST + T.tWTR_L
        assert g.earliest(_cmd(CommandType.SCALED_READ, bank=1)) == (
            max(expected, 10 + T.tCCD_L)
        )

    def test_per_bank_pim_decouples_banks(self):
        g = BankGroupState(T, banks_per_group=4, per_bank_pim=True)
        g.apply(_cmd(CommandType.SCALED_READ, bank=0), 10)
        # A different bank's unit is free immediately (AoS-PB).
        assert g.earliest(_cmd(CommandType.SCALED_READ, bank=1)) == 0
        # The same bank still honours tCCD_L.
        assert g.earliest(_cmd(CommandType.SCALED_READ, bank=0)) == (
            10 + T.tCCD_L
        )

    def test_per_bank_pim_alu_per_bank(self):
        g = BankGroupState(T, banks_per_group=4, per_bank_pim=True)
        g.apply(_cmd(CommandType.PIM_ADD, bank=0), 10)
        assert g.earliest(_cmd(CommandType.PIM_ADD, bank=1)) == 0
        assert g.earliest(_cmd(CommandType.PIM_ADD, bank=0)) == 10 + T.tPIM


# ----------------------------------------------------------------------
class TestRankState:
    def test_acts_spaced_trrd_s_across_groups(self):
        r = RankState(T)
        r.apply(_act(bg=0), 10)
        assert r.earliest(_act(bg=1)) == 10 + T.tRRD_S

    def test_acts_spaced_trrd_l_same_group(self):
        r = RankState(T)
        r.apply(_act(bg=0), 10)
        assert r.earliest(_act(bg=0, bank=1)) == 10 + T.tRRD_L

    def test_tfaw_limits_four_acts(self):
        r = RankState(T)
        for i in range(4):
            r.apply(_act(bg=i), i * T.tRRD_S)
        fifth = r.earliest(_act(bg=0, bank=1))
        assert fifth >= T.tFAW

    def test_external_columns_spaced_tccd_s(self):
        r = RankState(T)
        r.apply(_cmd(CommandType.RD), 10)
        assert r.earliest(_cmd(CommandType.RD, bg=1)) == 10 + T.tCCD_S

    def test_internal_columns_not_rank_constrained(self):
        # The decoupling at the heart of GradPIM: scaled reads never
        # touch the global I/O gating.
        r = RankState(T)
        r.apply(_cmd(CommandType.RD), 10)
        assert r.earliest(_cmd(CommandType.SCALED_READ, bg=1)) == 0

    def test_write_to_read_turnaround_twtr_s(self):
        r = RankState(T)
        r.apply(_cmd(CommandType.WR), 10)
        expected = 10 + T.tCWL + T.tBURST + T.tWTR_S
        assert r.earliest(_cmd(CommandType.RD, bg=1)) == max(
            expected, 10 + T.tCCD_S
        )


# ----------------------------------------------------------------------
class TestDataBus:
    def test_back_to_back_reads_same_rank(self):
        bus = DataBusState(T)
        bus.apply(_cmd(CommandType.RD), 0)
        nxt = bus.earliest(_cmd(CommandType.RD))
        # Data of the second read must start right after the first burst.
        assert nxt == T.tBURST

    def test_rank_switch_penalty(self):
        bus = DataBusState(T)
        bus.apply(_cmd(CommandType.RD, rank=0), 0)
        nxt = bus.earliest(_cmd(CommandType.RD, rank=1))
        assert nxt == T.tBURST + T.rank_switch_penalty

    def test_direction_turnaround(self):
        bus = DataBusState(T)
        bus.apply(_cmd(CommandType.RD), 0)
        nxt = bus.earliest(_cmd(CommandType.WR))
        # WR issue so its data (at +tCWL) clears the RD burst + gap.
        assert nxt == T.tCL + T.tBURST + TURNAROUND_GAP - T.tCWL

    def test_internal_commands_ignore_bus(self):
        bus = DataBusState(T)
        bus.apply(_cmd(CommandType.RD), 0)
        assert bus.earliest(_cmd(CommandType.SCALED_READ)) == 0
