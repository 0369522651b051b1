"""Tests for deterministic account binning."""

import hashlib

import pytest

from repro.interventions.bins import BIN_COUNT, BinAssignment, account_bin
from repro.platform.countermeasures import CountermeasureDecision


class TestAccountBin:
    def test_deterministic(self):
        assert account_bin(12345) == account_bin(12345)

    def test_range(self):
        for account in range(500):
            assert 0 <= account_bin(account) < BIN_COUNT

    def test_roughly_uniform(self):
        counts = [0] * BIN_COUNT
        for account in range(5000):
            counts[account_bin(account)] += 1
        assert min(counts) > 350
        assert max(counts) < 650

    def test_not_correlated_with_id_order(self):
        """Sequential ids must not land in sequential bins."""
        bins = [account_bin(i) for i in range(20)]
        assert bins != sorted(bins)

    def test_custom_bin_count(self):
        assert 0 <= account_bin(7, bins=3) < 3

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            account_bin(1, bins=0)

    @pytest.mark.parametrize("bins", [3, 10])
    def test_memo_matches_direct_hash(self, bins):
        """The memoized bin equals a fresh blake2b computation, on the
        first (filling) and the second (memo-hit) call alike."""
        for _ in range(2):
            for account in range(2001):
                digest = hashlib.blake2b(str(account).encode("ascii"), digest_size=8).digest()
                assert account_bin(account, bins) == int.from_bytes(digest, "big") % bins


class TestBinAssignment:
    def test_narrow_design(self):
        assignment = BinAssignment.narrow()
        groups = {assignment.group_of(a) for a in range(1000)}
        assert groups == {"block", "delay", "control", "untreated"}

    def test_treatment_of(self):
        assignment = BinAssignment.narrow(block_bin=1, delay_bin=2, control_bin=0)
        for account in range(2000):
            bin_index = account_bin(account)
            treatment = assignment.treatment_of(account)
            if bin_index == 1:
                assert treatment is CountermeasureDecision.BLOCK
            elif bin_index == 2:
                assert treatment is CountermeasureDecision.DELAY_REMOVE
            else:
                assert treatment is CountermeasureDecision.ALLOW

    def test_broad_designs_treat_ninety_percent(self):
        delay = BinAssignment.broad_delay()
        block = BinAssignment.broad_block()
        assert len(delay.delay_bins) == 9
        assert len(block.block_bins) == 9
        assert delay.control_bins == block.control_bins == frozenset({0})

    def test_overlapping_treatments_rejected(self):
        with pytest.raises(ValueError):
            BinAssignment(block_bins=frozenset({1}), delay_bins=frozenset({1}))

    def test_out_of_range_bin_rejected(self):
        with pytest.raises(ValueError):
            BinAssignment(block_bins=frozenset({10}))

    def test_group_labels(self):
        assignment = BinAssignment.broad_block()
        labels = {assignment.group_of(a) for a in range(200)}
        assert labels == {"block", "control"}
