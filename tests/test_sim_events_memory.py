"""Tests for the simulated shared memory."""

from __future__ import annotations

import pytest

from repro.errors import MemoryError_
from repro.sim.memory import OMAP5912_SRAM_BYTES, SharedMemory


class TestSharedMemory:
    def test_default_is_omap_sram_size(self):
        assert SharedMemory().size == OMAP5912_SRAM_BYTES == 250 * 1024

    def test_u8_roundtrip(self):
        memory = SharedMemory(size=64)
        memory.write_u8(3, 0xAB)
        assert memory.read_u8(3) == 0xAB

    def test_u16_little_endian(self):
        memory = SharedMemory(size=64)
        memory.write_u16(4, 0x1234)
        assert memory.read_u8(4) == 0x34
        assert memory.read_u8(5) == 0x12
        assert memory.read_u16(4) == 0x1234

    def test_u32_roundtrip(self):
        memory = SharedMemory(size=64)
        memory.write_u32(8, 0xDEADBEEF)
        assert memory.read_u32(8) == 0xDEADBEEF

    def test_out_of_range_rejected(self):
        memory = SharedMemory(size=16)
        with pytest.raises(MemoryError_):
            memory.read_u8(16)
        with pytest.raises(MemoryError_):
            memory.write_u32(14, 1)
        with pytest.raises(MemoryError_):
            memory.read_u8(-1)

    def test_misaligned_rejected(self):
        memory = SharedMemory(size=64)
        with pytest.raises(MemoryError_):
            memory.read_u16(3)
        with pytest.raises(MemoryError_):
            memory.write_u32(2, 1)

    def test_value_range_checked(self):
        memory = SharedMemory(size=64)
        with pytest.raises(MemoryError_):
            memory.write_u8(0, 256)
        with pytest.raises(MemoryError_):
            memory.write_u16(0, 2**16)

    def test_block_roundtrip(self):
        memory = SharedMemory(size=64)
        memory.write_block(10, b"hello")
        assert memory.read_block(10, 5) == b"hello"

    def test_block_overrun_rejected(self):
        memory = SharedMemory(size=16)
        with pytest.raises(MemoryError_):
            memory.write_block(12, b"toolong")
        with pytest.raises(MemoryError_):
            memory.read_block(12, 10)

    def test_watchpoint_fires_on_write(self):
        memory = SharedMemory(size=64)
        hits = []
        memory.watch(6, lambda addr, old, new: hits.append((addr, old, new)))
        memory.write_u16(6, 7)
        memory.write_u16(6, 9)
        assert hits == [(6, 0, 7), (6, 7, 9)]

    def test_unwatch_stops_callbacks(self):
        memory = SharedMemory(size=64)
        hits = []
        memory.watch(6, lambda *args: hits.append(args))
        memory.unwatch(6)
        memory.write_u16(6, 7)
        assert hits == []

    def test_counters(self):
        memory = SharedMemory(size=64)
        memory.write_u8(0, 1)
        memory.read_u8(0)
        memory.read_u16(0)
        assert memory.writes == 1
        assert memory.reads == 2

    def test_clear_resets_contents(self):
        memory = SharedMemory(size=64)
        memory.write_u32(0, 0xFFFFFFFF)
        memory.clear()
        assert memory.read_u32(0) == 0
