"""Tests for VIA memory registration and descriptors."""

import pytest

from repro.errors import ViaDescriptorError, ViaProtectionError
from repro.via.descriptors import (
    DescriptorStatus,
    RecvDescriptor,
    SendDescriptor,
)
from repro.via.memory import MemoryRegion, ProtectionTag, RegisteredSpace


def test_protection_tags_unique():
    assert ProtectionTag.create() != ProtectionTag.create()


def test_register_and_find():
    space = RegisteredSpace()
    tag = ProtectionTag.create()
    region = space.register(4096, tag)
    assert space.find(region.addr, 4096, tag) is region
    assert space.find(region.addr + 100, 100, tag) is region


def test_find_respects_bounds():
    space = RegisteredSpace()
    tag = ProtectionTag.create()
    region = space.register(4096, tag)
    with pytest.raises(ViaProtectionError):
        space.find(region.addr + 4000, 200, tag)
    with pytest.raises(ViaProtectionError):
        space.find(region.addr - 10, 20, tag)


def test_find_checks_tag():
    space = RegisteredSpace()
    tag, other = ProtectionTag.create(), ProtectionTag.create()
    region = space.register(4096, tag)
    with pytest.raises(ViaProtectionError):
        space.find(region.addr, 100, other)


def test_rma_write_requires_enablement():
    space = RegisteredSpace()
    tag = ProtectionTag.create()
    plain = space.register(4096, tag)
    enabled = space.register(4096, tag, rma_write=True)
    with pytest.raises(ViaProtectionError):
        space.find(plain.addr, 10, tag, for_rma_write=True)
    assert space.find(enabled.addr, 10, tag, for_rma_write=True) is enabled


def test_deregister():
    space = RegisteredSpace()
    tag = ProtectionTag.create()
    region = space.register(1024, tag)
    space.deregister(region)
    with pytest.raises(ViaProtectionError):
        space.find(region.addr, 10, tag)
    with pytest.raises(ViaProtectionError):
        space.deregister(region)


def test_register_cost_scales_with_pages():
    space = RegisteredSpace()
    small = space.register_cost(4096)
    large = space.register_cost(40 * 4096)
    assert large > small


def test_invalid_registration():
    space = RegisteredSpace()
    with pytest.raises(ViaProtectionError):
        space.register(0, ProtectionTag.create())


def test_regions_do_not_overlap():
    space = RegisteredSpace()
    tag = ProtectionTag.create()
    regions = [space.register(1000, tag) for _ in range(10)]
    spans = sorted((r.addr, r.end) for r in regions)
    for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
        assert a_end <= b_start


def _region(nbytes=4096, **kwargs):
    return MemoryRegion(0x1000, nbytes, ProtectionTag.create(), **kwargs)


def test_descriptor_segment_validation():
    region = _region(100)
    with pytest.raises(ViaDescriptorError):
        SendDescriptor(region, 50, 100)  # runs past the end
    with pytest.raises(ViaDescriptorError):
        SendDescriptor(region, -1, 10)
    with pytest.raises(ViaDescriptorError):
        SendDescriptor(region, 0, -5)


def test_descriptor_immediate_is_32_bit():
    region = _region(100)
    assert SendDescriptor(region, 0, 10, immediate=(1 << 32) - 1)
    for bad in (-1, 1 << 32):
        with pytest.raises(ViaDescriptorError):
            SendDescriptor(region, 0, 10, immediate=bad)


def test_descriptor_addr():
    region = _region(1000)
    descriptor = SendDescriptor(region, 100, 50)
    assert descriptor.addr == region.addr + 100


def test_descriptor_completes_once():
    descriptor = RecvDescriptor(_region(), 0, 10)
    assert descriptor.status is DescriptorStatus.PENDING
    descriptor.mark_done(5.0)
    assert descriptor.status is DescriptorStatus.DONE
    assert descriptor.completed_at == 5.0
    with pytest.raises(ViaDescriptorError):
        descriptor.mark_done(6.0)


def test_descriptor_error_state():
    descriptor = SendDescriptor(_region(), 0, 10)
    descriptor.mark_error(3.0)
    assert descriptor.status is DescriptorStatus.ERROR
