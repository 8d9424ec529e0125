// Global-memory allocator and transfer tests.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "cusim/device.hpp"
#include "cusim/global_memory.hpp"

namespace {

using namespace cusim;

TEST(GlobalMemory, AllocateFreeRoundTrip) {
    GlobalMemory mem(1 << 20);
    const DeviceAddr a = mem.allocate(1000);
    EXPECT_TRUE(mem.range_valid(a, 1000));
    EXPECT_EQ(mem.allocation_count(), 1u);
    mem.free(a);
    EXPECT_EQ(mem.allocation_count(), 0u);
    EXPECT_FALSE(mem.range_valid(a, 1));
}

TEST(GlobalMemory, AlignmentIs256) {
    GlobalMemory mem(1 << 20);
    const DeviceAddr a = mem.allocate(1);
    const DeviceAddr b = mem.allocate(1);
    EXPECT_EQ(a % 256, 0u);
    EXPECT_EQ(b % 256, 0u);
    EXPECT_NE(a, b);
}

TEST(GlobalMemory, ExhaustionThrowsMemoryAllocation) {
    GlobalMemory mem(4096);
    (void)mem.allocate(2048);
    try {
        (void)mem.allocate(4096);
        FAIL() << "expected exhaustion";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::MemoryAllocation);
    }
}

TEST(GlobalMemory, FreeListCoalescingAllowsReuse) {
    GlobalMemory mem(4096);
    const DeviceAddr a = mem.allocate(1024);
    const DeviceAddr b = mem.allocate(1024);
    const DeviceAddr c = mem.allocate(1024);
    mem.free(a);
    mem.free(c);
    mem.free(b);  // middle free must merge with both neighbours
    const DeviceAddr big = mem.allocate(4096);
    EXPECT_EQ(big, 0u);
    mem.free(big);
}

TEST(GlobalMemory, DoubleFreeThrows) {
    GlobalMemory mem(4096);
    const DeviceAddr a = mem.allocate(16);
    mem.free(a);
    EXPECT_THROW(mem.free(a), Error);
}

TEST(GlobalMemory, FreeOfNullAddrIsNoop) {
    GlobalMemory mem(4096);
    EXPECT_NO_THROW(mem.free(kNullAddr));
}

TEST(GlobalMemory, OutOfRangeAccessThrows) {
    GlobalMemory mem(4096);
    const DeviceAddr a = mem.allocate(64);
    char buf[128] = {};
    EXPECT_THROW(mem.write(a, buf, 128), Error);
    EXPECT_THROW(mem.read(a + 32, buf, 64), Error);
    EXPECT_NO_THROW(mem.write(a, buf, 64));
}

TEST(GlobalMemory, FreeAllReleasesEverything) {
    GlobalMemory mem(1 << 16);
    for (int i = 0; i < 10; ++i) (void)mem.allocate(1024);
    EXPECT_EQ(mem.allocation_count(), 10u);
    mem.free_all();
    EXPECT_EQ(mem.allocation_count(), 0u);
    EXPECT_EQ(mem.used(), 0u);
    const DeviceAddr a = mem.allocate(1 << 15);
    EXPECT_TRUE(mem.range_valid(a, 1 << 15));
}

TEST(GlobalMemory, Rejects33BitAddressSpace) {
    EXPECT_THROW(GlobalMemory((1ull << 32) + 1), Error);
}

TEST(GlobalMemory, ReallocatedRangeKeepsItsOldBytes) {
    GlobalMemory mem(1 << 20);
    const DeviceAddr a = mem.allocate(64);
    std::vector<std::uint8_t> pattern(64);
    std::iota(pattern.begin(), pattern.end(), std::uint8_t{1});
    mem.write(a, pattern.data(), pattern.size());
    mem.free(a);
    const DeviceAddr b = mem.allocate(64);
    ASSERT_EQ(b, a);
    std::vector<std::uint8_t> back(64);
    mem.read(b, back.data(), back.size());
    EXPECT_EQ(back, pattern) << "re-allocation must not wipe recycled bytes";
}

// Minor page faults this process has taken so far.
long minor_faults() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
}

// Also under ASan and TSan: the arena is an anonymous mapping, which no
// allocator interposer zero-fills or poisons.
TEST(DeviceBringUp, CommitsAlmostNoArenaPages) {
    const DeviceProperties props = g80_properties();
    // Writing the whole 640 MiB arena at construction takes one fault per
    // 4 KiB page (163,840); a lazy arena takes a few dozen.
    const long arena_pages = static_cast<long>(props.total_global_mem / 4096);
    const long before = minor_faults();
    Device dev(props);
    const long faults = minor_faults() - before;
    EXPECT_LT(faults, arena_pages / 64) << "device bring-up committed arena pages";
}

TEST(DeviceBringUp, TopOfTheAddressSpaceReadsZero) {
    Device dev(g80_properties());
    const std::uint64_t total = dev.properties().total_global_mem;
    const DeviceAddr below = dev.malloc_bytes(total - 4096);
    auto top = dev.malloc_n<std::uint32_t>(1024);
    ASSERT_EQ(top.addr(), total - 4096);
    std::vector<std::uint32_t> back(1024, 0xffffffffu);
    dev.download(std::span<std::uint32_t>(back), top);
    EXPECT_EQ(back, std::vector<std::uint32_t>(1024, 0u));
    dev.free(top);
    dev.free_bytes(below);
}

TEST(Device, TypedUploadDownloadRoundTrip) {
    Device dev(tiny_properties());
    std::vector<double> data(517);
    std::iota(data.begin(), data.end(), 0.5);
    auto p = dev.malloc_n<double>(data.size());
    dev.upload(p, std::span<const double>(data));
    std::vector<double> back(data.size());
    dev.download(std::span<double>(back), p);
    EXPECT_EQ(back, data);
    dev.free(p);
}

TEST(Device, TransfersAdvanceHostClockByPcieModel) {
    Device dev(tiny_properties());
    const auto& cost = dev.properties().cost;
    auto p = dev.malloc_n<float>(1 << 16);
    std::vector<float> data(1 << 16, 1.0f);
    const double before = dev.host_time();
    dev.upload(p, std::span<const float>(data));
    const double elapsed = dev.host_time() - before;
    const double expected =
        cost.transfer_latency_s + data.size() * sizeof(float) / cost.pcie_bandwidth_bytes_per_s;
    EXPECT_NEAR(elapsed, expected, 1e-12);
    EXPECT_EQ(dev.bytes_to_device(), data.size() * sizeof(float));
}

TEST(Device, ViewValidatesRange) {
    Device dev(tiny_properties());
    auto p = dev.malloc_n<int>(10);
    EXPECT_NO_THROW((void)dev.view<int>(p.addr(), 10));
    EXPECT_THROW((void)dev.view<int>(p.addr(), 11), Error);
}

TEST(Device, DeviceToDeviceCopyUsesDeviceTime) {
    Device dev(tiny_properties());
    auto a = dev.malloc_n<int>(1024);
    auto b = dev.malloc_n<int>(1024);
    std::vector<int> data(1024, 7);
    dev.upload(a, std::span<const int>(data));
    const double host_before = dev.host_time();
    dev.copy_device_to_device(b.addr(), a.addr(), 1024 * sizeof(int));
    EXPECT_DOUBLE_EQ(dev.host_time(), host_before);   // host not blocked
    EXPECT_GT(dev.device_free_at(), host_before);
    std::vector<int> back(1024);
    dev.download(std::span<int>(back), b);
    EXPECT_EQ(back, data);
}

}  // namespace
