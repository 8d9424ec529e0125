// Tests of the raw CUDA-1.0-style runtime API (§3.2): device management,
// memory management with error codes, and the three-step launch protocol
// (ConfigureCall -> SetupArgument -> Launch).
#include <gtest/gtest.h>

#include <cstring>

#include "cusim/cusim.hpp"

namespace {

using namespace cusim;
using namespace cusim::rt;

class RuntimeApiTest : public ::testing::Test {
protected:
    void SetUp() override { Registry::instance().reset(); }
    void TearDown() override { Registry::instance().reset(); }
};

TEST_F(RuntimeApiTest, DeviceManagement) {
    int count = 0;
    ASSERT_EQ(cusimGetDeviceCount(&count), ErrorCode::Success);
    EXPECT_GE(count, 1);

    // Implicit device 0 before any cusimSetDevice (§3.2.1).
    int dev = -1;
    ASSERT_EQ(cusimGetDevice(&dev), ErrorCode::Success);
    EXPECT_EQ(dev, 0);

    EXPECT_EQ(cusimSetDevice(99), ErrorCode::InvalidDevice);
    EXPECT_EQ(cusimSetDevice(0), ErrorCode::Success);

    DeviceProperties props;
    ASSERT_EQ(cusimGetDeviceProperties(&props, 0), ErrorCode::Success);
    EXPECT_EQ(props.multiprocessors, 12u);
    EXPECT_EQ(cusimGetDeviceProperties(&props, 99), ErrorCode::InvalidDevice);
    EXPECT_EQ(cusimGetDeviceProperties(nullptr, 0), ErrorCode::InvalidValue);
}

TEST_F(RuntimeApiTest, ChooseDeviceByProperties) {
    DeviceProperties request;
    request.total_global_mem = 1;
    int dev = -1;
    ASSERT_EQ(cusimChooseDevice(&dev, &request), ErrorCode::Success);
    EXPECT_EQ(dev, 0);

    request.total_global_mem = 1ull << 40;  // nothing has a terabyte
    EXPECT_EQ(cusimChooseDevice(&dev, &request), ErrorCode::InvalidDevice);
    EXPECT_EQ(cusimChooseDevice(nullptr, &request), ErrorCode::InvalidValue);
}

TEST_F(RuntimeApiTest, MallocFreeMemcpyRoundTrip) {
    DeviceAddr ptr = kNullAddr;
    ASSERT_EQ(cusimMalloc(&ptr, 1024), ErrorCode::Success);
    ASSERT_NE(ptr, kNullAddr);

    char out[16] = {};
    ASSERT_EQ(cusimMemcpyToDevice(ptr, "hello, device!", 15), ErrorCode::Success);
    ASSERT_EQ(cusimMemcpyToHost(out, ptr, 15), ErrorCode::Success);
    EXPECT_STREQ(out, "hello, device!");

    DeviceAddr ptr2 = kNullAddr;
    ASSERT_EQ(cusimMalloc(&ptr2, 1024), ErrorCode::Success);
    ASSERT_EQ(cusimMemcpyDeviceToDevice(ptr2, ptr, 15), ErrorCode::Success);
    std::memset(out, 0, sizeof(out));
    ASSERT_EQ(cusimMemcpyToHost(out, ptr2, 15), ErrorCode::Success);
    EXPECT_STREQ(out, "hello, device!");

    EXPECT_EQ(cusimFree(ptr), ErrorCode::Success);
    EXPECT_EQ(cusimFree(ptr2), ErrorCode::Success);
    EXPECT_EQ(cusimFree(ptr), ErrorCode::InvalidDevicePointer);  // double free
}

TEST_F(RuntimeApiTest, MemcpyErrors) {
    EXPECT_EQ(cusimMemcpyToDevice(0, nullptr, 4), ErrorCode::InvalidValue);
    EXPECT_EQ(cusimMemcpyToHost(nullptr, 0, 4), ErrorCode::InvalidValue);
    // Copy outside any allocation.
    char buf[4] = {};
    EXPECT_EQ(cusimMemcpyToHost(buf, 12345, 4), ErrorCode::InvalidDevicePointer);
    // Host-to-host flavour of the void* API.
    char dst[4] = {};
    EXPECT_EQ(cusimMemcpy(dst, "abc", 4, CopyKind::HostToHost), ErrorCode::Success);
    EXPECT_STREQ(dst, "abc");
    EXPECT_EQ(cusimMemcpy(dst, "abc", 4, CopyKind::HostToDevice),
              ErrorCode::InvalidMemcpyDirection);
}

TEST_F(RuntimeApiTest, OutOfMemoryReturnsCode) {
    DeviceAddr ptr = kNullAddr;
    EXPECT_EQ(cusimMalloc(&ptr, 1ull << 40), ErrorCode::MemoryAllocation);
    // The error is also latched for cusimGetLastError.
    EXPECT_EQ(cusimMalloc(&ptr, 64), ErrorCode::Success);
    EXPECT_EQ(cusimGetLastError(), ErrorCode::Success);
    EXPECT_EQ(cusimFree(ptr), ErrorCode::Success);
}

// --- the three-step launch protocol (§3.2.2) ---

KernelTask add_kernel(ThreadCtx& ctx, Device& dev, const std::byte* stack) {
    // Hand-unpacked trampoline: [int a][int b][DeviceAddr out].
    int a = 0, b = 0;
    DeviceAddr out = kNullAddr;
    std::memcpy(&a, stack, 4);
    std::memcpy(&b, stack + 4, 4);
    std::memcpy(&out, stack + 8, 8);
    if (ctx.global_id() == 0) {
        const int sum = a + b;
        std::memcpy(dev.memory().raw(out), &sum, 4);
    }
    co_return;
}

TEST_F(RuntimeApiTest, ThreeStepLaunchProtocol) {
    const KernelHandle handle =
        register_kernel([](ThreadCtx& ctx, Device& dev, const std::byte* stack) {
            return add_kernel(ctx, dev, stack);
        });

    DeviceAddr out = kNullAddr;
    ASSERT_EQ(cusimMalloc(&out, 4), ErrorCode::Success);

    // 1. configure, 2. push arguments, 3. launch.
    ASSERT_EQ(cusimConfigureCall(dim3{2}, dim3{32}), ErrorCode::Success);
    const int a = 20, b = 22;
    ASSERT_EQ(cusimSetupArgument(&a, 4, 0), ErrorCode::Success);
    ASSERT_EQ(cusimSetupArgument(&b, 4, 4), ErrorCode::Success);
    ASSERT_EQ(cusimSetupArgument(&out, 8, 8), ErrorCode::Success);
    ASSERT_EQ(cusimLaunch(handle), ErrorCode::Success);

    int result = 0;
    ASSERT_EQ(cusimMemcpyToHost(&result, out, 4), ErrorCode::Success);
    EXPECT_EQ(result, 42);
    EXPECT_EQ(cusimLastLaunchStats().threads, 64u);
    ASSERT_EQ(cusimFree(out), ErrorCode::Success);
}

// A functor built per request (a serve handler's kernels) registers its
// kernel once: the key is the kernel function, like a __global__ symbol.
TEST_F(RuntimeApiTest, RegisteringOneKernelKeyRepeatedlyYieldsOneHandle) {
    const Trampoline trampoline = [](ThreadCtx& ctx, Device& dev, const std::byte* stack) {
        return add_kernel(ctx, dev, stack);
    };
    const KernelKey key{reinterpret_cast<std::uintptr_t>(&add_kernel), 0};
    const KernelHandle first = register_kernel(key, trampoline);
    const std::size_t registered = registered_kernels();
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(register_kernel(key, trampoline), first);
    EXPECT_EQ(registered_kernels(), registered);
    // With a warp form it is another kernel.
    EXPECT_NE(register_kernel(KernelKey{key.thread, 1}, trampoline), first);
}

TEST_F(RuntimeApiTest, LaunchProtocolMisuse) {
    const KernelHandle handle =
        register_kernel([](ThreadCtx& ctx, Device&, const std::byte*) -> KernelTask {
            (void)ctx;
            co_return;
        });

    // Launch without configuration.
    EXPECT_EQ(cusimLaunch(handle), ErrorCode::InvalidConfiguration);
    // SetupArgument without configuration.
    const int x = 1;
    EXPECT_EQ(cusimSetupArgument(&x, 4, 0), ErrorCode::InvalidConfiguration);
    // Argument past the 256-byte kernel stack.
    ASSERT_EQ(cusimConfigureCall(dim3{1}, dim3{1}), ErrorCode::Success);
    EXPECT_EQ(cusimSetupArgument(&x, 4, kKernelStackSize), ErrorCode::InvalidValue);
    // Invalid geometry is rejected at configure time.
    EXPECT_EQ(cusimConfigureCall(dim3{1}, dim3{1024}), ErrorCode::InvalidConfiguration);
    // Null kernel handle.
    ASSERT_EQ(cusimConfigureCall(dim3{1}, dim3{1}), ErrorCode::Success);
    EXPECT_EQ(cusimLaunch(nullptr), ErrorCode::InvalidValue);
    // The configuration is consumed by a successful launch.
    ASSERT_EQ(cusimConfigureCall(dim3{1}, dim3{1}), ErrorCode::Success);
    ASSERT_EQ(cusimLaunch(handle), ErrorCode::Success);
    EXPECT_EQ(cusimLaunch(handle), ErrorCode::InvalidConfiguration);
}

TEST_F(RuntimeApiTest, ThreadSynchronizeDrainsDevice) {
    const KernelHandle handle = register_kernel(
        [](ThreadCtx& ctx, Device&, const std::byte*) -> KernelTask {
            ctx.charge(Op::FAdd, 100000);
            co_return;
        });
    ASSERT_EQ(cusimConfigureCall(dim3{4}, dim3{64}), ErrorCode::Success);
    ASSERT_EQ(cusimLaunch(handle), ErrorCode::Success);
    Device& dev = Registry::instance().current_device();
    EXPECT_TRUE(dev.kernel_active());
    ASSERT_EQ(cusimThreadSynchronize(), ErrorCode::Success);
    EXPECT_FALSE(dev.kernel_active());
}

}  // namespace
