/**
 * @file
 * Unit tests for the device substrate.
 */

#include <gtest/gtest.h>

#include "devices/device.h"
#include "devices/device_manager.h"

namespace wsp {
namespace {

DeviceConfig
fastDevice(const std::string &name = "dev")
{
    DeviceConfig config;
    config.name = name;
    config.suspendFixed = fromMillis(10.0);
    config.resumeFixed = fromMillis(5.0);
    config.resetFixed = fromMillis(2.0);
    config.ioMeanLatency = fromMillis(1.0);
    config.suspendJitter = 0.0;
    return config;
}

TEST(Device, IoCompletesAfterDuration)
{
    EventQueue queue;
    Device dev(queue, fastDevice(), Rng(1));
    dev.submitIo(fromMillis(3.0));
    EXPECT_EQ(dev.inflight(), 1u);
    queue.run();
    EXPECT_EQ(dev.inflight(), 0u);
    EXPECT_EQ(dev.opsCompleted(), 1u);
    EXPECT_EQ(queue.now(), fromMillis(3.0));
}

TEST(Device, BusyWorkloadKeepsQueueFull)
{
    EventQueue queue;
    DeviceConfig config = fastDevice();
    config.busyQueueDepth = 8;
    Device dev(queue, config, Rng(2));
    dev.startBusyWorkload();
    EXPECT_EQ(dev.inflight(), 8u);
    queue.runUntil(fromMillis(50.0));
    EXPECT_EQ(dev.inflight(), 8u);
    EXPECT_GT(dev.opsCompleted(), 50u);
    dev.stopBusyWorkload();
    queue.run();
    EXPECT_EQ(dev.inflight(), 0u);
}

TEST(Device, IdleSuspendCostsFixedOnly)
{
    EventQueue queue;
    Device dev(queue, fastDevice(), Rng(3));
    Tick latency = 0;
    dev.suspend([&](Tick t) { latency = t; });
    queue.run();
    EXPECT_EQ(latency, fromMillis(10.0));
    EXPECT_TRUE(dev.suspended());
}

TEST(Device, BusySuspendWaitsForDrain)
{
    EventQueue queue;
    Device dev(queue, fastDevice(), Rng(4));
    dev.submitIo(fromMillis(20.0));
    Tick latency = 0;
    dev.suspend([&](Tick t) { latency = t; });
    queue.run();
    // Drain 20 ms (parallel completion) + fixed 10 ms.
    EXPECT_EQ(latency, fromMillis(30.0));
}

TEST(Device, SerialDrainSumsRemaining)
{
    EventQueue queue;
    DeviceConfig config = fastDevice();
    config.serialDrain = true;
    Device dev(queue, config, Rng(5));
    dev.submitIo(fromMillis(5.0));
    dev.submitIo(fromMillis(5.0));
    dev.submitIo(fromMillis(5.0));
    Tick latency = 0;
    dev.suspend([&](Tick t) { latency = t; });
    queue.run();
    // 15 ms serial drain + 10 ms fixed.
    EXPECT_EQ(latency, fromMillis(25.0));
}

TEST(Device, RefusesIoWhileSuspending)
{
    EventQueue queue;
    Device dev(queue, fastDevice(), Rng(6));
    dev.suspend(nullptr);
    EXPECT_EQ(dev.submitIo(fromMillis(1.0)), 0u);
    queue.run();
    EXPECT_EQ(dev.submitIo(fromMillis(1.0)), 0u); // now in D3
}

TEST(Device, ResumeRestoresD0)
{
    EventQueue queue;
    Device dev(queue, fastDevice(), Rng(7));
    dev.suspend(nullptr);
    queue.run();
    Tick latency = 0;
    dev.resume([&](Tick t) { latency = t; });
    queue.run();
    EXPECT_EQ(latency, fromMillis(5.0));
    EXPECT_FALSE(dev.suspended());
    EXPECT_NE(dev.submitIo(fromMillis(1.0)), 0u);
}

TEST(Device, PowerLossRecordsLostOps)
{
    EventQueue queue;
    Device dev(queue, fastDevice(), Rng(8));
    dev.submitIo(fromMillis(50.0));
    dev.submitIo(fromMillis(50.0));
    queue.runUntil(fromMillis(1.0));
    dev.onPowerLost();
    EXPECT_EQ(dev.inflight(), 0u);
    EXPECT_EQ(dev.lostOps().size(), 2u);
    EXPECT_EQ(dev.opsLostTotal(), 2u);
    queue.run(); // stale completion events are ignored
    EXPECT_EQ(dev.opsCompleted(), 0u);
}

TEST(Device, ReplayReissuesLostOps)
{
    EventQueue queue;
    Device dev(queue, fastDevice(), Rng(9));
    dev.submitIo(fromMillis(50.0));
    dev.onPowerLost();
    dev.restart(nullptr);
    queue.runUntil(fromMillis(5.0));
    EXPECT_EQ(dev.replayLostOps(), 1u);
    EXPECT_EQ(dev.lostOps().size(), 0u);
    queue.run();
    EXPECT_EQ(dev.opsCompleted(), 1u);
}

TEST(Device, PowerLossDuringSuspendAbortsIt)
{
    EventQueue queue;
    Device dev(queue, fastDevice(), Rng(10));
    bool done_fired = false;
    dev.suspend([&](Tick) { done_fired = true; });
    dev.onPowerLost();
    queue.run();
    EXPECT_FALSE(done_fired);
    EXPECT_TRUE(dev.suspended());
}

// DeviceManager -------------------------------------------------------

TEST(DeviceManager, SuspendAllIsSequential)
{
    EventQueue queue;
    DeviceManager manager(queue);
    manager.addDevice(fastDevice("a"), Rng(1));
    manager.addDevice(fastDevice("b"), Rng(2));
    manager.addDevice(fastDevice("c"), Rng(3));
    Tick total = 0;
    manager.suspendAll([&](Tick t) { total = t; });
    queue.run();
    EXPECT_EQ(total, fromMillis(30.0)); // 3 x 10 ms, one after another
}

TEST(DeviceManager, FindByName)
{
    EventQueue queue;
    DeviceManager manager(queue);
    manager.addDevice(fastDevice("gpu"), Rng(1));
    EXPECT_NE(manager.find("gpu"), nullptr);
    EXPECT_EQ(manager.find("nope"), nullptr);
}

TEST(DeviceManager, PnpRestartSkipsUnsupported)
{
    EventQueue queue;
    DeviceManager manager(queue);
    DeviceConfig pnp = fastDevice("pnp");
    DeviceConfig legacy = fastDevice("legacy");
    legacy.supportsPnpRestart = false;
    manager.addDevice(pnp, Rng(1));
    manager.addDevice(legacy, Rng(2));
    manager.onPowerLost();

    DeviceRestoreReport report;
    manager.restoreAll(DevicePolicy::PnpRestartOnRestore, 0,
                       [&](DeviceRestoreReport r) { report = r; });
    queue.run();
    EXPECT_EQ(report.devicesRestarted, 1u);
    EXPECT_EQ(report.devicesUnsupported, 1u);
}

TEST(DeviceManager, VirtualizedReplayReplaysLostOps)
{
    EventQueue queue;
    DeviceManager manager(queue);
    Device &dev = manager.addDevice(fastDevice("disk"), Rng(1));
    dev.submitIo(fromMillis(100.0));
    dev.submitIo(fromMillis(100.0));
    manager.onPowerLost();
    EXPECT_EQ(manager.totalLostOps(), 2u);

    DeviceRestoreReport report;
    manager.restoreAll(DevicePolicy::VirtualizedReplay, fromSeconds(1.0),
                       [&](DeviceRestoreReport r) { report = r; });
    queue.run();
    EXPECT_EQ(report.opsReplayed, 2u);
    EXPECT_EQ(manager.totalLostOps(), 0u);
    EXPECT_EQ(dev.opsCompleted(), 2u);
    // Host stack boot dominated the latency.
    EXPECT_GE(report.latency, fromSeconds(1.0));
}

TEST(DeviceManager, ColdBootDropsLostOps)
{
    EventQueue queue;
    DeviceManager manager(queue);
    Device &dev = manager.addDevice(fastDevice("disk"), Rng(1));
    dev.submitIo(fromMillis(100.0));
    manager.onPowerLost();
    Tick total = 0;
    manager.coldBootAll([&](Tick t) { total = t; });
    queue.run();
    EXPECT_EQ(manager.totalLostOps(), 0u);
    EXPECT_EQ(dev.opsCompleted(), 0u); // dropped, not replayed
    EXPECT_EQ(total, fromMillis(2.0));
}

TEST(DeviceManager, BusyAllAndStopAll)
{
    EventQueue queue;
    DeviceManager manager(queue);
    manager.addDevice(fastDevice("a"), Rng(1));
    manager.addDevice(fastDevice("b"), Rng(2));
    manager.startBusyAll();
    for (const auto &device : manager.devices())
        EXPECT_GT(device->inflight(), 0u);
    for (const auto &device : manager.devices())
        device->stopBusyWorkload();
    queue.run();
    for (const auto &device : manager.devices())
        EXPECT_EQ(device->inflight(), 0u);
}

// Calibration ------------------------------------------------------------

TEST(DeviceSets, Figure9TotalsInRange)
{
    // Fig. 9: device state save time ~5.3-6.8 s on both testbeds;
    // idle still substantial; busy >= idle.
    struct Case
    {
        std::vector<DeviceConfig> set;
        const char *name;
    };
    for (const auto &[set, name] :
         {Case{deviceSetIntel(), "intel"}, Case{deviceSetAmd(), "amd"}}) {
        for (bool busy : {false, true}) {
            EventQueue queue;
            DeviceManager manager(queue);
            for (size_t i = 0; i < set.size(); ++i)
                manager.addDevice(set[i], Rng(i + 1));
            if (busy)
                manager.startBusyAll();
            Tick total = 0;
            manager.suspendAll([&](Tick t) { total = t; });
            queue.run();
            EXPECT_GT(toSeconds(total), 4.5) << name << " busy=" << busy;
            EXPECT_LT(toSeconds(total), 7.0) << name << " busy=" << busy;
        }
    }
}

TEST(DeviceSets, SuspendDwarfsResidualWindow)
{
    // The point of Fig. 9: ACPI suspend costs orders of magnitude more
    // than the longest residual window (~400 ms).
    EventQueue queue;
    DeviceManager manager(queue);
    const auto set = deviceSetIntel();
    for (size_t i = 0; i < set.size(); ++i)
        manager.addDevice(set[i], Rng(i + 1));
    Tick total = 0;
    manager.suspendAll([&](Tick t) { total = t; });
    queue.run();
    EXPECT_GT(total, 10 * fromMillis(400.0));
}

} // namespace
} // namespace wsp
