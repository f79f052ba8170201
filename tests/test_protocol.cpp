// Wire-protocol robustness: the daemon must survive malformed, truncated
// and out-of-order messages from (potentially buggy or hostile) clients --
// replying with protocol errors, never crashing or corrupting other
// tenants. Drives the daemon through raw Message frames, below FrontendApi.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/wire.hpp"
#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "sim/machine.hpp"
#include "transport/channel.hpp"

namespace gpuvm::core {
namespace {

using transport::Message;
using transport::Opcode;

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() : guard_(dom_), machine_(dom_, sim::SimParams{1}) {
    machine_.add_gpu(sim::test_gpu(1 << 20));
    rt_ = std::make_unique<cudart::CudaRt>(machine_, cudart::CudaRtConfig{4 * 1024, 8});
    runtime_ = std::make_unique<Runtime>(*rt_);
  }

  /// Opens a raw channel and completes the v2 Hello handshake.
  std::unique_ptr<transport::MessageChannel> connect_raw() {
    auto channel = runtime_->connect();
    Message hello;
    hello.op = Opcode::Hello;
    hello.payload = transport::encode_hello(transport::HelloPayload{});
    EXPECT_TRUE(channel->send(std::move(hello)));
    auto reply = channel->receive();
    EXPECT_TRUE(reply.has_value());
    EXPECT_EQ(transport::reply_status(*reply), Status::Ok);
    return channel;
  }

  Status call(transport::MessageChannel& ch, Opcode op, std::vector<u8> payload) {
    Message msg;
    msg.op = op;
    msg.payload = std::move(payload);
    if (!ch.send(std::move(msg))) return Status::ErrorConnectionClosed;
    auto reply = ch.receive();
    if (!reply.has_value()) return Status::ErrorConnectionClosed;
    return transport::reply_status(*reply);
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
  sim::SimMachine machine_;
  std::unique_ptr<cudart::CudaRt> rt_;
  std::unique_ptr<Runtime> runtime_;
};

TEST_F(ProtocolTest, TruncatedPayloadsYieldProtocolErrors) {
  auto ch = connect_raw();
  EXPECT_EQ(call(*ch, Opcode::Malloc, {}), Status::ErrorProtocol);           // missing size
  EXPECT_EQ(call(*ch, Opcode::Free, {1, 2}), Status::ErrorProtocol);        // short u64
  EXPECT_EQ(call(*ch, Opcode::MemcpyH2D, {0, 0, 0}), Status::ErrorProtocol);
  EXPECT_EQ(call(*ch, Opcode::MemcpyD2H, {9}), Status::ErrorProtocol);
  EXPECT_EQ(call(*ch, Opcode::Launch, {1}), Status::ErrorProtocol);
  // The connection stays usable afterwards.
  WireWriter w;
  w.put<u64>(64);
  EXPECT_EQ(call(*ch, Opcode::Malloc, w.take()), Status::Ok);
}

TEST_F(ProtocolTest, UnknownOpcodeRejected) {
  auto ch = connect_raw();
  Message msg;
  msg.op = static_cast<Opcode>(250);
  ASSERT_TRUE(ch->send(std::move(msg)));
  auto reply = ch->receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(transport::reply_status(*reply), Status::ErrorProtocol);
}

TEST_F(ProtocolTest, FirstMessageMustBeHello) {
  auto channel = runtime_->connect();
  Message msg;
  msg.op = Opcode::Malloc;
  WireWriter w;
  w.put<u64>(64);
  msg.payload = w.take();
  ASSERT_TRUE(channel->send(std::move(msg)));
  // The daemon drops the connection without a reply.
  EXPECT_FALSE(channel->receive().has_value());
}

TEST_F(ProtocolTest, MalformedLengthPrefixInH2DIsSafe) {
  auto ch = connect_raw();
  WireWriter alloc;
  alloc.put<u64>(64);
  ASSERT_EQ(call(*ch, Opcode::Malloc, alloc.take()), Status::Ok);

  // Claim 2^60 bytes of inline data but send 8.
  WireWriter w;
  w.put<u64>(0);                      // dst (invalid anyway)
  w.put<u64>(1ull << 60);             // absurd length prefix
  w.put<u64>(0xdeadbeef);             // only 8 bytes follow
  EXPECT_EQ(call(*ch, Opcode::MemcpyH2D, w.take()), Status::ErrorProtocol);
}

TEST_F(ProtocolTest, HugeCountsAndSizesGetErrorReplies) {
  // Each frame once killed the daemon: a count or size far beyond the
  // payload was allocated before any bounds check.
  auto ch = connect_raw();
  constexpr u64 kHuge = 1ull << 62;
  WireWriter alloc;
  alloc.put<u64>(64);
  Message msg;
  msg.op = Opcode::Malloc;
  msg.payload = alloc.take();
  ASSERT_TRUE(ch->send(std::move(msg)));
  auto reply = ch->receive();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(transport::reply_status(*reply), Status::Ok);
  WireReader ptr_reader(transport::reply_payload(*reply));
  const u64 ptr = ptr_reader.get<u64>();
  ASSERT_TRUE(ptr_reader.ok());

  WireWriter launch;
  launch.put_string("addone");
  launch.put(sim::LaunchConfig{});
  launch.put<u64>(kHuge);  // argc
  EXPECT_EQ(call(*ch, Opcode::Launch, launch.take()), Status::ErrorProtocol);

  WireWriter nested;
  nested.put<u64>(ptr);    // parent
  nested.put<u64>(kHuge);  // reference count
  EXPECT_EQ(call(*ch, Opcode::RegisterNested, nested.take()), Status::ErrorProtocol);

  WireWriter d2h;
  d2h.put<u64>(ptr);
  d2h.put<u64>(kHuge);  // size
  EXPECT_EQ(call(*ch, Opcode::MemcpyD2H, d2h.take()), Status::ErrorSwapSizeMismatch);

  // 16 bytes claiming 2^20 functions: within the decoder's cap, but not
  // within the frame, so nothing is reserved for them.
  WireWriter resume;
  resume.put_bytes({});      // empty delta
  resume.put<u64>(1u << 20);  // function count
  EXPECT_EQ(call(*ch, Opcode::MigrateResume, resume.take()), Status::ErrorProtocol);

  // Sizes no swap area can hold: from 2^63 on, sizing one threw
  // length_error instead of failing the allocation.
  for (const u64 size : {1ull << 63, ~0ull}) {
    WireWriter w;
    w.put<u64>(size);
    EXPECT_EQ(call(*ch, Opcode::Malloc, w.take()), Status::ErrorSwapAllocation) << size;
  }
  // One migrated entry, as a round-0 image entry and as a new entry in a
  // round-1 delta: of size 2^64-1; of 8 GiB, far beyond the 1 MiB device
  // (it used to zero-fill 8 GiB of host memory for an entry that could
  // never materialize); and of 64 bytes at an address range that wraps.
  const auto entry = [](WireWriter& w, u64 vptr, u64 size) {
    w.put<u64>(vptr);
    w.put<u64>(size);
    w.put<u8>(0);   // EntryType::Linear
    w.put<u8>(0);   // not a nested member
    w.put<u64>(0);  // nested references
  };
  const auto chunk = [&](u32 round, std::vector<u8> image) {
    transport::MigrateChunkPayload payload;
    payload.round = round;
    payload.image = std::move(image);
    return call(*ch, Opcode::MigrateChunk, transport::encode_migrate_chunk(payload));
  };
  const auto image_of = [&](u64 vptr, u64 size) {
    WireWriter image;
    image.put<u32>(0x6d766367);  // image magic "gcvm"
    image.put<u32>(3);           // image version
    image.put<u64>(1);           // entries
    entry(image, vptr, size);
    return image.take();
  };
  const auto delta_of = [&](u64 vptr, u64 size) {
    WireWriter delta;
    delta.put<u32>(0x6c646d67);  // delta magic "gmdl"
    delta.put<u32>(1);           // delta version
    delta.put<u64>(0);           // freed entries
    delta.put<u64>(1);           // dirty entries
    entry(delta, vptr, size);
    return delta.take();
  };
  for (const u64 size : {~0ull, 8ull << 30}) {
    EXPECT_EQ(chunk(0, image_of(1ull << 40, size)), Status::ErrorSwapAllocation) << size;
    EXPECT_EQ(chunk(1, delta_of(1ull << 40, size)), Status::ErrorSwapAllocation) << size;
  }
  const u64 wrapping = ~0ull - 31;  // + 64 bytes wraps past 2^64
  EXPECT_EQ(chunk(0, image_of(wrapping, 64)), Status::ErrorCheckpointNotFound);
  EXPECT_EQ(chunk(1, delta_of(wrapping, 64)), Status::ErrorProtocol);

  // The daemon survived, and the connection still serves.
  WireWriter w;
  w.put<u64>(64);
  EXPECT_EQ(call(*ch, Opcode::Malloc, w.take()), Status::Ok);
}

TEST_F(ProtocolTest, UnknownArgumentKindsGetProtocolErrors) {
  // KernelArg kinds are 0-4 on the wire; any other byte is refused before
  // it becomes an enum value (in a migrated context's pending launch too),
  // and the connection keeps serving.
  auto ch = connect_raw();
  WireWriter configure;
  configure.put(sim::LaunchConfig{});
  ASSERT_EQ(call(*ch, Opcode::ConfigureCall, configure.take()), Status::Ok);
  const auto setup = [&](u8 kind) {
    WireWriter w;
    w.put<u8>(kind);
    w.put<u64>(7);
    return call(*ch, Opcode::SetupArgument, w.take());
  };
  const auto launch = [&](u8 kind) {
    WireWriter w;
    w.put_string("addone");
    w.put(sim::LaunchConfig{});
    w.put<u64>(1);  // argc
    w.put<u8>(kind);
    w.put<u64>(7);
    return call(*ch, Opcode::Launch, w.take());
  };
  const auto resume = [&](u8 kind) {
    transport::MigrateResumePayload payload;
    payload.has_pending_config = true;
    payload.pending_config.resize(sizeof(sim::LaunchConfig));
    payload.pending_args = {{kind, 7}};
    return call(*ch, Opcode::MigrateResume, transport::encode_migrate_resume(payload));
  };
  for (const u8 kind : {u8{5}, u8{255}}) {
    EXPECT_EQ(setup(kind), Status::ErrorProtocol) << int{kind};
    EXPECT_EQ(launch(kind), Status::ErrorProtocol) << int{kind};
    EXPECT_EQ(resume(kind), Status::ErrorProtocol) << int{kind};
  }
  const auto highest = static_cast<u8>(sim::KernelArg::Kind::AccessHint);
  EXPECT_EQ(setup(highest), Status::Ok);
  EXPECT_EQ(resume(highest), Status::Ok);
  EXPECT_NE(launch(highest), Status::ErrorProtocol);  // fails later: "addone" is unknown

  WireWriter w;
  w.put<u64>(64);
  EXPECT_EQ(call(*ch, Opcode::Malloc, w.take()), Status::Ok);
}

TEST_F(ProtocolTest, SetupArgumentWithoutConfigureRejected) {
  auto ch = connect_raw();
  WireWriter w;
  w.put<u8>(1);
  w.put<u64>(7);
  EXPECT_EQ(call(*ch, Opcode::SetupArgument, w.take()), Status::ErrorInvalidConfiguration);
}

TEST_F(ProtocolTest, RegisterFunctionNeedsValidModule) {
  auto ch = connect_raw();
  WireWriter w;
  w.put<u64>(999);  // never-registered module
  w.put<u64>(0x1);
  w.put_string("anything");
  EXPECT_EQ(call(*ch, Opcode::RegisterFunction, w.take()), Status::ErrorInvalidValue);
}

TEST_F(ProtocolTest, HostileClientDoesNotDisturbTenants) {
  // A well-behaved tenant works while a hostile one sprays garbage.
  sim::KernelDef addone;
  addone.name = "p_addone";
  addone.body = [](sim::KernelExecContext& kc) {
    for (auto& v : kc.buffer<float>(0)) v += 1.0f;
    return Status::Ok;
  };
  addone.cost = sim::per_thread_cost(1.0, 4.0);
  machine_.kernels().add(addone);

  auto hostile = connect_raw();
  FrontendApi good(runtime_->connect());
  ASSERT_EQ(good.register_kernels({"p_addone"}), Status::Ok);
  auto buf = good.malloc(32 * sizeof(float));
  ASSERT_TRUE(buf.has_value());
  std::vector<float> data(32, 1.0f);
  ASSERT_EQ(good.copy_in(buf.value(), data), Status::Ok);

  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    std::vector<u8> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<u8>(rng.below(256));
    (void)call(*hostile, static_cast<Opcode>(rng.below(70)), std::move(junk));
    if (i % 10 == 0) {
      ASSERT_EQ(good.launch("p_addone", {{1, 1, 1}, {32, 1, 1}},
                            {sim::KernelArg::dev(buf.value())}),
                Status::Ok);
    }
  }
  std::vector<float> out(32);
  ASSERT_EQ(good.copy_out(out, buf.value()), Status::Ok);
  for (float v : out) EXPECT_EQ(v, 6.0f);  // 5 launches
}

TEST_F(ProtocolTest, OldFormatHelloRejectedWithProtocolMismatch) {
  // A version-1 peer began the payload with a raw double cost hint -- no
  // magic word. The daemon must refuse it cleanly, not misparse it.
  auto channel = runtime_->connect();
  WireWriter w;
  w.put<double>(0.25);
  w.put<u8>(0);
  w.put<u64>(0);
  w.put<double>(0.0);
  Message hello;
  hello.op = Opcode::Hello;
  hello.payload = w.take();
  ASSERT_TRUE(channel->send(std::move(hello)));
  auto reply = channel->receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(transport::reply_status(*reply), Status::ErrorProtocolMismatch);
  // The daemon hangs up after the rejection.
  EXPECT_FALSE(channel->receive().has_value());
}

TEST_F(ProtocolTest, UnsupportedVersionRejected) {
  auto channel = runtime_->connect();
  WireWriter w;
  w.put<u32>(protocol::kHandshakeMagic);
  w.put<u16>(u16{999});  // from the future
  w.put<u32>(protocol::caps::kAll);
  w.put<double>(0.0);
  w.put<u8>(0);
  w.put<u64>(0);
  w.put<double>(0.0);
  Message hello;
  hello.op = Opcode::Hello;
  hello.payload = w.take();
  ASSERT_TRUE(channel->send(std::move(hello)));
  auto reply = channel->receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(transport::reply_status(*reply), Status::ErrorProtocolMismatch);
}

TEST_F(ProtocolTest, TruncatedHelloIsAProtocolError) {
  auto channel = runtime_->connect();
  WireWriter w;
  w.put<u32>(protocol::kHandshakeMagic);
  w.put<u16>(protocol::kProtocolVersion);  // caps and the rest missing
  Message hello;
  hello.op = Opcode::Hello;
  hello.payload = w.take();
  ASSERT_TRUE(channel->send(std::move(hello)));
  auto reply = channel->receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(transport::reply_status(*reply), Status::ErrorProtocol);
}

TEST_F(ProtocolTest, CapabilitiesAreNegotiatedAndGateOptionalOps) {
  // A client that does not advertise QueryStats must not be served it --
  // both the frontend (locally) and the daemon (for raw frames) refuse.
  ConnectOptions options;
  options.caps = protocol::caps::kAll & ~protocol::caps::kQueryStats;
  FrontendApi api(runtime_->connect(), options);
  ASSERT_TRUE(api.connected());
  EXPECT_EQ(api.negotiated_caps() & protocol::caps::kQueryStats, 0u);
  EXPECT_EQ(api.query_stats().status(), Status::ErrorNotSupported);

  // Raw channel bypassing the frontend gate: the daemon itself refuses.
  auto channel = runtime_->connect();
  transport::HelloPayload hello;
  hello.caps = protocol::caps::kAll & ~protocol::caps::kQueryStats;
  Message msg;
  msg.op = Opcode::Hello;
  msg.payload = transport::encode_hello(hello);
  ASSERT_TRUE(channel->send(std::move(msg)));
  auto reply = channel->receive();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(transport::reply_status(*reply), Status::Ok);
  auto hr = transport::decode_hello_reply(transport::reply_payload(*reply));
  ASSERT_TRUE(hr.has_value());
  EXPECT_EQ(hr->caps & protocol::caps::kQueryStats, 0u);
  EXPECT_EQ(call(*channel, Opcode::QueryStats, {}), Status::ErrorNotSupported);

  // A fully-capable client still gets everything.
  FrontendApi full(runtime_->connect());
  ASSERT_TRUE(full.connected());
  EXPECT_EQ(full.negotiated_caps(), protocol::caps::kAll);
  EXPECT_TRUE(full.query_stats().has_value());
}

TEST_F(ProtocolTest, QueryLoadIsGatedByTheV3Capability) {
  // A protocol-v2 peer (no kQueryLoad in the handshake) must be refused
  // cleanly -- locally by the frontend and by the daemon for raw frames.
  ConnectOptions options;
  options.caps = protocol::caps::kAll & ~protocol::caps::kQueryLoad;
  FrontendApi v2(runtime_->connect(), options);
  ASSERT_TRUE(v2.connected());
  EXPECT_EQ(v2.negotiated_caps() & protocol::caps::kQueryLoad, 0u);
  EXPECT_EQ(v2.query_load().status(), Status::ErrorNotSupported);

  // A v3 peer gets a coherent one-shot snapshot.
  FrontendApi v3(runtime_->connect());
  ASSERT_TRUE(v3.connected());
  auto load = v3.query_load();
  ASSERT_TRUE(load.has_value());
  EXPECT_EQ(load->seq, 0u);  // one-shot polls are unsequenced
  EXPECT_EQ(load->vgpu_count, runtime_->scheduler().vgpu_count());
  ASSERT_EQ(load->devices.size(), 1u);
  EXPECT_GT(load->devices[0].total_bytes, 0u);
}

TEST_F(ProtocolTest, QueryLoadRejectsMalformedIntervals) {
  auto ch = connect_raw();
  // Negative interval: protocol error, connection stays usable.
  EXPECT_EQ(call(*ch, Opcode::QueryLoad, transport::encode_query_load(-5)),
            Status::ErrorProtocol);
  WireWriter w;
  w.put<u64>(64);
  EXPECT_EQ(call(*ch, Opcode::Malloc, w.take()), Status::Ok);
}

TEST_F(ProtocolTest, SubscriptionIntervalsOutOfBoundsAreRefused) {
  auto ch = connect_raw();
  const vt::TimePoint before = dom_.now();
  // 1 ns would cost a clock advance per virtual nanosecond, 2^63 - 1 ns
  // wraps now + interval, and a keepalive below the interval is no
  // keepalive: each is refused, and none subscribes.
  EXPECT_EQ(call(*ch, Opcode::QueryLoad, transport::encode_query_load(1)),
            Status::ErrorInvalidValue);
  EXPECT_EQ(call(*ch, Opcode::QueryLoad,
                 transport::encode_query_load(std::numeric_limits<i64>::max())),
            Status::ErrorInvalidValue);
  EXPECT_EQ(call(*ch, Opcode::QueryLoad, transport::encode_query_load(1'000'000, 999'999)),
            Status::ErrorInvalidValue);
  // The connection still serves: a one-shot poll answers.
  Message poll;
  poll.op = Opcode::QueryLoad;
  poll.payload = transport::encode_query_load(0);
  ASSERT_TRUE(ch->send(std::move(poll)));
  auto reply = ch->receive();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(transport::reply_status(*reply), Status::Ok);
  auto load = transport::decode_load(transport::reply_payload(*reply));
  ASSERT_TRUE(load.has_value());
  EXPECT_EQ(load->seq, 0u);
  // Four round trips over the local socket, nothing more.
  EXPECT_EQ(dom_.now() - before, transport::ChannelCosts::local_socket().latency * 8);
}

TEST_F(ProtocolTest, DaemonMaskedCapsEmulateAnOlderDaemon) {
  // The daemon side of graceful fallback: a runtime configured with
  // caps_mask stripping kQueryLoad negotiates like a v2 daemon even with a
  // fully-capable client.
  RuntimeConfig config;
  config.caps_mask = protocol::caps::kAll & ~protocol::caps::kQueryLoad;
  Runtime old_daemon(*rt_, config);
  FrontendApi api(old_daemon.connect());
  ASSERT_TRUE(api.connected());
  EXPECT_EQ(api.negotiated_caps() & protocol::caps::kQueryLoad, 0u);
  EXPECT_EQ(api.query_load().status(), Status::ErrorNotSupported);
  // Everything v2 still works.
  EXPECT_TRUE(api.malloc(1024).has_value());
  EXPECT_TRUE(api.query_stats().has_value());
}

TEST_F(ProtocolTest, GoodbyeIsAcknowledgedAndCleansUp) {
  auto ch = connect_raw();
  WireWriter w;
  w.put<u64>(4096);
  ASSERT_EQ(call(*ch, Opcode::Malloc, w.take()), Status::Ok);
  EXPECT_EQ(call(*ch, Opcode::Goodbye, {}), Status::Ok);
  ch->close();
  runtime_->drain();
  EXPECT_EQ(machine_.gpu(machine_.all_gpus()[0])->used_bytes(), 0u);
}

}  // namespace
}  // namespace gpuvm::core
