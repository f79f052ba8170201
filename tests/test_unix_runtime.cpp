// End-to-end over real AF_UNIX sockets: the gpuvm daemon listens on a
// filesystem socket (the gVirtuS deployment shape) and applications connect
// through the same wire protocol the in-process channels use.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "sim/machine.hpp"
#include "transport/unix_socket.hpp"

namespace gpuvm::core {
namespace {

class UnixRuntimeTest : public ::testing::Test {
 protected:
  UnixRuntimeTest() : guard_(dom_), machine_(dom_, sim::SimParams{1}) {
    machine_.add_gpu(sim::test_gpu(1 << 20));
    rt_ = std::make_unique<cudart::CudaRt>(machine_, cudart::CudaRtConfig{4 * 1024, 8});
    runtime_ = std::make_unique<Runtime>(*rt_);

    sim::KernelDef doubler;
    doubler.name = "doubler";
    doubler.body = [](sim::KernelExecContext& kc) {
      for (auto& v : kc.buffer<float>(0)) v *= 2.0f;
      return Status::Ok;
    };
    doubler.cost = sim::per_thread_cost(1.0, 4.0);
    machine_.kernels().add(doubler);

    path_ = "/tmp/gpuvm_daemon_" + std::to_string(::getpid()) + ".sock";
    auto server = transport::UnixSocketServer::listen(
        path_, [this](std::unique_ptr<transport::MessageChannel> channel) {
          runtime_->serve_channel(std::move(channel));
        });
    if (server.has_value()) server_ = std::move(server.value());
  }

  void SetUp() override { ASSERT_NE(server_, nullptr) << "listen failed"; }

  ~UnixRuntimeTest() override {
    if (server_ != nullptr) server_->stop();
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
  sim::SimMachine machine_;
  std::unique_ptr<cudart::CudaRt> rt_;
  std::unique_ptr<Runtime> runtime_;
  std::string path_;
  std::unique_ptr<transport::UnixSocketServer> server_;
};

TEST_F(UnixRuntimeTest, FullApplicationOverRealSockets) {
  auto channel = transport::unix_connect(path_);
  ASSERT_TRUE(channel.has_value());
  FrontendApi api(std::move(channel.value()));
  ASSERT_TRUE(api.connected());
  EXPECT_GT(api.device_count(), 0);

  ASSERT_EQ(api.register_kernels({"doubler"}), Status::Ok);
  auto ptr = api.malloc(64 * sizeof(float));
  ASSERT_TRUE(ptr.has_value());
  std::vector<float> data(64, 21.0f);
  ASSERT_EQ(api.copy_in(ptr.value(), data), Status::Ok);
  ASSERT_EQ(api.launch("doubler", {{1, 1, 1}, {64, 1, 1}}, {sim::KernelArg::dev(ptr.value())}),
            Status::Ok);
  std::vector<float> out(64);
  ASSERT_EQ(api.copy_out(out, ptr.value()), Status::Ok);
  for (float v : out) EXPECT_EQ(v, 42.0f);
  ASSERT_EQ(api.free(ptr.value()), Status::Ok);
}

TEST_F(UnixRuntimeTest, ConcurrentSocketClientsShareTheGpu) {
  std::atomic<int> good{0};
  {
    dom_.hold();
    std::vector<vt::Thread> clients;
    for (int c = 0; c < 6; ++c) {
      clients.emplace_back(dom_, [&, c] {
        auto channel = transport::unix_connect(path_);
        if (!channel.has_value()) return;
        FrontendApi api(std::move(channel.value()));
        if (!api.connected()) return;
        if (!ok(api.register_kernels({"doubler"}))) return;
        auto ptr = api.malloc(32 * sizeof(float));
        if (!ptr) return;
        std::vector<float> data(32, static_cast<float>(c + 1));
        if (!ok(api.copy_in(ptr.value(), data))) return;
        for (int i = 0; i < 3; ++i) {
          if (!ok(api.launch("doubler", {{1, 1, 1}, {32, 1, 1}},
                             {sim::KernelArg::dev(ptr.value())}))) {
            return;
          }
        }
        std::vector<float> out(32);
        if (!ok(api.copy_out(out, ptr.value()))) return;
        for (float v : out) {
          if (v != static_cast<float>(c + 1) * 8.0f) return;
        }
        good.fetch_add(1);
      });
    }
    dom_.unhold();
  }
  EXPECT_EQ(good.load(), 6);
  EXPECT_EQ(runtime_->stats().connections, 6u);
}

TEST_F(UnixRuntimeTest, DisconnectReclaimsResources) {
  {
    auto channel = transport::unix_connect(path_);
    ASSERT_TRUE(channel.has_value());
    FrontendApi api(std::move(channel.value()));
    ASSERT_TRUE(api.connected());
    ASSERT_TRUE(api.malloc(4096).has_value());
  }
  runtime_->drain();
  EXPECT_EQ(machine_.gpu(machine_.all_gpus()[0])->used_bytes(), 0u);
}

TEST_F(UnixRuntimeTest, EndedConnectionsReleaseTheirDescriptors) {
  // The daemon keeps a served session until it goes, so an ended one must
  // not keep its socket open: one descriptor per connection ever served
  // would run the process into its descriptor limit, and accept() fails.
  const auto open_descriptors = [] {
    return std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                         std::filesystem::directory_iterator{});
  };
  const auto before = open_descriptors();
  constexpr int kConnections = 200;
  for (int i = 0; i < kConnections; ++i) {
    auto channel = transport::unix_connect(path_);
    ASSERT_TRUE(channel.has_value());
    FrontendApi api(std::move(channel.value()));
    ASSERT_TRUE(api.connected());
  }
  runtime_->drain();  // every session has closed its channel
  EXPECT_EQ(runtime_->stats().connections, static_cast<u64>(kConnections));
  EXPECT_LE(open_descriptors(), before + 2);
}

}  // namespace
}  // namespace gpuvm::core
