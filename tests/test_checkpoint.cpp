// Tests for serializable context checkpoints (core/checkpoint.hpp) -- the
// BLCR-integration substitute: full context state survives serialization,
// node restart, and cross-node migration.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.hpp"

namespace gpuvm::core {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() : guard_(dom_), machine_(dom_, sim::SimParams{1}) {
    machine_.add_gpu(sim::test_gpu(1 << 20));
    rt_ = std::make_unique<cudart::CudaRt>(machine_, cudart::CudaRtConfig{4 * 1024, 8});
    mm_ = std::make_unique<MemoryManager>(*rt_);
    slot_ = rt_->create_client();

    sim::KernelDef addone;
    addone.name = "addone";
    addone.body = [](sim::KernelExecContext& kc) {
      for (auto& v : kc.buffer<float>(0)) v += 1.0f;
      return Status::Ok;
    };
    addone.cost = sim::per_thread_cost(1.0, 4.0);
    machine_.kernels().add(addone);

    mm_->add_context(ctx_);
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
  sim::SimMachine machine_;
  std::unique_ptr<cudart::CudaRt> rt_;
  std::unique_ptr<MemoryManager> mm_;
  ClientId slot_;
  ContextId ctx_{1};
};

TEST_F(CheckpointTest, ImageRoundTripsMetadataAndData) {
  auto a = mm_->on_malloc(ctx_, 256);
  auto b = mm_->on_malloc(ctx_, 1024);
  ASSERT_TRUE(a && b);
  std::vector<std::byte> da(256, std::byte{0x11});
  std::vector<std::byte> db(1024, std::byte{0x22});
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, a.value(), da, std::nullopt), Status::Ok);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, b.value(), db, std::nullopt), Status::Ok);

  auto image = serialize_context(*mm_, ctx_);
  ASSERT_TRUE(image.has_value());
  EXPECT_GT(image.value().size(), 256u + 1024u);  // data + metadata

  // Restore into a different context (e.g., after a node restart).
  ContextId restored{2};
  mm_->add_context(restored);
  ASSERT_EQ(restore_context(*mm_, restored, image.value()), Status::Ok);
  EXPECT_EQ(mm_->mem_usage(restored), 256u + 1024u);

  std::vector<std::byte> out(1024);
  ASSERT_EQ(mm_->on_copy_d2h(restored, std::span(out).first(256), a.value(), 256), Status::Ok);
  EXPECT_EQ(std::vector<std::byte>(out.begin(), out.begin() + 256), da);
  ASSERT_EQ(mm_->on_copy_d2h(restored, out, b.value(), 1024), Status::Ok);
  EXPECT_EQ(out, db);
}

TEST_F(CheckpointTest, SerializationSyncsDirtyDeviceState) {
  auto p = mm_->on_malloc(ctx_, 32 * sizeof(float));
  ASSERT_TRUE(p.has_value());
  std::vector<float> data(32, 1.0f);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), std::as_bytes(std::span(data)), std::nullopt),
            Status::Ok);
  auto prep = mm_->prepare_launch(ctx_, machine_.all_gpus()[0], slot_,
                                  {sim::KernelArg::dev(p.value())});
  ASSERT_EQ(prep.outcome, MemoryManager::PrepareOutcome::Ready);
  ASSERT_EQ(rt_->launch_by_name(slot_, "addone", {{1, 1, 1}, {32, 1, 1}}, prep.translated),
            Status::Ok);
  // Device now holds 2.0f; the swap copy is stale until serialization syncs.
  auto image = serialize_context(*mm_, ctx_);
  ASSERT_TRUE(image.has_value());

  ContextId restored{2};
  mm_->add_context(restored);
  ASSERT_EQ(restore_context(*mm_, restored, image.value()), Status::Ok);
  std::vector<float> out(32);
  ASSERT_EQ(mm_->on_copy_d2h(restored, std::as_writable_bytes(std::span(out)), p.value(),
                             32 * sizeof(float)),
            Status::Ok);
  for (float v : out) EXPECT_EQ(v, 2.0f);
}

TEST_F(CheckpointTest, RestoredContextMaterializesAndRunsKernels) {
  auto p = mm_->on_malloc(ctx_, 32 * sizeof(float));
  ASSERT_TRUE(p.has_value());
  std::vector<float> data(32, 5.0f);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), std::as_bytes(std::span(data)), std::nullopt),
            Status::Ok);
  auto image = serialize_context(*mm_, ctx_);
  ASSERT_TRUE(image.has_value());

  ContextId restored{2};
  mm_->add_context(restored);
  ASSERT_EQ(restore_context(*mm_, restored, image.value()), Status::Ok);
  auto prep = mm_->prepare_launch(restored, machine_.all_gpus()[0], slot_,
                                  {sim::KernelArg::dev(p.value())});
  ASSERT_EQ(prep.outcome, MemoryManager::PrepareOutcome::Ready);
  ASSERT_EQ(rt_->launch_by_name(slot_, "addone", {{1, 1, 1}, {32, 1, 1}}, prep.translated),
            Status::Ok);
  std::vector<float> out(32);
  ASSERT_EQ(mm_->on_copy_d2h(restored, std::as_writable_bytes(std::span(out)), p.value(),
                             32 * sizeof(float)),
            Status::Ok);
  for (float v : out) EXPECT_EQ(v, 6.0f);
}

TEST_F(CheckpointTest, NestedReferencesSurviveRestore) {
  auto child = mm_->on_malloc(ctx_, 64);
  auto parent = mm_->on_malloc(ctx_, sizeof(u64));
  ASSERT_TRUE(child && parent);
  ASSERT_EQ(mm_->register_nested(ctx_, parent.value(), {{0, child.value()}}), Status::Ok);

  auto image = serialize_context(*mm_, ctx_);
  ASSERT_TRUE(image.has_value());
  ContextId restored{2};
  mm_->add_context(restored);
  ASSERT_EQ(restore_context(*mm_, restored, image.value()), Status::Ok);

  // The restored parent's swap image still holds the child's virtual ptr.
  std::vector<u64> slot(1);
  ASSERT_EQ(mm_->on_copy_d2h(restored, std::as_writable_bytes(std::span(slot)), parent.value(),
                             sizeof(u64)),
            Status::Ok);
  EXPECT_EQ(slot[0], child.value());
}

TEST_F(CheckpointTest, NewAllocationsAfterRestoreDoNotCollide) {
  auto p = mm_->on_malloc(ctx_, 4096);
  ASSERT_TRUE(p.has_value());
  auto image = serialize_context(*mm_, ctx_);
  ASSERT_TRUE(image.has_value());

  // Restore into a *fresh memory manager* (simulated node restart): its
  // virtual-address allocator must skip past the restored addresses.
  MemoryManager fresh(*rt_);
  ContextId restored{7};
  fresh.add_context(restored);
  ASSERT_EQ(restore_context(fresh, restored, image.value()), Status::Ok);
  auto fresh_ptr = fresh.on_malloc(restored, 4096);
  ASSERT_TRUE(fresh_ptr.has_value());
  EXPECT_TRUE(fresh_ptr.value() >= p.value() + 4096 || fresh_ptr.value() + 4096 <= p.value());
}

TEST_F(CheckpointTest, CorruptImagesRejected) {
  ContextId restored{2};
  mm_->add_context(restored);
  std::vector<u8> junk(64, 0xab);
  EXPECT_EQ(restore_context(*mm_, restored, junk), Status::ErrorCheckpointNotFound);

  auto p = mm_->on_malloc(ctx_, 64);
  ASSERT_TRUE(p.has_value());
  auto image = serialize_context(*mm_, ctx_);
  ASSERT_TRUE(image.has_value());
  auto truncated = image.value();
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(restore_context(*mm_, restored, truncated), Status::ErrorCheckpointNotFound);
}

TEST_F(CheckpointTest, UnknownEntryTypesRejected) {
  // An entry's type byte is an EntryType (0 or 1). Images and migration
  // deltas come off the wire, so any other byte is refused.
  ContextId restored{2};
  mm_->add_context(restored);
  ASSERT_EQ(mm_->begin_migration(ctx_), Status::Ok);
  auto p = mm_->on_malloc(ctx_, 64);
  ASSERT_TRUE(p.has_value());
  const std::vector<std::byte> bytes(64, std::byte{7});
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), bytes, std::nullopt), Status::Ok);
  auto image = mm_->export_image(ctx_);
  auto delta = mm_->collect_migration_delta(ctx_);
  ASSERT_TRUE(image.has_value() && delta.has_value());
  // magic, version, entry count, then the first entry's vptr and size.
  constexpr size_t kImageType = 4 + 4 + 8 + 8 + 8;
  // magic, version, no freed vptrs, live count, then vptr and size.
  constexpr size_t kDeltaType = 4 + 4 + 8 + 8 + 8 + 8;
  ASSERT_EQ(image.value().at(kImageType), static_cast<u8>(EntryType::Linear));
  ASSERT_EQ(delta.value().at(kDeltaType), static_cast<u8>(EntryType::Linear));
  for (const u8 bad : {u8{2}, u8{255}}) {
    auto corrupt_image = image.value();
    corrupt_image[kImageType] = bad;
    EXPECT_EQ(mm_->import_image(restored, corrupt_image), Status::ErrorCheckpointNotFound);
    auto corrupt_delta = delta.value();
    corrupt_delta[kDeltaType] = bad;
    EXPECT_EQ(mm_->apply_migration_delta(restored, corrupt_delta), Status::ErrorProtocol);
  }
  EXPECT_EQ(mm_->import_image(restored, image.value()), Status::Ok);
}

TEST_F(CheckpointTest, UnknownContextRejected) {
  EXPECT_FALSE(mm_->export_image(ContextId{99}).has_value());
  std::vector<u8> image;
  EXPECT_EQ(mm_->import_image(ContextId{99}, image), Status::ErrorNoValidPte);
}

}  // namespace
}  // namespace gpuvm::core
