#include "cluster/node.hpp"

namespace gpuvm::cluster {

Node::Node(NodeId id, std::string name, vt::Domain& dom, sim::SimParams params,
           const std::vector<sim::GpuSpec>& gpus, core::RuntimeConfig runtime_config,
           cudart::CudaRtConfig cudart_config)
    : id_(id), name_(std::move(name)), machine_(dom, params) {
  for (const auto& spec : gpus) machine_.add_gpu(spec);
  cudart_ = std::make_unique<cudart::CudaRt>(machine_, cudart_config);
  runtime_ = std::make_unique<core::Runtime>(*cudart_, runtime_config);
  runtime_->set_node_identity(id_.value);
}

}  // namespace gpuvm::cluster
