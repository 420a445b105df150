#include "eval/batch.h"

#include <utility>

namespace ldl {

std::unique_ptr<BlockStorage> BlockStoragePool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      std::unique_ptr<BlockStorage> storage = std::move(free_.back());
      free_.pop_back();
      return storage;
    }
  }
  return std::make_unique<BlockStorage>();
}

void BlockStoragePool::Release(std::unique_ptr<BlockStorage> storage) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(storage));
}

}  // namespace ldl
