#include "src/alloc/framework.h"

#include "src/topology/machine.h"

namespace numalab {
namespace alloc {

std::pair<mem::Region*, uint64_t> BackingSource::Take(AllocEnv* env,
                                                      uint64_t bytes) {
  uint64_t len = (bytes + mem::kSmallPageBytes - 1) &
                 ~(mem::kSmallPageBytes - 1);
  NUMALAB_CHECK(len <= kRegionBytes);
  if (current_ == nullptr || offset_ + len > current_->len) {
    mem::Region* fresh = env->os->TryMap(kRegionBytes);
    if (fresh == nullptr) return {nullptr, 0};
    current_ = fresh;
    env->Charge(mem::kSyscallCycles);
    offset_ = 0;
  }
  uint64_t off = offset_;
  offset_ += len;
  return {current_, off};
}

void* ClassPool::Carve(AllocEnv* env, const topology::Machine& machine,
                       int cls, size_t chunk_bytes, uint32_t owner,
                       BackingSource* backing) {
  size_t stride = sizeof(ObjHeader) + SizeClasses::ClassSize(cls);
  NUMALAB_CHECK(stride <= chunk_bytes);

  if (chunks_head_ == nullptr ||
      chunks_head_->bump + stride > chunks_head_->end) {
    auto [region, off] = backing->Take(env, chunk_bytes);
    if (region == nullptr) return nullptr;
    auto* chunk = new Chunk();
    chunk->region = region;
    chunk->base = region->host + off;
    chunk->bump = chunk->base;
    chunk->end = chunk->base + chunk_bytes;
    chunk->cls = cls;
    chunk->next = chunks_head_;
    chunks_head_ = chunk;
    ++nchunks_;
  }

  Chunk* chunk = chunks_head_;
  char* raw = chunk->bump;
  chunk->bump += stride;
  ++chunk->carved;
  ++chunk->live;

  // Writing the header is the first touch of these pages: they become
  // resident and (under first-touch) bound to the carving thread's node.
  int node = env->CurNode(machine);
  uint64_t first = (reinterpret_cast<uint64_t>(raw) - chunk->region->base) /
                   mem::kSmallPageBytes;
  uint64_t last =
      (reinterpret_cast<uint64_t>(raw) + stride - 1 - chunk->region->base) /
      mem::kSmallPageBytes;
  for (uint64_t i = first; i <= last; ++i) {
    env->os->Touch(chunk->region, i, node);
  }

  auto* hdr = reinterpret_cast<ObjHeader*>(raw);
  hdr->cls = cls;
  hdr->owner = owner;
  hdr->chunk = chunk;
  return raw + sizeof(ObjHeader);
}

}  // namespace alloc
}  // namespace numalab
