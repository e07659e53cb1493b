// Counting operator new for traced runs. Each allocation is bucketed by the
// allocating thread's pipeline stage tag (util::t_alloc_stage, which the
// library sets around its stages) into a per-thread slot; alloc_counts()
// merges the slots at read. Untraced runs pay one relaxed load per
// allocation and count nothing.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common.hpp"
#include "util/alloc_trace.hpp"

namespace {

using lfpbench::kAllocStages;

struct alignas(64) Slot {
    std::atomic<std::uint64_t> counts[kAllocStages.size()];
};

/// Threads take slots round-robin; a slot shared after wrap-around stays
/// correct because the counters are atomic.
constexpr std::size_t kSlots = 256;
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
std::atomic<bool> g_counting{false};
thread_local Slot* t_slot = nullptr;

std::size_t stage_index(const char* tag) noexcept {
    if (tag != nullptr) {
        for (std::size_t i = 0; i + 1 < kAllocStages.size(); ++i) {
            if (std::strcmp(tag, kAllocStages[i]) == 0) return i;
        }
    }
    return kAllocStages.size() - 1;  // untagged
}

void count_allocation() noexcept {
    if (!g_counting.load(std::memory_order_relaxed)) return;
    if (t_slot == nullptr) {
        t_slot = &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots];
    }
    t_slot->counts[stage_index(lfp::util::t_alloc_stage)].fetch_add(1,
                                                                   std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
    count_allocation();
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lfpbench {

void set_alloc_counting(bool enabled) { g_counting.store(enabled, std::memory_order_relaxed); }

AllocCounts alloc_counts() {
    AllocCounts out{};
    for (const Slot& slot : g_slots) {
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] += slot.counts[i].load(std::memory_order_relaxed);
        }
    }
    return out;
}

}  // namespace lfpbench
