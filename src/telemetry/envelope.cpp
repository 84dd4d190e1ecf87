#include "telemetry/envelope.hpp"

#include <sys/mman.h>

#include <atomic>
#include <bit>
#include <cmath>

namespace ubac::telemetry {
namespace {

/// Bounded linear-probe window: a registration scans at most this many
/// slots before giving up (counted, never blocking).
constexpr std::size_t kProbeWindow = 16;

constexpr double kUnitsPerBit = 1024.0;  // 2^10 granules per bit

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Anonymous pages read as zero and become resident only when written,
/// so meta and payload cost memory only for slots record() has fed.
/// Null when the mapping fails.
std::byte* map_zero_pages(std::size_t bytes) noexcept {
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  return pages == MAP_FAILED ? nullptr : static_cast<std::byte*>(pages);
}

template <class T>
std::atomic_ref<T> at(T& word) noexcept {
  return std::atomic_ref<T>(word);
}

}  // namespace

std::atomic<ArrivalRecorder*> ArrivalRecorder::g_active_{nullptr};

void ArrivalRecorder::install(ArrivalRecorder* recorder) {
  g_active_.store(recorder, std::memory_order_release);
}

ArrivalRecorder::ArrivalRecorder(Options options)
    : capacity_(round_up_pow2(options.capacity < 2 ? 2 : options.capacity)),
      mask_(capacity_ - 1) {}

ArrivalRecorder::~ArrivalRecorder() {
  for (auto& base : regions_)
    if (std::byte* mapped = base.load(std::memory_order_relaxed))
      munmap(mapped, region_bytes());
}

std::size_t ArrivalRecorder::region_bytes() const noexcept {
  return capacity_ * (sizeof(std::uint64_t) + sizeof(Meta) + sizeof(Payload));
}

ArrivalRecorder::Region ArrivalRecorder::region(std::size_t r) const noexcept {
  std::byte* base = regions_[r].load(std::memory_order_acquire);
  if (base == nullptr) return Region{};
  std::byte* meta = base + capacity_ * sizeof(std::uint64_t);
  return Region{reinterpret_cast<std::uint64_t*>(base),
                reinterpret_cast<Meta*>(meta),
                reinterpret_cast<Payload*>(meta + capacity_ * sizeof(Meta))};
}

ArrivalRecorder::Region ArrivalRecorder::map_region(std::size_t r) noexcept {
  std::byte* mapped = map_zero_pages(region_bytes());
  if (mapped == nullptr) return region(r);
  std::byte* expected = nullptr;
  // Two first registrations racing: one mapping wins, the other goes.
  if (!regions_[r].compare_exchange_strong(expected, mapped,
                                           std::memory_order_acq_rel))
    munmap(mapped, region_bytes());
  return region(r);
}

std::size_t ArrivalRecorder::regions_in_use() const noexcept {
  std::size_t used = 0;
  for (const auto& base : regions_)
    used += base.load(std::memory_order_relaxed) != nullptr;
  return used;
}

std::size_t ArrivalRecorder::flow_count() const noexcept {
  std::size_t live = 0;
  for (std::size_t r = 0; r < kRegions; ++r) {
    const Region reg = region(r);
    if (reg.keys == nullptr) continue;
    for (std::size_t i = 0; i < capacity_; ++i)
      live += at(reg.keys[i]).load(std::memory_order_relaxed) != 0;
  }
  return live;
}

std::size_t ArrivalRecorder::find(const Region& reg, traffic::FlowId flow_id,
                                  std::uint64_t& key) const noexcept {
  if (reg.keys == nullptr || flow_id >= kIdMask) return kNoSlot;
  const std::uint64_t id_bits = flow_id + 1;
  const std::size_t home = static_cast<std::size_t>(flow_id) & mask_;
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    const std::size_t slot = (home + i) & mask_;
    key = at(reg.keys[slot]).load(std::memory_order_acquire);
    if ((key & kIdMask) == id_bits) return slot;
  }
  return kNoSlot;
}

bool ArrivalRecorder::own_payload(const Region& reg, std::size_t slot,
                                  std::uint64_t key) noexcept {
  std::atomic_ref<std::uint64_t> tag(reg.meta[slot].owner);
  std::uint64_t owner = tag.load(std::memory_order_acquire);
  while (owner != key) {
    if (owner == kScrubbing) {  // a concurrent first record() scrubs
      owner = tag.load(std::memory_order_acquire);
      continue;
    }
    if (!tag.compare_exchange_weak(owner, kScrubbing,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire))
      continue;
    if (at(reg.keys[slot]).load(std::memory_order_acquire) != key) {
      // Released (and maybe reclaimed) since find(): not ours to scrub.
      tag.store(owner, std::memory_order_release);
      return false;
    }
    // collect() reads the payload only once the tag names this key, so
    // it never sees the scrub half done. Payload writes are release and
    // collect()'s reads acquire, so a reader that sees any write of this
    // occupant also sees its key, and drops a slot read across a reuse.
    std::uint64_t dirty =
        at(reg.meta[slot].dirty).exchange(0, std::memory_order_relaxed);
    Payload& payload = reg.payload[slot];
    at(payload.registered_ns).store(0, std::memory_order_release);
    at(payload.total_units).store(0, std::memory_order_release);
    Bucket* buckets = &payload.buckets[0][0];
    for (; dirty != 0; dirty &= dirty - 1) {
      Bucket& bucket = buckets[std::countr_zero(dirty)];
      at(bucket.epoch).store(0, std::memory_order_release);
      at(bucket.units).store(0, std::memory_order_release);
    }
    tag.store(key, std::memory_order_release);
    return true;
  }
  return true;
}

void ArrivalRecorder::on_admit(traffic::FlowId flow_id,
                               std::uint32_t class_index) noexcept {
  if (flow_id >= kIdMask || class_index > kMaxClass) {
    dropped_registrations_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Region reg = region(region_of(flow_id));
  if (reg.keys == nullptr) reg = map_region(region_of(flow_id));
  if (reg.keys == nullptr) {  // out of address space
    dropped_registrations_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Full existence scan before claiming: a freed slot earlier in the
  // probe path must not shadow a still-live registration further along
  // (re-admit stays a no-op even after neighbour churn).
  std::uint64_t existing = 0;
  if (find(reg, flow_id, existing) != kNoSlot) return;
  const std::uint64_t key =
      std::uint64_t{class_index} << kClassShift | (flow_id + 1);
  const std::size_t home = static_cast<std::size_t>(flow_id) & mask_;
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    std::atomic_ref<std::uint64_t> slot(reg.keys[(home + i) & mask_]);
    std::uint64_t expected = slot.load(std::memory_order_acquire);
    if (expected != 0) continue;
    if (slot.compare_exchange_strong(expected, key,
                                     std::memory_order_acq_rel))
      return;
    if ((expected & kIdMask) == flow_id + 1) return;  // raced ourselves
  }
  dropped_registrations_.fetch_add(1, std::memory_order_relaxed);
}

void ArrivalRecorder::on_release(traffic::FlowId flow_id) noexcept {
  const Region reg = region(region_of(flow_id));
  std::uint64_t key = 0;
  const std::size_t slot = find(reg, flow_id, key);
  if (slot == kNoSlot) return;
  at(reg.keys[slot]).compare_exchange_strong(key, 0,
                                             std::memory_order_acq_rel);
}

void ArrivalRecorder::record(traffic::FlowId flow_id, double bits,
                             std::int64_t t_ns) noexcept {
  const Region reg = region(region_of(flow_id));
  std::uint64_t key = 0;
  const std::size_t slot = find(reg, flow_id, key);
  if (slot == kNoSlot) {
    dropped_records_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!(bits > 0.0)) return;
  if (!own_payload(reg, slot, key)) {
    dropped_records_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Round DOWN to the 2^-10 grid: Ê never overcounts true arrivals.
  const std::uint64_t units =
      static_cast<std::uint64_t>(bits * kUnitsPerBit);
  std::atomic_ref<std::uint64_t> dirty_bits(reg.meta[slot].dirty);
  Payload& payload = reg.payload[slot];
  std::int64_t registered =
      at(payload.registered_ns).load(std::memory_order_relaxed);
  if (registered == 0)  // first arrival stamps the observation epoch
    at(payload.registered_ns)
        .compare_exchange_strong(registered, t_ns, std::memory_order_release);
  at(payload.total_units).fetch_add(units, std::memory_order_release);
  const std::uint64_t dirty = dirty_bits.load(std::memory_order_relaxed);
  std::uint64_t touched = 0;
  for (std::size_t s = 0; s < kScales; ++s) {
    const std::int64_t width =
        kWindowNs[s] / static_cast<std::int64_t>(kBucketsPerScale);
    const std::int64_t epoch = t_ns / width;
    const std::size_t b = static_cast<std::size_t>(epoch) % kBucketsPerScale;
    Bucket& bucket = payload.buckets[s][b];
    std::atomic_ref<std::int64_t> bucket_epoch(bucket.epoch);
    std::int64_t seen = bucket_epoch.load(std::memory_order_acquire);
    if (seen != epoch) {
      if (seen > epoch) continue;  // late arrival into a recycled bucket
      if (bucket_epoch.compare_exchange_strong(seen, epoch,
                                               std::memory_order_acq_rel)) {
        // A concurrent add between this CAS and the zeroing is lost:
        // undercount, the conservative direction.
        at(bucket.units).store(0, std::memory_order_release);
      } else if (seen != epoch) {
        continue;  // someone advanced the bucket past us
      }
    }
    at(bucket.units).fetch_add(units, std::memory_order_release);
    touched |= std::uint64_t{1} << (s * kBucketsPerScale + b);
  }
  // Publish the bits after the bucket writes: a collect() that has not
  // seen a bit yet skips the bucket, which can only undercount.
  if ((touched & ~dirty) != 0)
    dirty_bits.fetch_or(touched, std::memory_order_release);
}

void ArrivalRecorder::collect(std::int64_t now_ns,
                              std::vector<FlowWindows>& out) const {
  for (std::size_t r = 0; r < kRegions; ++r) {
    const Region reg = region(r);
    if (reg.keys == nullptr) continue;
    for (std::size_t i = 0; i < capacity_; ++i) {
      const std::uint64_t key =
          at(reg.keys[i]).load(std::memory_order_acquire);
      if (key == 0) continue;
      FlowWindows fw;
      fw.flow_id = (key & kIdMask) - 1;
      fw.class_index = static_cast<std::uint32_t>(key >> kClassShift);
      // Until its first record() has scrubbed and tagged the payload, the
      // occupant has zero windows.
      if (at(reg.meta[i].owner).load(std::memory_order_acquire) == key) {
        const std::uint64_t dirty =
            at(reg.meta[i].dirty).load(std::memory_order_acquire);
        Payload& payload = reg.payload[i];
        fw.registered_ns =
            at(payload.registered_ns).load(std::memory_order_acquire);
        fw.total_bits = static_cast<double>(at(payload.total_units).load(
                            std::memory_order_acquire)) /
                        kUnitsPerBit;
        for (std::size_t s = 0; s < kScales; ++s) {
          const std::int64_t width =
              kWindowNs[s] / static_cast<std::int64_t>(kBucketsPerScale);
          const std::int64_t newest = now_ns / width;
          const std::int64_t oldest =
              newest - static_cast<std::int64_t>(kBucketsPerScale) + 1;
          std::uint64_t sum = 0;
          for (std::size_t b = 0; b < kBucketsPerScale; ++b) {
            if (((dirty >> (s * kBucketsPerScale + b)) & 1) == 0) continue;
            Bucket& bucket = payload.buckets[s][b];
            const std::int64_t epoch =
                at(bucket.epoch).load(std::memory_order_acquire);
            if (epoch >= oldest && epoch <= newest)
              sum += at(bucket.units).load(std::memory_order_acquire);
          }
          fw.window_bits[s] = static_cast<double>(sum) / kUnitsPerBit;
        }
      }
      // A slot released (or recycled) mid-read may carry another flow's
      // data: drop it, the next collect() sees a settled view.
      if (at(reg.keys[i]).load(std::memory_order_acquire) != key) continue;
      out.push_back(fw);
    }
  }
}

}  // namespace ubac::telemetry
