#include "telemetry/envelope.hpp"

#include <sys/mman.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <new>

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

/// SplitMix64 finalizer — full-avalanche mix of the flow id so the
/// controller's consecutive id blocks spread across the table.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Anonymous pages read as zero and become resident only when written,
/// so the payload costs memory only for slots record() has fed.
void* map_zero_pages(std::size_t bytes) {
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return pages;
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

void ArrivalRecorder::Unmap::operator()(Payload* p) const noexcept {
  if (p != nullptr) munmap(p, bytes);
}

ArrivalRecorder::ArrivalRecorder(Options options)
    : capacity_(round_up_pow2(options.capacity < 2 ? 2 : options.capacity)),
      mask_(capacity_ - 1),
      keys_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity_)),
      meta_(std::make_unique<Meta[]>(capacity_)),
      payload_(static_cast<Payload*>(
                   map_zero_pages(capacity_ * sizeof(Payload))),
               Unmap{capacity_ * sizeof(Payload)}) {}

std::size_t ArrivalRecorder::flow_count() const noexcept {
  std::size_t live = 0;
  for (std::size_t i = 0; i < capacity_; ++i)
    live += keys_[i].load(std::memory_order_relaxed) != 0;
  return live;
}

std::size_t ArrivalRecorder::find(traffic::FlowId flow_id,
                                  std::uint64_t& key) const noexcept {
  if (flow_id >= kIdMask) return kNoSlot;  // never fits a key
  const std::uint64_t id_bits = flow_id + 1;
  const std::size_t home = static_cast<std::size_t>(mix(flow_id)) & mask_;
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    const std::size_t slot = (home + i) & mask_;
    key = keys_[slot].load(std::memory_order_acquire);
    if ((key & kIdMask) == id_bits) return slot;
  }
  return kNoSlot;
}

bool ArrivalRecorder::own_payload(std::size_t slot,
                                  std::uint64_t key) noexcept {
  Meta& meta = meta_[slot];
  std::uint64_t owner = meta.owner.load(std::memory_order_acquire);
  while (owner != key) {
    if (owner == kScrubbing) {  // a concurrent first record() scrubs
      owner = meta.owner.load(std::memory_order_acquire);
      continue;
    }
    if (!meta.owner.compare_exchange_weak(owner, kScrubbing,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
      continue;
    if (keys_[slot].load(std::memory_order_acquire) != key) {
      // Released (and maybe reclaimed) since find(): not ours to scrub.
      meta.owner.store(owner, std::memory_order_release);
      return false;
    }
    // collect() reads the payload only once the tag names this key, so
    // it never sees the scrub half done. Payload writes are release and
    // collect()'s reads acquire, so a reader that sees any write of this
    // occupant also sees its key, and drops a slot read across a reuse.
    std::uint64_t dirty = meta.dirty.exchange(0, std::memory_order_relaxed);
    Payload& payload = payload_.get()[slot];
    at(payload.registered_ns).store(0, std::memory_order_release);
    at(payload.total_units).store(0, std::memory_order_release);
    Bucket* buckets = &payload.buckets[0][0];
    for (; dirty != 0; dirty &= dirty - 1) {
      Bucket& bucket = buckets[std::countr_zero(dirty)];
      at(bucket.epoch).store(0, std::memory_order_release);
      at(bucket.units).store(0, std::memory_order_release);
    }
    meta.owner.store(key, std::memory_order_release);
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
  // Full existence scan before claiming: a freed slot earlier in the
  // probe path must not shadow a still-live registration further along
  // (re-admit stays a no-op even after neighbour churn).
  std::uint64_t existing = 0;
  if (find(flow_id, existing) != kNoSlot) return;
  const std::uint64_t key =
      std::uint64_t{class_index} << kClassShift | (flow_id + 1);
  const std::size_t home = static_cast<std::size_t>(mix(flow_id)) & mask_;
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    const std::size_t slot = (home + i) & mask_;
    std::uint64_t expected = keys_[slot].load(std::memory_order_acquire);
    if (expected != 0) continue;
    if (keys_[slot].compare_exchange_strong(expected, key,
                                            std::memory_order_acq_rel))
      return;
    if ((expected & kIdMask) == flow_id + 1) return;  // raced ourselves
  }
  dropped_registrations_.fetch_add(1, std::memory_order_relaxed);
}

void ArrivalRecorder::on_release(traffic::FlowId flow_id) noexcept {
  std::uint64_t key = 0;
  const std::size_t slot = find(flow_id, key);
  if (slot == kNoSlot) return;
  keys_[slot].compare_exchange_strong(key, 0, std::memory_order_acq_rel);
}

void ArrivalRecorder::record(traffic::FlowId flow_id, double bits,
                             std::int64_t t_ns) noexcept {
  std::uint64_t key = 0;
  const std::size_t slot = find(flow_id, key);
  if (slot == kNoSlot) {
    dropped_records_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!(bits > 0.0)) return;
  if (!own_payload(slot, key)) {
    dropped_records_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Round DOWN to the 2^-10 grid: Ê never overcounts true arrivals.
  const std::uint64_t units =
      static_cast<std::uint64_t>(bits * kUnitsPerBit);
  Meta& meta = meta_[slot];
  Payload& payload = payload_.get()[slot];
  std::int64_t reg = at(payload.registered_ns).load(std::memory_order_relaxed);
  if (reg == 0)  // first arrival stamps the observation epoch
    at(payload.registered_ns)
        .compare_exchange_strong(reg, t_ns, std::memory_order_release);
  at(payload.total_units).fetch_add(units, std::memory_order_release);
  const std::uint64_t dirty = meta.dirty.load(std::memory_order_relaxed);
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
    meta.dirty.fetch_or(touched, std::memory_order_release);
}

void ArrivalRecorder::collect(std::int64_t now_ns,
                              std::vector<FlowWindows>& out) const {
  for (std::size_t i = 0; i < capacity_; ++i) {
    const std::uint64_t key = keys_[i].load(std::memory_order_acquire);
    if (key == 0) continue;
    const Meta& meta = meta_[i];
    FlowWindows fw;
    fw.flow_id = (key & kIdMask) - 1;
    fw.class_index = static_cast<std::uint32_t>(key >> kClassShift);
    // Until its first record() has scrubbed and tagged the payload, the
    // occupant has zero windows.
    if (meta.owner.load(std::memory_order_acquire) == key) {
      const std::uint64_t dirty = meta.dirty.load(std::memory_order_acquire);
      Payload& payload = payload_.get()[i];
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
    if (keys_[i].load(std::memory_order_acquire) != key) continue;
    out.push_back(fw);
  }
}

}  // namespace ubac::telemetry
