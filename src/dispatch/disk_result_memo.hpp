// DiskResultMemo: a ResultMemo whose records also live in a crash-safe
// on-disk segment store, so a cold process inherits every result an
// earlier process computed (ROADMAP item: fleet-shared result cache).
//
// Tiering on find(): memory hit (the inherited LRU table) → disk hit
// (persist::SegmentStore::get, checksum-verified; the record is promoted
// into memory) → miss (the engine executes). insert() writes through:
// the record is appended durably (fsync before insert() returns, under
// the store's default SyncMode::kEveryRecord) and cached in memory.
// First-insert-wins holds across both tiers for the same reason as in
// the base class: records are pure functions of their content-address
// keys, so any duplicate — racing threads, racing *processes*, a
// restart replaying a batch — carries identical bytes.
//
// The disk store is stamped with kResultSchemaRevision. Bump it whenever
// the serve record format or the computed values change; an old cache
// directory is then wiped on open (SchemaPolicy::kWipeOnMismatch)
// instead of serving records the new code would not have written.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "dispatch/result_memo.hpp"
#include "persist/segment_store.hpp"

namespace thermo::dispatch {

/// Payload schema revision of serve result records. Bump on any change
/// to the canonical request serialization (the keys), the JSONL
/// result-line format, or the numbers a record carries (the values).
/// Revision 2: transient session validation superposes unit responses
/// (thermal/unit_response.hpp), which moves the trailing digits of
/// temperatures; a revision-1 directory would serve the old digits.
/// Revision 3: the steady oracle's solo pre-pass reads T_amb + P·Z_ii
/// from a cached diagonal of G⁻¹ instead of solving for P, which moves
/// the trailing digits of a raised `effective_tl`.
inline constexpr std::uint32_t kResultSchemaRevision = 3;

class DiskResultMemo final : public ResultMemo {
 public:
  struct Options {
    /// Capacity of the in-memory LRU tier.
    std::size_t memory_capacity = ResultMemo::kDefaultCapacity;
    /// Disk-store options. schema_revision is overridden with
    /// kResultSchemaRevision regardless of what is set here — the
    /// revision belongs to the record format, not to callers.
    persist::StoreOptions store;
  };

  /// Opens (or creates) the cache directory. Throws IoError when the
  /// directory cannot be created/read; damaged segment contents never
  /// prevent opening (they surface in store().stats()).
  DiskResultMemo(std::string dir, Options options);
  explicit DiskResultMemo(std::string dir)
      : DiskResultMemo(std::move(dir), Options{}) {}

  /// Memory, then disk (with promotion into memory), then miss.
  std::optional<std::string> find(std::string_view key) override;

  /// Durably appends to disk (unless the key is already stored), then
  /// caches in memory. Propagates IoError from the disk append — a
  /// record must never be acknowledged as cached when it is not durable.
  void insert(std::string_view key, std::string record) override;

  /// find()s answered by the disk tier (memory misses that promoted).
  std::size_t disk_hits() const {
    return disk_hits_.load(std::memory_order_relaxed);
  }

  persist::SegmentStore& store() { return store_; }
  const persist::SegmentStore& store() const { return store_; }

 private:
  persist::SegmentStore store_;
  std::atomic<std::size_t> disk_hits_{0};
};

}  // namespace thermo::dispatch
