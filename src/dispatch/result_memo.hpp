// ResultMemo: content-addressed cache of finished result records.
//
// Serve results are pure functions of the *canonical serialized
// request* (that is what makes the whole pipeline byte-deterministic),
// so that serialization doubles as a content address: two requests with
// identical canonical bytes must produce identical records, within one
// batch or across batches. The memo maps that address to the record so
// duplicates cost a lookup instead of a scheduler run.
//
// Addressing is FNV-1a 64 over the key bytes — but the full key is
// stored and compared too, so a hash collision degrades to a plain miss
// path rather than ever serving the wrong record (content-addressed,
// not hash-trusted).
//
// Like ScenarioRunner's model cache, capacity is LRU-capped: a
// long-lived server fed ever-fresh requests cannot grow memory
// monotonically; an evicted duplicate is simply recomputed.
// Recency is a splice-maintained list, so find/insert/evict are all
// O(1) — a full cache fed fresh keys must not degrade to scanning
// thousands of entries per insert while workers contend on the mutex.
// All operations are mutex-guarded; stats() reports hits/misses/
// insertions/evictions for the serve summary and bench.
//
// Concurrency contract (tests/dispatch_test.cpp hammers it): every
// operation, stats counters included, is serialized on one mutex, so
// hits + misses always equals the number of find() calls and
// insertions - evictions always equals entries, no matter how many
// workers race. What the memo can NOT check by locking is the
// single-writer-per-key *value* semantics it is built on: all writers
// of one key must derive the record from the key's content, so racing
// inserts carry identical bytes and first-insert-wins loses nothing.
// The engine's dedup planning upholds this (one leader executes per
// key); insert() enforces it with an identical-bytes invariant check —
// a divergent record for a present key throws LogicError instead of
// silently keeping either copy.
//
// find() and insert() are virtual so a batch engine holding a plain
// `ResultMemo*` can transparently be handed a DiskResultMemo (the
// disk-backed subclass layered on persist::SegmentStore).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace thermo::dispatch {

/// FNV-1a 64-bit over arbitrary bytes — the memo's content address,
/// exposed for tests and for callers that want to log compact request
/// digests. Delegates to thermo::fnv1a64 (util/hash.hpp): the disk
/// store addresses records with the SAME function, so memory and disk
/// tiers agree on every key.
std::uint64_t fnv1a64(std::string_view bytes);

class ResultMemo {
 public:
  /// Default bound: 4096 records ≈ a few MB of JSONL — roomy for a
  /// serving process, bounded for a long-lived one.
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit ResultMemo(std::size_t capacity = kDefaultCapacity);
  virtual ~ResultMemo() = default;

  ResultMemo(const ResultMemo&) = delete;
  ResultMemo& operator=(const ResultMemo&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// The record stored under `key`, or nullopt. Counts a hit or miss
  /// and refreshes the entry's LRU stamp.
  virtual std::optional<std::string> find(std::string_view key);

  /// Stores `record` under `key` (first insert wins on a racing
  /// duplicate). Evicts the least recently used entry at capacity.
  /// Invariant: a duplicate insert must carry bytes identical to the
  /// resident record — records are pure functions of their keys, which
  /// is the premise that makes first-insert-wins lossless. A divergent
  /// duplicate throws LogicError.
  virtual void insert(std::string_view key, std::string record);

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t insertions = 0;
    std::size_t evictions = 0;
    std::size_t entries = 0;  ///< current resident records
  };
  Stats stats() const;

 private:
  struct Entry {
    std::string record;
    /// Position in lru_ (most recent at the front); list iterators are
    /// stable, so a splice-to-front refresh never invalidates it.
    std::list<std::string>::iterator recency;
  };

  /// The FNV address IS the bucket hash. The map keys are string_views
  /// into lru_'s nodes (the one owned copy of each key — list nodes
  /// never move), which also gives allocation-free find().
  struct FnvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return static_cast<std::size_t>(fnv1a64(key));
    }
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<std::string> lru_;  ///< keys, most recently used first
  std::unordered_map<std::string_view, Entry, FnvHash, std::equal_to<>>
      entries_;
  Stats stats_;
};

}  // namespace thermo::dispatch
