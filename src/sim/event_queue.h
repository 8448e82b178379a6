// Event queue for the discrete-event simulator: a 4-ary heap ordered by
// (time, insertion sequence) over generation-counted slots.
//
// Design (the simulator hot path — every link hop, timer, and control tick
// goes through here):
//  - Callbacks are move-only InlineFunctions: fixed-size inline storage, so
//    scheduling never heap-allocates. Slots are pooled on a free list and
//    recycled.
//  - The heap stores (time, seq, slot) entries; slots hold the callback and
//    their current heap position, so Cancel is an O(log n) sift operation —
//    no hash lookups, no dead entries accumulating. A deadline moves by
//    Cancel plus a fresh Push, which reuses the freed slot.
//  - EventIds encode (generation, slot): a stale id (already fired or
//    cancelled) fails the generation check and is a no-op, exactly like the
//    old lazy-deletion semantics but without retaining tombstones.
//  - The seq tiebreak guarantees FIFO dispatch of events scheduled for the
//    same instant, which keeps runs deterministic.
//  - Periodic events (PushPeriodic) keep their slot forever: DispatchHead
//    re-arms them at time+period *before* invoking the callback, matching the
//    FIFO ordering of the classic "callback re-schedules itself first" idiom
//    while skipping the cancel/push/allocate churn.
//  - Event lanes (AddLane/PushLane) serve an owner whose events fire in the
//    order it schedules them, with one callback for all of them: a Link's
//    deliveries. A lane is a FIFO of (time, seq) keys on one slot that it
//    keeps forever. Each entry takes its key when pushed, exactly as a plain
//    push at that moment would, so dispatch order is unchanged; but only the
//    lane's earliest entry sits in the heap. When it fires, the next entry
//    takes the heap root with one sift-down: no slot is freed or allocated
//    and no callback is emplaced. Lane entries have no EventId and cannot be
//    cancelled or moved.
//
// Contract: Empty() and NextTime() are const and never mutate the heap; the
// head is always live (cancellation removes eagerly).
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/inline_function.h"
#include "src/util/ring_buffer.h"
#include "src/util/time.h"

namespace bundler {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  // 32 bytes of capture, four words. A Link's transmit-done event and its
  // delivery lane each capture only the link: packets in flight wait in their
  // link, not in the event.
  using Callback = InlineFunction<void(), 32>;
  using LaneId = uint32_t;

  // Peak concurrent pending events, lane entries included, reported per
  // trial as sim.queue_max_heap.
  struct Profile {
    uint64_t max_heap = 0;
  };
  const Profile& profile() const { return profile_; }

  // Returns an id usable with Cancel until the event fires.
  // [[nodiscard]] across the handle-returning API: dropping a handle is legal
  // for fire-and-forget one-shots only through Simulator::Schedule (which
  // documents that choice); at this layer a dropped handle or ignored
  // Cancel verdict is a bug.
  [[nodiscard]] EventId Push(TimePoint time, Callback cb);

  // Hot-path overload: constructs the callable directly in the pooled slot
  // (no intermediate Callback, one fewer capture copy per schedule).
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, Callback>>>
  [[nodiscard]] EventId Push(TimePoint time, F&& f) {
    uint32_t idx = AllocSlot();
    Slot& slot = slots_[idx];
    slot.state = SlotState::kQueued;
    slot.period = TimeDelta::Zero();
    slot.cb.Emplace(std::forward<F>(f));
    HeapPush(HeapEntry{time, NextKey(idx)});
    return IdFor(idx);
  }

  // Fires at `first`, then every `period` until cancelled. The id stays
  // valid across firings (cancel it to stop the timer) — dropping it makes
  // the timer unstoppable, hence [[nodiscard]].
  [[nodiscard]] EventId PushPeriodic(TimePoint first, TimeDelta period, Callback cb);

  // Creates an empty lane whose every entry runs `cb`. A lane lives as long
  // as the queue.
  [[nodiscard]] LaneId AddLane(Callback cb);

  // Appends an entry that runs the lane's callback at `time`, ordered like a
  // plain Push made now. CHECK-fails when `time` is earlier than the lane's
  // last entry: a lane's entries fire in the order they were pushed.
  void PushLane(LaneId lane, TimePoint time);

  // Removes the event from the heap. Returns false (no-op) when the id
  // already fired, was cancelled, or is kInvalidEventId.
  [[nodiscard]] bool Cancel(EventId id);

  bool Empty() const { return heap_.empty(); }
  // Time of the earliest pending event; callers must ensure !Empty().
  TimePoint NextTime() const;

  // Pops the earliest event and invokes it. Periodic events are re-armed at
  // time+period (fresh seq), and a lane's next entry takes the head's place,
  // before their callback runs.
  void DispatchHead();

  // Pending events: the heap plus the lane entries queued behind their
  // lane's head.
  size_t PendingForTest() const { return heap_.size() + lane_waiting_; }

 private:
  static constexpr uint32_t kNpos = 0xffffffffu;

  enum class SlotState : uint8_t {
    kFree,
    kQueued,
    kDispatching,         // periodic, callback currently running
    kDispatchCancelled,   // cancelled from inside its own dispatch
    kLane,                // an event lane's; never freed, never resolved
  };

  // 16 bytes: the sift loops are cache-bound on the heap array, so seq and
  // slot share one word (seq in the high 40 bits, slot in the low 24).
  // Comparing `key` compares seq — seqs are unique per entry, so the slot
  // bits never influence the order. Limits: 2^24 concurrent events, 2^40
  // scheduled events per queue lifetime (CHECK-enforced, ~12 days of
  // continuous dispatch at 1M events/sec).
  struct HeapEntry {
    TimePoint time;
    uint64_t key;

    uint32_t slot() const { return static_cast<uint32_t>(key & kSlotMask); }
  };
  static constexpr uint64_t kSlotMask = (1ull << 24) - 1;
  static constexpr uint64_t kMaxSeq = 1ull << 40;
  static uint64_t MakeKey(uint64_t seq, uint32_t slot) {
    return (seq << 24) | slot;
  }

  // Heap positions live in a dense side array (heap_pos_), not in Slot: the
  // sift loops update the position of every entry they move, and Slot's
  // inline callback storage makes it an 80-byte stride — putting the 4-byte
  // position there would turn each sift level into a cache miss.
  struct Slot {
    uint32_t gen = 0;
    SlotState state = SlotState::kFree;
    uint32_t next_free = kNpos;
    uint32_t lane = kNpos;  // index into lanes_ for a kLane slot
    TimeDelta period;  // zero => one-shot
    Callback cb;
  };
  // Every pending event, timers included, holds one Slot until it fires, and
  // the pool keeps its high-water mark. A lane holds one Slot for all its
  // entries.
  static_assert(sizeof(Slot) <= 80);

  // A lane's earliest entry sits in the heap under the lane's slot, whose
  // heap_pos_ is kNpos while the lane is empty; `waiting` holds the entries
  // behind it, in push order.
  struct Lane {
    uint32_t slot;
    TimePoint last;  // time of the latest push
    RingBuffer<HeapEntry> waiting;
  };

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.key < b.key;
  }

  uint64_t NextKey(uint32_t slot);
  uint32_t AllocSlot();
  void FreeSlot(uint32_t idx);
  // Slot index for a live id, or kNpos when stale/invalid.
  uint32_t Resolve(EventId id) const;
  EventId IdFor(uint32_t idx) const {
    return (static_cast<EventId>(slots_[idx].gen) << 32) |
           static_cast<EventId>(idx + 1);
  }

  void HeapPush(HeapEntry e);
  void HeapRemoveAt(uint32_t pos);
  void NotePending() {
    const size_t pending = heap_.size() + lane_waiting_;
    if (pending > profile_.max_heap) {
      profile_.max_heap = pending;
    }
  }
  // DispatchHead for a lane's head in slot `idx`.
  void DispatchLane(uint32_t idx);
  void SiftUp(uint32_t pos, HeapEntry e);
  void SiftDown(uint32_t pos, HeapEntry e);
  void Place(uint32_t pos, HeapEntry e) {
    heap_[pos] = e;
    heap_pos_[e.slot()] = pos;
  }

  Profile profile_;
  std::vector<HeapEntry> heap_;  // 4-ary, ordered by (time, seq)
  std::vector<Slot> slots_;
  std::vector<uint32_t> heap_pos_;  // slot -> heap index, kNpos when absent
  std::vector<Lane> lanes_;
  size_t lane_waiting_ = 0;  // entries in every Lane::waiting
  uint32_t free_head_ = kNpos;
  uint64_t next_seq_ = 1;
};

}  // namespace bundler

#endif  // SRC_SIM_EVENT_QUEUE_H_
