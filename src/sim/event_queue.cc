#include "src/sim/event_queue.h"

#include <limits>
#include <utility>

#include "src/util/check.h"

namespace bundler {

uint64_t EventQueue::NextKey(uint32_t slot) {
  BUNDLER_CHECK(next_seq_ < kMaxSeq);
  return MakeKey(next_seq_++, slot);
}

uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNpos) {
    uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    slots_[idx].next_free = kNpos;
    return idx;
  }
  BUNDLER_CHECK(slots_.size() < kSlotMask);
  slots_.emplace_back();
  heap_pos_.push_back(kNpos);
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::FreeSlot(uint32_t idx) {
  Slot& slot = slots_[idx];
  slot.cb.Reset();
  slot.state = SlotState::kFree;
  heap_pos_[idx] = kNpos;
  slot.period = TimeDelta::Zero();
  // Bumping the generation invalidates every outstanding id for this slot.
  // Wrap would let a stale id (2^32 recycles old) resolve to a live event;
  // fail loudly instead, like the kMaxSeq limit in NextKey.
  ++slot.gen;
  BUNDLER_CHECK(slot.gen != 0);
  slot.next_free = free_head_;
  free_head_ = idx;
}

uint32_t EventQueue::Resolve(EventId id) const {
  if (id == kInvalidEventId) {
    return kNpos;
  }
  uint64_t low = id & 0xffffffffu;
  if (low == 0 || low > slots_.size()) {
    return kNpos;
  }
  uint32_t idx = static_cast<uint32_t>(low - 1);
  const Slot& slot = slots_[idx];
  if (slot.state == SlotState::kFree || slot.state == SlotState::kLane ||
      slot.gen != static_cast<uint32_t>(id >> 32)) {
    return kNpos;
  }
  return idx;
}

void EventQueue::SiftUp(uint32_t pos, HeapEntry e) {
  while (pos > 0) {
    uint32_t parent = (pos - 1) / 4;
    if (!Earlier(e, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void EventQueue::SiftDown(uint32_t pos, HeapEntry e) {
  const uint32_t n = static_cast<uint32_t>(heap_.size());
  while (true) {
    uint32_t first_child = pos * 4 + 1;
    if (first_child >= n) {
      break;
    }
    uint32_t best = first_child;
    uint32_t last_child = first_child + 3 < n - 1 ? first_child + 3 : n - 1;
    for (uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], e)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, e);
}

void EventQueue::HeapPush(HeapEntry e) {
  heap_.emplace_back();  // placeholder; SiftUp writes the final position
  NotePending();
  SiftUp(static_cast<uint32_t>(heap_.size() - 1), e);
}

void EventQueue::HeapRemoveAt(uint32_t pos) {
  BUNDLER_CHECK(pos < heap_.size());
  heap_pos_[heap_[pos].slot()] = kNpos;
  HeapEntry last = heap_.back();
  heap_.pop_back();
  const uint32_t n = static_cast<uint32_t>(heap_.size());
  if (pos == n) {
    return;  // removed the tail
  }
  if (pos > 0 && Earlier(last, heap_[(pos - 1) / 4])) {
    SiftUp(pos, last);
    return;
  }
  // Bottom-up re-seat (Knuth's hole descent): pull the min-child chain up
  // into the hole without comparing against `last` at every level, then
  // bubble `last` up from the vacated leaf. The re-seated element is the
  // former tail — almost always one of the latest events — so the upward
  // pass nearly always stops immediately, saving a comparison per level on
  // the hottest operation in the simulator (popping the earliest event).
  uint32_t hole = pos;
  while (true) {
    uint32_t first_child = hole * 4 + 1;
    if (first_child >= n) {
      break;
    }
    uint32_t last_child = first_child + 3 < n - 1 ? first_child + 3 : n - 1;
    uint32_t best = first_child;
    for (uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    Place(hole, heap_[best]);
    hole = best;
  }
  SiftUp(hole, last);
}

EventId EventQueue::Push(TimePoint time, Callback cb) {
  uint32_t idx = AllocSlot();
  Slot& slot = slots_[idx];
  slot.state = SlotState::kQueued;
  slot.period = TimeDelta::Zero();
  slot.cb = std::move(cb);
  HeapPush(HeapEntry{time, NextKey(idx)});
  return IdFor(idx);
}

EventId EventQueue::PushPeriodic(TimePoint first, TimeDelta period, Callback cb) {
  BUNDLER_CHECK(period > TimeDelta::Zero());
  uint32_t idx = AllocSlot();
  Slot& slot = slots_[idx];
  slot.state = SlotState::kQueued;
  slot.period = period;
  slot.cb = std::move(cb);
  HeapPush(HeapEntry{first, NextKey(idx)});
  return IdFor(idx);
}

EventQueue::LaneId EventQueue::AddLane(Callback cb) {
  const uint32_t idx = AllocSlot();
  Slot& slot = slots_[idx];
  slot.state = SlotState::kLane;
  slot.lane = static_cast<uint32_t>(lanes_.size());
  slot.cb = std::move(cb);
  lanes_.push_back(Lane{idx, TimePoint::FromNanos(std::numeric_limits<int64_t>::min()), {}});
  return slot.lane;
}

void EventQueue::PushLane(LaneId lane_id, TimePoint time) {
  BUNDLER_CHECK(lane_id < lanes_.size());
  Lane& lane = lanes_[lane_id];
  BUNDLER_CHECK_MSG(time >= lane.last, "lane %u: push at %s is earlier than its last entry at %s",
                    lane_id, time.ToString().c_str(), lane.last.ToString().c_str());
  lane.last = time;
  const HeapEntry e{time, NextKey(lane.slot)};
  if (heap_pos_[lane.slot] == kNpos) {
    HeapPush(e);
    return;
  }
  lane.waiting.push_back(e);
  ++lane_waiting_;
  NotePending();
}

bool EventQueue::Cancel(EventId id) {
  uint32_t idx = Resolve(id);
  if (idx == kNpos) {
    return false;
  }
  Slot& slot = slots_[idx];
  switch (slot.state) {
    case SlotState::kQueued:
      HeapRemoveAt(heap_pos_[idx]);
      FreeSlot(idx);
      return true;
    case SlotState::kDispatching:
      // Cancelled from inside its own callback: the re-armed heap entry goes
      // away now; DispatchHead frees the slot once the callback returns (the
      // callback object itself is live on the dispatch stack).
      HeapRemoveAt(heap_pos_[idx]);
      slot.state = SlotState::kDispatchCancelled;
      return true;
    case SlotState::kDispatchCancelled:
      return false;  // already cancelled during this dispatch
    case SlotState::kFree:
    case SlotState::kLane:  // Resolve never returns either
      break;
  }
  return false;
}

TimePoint EventQueue::NextTime() const {
  BUNDLER_CHECK(!heap_.empty());
  return heap_[0].time;
}

void EventQueue::DispatchLane(uint32_t idx) {
  Lane& lane = lanes_[slots_[idx].lane];
  if (lane.waiting.empty()) {
    HeapRemoveAt(0);
  } else {
    // The next entry is no earlier than the head it replaces, so it can only
    // sink.
    --lane_waiting_;
    SiftDown(0, lane.waiting.pop_front());
  }
  // As for a periodic event: the callback runs from the dispatch stack, and
  // goes back to the slot when it returns.
  Callback cb = std::move(slots_[idx].cb);
  cb();
  slots_[idx].cb = std::move(cb);
}

void EventQueue::DispatchHead() {
  BUNDLER_CHECK(!heap_.empty());
  HeapEntry head = heap_[0];
  const uint32_t idx = head.slot();
  if (slots_[idx].state == SlotState::kLane) {
    DispatchLane(idx);
    return;
  }
  HeapRemoveAt(0);
  if (slots_[idx].period.IsZero()) {
    // One-shot: the slot is freed before the callback runs, so the callback
    // may recycle it by scheduling new events (ids never collide thanks to
    // the generation counter).
    Callback cb = std::move(slots_[idx].cb);
    FreeSlot(idx);
    cb();
    return;
  }
  // Periodic: re-arm *before* invoking so events the callback schedules for
  // exactly the next firing instant order after the timer itself — the same
  // FIFO order as the classic "re-schedule yourself first" idiom.
  slots_[idx].state = SlotState::kDispatching;
  HeapPush(HeapEntry{head.time + slots_[idx].period, NextKey(idx)});
  // The callback runs from the dispatch stack, not from slot storage: nested
  // scheduling may grow slots_ and invalidate it mid-invocation.
  Callback cb = std::move(slots_[idx].cb);
  cb();
  if (slots_[idx].state == SlotState::kDispatchCancelled) {
    FreeSlot(idx);
    return;
  }
  slots_[idx].state = SlotState::kQueued;
  slots_[idx].cb = std::move(cb);
}

}  // namespace bundler
