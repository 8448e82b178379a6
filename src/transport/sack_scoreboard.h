// Allocation-free SACK loss-recovery scoreboard. The sender's conceptual
// model is unchanged from the std::set/std::map version it replaces: every
// seq in [base, end) — i.e. [cum_acked_, next_seq_) — is in exactly one
// state: untouched in flight, delivered (SACKed), presumed lost awaiting
// retransmit, or retransmitted and in flight (carrying the value of
// next_seq_ at retransmission time, for Linux-style lost-retransmit
// detection). Instead of three node-allocating ordered containers, the state
// lives in a flat ring of 1-byte per-segment states indexed by seq: marking
// is O(1), the cumulative-ACK advance pops exactly the states it covers
// (amortized O(1) per segment ever sent, with a pointer-bump fast path while
// the scoreboard is clean), and ordered queries (highest SACKed seq, lowest
// pending hole) come from cached bounds. Retransmit markers are only ever
// read for kRetxOutstanding seqs, so they live beside those seqs in a small
// unordered side-list of {seq, marker} pairs rather than in every ring slot;
// the outstanding-retransmission sweeps walk that list — O(#retx) like the
// map they replace, not O(window). Ring (32 states) and side-list (8 pairs)
// both start on inline storage sized for a typical web flow and spill to a
// doubling heap block only when the window outgrows them, so steady-state
// loss recovery performs zero heap allocations;
// TcpRecoveryTest.FullWindowRecoveryAllocatesNothingOnceWarm counts exactly
// that, and
// tests/sack_scoreboard_test.cc mirrors this structure against a reference
// std::set/std::map model under randomized loss patterns.
#ifndef SRC_TRANSPORT_SACK_SCOREBOARD_H_
#define SRC_TRANSPORT_SACK_SCOREBOARD_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "src/util/check.h"

namespace bundler {

class SackScoreboard {
 public:
  enum class SegState : uint8_t {
    kInFlight = 0,     // sent, no evidence either way
    kSacked,           // delivered out of order (selectively acknowledged)
    kLostPending,      // presumed lost, awaiting retransmission
    kRetxOutstanding,  // retransmitted; the retransmission is in flight
  };

  SackScoreboard()
      : states_(inline_states_), cap_(kInitialCapacity), retx_(inline_retx_),
        retx_cap_(kInitialRetxCapacity) {}
  SackScoreboard(const SackScoreboard&) = delete;
  SackScoreboard& operator=(const SackScoreboard&) = delete;
  ~SackScoreboard() {
    if (states_ != inline_states_) {
      delete[] states_;
    }
    if (retx_ != inline_retx_) {
      delete[] retx_;
    }
  }

  int64_t base() const { return base_; }
  int64_t end() const { return end_; }

  int64_t sacked_count() const { return sacked_count_; }
  int64_t lost_count() const { return lost_count_; }
  int64_t retx_count() const { return static_cast<int64_t>(retx_count_); }
  bool HasSacked() const { return sacked_count_ > 0; }

  // Highest SACKed seq; only meaningful while HasSacked().
  int64_t HighestSacked() const {
    BUNDLER_CHECK(sacked_count_ > 0);
    return highest_sacked_;
  }

  SegState StateOf(int64_t seq) const {
    if (seq < base_ || seq >= end_) {
      return SegState::kInFlight;
    }
    return StateAt(seq);
  }

  bool IsSacked(int64_t seq) const { return StateOf(seq) == SegState::kSacked; }

  // Marker recorded by MarkRetx; `seq` must be kRetxOutstanding. O(#retx).
  int64_t RetxMarker(int64_t seq) const { return retx_[FindRetx(seq)].marker; }

  // Grows the window: slots for [end, new_end) enter as kInFlight. Called as
  // new segments are transmitted.
  void ExtendTo(int64_t new_end) {
    BUNDLER_CHECK(new_end >= end_);
    int64_t need = new_end - base_;
    if (need > static_cast<int64_t>(cap_)) {
      Grow(static_cast<size_t>(need));
    }
    int64_t old_end = end_;
    end_ = new_end;
    for (int64_t s = old_end; s < new_end; ++s) {
      StateAt(s) = SegState::kInFlight;
    }
  }

  // Cumulative-ACK advance: drops every slot below new_base, exactly the
  // "erase everything below cum_acked_" loops of the set-based scoreboard.
  void AdvanceTo(int64_t new_base) {
    BUNDLER_CHECK(new_base >= base_);
    if (new_base > end_) {
      ExtendTo(new_base);
    }
    int64_t adv = new_base - base_;
    // Loss-free fast path: all counters zero means every slot is kInFlight,
    // so dropping them is pure pointer arithmetic. This is the common case —
    // most ACKs arrive with a clean scoreboard.
    if (sacked_count_ != 0 || lost_count_ != 0 || retx_count_ != 0) {
      for (int64_t s = base_; s < new_base; ++s) {
        SegState st = StateAt(s);
        if (st == SegState::kSacked) {
          --sacked_count_;
        } else if (st == SegState::kLostPending) {
          --lost_count_;
        } else if (st == SegState::kRetxOutstanding) {
          RemoveRetxSeq(s);
        }
      }
    }
    base_ = new_base;
    if (cap_ > 0) {
      head_ = (head_ + static_cast<size_t>(adv)) & (cap_ - 1);
    }
    if (lost_scan_ < base_) {
      lost_scan_ = base_;
    }
  }

  void MarkSacked(int64_t seq) {
    if (sacked_count_ == 0 || seq > highest_sacked_) {
      highest_sacked_ = seq;
    }
    SegState& st = StateAt(seq);
    if (st == SegState::kLostPending) {
      --lost_count_;
    } else if (st == SegState::kRetxOutstanding) {
      RemoveRetxSeq(seq);
    }
    if (st != SegState::kSacked) {
      ++sacked_count_;
    }
    st = SegState::kSacked;
  }

  // Callers only mark untouched in-flight segments lost (revealed holes);
  // retransmitted holes return to lost via the Move* sweeps below.
  void MarkLost(int64_t seq) {
    SegState& st = StateAt(seq);
    BUNDLER_CHECK(st == SegState::kInFlight);
    st = SegState::kLostPending;
    ++lost_count_;
    NoteLostAt(seq);
  }

  // `marker` is next_seq_ at retransmission time. Tolerates seq == end()
  // (the RTO path can nominally re-send the left window edge before any new
  // data exists there) by extending the window first. Re-marking an
  // outstanding seq only refreshes its marker.
  void MarkRetx(int64_t seq, int64_t marker) {
    if (seq >= end_) {
      ExtendTo(seq + 1);
    }
    SegState& st = StateAt(seq);
    if (st == SegState::kRetxOutstanding) {
      retx_[FindRetx(seq)].marker = marker;
      return;
    }
    if (st == SegState::kLostPending) {
      --lost_count_;
    } else if (st == SegState::kSacked) {
      --sacked_count_;
    }
    st = SegState::kRetxOutstanding;
    AppendRetx(RetxEntry{seq, marker});
  }

  // Lowest kLostPending seq; requires lost_count() > 0. Amortized O(1): the
  // scan cursor only moves forward, and marking a lower seq lost rewinds it.
  int64_t FirstLost() {
    BUNDLER_CHECK(lost_count_ > 0);
    int64_t s = lost_scan_ < base_ ? base_ : lost_scan_;
    while (StateAt(s) != SegState::kLostPending) {
      ++s;
    }
    lost_scan_ = s;
    return s;
  }

  // RTO: every outstanding retransmission is presumed lost too; return the
  // holes to the pending pool ("for hole in retx: lost.insert(hole); clear").
  void MoveAllRetxToLost() {
    for (size_t i = 0; i < retx_count_; ++i) {
      int64_t s = retx_[i].seq;
      StateAt(s) = SegState::kLostPending;
      ++lost_count_;
      NoteLostAt(s);
    }
    retx_count_ = 0;
  }

  // Lost-retransmission detection: a SACK for original seq `sack_seq` proves
  // any hole retransmitted comfortably earlier (marker + 3 <= sack_seq) had
  // its retransmission dropped; those holes return to the pending pool.
  // O(#retx), exactly like the hole->marker map sweep it replaces.
  void MoveStaleRetxToLost(int64_t sack_seq) {
    size_t keep = 0;
    for (size_t i = 0; i < retx_count_; ++i) {
      const RetxEntry e = retx_[i];
      if (e.marker + 3 <= sack_seq) {
        StateAt(e.seq) = SegState::kLostPending;
        ++lost_count_;
        NoteLostAt(e.seq);
      } else {
        retx_[keep++] = e;
      }
    }
    retx_count_ = keep;
  }

  // Fast-recovery entry: forget outstanding retransmissions (they predate
  // this recovery episode); the segments revert to untouched in-flight.
  void ClearRetx() {
    for (size_t i = 0; i < retx_count_; ++i) {
      StateAt(retx_[i].seq) = SegState::kInFlight;
    }
    retx_count_ = 0;
  }

  // Recovery exit: the loss episode is fully repaired; pending holes and
  // outstanding retransmissions both revert to untouched in-flight.
  void ClearLostAndRetx() {
    ClearRetx();
    if (lost_count_ > 0) {
      int64_t lo = lost_scan_ < base_ ? base_ : lost_scan_;
      int64_t hi = lost_hi_ >= end_ ? end_ - 1 : lost_hi_;
      for (int64_t s = lo; s <= hi && lost_count_ > 0; ++s) {
        SegState& st = StateAt(s);
        if (st == SegState::kLostPending) {
          st = SegState::kInFlight;
          --lost_count_;
        }
      }
    }
    BUNDLER_CHECK(lost_count_ == 0);
  }

 private:
  // A retransmitted seq and the value of next_seq_ when it was resent.
  struct RetxEntry {
    int64_t seq;
    int64_t marker;
  };

  size_t Wrap(int64_t offset_from_head) const {
    return (head_ + static_cast<size_t>(offset_from_head)) & (cap_ - 1);
  }

  SegState& StateAt(int64_t seq) {
    BUNDLER_CHECK(seq >= base_ && seq < end_);
    return states_[Wrap(seq - base_)];
  }
  SegState StateAt(int64_t seq) const {
    BUNDLER_CHECK(seq >= base_ && seq < end_);
    return states_[Wrap(seq - base_)];
  }

  // The scan hints are conservative bounds, never shrunk eagerly: a stale
  // bound only widens a scan, it cannot skip a live slot.
  void NoteLostAt(int64_t seq) {
    if (seq < lost_scan_) {
      lost_scan_ = seq;
    }
    if (seq > lost_hi_) {
      lost_hi_ = seq;
    }
  }

  // retx_[0..retx_count_) holds exactly the kRetxOutstanding seqs with their
  // markers, unordered (every consumer's effect is order-independent, and
  // the ordered map it replaces iterated for effect, not for order).
  void AppendRetx(RetxEntry e) {
    if (retx_count_ == retx_cap_) {
      GrowRetx();
    }
    retx_[retx_count_++] = e;
  }

  size_t FindRetx(int64_t seq) const {
    for (size_t i = 0; i < retx_count_; ++i) {
      if (retx_[i].seq == seq) {
        return i;
      }
    }
    BUNDLER_CHECK(false);  // seq was not outstanding
    return 0;
  }

  void RemoveRetxSeq(int64_t seq) {
    const size_t i = FindRetx(seq);
    retx_[i] = retx_[--retx_count_];
  }

  void Grow(size_t need) {
    BUNDLER_CHECK(need <= kMaxCapacity);
    // cap_ is a power of two below need, so doubling it until it covers need
    // lands exactly on bit_ceil(need).
    const size_t new_cap = std::bit_ceil(need);
    // Amortized doubling past the inline capacity; vetted by alloc benches.
    SegState* fresh = new SegState[new_cap];  // lint:allow(datapath-heap-alloc)
    int64_t count = end_ - base_;
    for (int64_t i = 0; i < count; ++i) {
      fresh[i] = states_[Wrap(i)];
    }
    if (states_ != inline_states_) {
      delete[] states_;
    }
    states_ = fresh;
    cap_ = new_cap;
    head_ = 0;
  }

  void GrowRetx() {
    size_t new_cap = retx_cap_ * 2;
    // Amortized doubling past the inline capacity; vetted by alloc benches.
    RetxEntry* fresh = new RetxEntry[new_cap];  // lint:allow(datapath-heap-alloc)
    for (size_t i = 0; i < retx_count_; ++i) {
      fresh[i] = retx_[i];
    }
    if (retx_ != inline_retx_) {
      delete[] retx_;
    }
    retx_ = fresh;
    retx_cap_ = new_cap;
  }

  // Both inline footprints are sized for a typical web flow (first 32
  // segments in flight, first 8 concurrent retransmissions); the ring and
  // side-list spill to doubling heap blocks only beyond that.
  static constexpr size_t kInitialCapacity = 32;  // power of two (mask indexing)
  static constexpr size_t kInitialRetxCapacity = 8;
  // Far beyond any simulated window; bounds Grow's doubling loop.
  static constexpr size_t kMaxCapacity = size_t{1} << 40;

  SegState* states_;
  size_t cap_;
  size_t head_ = 0;  // ring index of seq == base_

  int64_t base_ = 0;  // == cum_acked_
  int64_t end_ = 0;   // == next_seq_

  int64_t sacked_count_ = 0;
  int64_t lost_count_ = 0;

  int64_t highest_sacked_ = 0;  // valid while sacked_count_ > 0
  int64_t lost_scan_ = 0;       // no kLostPending below this seq
  int64_t lost_hi_ = -1;        // no kLostPending above this seq

  RetxEntry* retx_;
  size_t retx_count_ = 0;
  size_t retx_cap_;

  SegState inline_states_[kInitialCapacity];
  RetxEntry inline_retx_[kInitialRetxCapacity];
};

}  // namespace bundler

#endif  // SRC_TRANSPORT_SACK_SCOREBOARD_H_
