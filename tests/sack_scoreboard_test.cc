// The allocation-free SACK scoreboard must be observationally identical to
// the std::set/std::map scoreboard it replaced (fig09/fig10/fig13 aggregates
// are pinned byte-for-byte on it). RefBoard below *is* the old
// representation — two ordered sets plus a hole->marker map, with the exact
// erase loops tcp_flow.cc used — and the test drives both through thousands
// of randomized drop/reorder/dup-ACK patterns expressed as the sender's
// actual operation mix (send, SACK-with-hole-reveal, hole retransmission,
// cumulative ACK, RTO, recovery entry/exit), comparing the full per-segment
// state after every step. Same style as the event-engine reference-model
// mirror in tests/sim_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "src/transport/sack_scoreboard.h"
#include "src/util/random.h"

namespace bundler {
namespace {

using SegState = SackScoreboard::SegState;

// The pre-rewrite scoreboard representation, verbatim semantics.
struct RefBoard {
  int64_t base = 0;  // cum_acked_
  int64_t end = 0;   // next_seq_
  std::set<int64_t> sacked;
  std::set<int64_t> lost;
  std::map<int64_t, int64_t> retx;  // hole -> next_seq_ at retransmit time

  void ExtendTo(int64_t new_end) { end = new_end; }

  void AdvanceTo(int64_t new_base) {
    base = new_base;
    if (end < base) {
      end = base;
    }
    while (!sacked.empty() && *sacked.begin() < base) {
      sacked.erase(sacked.begin());
    }
    while (!retx.empty() && retx.begin()->first < base) {
      retx.erase(retx.begin());
    }
    while (!lost.empty() && *lost.begin() < base) {
      lost.erase(lost.begin());
    }
  }

  // The dup-ACK SACK-processing block of the original TcpSender::OnAck.
  void Sack(int64_t s) {
    if (s <= base || sacked.contains(s)) {
      return;
    }
    int64_t reveal_from = sacked.empty() ? base : *sacked.rbegin() + 1;
    if (s >= reveal_from) {
      for (int64_t q = reveal_from; q < s; ++q) {
        if (!retx.contains(q)) {
          lost.insert(q);
        }
      }
      sacked.insert(s);
      for (auto it = retx.begin(); it != retx.end();) {
        if (it->second + 3 <= s) {
          lost.insert(it->first);
          it = retx.erase(it);
        } else {
          ++it;
        }
      }
    } else {
      sacked.insert(s);
      lost.erase(s);
      retx.erase(s);
    }
  }

  // MaybeRetransmitHoles body: pop the lowest hole, record the marker.
  void RetransmitFirstHole(int64_t marker) {
    int64_t hole = *lost.begin();
    lost.erase(lost.begin());
    retx[hole] = marker;
  }

  // OnRtoTimer: every outstanding retransmission is presumed lost again,
  // then the left window edge is retransmitted.
  void Rto() {
    for (const auto& [hole, marker] : retx) {
      lost.insert(hole);
    }
    retx.clear();
    lost.erase(base);
    retx[base] = end;
  }

  void EnterFastRecovery() { retx.clear(); }

  void ExitRecovery() {
    retx.clear();
    lost.clear();
  }

  SegState StateOf(int64_t seq) const {
    if (sacked.contains(seq)) {
      return SegState::kSacked;
    }
    if (lost.contains(seq)) {
      return SegState::kLostPending;
    }
    if (retx.contains(seq)) {
      return SegState::kRetxOutstanding;
    }
    return SegState::kInFlight;
  }
};

// Drives the same logical operation on both boards.
struct Mirror {
  RefBoard ref;
  SackScoreboard sb;

  void ExtendTo(int64_t e) {
    ref.ExtendTo(e);
    sb.ExtendTo(e);
  }
  void AdvanceTo(int64_t b) {
    ref.AdvanceTo(b);
    sb.AdvanceTo(b);
  }
  void Sack(int64_t s) {
    ref.Sack(s);
    // The new-scoreboard side of TcpSender::OnAck, verbatim.
    if (s > sb.base() && !sb.IsSacked(s)) {
      int64_t reveal_from = sb.HasSacked() ? sb.HighestSacked() + 1 : sb.base();
      if (s >= reveal_from) {
        for (int64_t q = reveal_from; q < s; ++q) {
          if (sb.StateOf(q) != SegState::kRetxOutstanding) {
            sb.MarkLost(q);
          }
        }
        sb.MarkSacked(s);
        sb.MoveStaleRetxToLost(s);
      } else {
        sb.MarkSacked(s);
      }
    }
  }
  void RetransmitFirstHole(int64_t marker) {
    ref.RetransmitFirstHole(marker);
    int64_t hole = sb.FirstLost();
    sb.MarkRetx(hole, marker);
  }
  void Rto() {
    ref.Rto();
    sb.MoveAllRetxToLost();
    sb.MarkRetx(sb.base(), sb.end());
  }
  void EnterFastRecovery() {
    ref.EnterFastRecovery();
    sb.ClearRetx();
  }
  void ExitRecovery() {
    ref.ExitRecovery();
    sb.ClearLostAndRetx();
  }

  void ExpectEqual(const char* what, uint64_t step) const {
    ASSERT_EQ(sb.base(), ref.base) << what << " step " << step;
    ASSERT_EQ(sb.end(), ref.end) << what << " step " << step;
    ASSERT_EQ(sb.sacked_count(), static_cast<int64_t>(ref.sacked.size()))
        << what << " step " << step;
    ASSERT_EQ(sb.lost_count(), static_cast<int64_t>(ref.lost.size()))
        << what << " step " << step;
    ASSERT_EQ(sb.retx_count(), static_cast<int64_t>(ref.retx.size()))
        << what << " step " << step;
    ASSERT_EQ(sb.HasSacked(), !ref.sacked.empty()) << what << " step " << step;
    if (!ref.sacked.empty()) {
      ASSERT_EQ(sb.HighestSacked(), *ref.sacked.rbegin()) << what << " step " << step;
    }
    for (int64_t s = ref.base; s < ref.end; ++s) {
      ASSERT_EQ(sb.StateOf(s), ref.StateOf(s))
          << what << " step " << step << " seq " << s;
      if (ref.retx.contains(s)) {
        ASSERT_EQ(sb.RetxMarker(s), ref.retx.at(s))
            << what << " step " << step << " seq " << s;
      }
    }
  }
};

TEST(SackScoreboardTest, MatchesSetModelUnderRandomizedLossPatterns) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Mirror m;
    Rng rng(seed);
    m.ExtendTo(4);  // a few segments in flight before anything happens
    for (uint64_t step = 0; step < 4000; ++step) {
      double roll = rng.NextDouble();
      int64_t window = m.ref.end - m.ref.base;
      if (roll < 0.30 || window == 0) {
        // Send 1..8 new segments.
        m.ExtendTo(m.ref.end + 1 + static_cast<int64_t>(rng.NextU64() % 8));
        m.ExpectEqual("extend", step);
      } else if (roll < 0.60) {
        // Dup-ACK: SACK a random in-window seq strictly below next_seq_, as a
        // real echoed data seq always is (drop/reorder patterns reveal holes
        // below it; duplicate SACKs of the same seq are no-ops).
        if (window >= 2) {
          int64_t s = m.ref.base + 1 + static_cast<int64_t>(rng.NextU64() % (window - 1));
          m.Sack(s);
          m.ExpectEqual("sack", step);
        }
      } else if (roll < 0.75) {
        // Retransmit up to 3 of the lowest pending holes.
        for (int k = 0; k < 3 && !m.ref.lost.empty(); ++k) {
          m.RetransmitFirstHole(m.ref.end);
          m.ExpectEqual("retransmit-hole", step);
        }
      } else if (roll < 0.92) {
        // Cumulative ACK advancing into the window (sometimes past SACKed
        // runs, which is exactly what repairing a hole does). The cumulative
        // point is the first seq the receiver has NOT delivered, so it can
        // never land on a SACKed seq — skip past those, as reality does.
        int64_t adv = 1 + static_cast<int64_t>(rng.NextU64() % (window + 2));
        int64_t target = m.ref.base + std::min<int64_t>(adv, window);
        while (m.ref.sacked.contains(target)) {
          ++target;
        }
        m.AdvanceTo(target);
        m.ExpectEqual("cum-ack", step);
      } else if (roll < 0.96) {
        m.Rto();
        m.ExpectEqual("rto", step);
      } else if (roll < 0.98) {
        m.EnterFastRecovery();
        m.ExpectEqual("enter-recovery", step);
      } else {
        m.ExitRecovery();
        m.ExpectEqual("exit-recovery", step);
      }
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(SackScoreboardTest, PipeAccountingMatchesSetSizes) {
  // InflightPkts() is (end-base) - sacked - lost; spot-check the counters the
  // sender reads on every ACK against the reference set sizes.
  Mirror m;
  Rng rng(99);
  m.ExtendTo(64);
  for (int step = 0; step < 500; ++step) {
    int64_t window = m.ref.end - m.ref.base;
    if (window < 2) {
      m.ExtendTo(m.ref.end + 8);
      window = m.ref.end - m.ref.base;
    }
    int64_t s = m.ref.base + 1 + static_cast<int64_t>(rng.NextU64() % (window - 1));
    m.Sack(s);
    if (!m.ref.lost.empty() && rng.NextDouble() < 0.5) {
      m.RetransmitFirstHole(m.ref.end);
    }
    if (rng.NextDouble() < 0.2) {
      m.ExtendTo(m.ref.end + 4);
    }
    int64_t ref_pipe = (m.ref.end - m.ref.base) - static_cast<int64_t>(m.ref.sacked.size()) -
                       static_cast<int64_t>(m.ref.lost.size());
    int64_t sb_pipe = (m.sb.end() - m.sb.base()) - m.sb.sacked_count() - m.sb.lost_count();
    ASSERT_EQ(sb_pipe, ref_pipe) << "step " << step;
  }
}

TEST(SackScoreboardTest, RtoAtWindowEdgeExtendsWindow) {
  // The RTO path can nominally mark the left edge retransmitted when nothing
  // is outstanding (cum_acked_ == next_seq_ on a backlogged flow); the
  // scoreboard absorbs it by growing the window one slot.
  SackScoreboard sb;
  sb.ExtendTo(5);
  sb.AdvanceTo(5);
  ASSERT_EQ(sb.base(), 5);
  ASSERT_EQ(sb.end(), 5);
  sb.MarkRetx(5, 5);
  EXPECT_EQ(sb.end(), 6);
  EXPECT_EQ(sb.retx_count(), 1);
  EXPECT_EQ(sb.StateOf(5), SegState::kRetxOutstanding);
  EXPECT_EQ(sb.RetxMarker(5), 5);
}

TEST(SackScoreboardTest, RetxSideListSpillKeepsMarkers) {
  // 12 outstanding retransmissions overflow the 8 inline side-list entries;
  // each keeps its own marker (seq 10 + i was resent when next_seq_ was 40 + i).
  SackScoreboard sb;
  sb.ExtendTo(40);
  sb.MarkSacked(30);
  for (int64_t q = 10; q < 30; ++q) {
    sb.MarkLost(q);
  }
  constexpr int64_t kRetx = 12;
  for (int64_t i = 0; i < kRetx; ++i) {
    sb.ExtendTo(41 + i);
    ASSERT_EQ(sb.FirstLost(), 10 + i);
    sb.MarkRetx(10 + i, 40 + i);
  }
  ASSERT_EQ(sb.retx_count(), kRetx);
  ASSERT_EQ(sb.lost_count(), 20 - kRetx);
  for (int64_t i = 0; i < kRetx; ++i) {
    EXPECT_EQ(sb.StateOf(10 + i), SegState::kRetxOutstanding) << "seq " << 10 + i;
    EXPECT_EQ(sb.RetxMarker(10 + i), 40 + i) << "seq " << 10 + i;
  }

  // Re-marking an outstanding seq refreshes its marker without adding an
  // entry: seq 12 (marker 42) now counts as resent at 60.
  sb.ExtendTo(60);
  sb.MarkRetx(12, 60);
  EXPECT_EQ(sb.retx_count(), kRetx);
  EXPECT_EQ(sb.RetxMarker(12), 60);

  // A SACK for original seq 47 proves every retransmission with
  // marker + 3 <= 47 was dropped: markers 40..44, i.e. seqs 10, 11, 13, 14.
  // Seq 12 (refreshed to 60) and seqs 15..21 (markers 45..51) stay outstanding.
  sb.MoveStaleRetxToLost(47);
  for (int64_t seq : {10, 11, 13, 14}) {
    EXPECT_EQ(sb.StateOf(seq), SegState::kLostPending) << "seq " << seq;
  }
  EXPECT_EQ(sb.StateOf(12), SegState::kRetxOutstanding);
  EXPECT_EQ(sb.RetxMarker(12), 60);
  for (int64_t seq = 15; seq < 10 + kRetx; ++seq) {
    EXPECT_EQ(sb.StateOf(seq), SegState::kRetxOutstanding) << "seq " << seq;
    EXPECT_EQ(sb.RetxMarker(seq), seq + 30) << "seq " << seq;
  }
  EXPECT_EQ(sb.retx_count(), kRetx - 4);
  EXPECT_EQ(sb.lost_count(), 20 - kRetx + 4);
  EXPECT_EQ(sb.FirstLost(), 10);
}

TEST(SackScoreboardTest, WindowGrowthPreservesState) {
  // Force several ring reallocation cycles with live state in the window.
  SackScoreboard sb;
  RefBoard ref;
  Rng rng(7);
  for (int round = 0; round < 6; ++round) {
    int64_t new_end = ref.end + 300;  // well past the doubling boundary
    sb.ExtendTo(new_end);
    ref.ExtendTo(new_end);
    for (int k = 0; k < 40; ++k) {
      int64_t window = ref.end - ref.base;
      int64_t s = ref.base + 1 + static_cast<int64_t>(rng.NextU64() % (window - 1));
      ref.Sack(s);
      if (s > sb.base() && !sb.IsSacked(s)) {
        int64_t reveal_from = sb.HasSacked() ? sb.HighestSacked() + 1 : sb.base();
        if (s >= reveal_from) {
          for (int64_t q = reveal_from; q < s; ++q) {
            if (sb.StateOf(q) != SegState::kRetxOutstanding) {
              sb.MarkLost(q);
            }
          }
          sb.MarkSacked(s);
          sb.MoveStaleRetxToLost(s);
        } else {
          sb.MarkSacked(s);
        }
      }
    }
    int64_t adv = ref.base + 100;
    ref.AdvanceTo(adv);
    sb.AdvanceTo(adv);
    for (int64_t s = ref.base; s < ref.end; ++s) {
      ASSERT_EQ(sb.StateOf(s), ref.StateOf(s)) << "round " << round << " seq " << s;
    }
  }
}

}  // namespace
}  // namespace bundler
