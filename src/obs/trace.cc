#include "src/obs/trace.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "src/util/check.h"

namespace bundler::obs {

namespace {

constexpr const char* kCatNames[] = {
    "sim",  "link", "qdisc", "tcp",
    "sendbox", "mode", "nimbus", "pi", "cc", "shard",
    "fault", "watchdog", "tenant",
};
static_assert(sizeof(kCatNames) / sizeof(kCatNames[0]) ==
              static_cast<size_t>(TraceCat::kNumCats));

struct EvName {
  TraceEv ev;
  const char* name;
};

constexpr EvName kEvNames[] = {
    {TraceEv::kSimRunStart, "run_start"},
    {TraceEv::kSimRunEnd, "run_end"},
    {TraceEv::kLinkTx, "link_tx"},
    {TraceEv::kLinkDrop, "link_drop"},
    {TraceEv::kQdiscEnq, "enq"},
    {TraceEv::kQdiscDeq, "deq"},
    {TraceEv::kQdiscDropTail, "drop_tail"},
    {TraceEv::kQdiscDropAqm, "drop_aqm"},
    {TraceEv::kTcpRetx, "retx"},
    {TraceEv::kTcpRto, "rto"},
    {TraceEv::kTcpSpuriousRetx, "spurious_retx"},
    {TraceEv::kTcpRecoveryEnter, "recovery_enter"},
    {TraceEv::kTcpRecoveryExit, "recovery_exit"},
    {TraceEv::kSbRate, "sb_rate"},
    {TraceEv::kSbEpoch, "sb_epoch"},
    {TraceEv::kModeSwitch, "mode_switch"},
    {TraceEv::kNimbusEval, "nimbus_eval"},
    {TraceEv::kPiUpdate, "pi_update"},
    {TraceEv::kPiReset, "pi_reset"},
    {TraceEv::kCcUpdate, "cc_update"},
    {TraceEv::kCcReset, "cc_reset"},
    {TraceEv::kShardSend, "shard_send"},
    {TraceEv::kShardDeliver, "shard_deliver"},
    {TraceEv::kFaultDrop, "fault_drop"},
    {TraceEv::kWdDegrade, "wd_degrade"},
    {TraceEv::kWdProbe, "wd_probe"},
    {TraceEv::kWdResync, "wd_resync"},
    {TraceEv::kTenantAdmit, "tenant_admit"},
    {TraceEv::kTenantReject, "tenant_reject"},
    {TraceEv::kTenantSched, "tenant_sched"},
};

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  int n = vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  BUNDLER_CHECK(n >= 0 && static_cast<size_t>(n) < sizeof(buf));
  out->append(buf, static_cast<size_t>(n));
}

}  // namespace

const char* TraceCatName(TraceCat cat) {
  const auto i = static_cast<size_t>(cat);
  BUNDLER_CHECK(i < static_cast<size_t>(TraceCat::kNumCats));
  return kCatNames[i];
}

const char* TraceEvName(TraceEv ev) {
  for (const EvName& e : kEvNames) {
    if (e.ev == ev) {
      return e.name;
    }
  }
  return "?";
}

bool ParseTraceCats(const std::string& spec, uint32_t* mask_out) {
  uint32_t mask = 0;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    std::string tok = spec.substr(pos, comma - pos);
    if (!tok.empty()) {
      if (tok == "all") {
        mask |= kAllCats;
      } else {
        bool found = false;
        for (size_t i = 0; i < static_cast<size_t>(TraceCat::kNumCats); ++i) {
          if (tok == kCatNames[i]) {
            mask |= 1u << i;
            found = true;
            break;
          }
        }
        if (!found) {
          return false;
        }
      }
    }
    pos = comma + 1;
  }
  *mask_out = mask;
  return true;
}

void Tracer::Enable(uint32_t mask, size_t capacity) {
  BUNDLER_CHECK(capacity > 0);
  mask_ = mask & kAllCats;
  if (capacity_ != capacity) {
    ring_ = std::make_unique_for_overwrite<TraceRecord[]>(capacity);
    capacity_ = capacity;
  }
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

std::vector<TraceRecord> Tracer::Snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

void Tracer::WriteJsonl(std::string* out) const {
  for (size_t i = 0; i < components_.size(); ++i) {
    AppendF(out, "{\"type\":\"component\",\"id\":%zu,\"kind\":\"%s\",\"name\":\"%s\"}\n",
            i, components_[i].kind.c_str(), components_[i].name.c_str());
  }
  for (size_t i = 0; i < size_; ++i) {
    const TraceRecord& r = ring_[(head_ + i) % capacity_];
    AppendF(out,
            "{\"type\":\"record\",\"t_ns\":%" PRId64
            ",\"cat\":\"%s\",\"ev\":\"%s\",\"comp\":%" PRIu32 ",\"a\":%" PRIu64
            ",\"b\":%" PRIu64 ",\"c\":%" PRIu64 "}\n",
            r.t_ns, kCatNames[r.cat], TraceEvName(static_cast<TraceEv>(r.ev)),
            r.comp, r.a, r.b, r.c);
  }
  AppendF(out, "{\"type\":\"trace_end\",\"records\":%zu,\"dropped\":%" PRIu64 "}\n",
          size_, dropped_);
}

}  // namespace bundler::obs
