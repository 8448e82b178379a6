// End-host model. A `Host` demultiplexes incoming packets to per-flow
// handlers and stamps outgoing packets (IP ID counter, ports). A `FlowTable`
// owns the transport objects of every flow created during a scenario and
// allocates flow ids.
//
// Both sit on the per-flow setup path, which under an open-loop web workload
// runs thousands of times per simulated second: the demux table is an
// open-addressing FlatMap64 (no node allocation per flow) and FlowTable
// carves transport objects out of an arena whose blocks completed flows hand
// back, so steady-state flow churn costs ~zero heap allocations per event.
#ifndef SRC_TRANSPORT_ENDPOINT_H_
#define SRC_TRANSPORT_ENDPOINT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "src/net/node.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/flat_map.h"
#include "src/util/thread_annotations.h"

namespace bundler {

// Where the TCP senders of one host report: the simulator's shared "tcp"
// trace component and its aggregate tcp.* counters. Aggregate, because flows
// churn mid-run and per-flow registration would allocate on the datapath.
struct TcpObs {
  uint32_t comp = 0;
  uint64_t* retransmits = nullptr;
  uint64_t* rtos = nullptr;
  uint64_t* spurious = nullptr;
  uint64_t* recoveries = nullptr;
};

class Host : public PacketHandler {
 public:
  Host(Simulator* sim, Address addr, PacketHandler* egress);

  // Incoming packets from the network: demux on flow id. A finite flow's
  // data packet with no handler belongs to a completed receiver, and the host
  // answers it with the final ACK (stateless TIME_WAIT: see endpoint.cc).
  // Any other packet with no handler counts as unclaimed.
  void HandlePacket(Packet pkt) override;

  // Outgoing path: stamps the IPv4 ID (per-host counter, so retransmissions
  // get fresh IDs) and hands the packet to the site network.
  void SendOut(Packet pkt);

  void Register(uint64_t flow_id, PacketHandler* handler);
  void Unregister(uint64_t flow_id);
  // Demux entries: the live flows with a handler on this host.
  size_t registered_flows() const { return flows_.size(); }

  uint16_t AllocPort();

  // Registers tcp_obs() with the simulator on the first call and does nothing
  // after. Each flow's sender handle makes the call for its source host as
  // CreateTcpFlow creates it, so a host that never sends registers nothing.
  void ResolveTcpObs();
  const TcpObs& tcp_obs() const { return tcp_obs_; }

  Simulator* sim() { return sim_; }
  Address address() const { return addr_; }
  uint64_t unclaimed_packets() const { return unclaimed_; }
  void set_egress(PacketHandler* egress) { egress_ = egress; }

 private:
  Simulator* sim_;
  Address addr_;
  PacketHandler* egress_;
  FlatMap64<PacketHandler*> flows_;
  uint16_t next_port_ = 1024;
  uint16_t next_ip_id_ = 1;
  uint64_t unclaimed_ = 0;
  TcpObs tcp_obs_;
};

// Owns transport objects and allocates flow ids. Each object is carved from
// an arena with a 16-byte header and rounded up to a 64-byte size class.
// Objects free themselves once their flow is done (a completed sender or
// receiver, a request whose response has started): Release() destroys the
// object and threads its block onto a per-class free list, so the arena is
// bounded by the flows in flight rather than by every flow the run created,
// and a warm arena serves create/release cycles with zero heap allocations.
// Objects still live when the table goes away (backlogged flows, flows cut
// off by the end of the run) are destroyed then, in no particular order.
//
// Every table structure is GUARDED_BY(mu_) because in a sharded run flows
// complete concurrently in different shards; object construction always runs
// outside the lock (flow constructors send packets and schedule events, and
// must not hold the table mutex while doing so).
class FlowTable {
 public:
  FlowTable() = default;
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;
  ~FlowTable() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Owned& o : owned_) {
      o.destroy(o.obj);
    }
  }

  [[nodiscard]] uint64_t AllocFlowId() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_flow_id_++;
  }

  template <typename T, typename... Args>
  [[nodiscard]] T* Emplace(Args&&... args) {
    static_assert(sizeof(T) + sizeof(ReclaimHeader) <= kBlockBytes,
                  "flow object larger than an arena block");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "arena blocks are new[]-aligned");
    void* mem = Allocate(sizeof(T));
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    {
      std::lock_guard<std::mutex> lock(mu_);
      Header(obj)->owned_idx = static_cast<uint32_t>(owned_.size());
      owned_.push_back(Owned{obj, [](void* p) { static_cast<T*>(p)->~T(); }});
    }
    return obj;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return owned_.size();
  }

  // No-op: every table reclaims. Kept only because the benchmark harness
  // (bench/e2e/bundler_bench.cc), written when reclamation was opt-in, still
  // calls it; delete it with those calls.
  void EnableReclaim() {}

  // Destroys an Emplace()d object and recycles its arena block. The caller
  // guarantees no live event or handle still references `obj`; under
  // AddressSanitizer the dead payload is poisoned until reuse, so a stale
  // handle faults instead of reading a destroyed object.
  void Release(void* obj) {
    std::lock_guard<std::mutex> lock(mu_);
    ReclaimHeader* h = Header(obj);
    BUNDLER_CHECK_MSG(h->magic == kReclaimMagic,
                      "Release of a pointer this table does not own");
    const size_t idx = h->owned_idx;
    BUNDLER_CHECK(idx < owned_.size() && owned_[idx].obj == obj);
    owned_[idx].destroy(obj);
    owned_[idx] = owned_.back();
    owned_.pop_back();
    if (idx < owned_.size()) {
      Header(owned_[idx].obj)->owned_idx = static_cast<uint32_t>(idx);
    }
    const size_t cls = h->size_class;
    h->magic = 0;
    ASAN_POISON_MEMORY_REGION(obj, cls * kGranule);
    // The dead block's first word becomes the free-list link.
    *reinterpret_cast<void**>(h) = free_lists_[cls];
    free_lists_[cls] = h;
    ++releases_;
  }

  uint64_t releases() const {
    std::lock_guard<std::mutex> lock(mu_);
    return releases_;
  }
  uint64_t reuses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reuses_;
  }
  size_t arena_blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return blocks_.size();
  }

  // Bytes per arena block: room for ~250 running web flows (receiver, sender
  // handle and connection, request glue) or ~900 flows waiting to start. A
  // flow object bigger than a block would be a bug worth hearing about loudly.
  static constexpr size_t kBlockBytes = 256 * 1024;

 private:
  struct Owned {
    void* obj;
    void (*destroy)(void*);
  };

  // Sits immediately before each object and is never poisoned. 16 bytes keeps
  // the payload at new[] alignment; the magic doubles as a use-after-release
  // trap and leaves the first word free for the free-list link once dead.
  struct ReclaimHeader {
    uint32_t owned_idx;
    uint32_t size_class;
    uint64_t magic;
  };
  static_assert(sizeof(ReclaimHeader) == 16);
  static constexpr uint64_t kReclaimMagic = 0x666c6f7774626c6bULL;  // "flowtblk"
  static constexpr size_t kGranule = 64;

  static ReclaimHeader* Header(void* obj) {
    return reinterpret_cast<ReclaimHeader*>(static_cast<unsigned char*>(obj) -
                                            sizeof(ReclaimHeader));
  }

  // Returns the payload address of a free block of `bytes`' size class: the
  // class's free list first, fresh arena space otherwise.
  void* Allocate(size_t bytes) {
    const size_t cls = (bytes + kGranule - 1) / kGranule;
    std::lock_guard<std::mutex> lock(mu_);
    if (free_lists_.size() <= cls) {
      free_lists_.resize(cls + 1, nullptr);
    }
    void* block = free_lists_[cls];
    if (block != nullptr) {
      free_lists_[cls] = *static_cast<void**>(block);
      ++reuses_;
    } else {
      // Every carve is 16 + a multiple of 64 bytes from a new[]-aligned
      // block, so headers and payloads stay at new[] alignment.
      const size_t carve = sizeof(ReclaimHeader) + cls * kGranule;
      if (blocks_.empty() || arena_used_ + carve > kBlockBytes) {
        // Amortized arena growth; steady state recycles via free lists.
        blocks_.push_back(std::make_unique<unsigned char[]>(kBlockBytes));  // lint:allow(datapath-heap-alloc)
        arena_used_ = 0;
      }
      block = blocks_.back().get() + arena_used_;
      arena_used_ += carve;
    }
    auto* h = static_cast<ReclaimHeader*>(block);
    h->size_class = static_cast<uint32_t>(cls);
    h->magic = kReclaimMagic;
    void* payload = static_cast<unsigned char*>(block) + sizeof(ReclaimHeader);
    // A recycled payload was poisoned by Release (fresh arena space never is).
    ASAN_UNPOISON_MEMORY_REGION(payload, cls * kGranule);
    return payload;
  }

  mutable std::mutex mu_;
  uint64_t next_flow_id_ GUARDED_BY(mu_) = 1;
  std::vector<std::unique_ptr<unsigned char[]>> blocks_ GUARDED_BY(mu_);
  size_t arena_used_ GUARDED_BY(mu_) = 0;
  std::vector<Owned> owned_ GUARDED_BY(mu_);
  // Indexed by size class, intrusive links through the dead blocks.
  std::vector<void*> free_lists_ GUARDED_BY(mu_);
  uint64_t releases_ GUARDED_BY(mu_) = 0;
  uint64_t reuses_ GUARDED_BY(mu_) = 0;
};

}  // namespace bundler

#endif  // SRC_TRANSPORT_ENDPOINT_H_
