// End-host model. A `Host` demultiplexes incoming packets to per-flow
// handlers, hands its site's control traffic (CtlAddress) to a control
// handler, and stamps outgoing packets (IP ID counter, ports). A `FlowTable`
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
#include <utility>
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

  // Incoming packets from the network: demux on flow id. A packet no flow
  // claims that is addressed to CtlAddress(this site) goes to the control
  // handler (the site's SendboxManager, which takes its bundles' feedback);
  // control packets carry flow id 0, and flow ids start at 1. A finite
  // flow's data packet with no handler belongs to a completed receiver, and
  // the host answers it with the final ACK (stateless TIME_WAIT: see
  // endpoint.cc). Any other packet with no handler counts as unclaimed.
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
  // Null (the default) leaves control traffic unclaimed.
  void set_ctl(PacketHandler* ctl) { ctl_ = ctl; }

 private:
  Simulator* sim_;
  Address addr_;
  PacketHandler* egress_;
  PacketHandler* ctl_ = nullptr;
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
// off by the end of the run) are destroyed then: the destructor walks every
// carve of every block by the size classes in their headers and destroys the
// ones whose header is live, so the table keeps no list of its objects.
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
    // Only headers are read, and they are never poisoned.
    for (const Block& b : blocks_) {
      for (size_t off = 0; off < b.used;) {
        auto* h = reinterpret_cast<ReclaimHeader*>(b.mem.get() + off);
        if (h->magic == kReclaimMagic) {
          h->destroy(h + 1);
        }
        off += sizeof(ReclaimHeader) + h->size_class * kGranule;
      }
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
      // Live only once constructed: the destructor's walk skips the carve
      // until then.
      std::lock_guard<std::mutex> lock(mu_);
      ReclaimHeader* h = Header(obj);
      h->destroy = [](void* p) { static_cast<T*>(p)->~T(); };
      h->magic = kReclaimMagic;
      ++live_;
    }
    return obj;
  }

  // Live objects: emplaced and not yet released.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return live_;
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
    h->destroy(obj);
    --live_;
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
  // Sits immediately before each object and is never poisoned. 16 bytes keeps
  // the payload at new[] alignment; the magic doubles as a use-after-release
  // trap. Once dead, the first word is the free-list link, and the size class
  // stays readable for the destructor's walk.
  struct ReclaimHeader {
    void (*destroy)(void*);
    uint32_t size_class;
    uint32_t magic;
  };
  static_assert(sizeof(ReclaimHeader) == 16);
  static constexpr uint32_t kReclaimMagic = 0x666c6f77;  // "flow"
  static constexpr size_t kGranule = 64;

  // An arena block and the bytes carved from it so far.
  struct Block {
    std::unique_ptr<unsigned char[]> mem;
    size_t used = 0;
  };

  static ReclaimHeader* Header(void* obj) {
    return reinterpret_cast<ReclaimHeader*>(static_cast<unsigned char*>(obj) -
                                            sizeof(ReclaimHeader));
  }

  // Returns the payload address of a free block of `bytes`' size class: the
  // class's free list first, fresh arena space otherwise. Its header is dead
  // until Emplace has constructed the object.
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
      if (blocks_.empty() || blocks_.back().used + carve > kBlockBytes) {
        // Amortized arena growth; steady state recycles via free lists.
        // Left unwritten: a page becomes resident when a carve reaches it.
        auto mem = std::make_unique_for_overwrite<unsigned char[]>(kBlockBytes);  // lint:allow(datapath-heap-alloc)
        blocks_.push_back(Block{std::move(mem), 0});
      }
      block = blocks_.back().mem.get() + blocks_.back().used;
      blocks_.back().used += carve;
    }
    auto* h = static_cast<ReclaimHeader*>(block);
    h->size_class = static_cast<uint32_t>(cls);
    h->magic = 0;
    void* payload = static_cast<unsigned char*>(block) + sizeof(ReclaimHeader);
    // A recycled payload was poisoned by Release (fresh arena space never is).
    ASAN_UNPOISON_MEMORY_REGION(payload, cls * kGranule);
    return payload;
  }

  mutable std::mutex mu_;
  uint64_t next_flow_id_ GUARDED_BY(mu_) = 1;
  std::vector<Block> blocks_ GUARDED_BY(mu_);
  size_t live_ GUARDED_BY(mu_) = 0;
  // Indexed by size class, intrusive links through the dead blocks.
  std::vector<void*> free_lists_ GUARDED_BY(mu_);
  uint64_t releases_ GUARDED_BY(mu_) = 0;
  uint64_t reuses_ GUARDED_BY(mu_) = 0;
};

}  // namespace bundler

#endif  // SRC_TRANSPORT_ENDPOINT_H_
