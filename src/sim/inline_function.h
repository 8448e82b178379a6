// Move-only type-erased R(Args...) callable with fixed inline storage and no
// heap allocation, ever: storing or scheduling a callback costs a bounded
// move, not an operator new. It is the one callable in the simulator:
//  - every scheduled event (EventQueue::Callback, 32 bytes: at most four
//    words; a Link's events name their packet by its index in the link's
//    pool rather than carry it);
//  - the small callbacks long-lived components keep, e.g. QdiscSampler's
//    rate provider, LambdaHandler's packet sink and SiteEgress's output
//    (64 bytes by default);
//  - per-flow completion callbacks (16 bytes, FlowDoneFn in
//    src/transport/tcp_flow.h).
// Oversized captures fail to compile (static_assert), which keeps the
// no-allocation guarantee honest at every call site: to bind more state than
// fits, park it in the owning object and capture a pointer.
#ifndef SRC_SIM_INLINE_FUNCTION_H_
#define SRC_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bundler {

template <typename Sig, size_t Capacity = 64>
class InlineFunction;  // only the R(Args...) specialization exists

template <typename R, typename... Args, size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  static constexpr size_t kCapacity = Capacity;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(runtime/explicit): like std::function

  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                            std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(runtime/explicit): lambda -> function
    Emplace(std::forward<F>(f));
  }

  // Constructs the callable directly in inline storage, replacing any
  // previous one (EventQueue::Push uses this to skip a temporary).
  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "capture exceeds InlineFunction::kCapacity; indirect "
                  "through the owning object rather than growing the slot");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    Reset();
    constexpr bool kTrivial =
        std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;
    if constexpr (kTrivial) {
      // MoveFrom copies all kCapacity bytes of a trivial callable. Zero the
      // ones the callable leaves unwritten, so that copy reads no
      // indeterminate storage: the tail past it, or all of them for an empty
      // lambda, whose one byte no constructor writes.
      constexpr size_t kWritten = std::is_empty_v<Fn> ? 0 : sizeof(Fn);
      if constexpr (kWritten < kCapacity) {
        std::memset(storage_ + kWritten, 0, kCapacity - kWritten);
      }
    }
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* s, Args... args) -> R {
      return (*static_cast<Fn*>(s))(std::forward<Args>(args)...);
    };
    if constexpr (kTrivial) {
      // Trivial callables (the vast majority: lambdas over pointers,
      // indices and PODs) move by plain memcpy and need no destructor, so the
      // manager indirection is skipped entirely.
      manage_ = nullptr;
    } else {
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::kDestroy:
            static_cast<Fn*>(self)->~Fn();
            break;
          case Op::kMoveFrom:  // move-construct *self from *other, then destroy
            ::new (self) Fn(std::move(*static_cast<Fn*>(other)));
            static_cast<Fn*>(other)->~Fn();
            break;
        }
      };
    }
  }

  InlineFunction(InlineFunction&& o) noexcept { MoveFrom(o); }
  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      Reset();
      MoveFrom(o);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) { return invoke_(storage_, std::forward<Args>(args)...); }

  void Reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
    }
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  enum class Op { kDestroy, kMoveFrom };
  using InvokeFn = R (*)(void*, Args...);
  using ManageFn = void (*)(Op, void*, void*);

  void MoveFrom(InlineFunction& o) {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMoveFrom, storage_, o.storage_);
    } else if (invoke_ != nullptr) {
      // Trivial payload: the fixed-size copy beats a sized one (the length
      // is a compile-time constant, so it vectorizes), and Emplace zeroed
      // whatever the callable left unwritten.
      std::memcpy(storage_, o.storage_, kCapacity);
    }
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace bundler

#endif  // SRC_SIM_INLINE_FUNCTION_H_
