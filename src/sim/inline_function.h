// Type-erased R(Args...) callable with fixed inline storage and no heap
// allocation — InlineCallback generalized over the signature. Used where a
// long-lived component stores a small callback (e.g. QdiscSampler's rate
// provider, LambdaHandler's packet sink, monitor packet predicates):
// std::function would heap-allocate any multi-pointer capture, while this
// stores it inline and rejects oversized captures at compile time. The
// capacity is deliberately small (a handful of pointers; 64 bytes unless the
// second template argument says otherwise — per-flow callbacks use 16, see
// FlowDoneFn in src/transport/tcp_flow.h); to bind more state, park it in the
// owning object and capture a pointer.
//
// Unlike InlineCallback this type is COPYABLE (monitor specs are copied out
// of const NetBuilder during Build), so the callable must be
// copy-constructible; that is enforced with a static_assert at Emplace.
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

  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "capture exceeds InlineFunction::kCapacity; indirect "
                  "through the owning object rather than growing the slot");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    static_assert(std::is_copy_constructible_v<Fn>,
                  "InlineFunction is copyable, so the callable must be too; "
                  "park move-only state in the owning object");
    Reset();
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* s, Args... args) -> R {
      return (*static_cast<Fn*>(s))(std::forward<Args>(args)...);
    };
    if constexpr (std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn>) {
      manage_ = nullptr;  // raw memcpy moves/copies the storage bytes
    } else {
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::kDestroy:
            static_cast<Fn*>(self)->~Fn();
            break;
          case Op::kMoveFrom:
            ::new (self) Fn(std::move(*static_cast<Fn*>(other)));
            static_cast<Fn*>(other)->~Fn();
            break;
          case Op::kCopyFrom:
            ::new (self) Fn(*static_cast<const Fn*>(other));
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
  InlineFunction(const InlineFunction& o) { CopyFrom(o); }
  InlineFunction& operator=(const InlineFunction& o) {
    if (this != &o) {
      Reset();
      CopyFrom(o);
    }
    return *this;
  }
  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    return invoke_(const_cast<unsigned char*>(storage_),
                   std::forward<Args>(args)...);
  }

  void Reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
    }
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  enum class Op { kDestroy, kMoveFrom, kCopyFrom };
  using InvokeFn = R (*)(void*, Args...);
  using ManageFn = void (*)(Op, void*, void*);

  void MoveFrom(InlineFunction& o) {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMoveFrom, storage_, o.storage_);
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, o.storage_, kCapacity);
    }
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  void CopyFrom(const InlineFunction& o) {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kCopyFrom, storage_,
              const_cast<unsigned char*>(o.storage_));
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, o.storage_, kCapacity);
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace bundler

#endif  // SRC_SIM_INLINE_FUNCTION_H_
