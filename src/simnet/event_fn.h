// Move-only callable for simulator events, with inline storage sized for the
// delivery closures Simulator::transmit builds. Those closures capture a whole
// UdpPacket by value, which overflows std::function's small-object buffer and
// costs a heap round-trip per scheduled event — the single hottest allocation
// in a fleet run. EventFn keeps the capture inline; anything larger than the
// buffer still works, it just takes the heap path like std::function would.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dnslocate::simnet {

class EventFn {
 public:
  /// Inline buffer size. Sized to hold the largest hot-path closure (this +
  /// device pointer + port + a by-value UdpPacket with both optionals set)
  /// with headroom; checked by a static_assert at the capture site's TU via
  /// tests rather than here, since UdpPacket is not visible to this header.
  static constexpr std::size_t kInlineCapacity = 320;

  EventFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_.inline_bytes)) Fn(std::forward<F>(fn));
      vtable_ = &inline_vtable<Fn>;
    } else {
      storage_.heap = new Fn(std::forward<F>(fn));
      vtable_ = &heap_vtable<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this == &other) return *this;
    reset();
    move_from(other);
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  /// True when the callable lives in the inline buffer (no heap allocation).
  [[nodiscard]] bool is_inline() const noexcept {
    return vtable_ != nullptr && vtable_->relocate != nullptr;
  }

  void operator()() { vtable_->invoke(target()); }

  /// Destroy the callable, leaving this EventFn empty.
  void reset() noexcept {
    if (vtable_ != nullptr) vtable_->destroy(target());
    vtable_ = nullptr;
  }

 private:
  template <typename Fn>
  static constexpr bool fits_inline = sizeof(Fn) <= kInlineCapacity &&
                                      alignof(Fn) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  struct VTable {
    void (*invoke)(void*);
    void (*destroy)(void*);
    /// Move-construct into `dst` and destroy the source. Null for heap
    /// targets, whose moves transfer the pointer instead.
    void (*relocate)(void* src, void* dst) noexcept;
  };

  template <typename Fn>
  static constexpr VTable inline_vtable{
      [](void* t) { (*static_cast<Fn*>(t))(); },
      [](void* t) { static_cast<Fn*>(t)->~Fn(); },
      [](void* src, void* dst) noexcept {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      }};

  template <typename Fn>
  static constexpr VTable heap_vtable{
      [](void* t) { (*static_cast<Fn*>(t))(); },
      [](void* t) { delete static_cast<Fn*>(t); },
      nullptr};

  void* target() noexcept {
    return is_inline() ? static_cast<void*>(storage_.inline_bytes) : storage_.heap;
  }

  void move_from(EventFn& other) noexcept {
    vtable_ = other.vtable_;
    if (other.is_inline()) {
      vtable_->relocate(other.storage_.inline_bytes, storage_.inline_bytes);
    } else {
      storage_.heap = other.storage_.heap;
    }
    other.vtable_ = nullptr;
  }

  union Storage {
    alignas(std::max_align_t) std::byte inline_bytes[kInlineCapacity];
    void* heap;
  };

  Storage storage_;
  const VTable* vtable_ = nullptr;
};

}  // namespace dnslocate::simnet
