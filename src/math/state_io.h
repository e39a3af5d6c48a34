// Bit-exact state serialization for simulation checkpointing (DESIGN.md §16).
//
// StateWriter and StateReader are mirror-image visitors. A class exposes its
// mutable state exactly once, as
//
//   template <class Visitor> void VisitState(Visitor&& v) { v(a_, b_, c_); }
//
// and both directions fall out of the same member list: `writer(obj)` appends
// the members to a byte buffer, `reader(obj)` assigns them back in the same
// order. Nested objects recurse through their own VisitState; optionals,
// strings, vectors, arrays and unique_ptr are handled structurally; every
// other type must be trivially copyable and is copied byte-for-byte. Bytes
// are host-order — a snapshot restores the exact bits it captured, which is
// what the fork-vs-full-run identity tests demand — and the reader never
// reads past its buffer: a truncated or corrupted stream zero-fills and
// latches ok() == false instead of invoking UB, as does a visited bool whose
// byte is not 0 or 1 (a bool inside a byte-copied struct is not checked).
//
// Configuration members (tunings, plans, physical parameters) are
// deliberately *not* visited: restore targets a freshly constructed object
// built from the same configuration, so only state that evolves during a run
// belongs in VisitState.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace uavres::math {

namespace state_detail {
template <typename T>
struct IsStdOptional : std::false_type {};
template <typename U>
struct IsStdOptional<std::optional<U>> : std::true_type {};
template <typename T>
struct IsStdVector : std::false_type {};
template <typename U, typename A>
struct IsStdVector<std::vector<U, A>> : std::true_type {};
template <typename T>
struct IsStdArray : std::false_type {};
template <typename U, std::size_t N>
struct IsStdArray<std::array<U, N>> : std::true_type {};
template <typename T>
struct IsUniquePtr : std::false_type {};
template <typename U, typename D>
struct IsUniquePtr<std::unique_ptr<U, D>> : std::true_type {};
}  // namespace state_detail

/// Appends visited state to a byte buffer.
class StateWriter {
 public:
  explicit StateWriter(std::vector<std::uint8_t>* out) : out_(out) {}

  template <class... Ts>
  void operator()(Ts&... xs) {
    (Field(xs), ...);
  }

  template <class T>
  void Field(T& x) {
    if constexpr (requires { x.VisitState(*this); }) {
      x.VisitState(*this);
    } else if constexpr (state_detail::IsStdOptional<T>::value) {
      Raw<std::uint8_t>(x.has_value() ? 1 : 0);
      if (x.has_value()) Field(*x);
    } else if constexpr (std::is_same_v<std::remove_const_t<T>, std::string>) {
      Raw<std::uint64_t>(x.size());
      Append(reinterpret_cast<const std::uint8_t*>(x.data()), x.size());
    } else if constexpr (state_detail::IsStdVector<T>::value) {
      Raw<std::uint64_t>(x.size());
      for (auto& e : x) Field(e);
    } else if constexpr (state_detail::IsStdArray<T>::value || std::is_array_v<T>) {
      for (auto& e : x) Field(e);
    } else if constexpr (state_detail::IsUniquePtr<T>::value) {
      Field(*x);
    } else {
      static_assert(std::is_trivially_copyable_v<std::remove_const_t<T>>,
                    "state member needs a VisitState or a structural overload");
      Raw(x);
    }
  }

  std::size_t bytes_written() const { return out_->size(); }

 private:
  template <class T>
  void Raw(const T& v) {
    std::uint8_t buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    Append(buf, sizeof(T));
  }
  void Append(const std::uint8_t* p, std::size_t n) { out_->insert(out_->end(), p, p + n); }

  std::vector<std::uint8_t>* out_;
};

/// Assigns visited state back from a byte buffer. Bounds-checked: overruns
/// zero-fill the remaining fields and latch ok() == false.
class StateReader {
 public:
  StateReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit StateReader(const std::vector<std::uint8_t>& bytes)
      : StateReader(bytes.data(), bytes.size()) {}

  template <class... Ts>
  void operator()(Ts&... xs) {
    (Field(xs), ...);
  }

  template <class T>
  void Field(T& x) {
    if constexpr (requires { x.VisitState(*this); }) {
      x.VisitState(*this);
    } else if constexpr (state_detail::IsStdOptional<T>::value) {
      std::uint8_t has = 0;
      Raw(has);
      if (has != 0) {
        x.emplace();
        Field(*x);
      } else {
        x.reset();
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::uint64_t n = 0;
      Raw(n);
      if (n > remaining()) {  // corrupted count: take what exists, flag it
        ok_ = false;
        n = remaining();
      }
      x.assign(reinterpret_cast<const char*>(data_ + pos_), static_cast<std::size_t>(n));
      pos_ += static_cast<std::size_t>(n);
    } else if constexpr (state_detail::IsStdVector<T>::value) {
      std::uint64_t n = 0;
      Raw(n);
      if (n > remaining()) {  // every element consumes >= 1 byte, so this is
        ok_ = false;          // a corrupted count — don't resize to it
        n = 0;
      }
      x.clear();
      x.resize(static_cast<std::size_t>(n));
      for (auto& e : x) Field(e);
    } else if constexpr (state_detail::IsStdArray<T>::value || std::is_array_v<T>) {
      for (auto& e : x) Field(e);
    } else if constexpr (state_detail::IsUniquePtr<T>::value) {
      Field(*x);
    } else if constexpr (std::is_same_v<T, bool>) {
      // Through a byte: any value but 0 or 1 is corruption, and copying it
      // straight into a bool would be undefined.
      std::uint8_t b = 0;
      Raw(b);
      if (b > 1) ok_ = false;
      x = b == 1;
    } else {
      static_assert(std::is_trivially_copyable_v<T>,
                    "state member needs a VisitState or a structural overload");
      Raw(x);
    }
  }

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// Strict framing check: everything read cleanly and nothing left over.
  bool fully_consumed() const { return ok_ && pos_ == size_; }

 private:
  template <class T>
  void Raw(T& v) {
    if (size_ - pos_ < sizeof(T)) {
      ok_ = false;
      v = T{};
      pos_ = size_;
      return;
    }
    // Through a local: GCC 12 flags a memcpy straight into a member reached
    // through a unique_ptr (-Wstringop-overflow, PhysicsModule::RestoreState).
    T copy{};
    std::memcpy(&copy, data_ + pos_, sizeof(T));
    v = copy;
    pos_ += sizeof(T);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
  bool ok_{true};
};

}  // namespace uavres::math
