// The one binary codec of every artifact this repository writes: .uvrs and
// .uvfl store entries, .uvsnap checkpoints, .uvbs bus logs, UVRL flight
// records and the serve wire payloads.
//
// A serialized type declares its layout once, as a field list found by
// argument-dependent lookup:
//
//   template <class V> void Fields(V& v, Thing& x) { v(x.a, x.b, Capped{x.name, kMaxName}); }
//
// and the same list drives both directions: an Encoder appends the fields,
// a Decoder assigns them back in the same order. The visitor style follows
// math/state_io.h, but the bytes differ on purpose — state_io copies whole
// structs in host order for snapshot sections, this codec writes each field.
//
// Field rules: integers are little-endian at their own width, doubles are
// their IEEE-754 bits as a u64, a bool is one byte that must read as 0 or 1;
// math::Vec3 is x, y, z and math::Quat is w, x, y, z; std::array is its
// elements; std::optional<T> is a bool, then T when present; enums, strings
// and vectors go through the wrappers below; a callable is invoked with the
// visitor, for lists with local state.
//
// The Decoder never reads past its input and never allocates for a count
// whose elements cannot fit in the bytes left, so a corrupt or hostile count
// fails before any allocation. Its first failure is final.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "math/quat.h"
#include "math/vec3.h"

namespace uavres::telemetry {

/// A four-character tag as the little-endian u32 the artifacts store.
constexpr std::uint32_t Magic(const char (&tag)[5]) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{static_cast<unsigned char>(tag[i])} << (8 * i);
  return v;
}

/// Footer word shared by .uvrs entries and .uvfl records.
inline constexpr std::uint32_t kArtifactFooter = 0x5AFEC0DE;

// Field-list wrappers, built with braces: InRange{x, lo, hi}, Capped{c, max},
// Elements{c, n}, Expect{x}.

/// An integer the reader refuses outside [lo, hi]; enums travel as one byte.
template <class T>
struct InRange {
  T& x;
  std::remove_const_t<T> lo, hi;
};

/// A count of the type of `max` (u32 or u64), then the elements of `c`; the
/// reader refuses counts above `max`.
template <class C, class Len>
struct Capped {
  static_assert(std::is_unsigned_v<Len>, "a count cap sets the count's width");
  C& c;
  Len max;
};

/// The elements of `c`, whose count `n` travels earlier in the list.
template <class C, class N>
struct Elements {
  C& c;
  N& n;
};

/// A constant (magic, version, footer, key) the reader requires verbatim.
template <class T>
struct Expect {
  T value;
};

namespace codec_detail {
template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};
template <class T>
struct IsArray : std::false_type {};
template <class T, std::size_t N>
struct IsArray<std::array<T, N>> : std::true_type {};
}  // namespace codec_detail

/// The codec visitor, one field rule per type for both directions: an
/// Encoder (Codec<false>) appends fields to a byte string; a Decoder
/// (Codec<true>) assigns them back from one.
template <bool kDecode>
class Codec {
 public:
  explicit Codec(std::string* out) requires(!kDecode) : out_(out) {}
  explicit Codec(std::string_view in) requires kDecode : in_(in) {}

  template <class... Ts>
  void operator()(Ts&&... xs) {
    (Field(xs), ...);
  }

  /// Every field decoded and no byte left over.
  bool Done() const { return ok_ && pos_ == in_.size(); }

 private:
  template <class T>
  void Field(T& x) {
    using U = std::remove_const_t<T>;
    if constexpr (std::is_same_v<U, bool>) {
      std::uint8_t b = x;
      Int(b);
      if constexpr (kDecode) {
        if (b > 1) Fail();
        x = b == 1;
      }
    } else if constexpr (std::is_integral_v<U>) {
      Int(x);
    } else if constexpr (std::is_same_v<U, double>) {
      auto bits = std::bit_cast<std::uint64_t>(x);
      Int(bits);
      if constexpr (kDecode) x = std::bit_cast<double>(bits);
    } else if constexpr (std::is_same_v<U, math::Vec3>) {
      (*this)(x.x, x.y, x.z);
    } else if constexpr (std::is_same_v<U, math::Quat>) {
      (*this)(x.w, x.x, x.y, x.z);
    } else if constexpr (codec_detail::IsArray<U>::value) {
      for (auto& e : x) Field(e);
    } else if constexpr (codec_detail::IsOptional<U>::value) {
      bool present = x.has_value();
      Field(present);
      if constexpr (kDecode) {
        if (present) {
          x.emplace();
        } else {
          x.reset();
        }
      }
      if (present) Field(*x);
    } else if constexpr (std::is_invocable_v<T&, Codec&>) {
      x(*this);
    } else {
      static_assert(!std::is_enum_v<U>, "enum fields need InRange{...}");
      Fields(*this, const_cast<U&>(x));  // an Encoder only reads through it
    }
  }
  template <class T>
  void Field(InRange<T>& f) {
    using U = std::remove_const_t<T>;
    using Wire = std::conditional_t<std::is_enum_v<U>, std::uint8_t, U>;
    auto raw = static_cast<Wire>(f.x);
    Int(raw);
    if constexpr (kDecode) {
      if (raw < static_cast<Wire>(f.lo) || raw > static_cast<Wire>(f.hi)) return Fail();
      f.x = static_cast<U>(raw);
    }
  }
  template <class C, class Len>
  void Field(Capped<C, Len>& f) {
    auto n = static_cast<Len>(f.c.size());
    Int(n);
    if (kDecode && n > f.max) return Fail();
    Items(f.c, n);
  }
  template <class C, class N>
  void Field(Elements<C, N>& f) {
    Items(f.c, f.n);
  }
  template <class T>
  void Field(Expect<T>& f) {
    T x = f.value;
    Field(x);
    if (x != f.value) Fail();
  }

  /// `n` elements of `c`. The decoder sizes `c` only once `n` elements of
  /// the smallest encoded size fit in the bytes left.
  template <class C>
  void Items(C& c, std::uint64_t n) {
    using E = typename std::remove_const_t<C>::value_type;
    constexpr bool kBytes = std::is_integral_v<E> && sizeof(E) == 1;
    if constexpr (kDecode) {
      if (n > remaining() / MinBytes<E>()) return Fail();
      if constexpr (kBytes) {
        const auto* p = reinterpret_cast<const E*>(in_.data() + pos_);
        c.assign(p, p + n);
        pos_ += n;
        return;
      }
      c.assign(n, E{});
    } else if constexpr (kBytes) {
      out_->append(reinterpret_cast<const char*>(c.data()), c.size());
      return;
    }
    for (auto& e : c) Field(e);
  }
  /// Encoded size of a default element: strings and vectors empty.
  template <class E>
  static std::size_t MinBytes() {
    static const std::size_t n = [] {
      std::string out;
      Codec<false> encoder(&out);
      encoder(E{});
      return out.size();
    }();
    return n;
  }
  template <class T>
  void Int(T& v) {
    using U = std::make_unsigned_t<std::remove_const_t<T>>;
    if constexpr (kDecode) {
      if (remaining() < sizeof(T)) return Fail();
      U u = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        u |= static_cast<U>(U{static_cast<unsigned char>(in_[pos_ + i])} << (8 * i));
      }
      v = static_cast<T>(u);
      pos_ += sizeof(T);
    } else {
      char b[sizeof(T)];
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        b[i] = static_cast<char>(static_cast<U>(v) >> (8 * i));
      }
      out_->append(b, sizeof(T));
    }
  }
  std::size_t remaining() const { return in_.size() - pos_; }
  void Fail() {
    ok_ = false;
    pos_ = in_.size();
  }

  std::string* out_{nullptr};
  std::string_view in_;
  std::size_t pos_{0};
  bool ok_{true};
};

using Encoder = Codec<false>;
using Decoder = Codec<true>;

/// The bytes of `xs` in order.
template <class... Ts>
std::string Encode(const Ts&... xs) {
  std::string out;
  Encoder e(&out);
  e(xs...);
  return out;
}

/// Decodes `bytes` into `xs`; true only when every field decoded and no
/// byte is left over.
template <class... Ts>
bool Decode(std::string_view bytes, Ts&&... xs) {
  Decoder d(bytes);
  d(xs...);
  return d.Done();
}

/// Whole-file read for the file-level loaders; nullopt when the file cannot
/// be opened.
std::optional<std::string> ReadFileBytes(const std::string& path);

}  // namespace uavres::telemetry
