// Byte-buffer serialization primitives used by the block format.
//
// BufferWriter appends primitive values and byte ranges to a growable
// vector; BufferReader consumes them with strict bounds checking so that a
// corrupted or truncated block is reported as Status::Corruption instead of
// reading out of bounds. SharedBuffer is the immutable, shared form a
// block is loaded into: a reader over one lends its owner to what it
// reads, so loaded streams view the buffer instead of copying it.

#ifndef CORRA_COMMON_BUFFER_H_
#define CORRA_COMMON_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace corra {

/// Append-only little-endian serializer.
class BufferWriter {
 public:
  BufferWriter() = default;

  /// Appends a fixed-width primitive (integral types only).
  template <typename T>
  void Write(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t old = bytes_.size();
    bytes_.resize(old + sizeof(T));
    std::memcpy(bytes_.data() + old, &value, sizeof(T));
  }

  /// Appends a length-prefixed (uint64) byte blob.
  void WriteBytes(std::span<const uint8_t> data);

  /// Appends a length-prefixed string.
  void WriteString(std::string_view s);

  /// Appends a length-prefixed array of int64 values.
  void WriteInt64Array(std::span<const int64_t> values);

  /// Appends a length-prefixed array of uint32 values.
  void WriteUint32Array(std::span<const uint32_t> values);

  size_t size() const { return bytes_.size(); }

  /// Returns the accumulated bytes, leaving the writer empty.
  std::vector<uint8_t> Finish() && { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Immutable bytes with shared ownership: a loaded block's read buffer
/// (CorfFile::ReadBlockBytes). Copies share the bytes, which live until
/// the last copy and the last stream viewing them are gone.
class SharedBuffer {
 public:
  SharedBuffer() = default;
  /// Shares `bytes`, which hold `size` bytes.
  SharedBuffer(std::shared_ptr<const uint8_t[]> bytes, size_t size)
      : bytes_(std::move(bytes)), size_(size) {}

  const uint8_t* data() const { return bytes_.get(); }
  size_t size() const { return size_; }
  std::span<const uint8_t> span() const { return {data(), size_}; }
  /// The handle that keeps the bytes alive.
  const std::shared_ptr<const uint8_t[]>& owner() const { return bytes_; }

 private:
  std::shared_ptr<const uint8_t[]> bytes_;
  size_t size_ = 0;
};

/// Bounds-checked little-endian deserializer over a byte span.
class BufferReader {
 public:
  /// A reader over borrowed bytes: spans it returns live only as long as
  /// the caller keeps `data` alive, so readers of it copy what they keep.
  explicit BufferReader(std::span<const uint8_t> data) : data_(data) {}
  /// A reader over `buffer` that lends its owner (see owner()).
  explicit BufferReader(const SharedBuffer& buffer)
      : data_(buffer.span()), owner_(buffer.owner()) {}

  /// Reads a fixed-width primitive into `out`.
  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > data_.size()) {
      return Status::Corruption("buffer truncated reading primitive");
    }
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  /// Reads a length-prefixed blob written by WriteBytes. The returned span
  /// aliases the underlying buffer.
  Status ReadBytes(std::span<const uint8_t>* out);

  /// Reads a length-prefixed string written by WriteString.
  Status ReadString(std::string* out);

  /// Reads a length-prefixed int64 array written by WriteInt64Array,
  /// leaving capacity for `spare` more values (a caller that appends).
  Status ReadInt64Array(std::vector<int64_t>* out, size_t spare = 0);

  /// Reads exactly `count` raw int64 values (no length prefix). Used by
  /// readers that already consumed the length — e.g. format sniffers
  /// that distinguish a legacy array length from an extension marker.
  Status ReadInt64Values(size_t count, std::vector<int64_t>* out);

  /// Reads a length-prefixed uint32 array written by WriteUint32Array,
  /// leaving capacity for `spare` more values.
  Status ReadUint32Array(std::vector<uint32_t>* out, size_t spare = 0);

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  /// The handle that keeps the bytes under the reader alive, or null for
  /// borrowed bytes. A stream that shares it may view a ReadBytes span
  /// instead of copying it.
  const std::shared_ptr<const uint8_t[]>& owner() const { return owner_; }

 private:
  // Validates a length prefix against the remaining bytes.
  Status ReadLength(size_t element_size, size_t* out_count);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  std::shared_ptr<const uint8_t[]> owner_;
};

}  // namespace corra

#endif  // CORRA_COMMON_BUFFER_H_
