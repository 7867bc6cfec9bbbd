#include "common/buffer.h"

namespace corra {

void BufferWriter::WriteBytes(std::span<const uint8_t> data) {
  Write<uint64_t>(data.size());
  const size_t old = bytes_.size();
  bytes_.resize(old + data.size());
  if (!data.empty()) {
    std::memcpy(bytes_.data() + old, data.data(), data.size());
  }
}

void BufferWriter::WriteString(std::string_view s) {
  WriteBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

void BufferWriter::WriteInt64Array(std::span<const int64_t> values) {
  Write<uint64_t>(values.size());
  const size_t old = bytes_.size();
  bytes_.resize(old + values.size() * sizeof(int64_t));
  if (!values.empty()) {
    std::memcpy(bytes_.data() + old, values.data(),
                values.size() * sizeof(int64_t));
  }
}

void BufferWriter::WriteUint32Array(std::span<const uint32_t> values) {
  Write<uint64_t>(values.size());
  const size_t old = bytes_.size();
  bytes_.resize(old + values.size() * sizeof(uint32_t));
  if (!values.empty()) {
    std::memcpy(bytes_.data() + old, values.data(),
                values.size() * sizeof(uint32_t));
  }
}

Status BufferReader::ReadLength(size_t element_size, size_t* out_count) {
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(Read(&count));
  if (element_size > 0 && count > remaining() / element_size) {
    return Status::Corruption("length prefix exceeds remaining bytes");
  }
  *out_count = static_cast<size_t>(count);
  return Status::OK();
}

Status BufferReader::ReadBytes(std::span<const uint8_t>* out) {
  size_t count = 0;
  CORRA_RETURN_NOT_OK(ReadLength(1, &count));
  *out = data_.subspan(pos_, count);
  pos_ += count;
  return Status::OK();
}

Status BufferReader::ReadString(std::string* out) {
  std::span<const uint8_t> bytes;
  CORRA_RETURN_NOT_OK(ReadBytes(&bytes));
  out->assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return Status::OK();
}

Status BufferReader::ReadInt64Array(std::vector<int64_t>* out,
                                    size_t spare) {
  size_t count = 0;
  CORRA_RETURN_NOT_OK(ReadLength(sizeof(int64_t), &count));
  out->reserve(count + spare);
  out->resize(count);
  if (count > 0) {
    std::memcpy(out->data(), data_.data() + pos_, count * sizeof(int64_t));
  }
  pos_ += count * sizeof(int64_t);
  return Status::OK();
}

Status BufferReader::ReadInt64Values(size_t count,
                                     std::vector<int64_t>* out) {
  if (count > remaining() / sizeof(int64_t)) {
    return Status::Corruption("int64 value count exceeds remaining bytes");
  }
  out->resize(count);
  if (count > 0) {
    std::memcpy(out->data(), data_.data() + pos_, count * sizeof(int64_t));
  }
  pos_ += count * sizeof(int64_t);
  return Status::OK();
}

Status BufferReader::ReadUint32Array(std::vector<uint32_t>* out,
                                     size_t spare) {
  size_t count = 0;
  CORRA_RETURN_NOT_OK(ReadLength(sizeof(uint32_t), &count));
  out->reserve(count + spare);
  out->resize(count);
  if (count > 0) {
    std::memcpy(out->data(), data_.data() + pos_, count * sizeof(uint32_t));
  }
  pos_ += count * sizeof(uint32_t);
  return Status::OK();
}

}  // namespace corra
