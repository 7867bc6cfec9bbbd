#include "storage/block.h"

#include "core/hierarchical_encoding.h"
#include "storage/serde.h"

namespace corra {

namespace {
constexpr uint32_t kBlockMagic = 0x42524F43;  // "CORB" little-endian.
constexpr uint8_t kBlockVersion = 1;
}  // namespace

Status Block::BindAll(std::vector<BlockColumn>* columns) {
  const size_t n = columns->size();
  // Kahn-style fixpoint: bind a column once all its references are bound.
  // Vertical columns (no references) are bound from the start.
  std::vector<bool> bound(n, false);
  std::vector<std::vector<uint32_t>> refs(n);
  for (size_t i = 0; i < n; ++i) {
    refs[i] = (*columns)[i].encoded->ReferenceIndices();
    bound[i] = refs[i].empty();
    for (uint32_t r : refs[i]) {
      if (r >= n) {
        return Status::Corruption("reference index out of range");
      }
      if (r == i) {
        return Status::Corruption("column references itself");
      }
    }
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < n; ++i) {
      if (bound[i]) {
        continue;
      }
      bool ready = true;
      for (uint32_t r : refs[i]) {
        if (!bound[r]) {
          ready = false;
          break;
        }
      }
      if (!ready) {
        continue;
      }
      std::vector<const enc::EncodedColumn*> resolved;
      resolved.reserve(refs[i].size());
      for (uint32_t r : refs[i]) {
        resolved.push_back((*columns)[r].encoded.get());
      }
      CORRA_RETURN_NOT_OK((*columns)[i].encoded->BindReferences(resolved));
      bound[i] = true;
      progress = true;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!bound[i]) {
      return Status::Corruption("reference cycle among horizontal columns");
    }
  }
  return Status::OK();
}

Result<Block> Block::Build(std::vector<BlockColumn> columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("block needs at least one column");
  }
  const size_t rows = columns[0].encoded->size();
  for (const auto& c : columns) {
    if (c.encoded == nullptr) {
      return Status::InvalidArgument("null column in block");
    }
    if (c.encoded->size() != rows) {
      return Status::InvalidArgument("block columns differ in row count");
    }
  }
  if (rows > kMaxBlockRows) {
    return Status::InvalidArgument("block has more than 2^32 - 1 rows");
  }
  CORRA_RETURN_NOT_OK(BindAll(&columns));
  return Block(std::move(columns));
}

size_t Block::ColumnSizeBytes(size_t i) const {
  size_t bytes = columns_[i].encoded->SizeBytes();
  if (columns_[i].dict != nullptr) {
    bytes += columns_[i].dict->SizeBytes();
  }
  return bytes;
}

size_t Block::SizeBytes() const {
  size_t total = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    total += ColumnSizeBytes(i);
  }
  return total;
}

std::vector<uint8_t> Block::Serialize() const {
  BufferWriter writer;
  writer.Write<uint32_t>(kBlockMagic);
  writer.Write<uint8_t>(kBlockVersion);
  writer.Write<uint32_t>(static_cast<uint32_t>(columns_.size()));
  writer.Write<uint64_t>(rows());
  for (const auto& c : columns_) {
    writer.Write<uint8_t>(c.dict != nullptr ? 1 : 0);
    if (c.dict != nullptr) {
      c.dict->Serialize(&writer);
    }
    c.encoded->Serialize(&writer);
  }
  return std::move(writer).Finish();
}

Result<Block> Block::Deserialize(const SharedBuffer& bytes, bool verify) {
  BufferReader reader(bytes);
  return Deserialize(&reader, verify);
}

Result<Block> Block::Deserialize(std::span<const uint8_t> bytes,
                                 bool verify) {
  BufferReader reader(bytes);
  return Deserialize(&reader, verify);
}

Result<Block> Block::Deserialize(BufferReader* reader, bool verify) {
  uint32_t magic = 0;
  uint8_t version = 0;
  uint32_t column_count = 0;
  uint64_t rows = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&magic));
  if (magic != kBlockMagic) {
    return Status::Corruption("bad block magic");
  }
  CORRA_RETURN_NOT_OK(reader->Read(&version));
  if (version != kBlockVersion) {
    return Status::Corruption("unsupported block version");
  }
  CORRA_RETURN_NOT_OK(reader->Read(&column_count));
  CORRA_RETURN_NOT_OK(reader->Read(&rows));
  if (column_count == 0) {
    return Status::Corruption("block without columns");
  }
  if (rows > kMaxBlockRows) {
    return Status::Corruption("block has more than 2^32 - 1 rows");
  }
  std::vector<BlockColumn> columns;
  columns.reserve(column_count);
  for (uint32_t i = 0; i < column_count; ++i) {
    BlockColumn column;
    uint8_t has_dict = 0;
    CORRA_RETURN_NOT_OK(reader->Read(&has_dict));
    if (has_dict == 1) {
      CORRA_ASSIGN_OR_RETURN(auto dict,
                             enc::StringDictionary::Deserialize(reader));
      column.dict =
          std::make_shared<enc::StringDictionary>(std::move(dict));
    } else if (has_dict != 0) {
      return Status::Corruption("bad dictionary flag");
    }
    CORRA_ASSIGN_OR_RETURN(column.encoded, DeserializeEncodedColumn(reader));
    if (column.encoded->size() != rows) {
      return Status::Corruption("column row count disagrees with header");
    }
    columns.push_back(std::move(column));
  }
  CORRA_RETURN_NOT_OK(BindAll(&columns));
  Block block(std::move(columns));
  if (verify) {
    for (size_t i = 0; i < block.num_columns(); ++i) {
      if (block.column(i).scheme() == enc::Scheme::kHierarchical) {
        const auto& h =
            static_cast<const HierarchicalColumn&>(block.column(i));
        CORRA_RETURN_NOT_OK(h.VerifyWithReference());
      }
    }
  }
  return block;
}

}  // namespace corra
