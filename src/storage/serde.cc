#include "storage/serde.h"

#include "core/c3/dfor.h"
#include "core/c3/numerical.h"
#include "core/c3/one_to_one.h"
#include "core/diff_encoding.h"
#include "core/hierarchical_encoding.h"
#include "core/multi_ref_encoding.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/plain.h"
#include "encoding/rle.h"

namespace corra {

Result<std::unique_ptr<enc::EncodedColumn>> DeserializeEncodedColumn(
    BufferReader* reader) {
  uint8_t scheme_byte = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&scheme_byte));
  switch (static_cast<enc::Scheme>(scheme_byte)) {
    case enc::Scheme::kPlain: {
      CORRA_ASSIGN_OR_RETURN(auto col,
                             enc::PlainColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kBitPack: {
      CORRA_ASSIGN_OR_RETURN(auto col,
                             enc::BitPackColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kFor: {
      CORRA_ASSIGN_OR_RETURN(auto col, enc::ForColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kDict: {
      CORRA_ASSIGN_OR_RETURN(auto col, enc::DictColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kDelta: {
      // DeltaColumn::Deserialize sniffs all three wire layouts behind
      // this scheme byte: legacy out-of-band (fixed 128 interval), the
      // interval-marker extension, and the inline-checkpoint window
      // stream. The first two round-trip byte for byte; an inline column
      // is re-packed on read and writes back in the packed form.
      CORRA_ASSIGN_OR_RETURN(auto col,
                             enc::DeltaColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kRle: {
      CORRA_ASSIGN_OR_RETURN(auto col, enc::RleColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kDiff: {
      CORRA_ASSIGN_OR_RETURN(auto col,
                             DiffEncodedColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kHierarchical: {
      CORRA_ASSIGN_OR_RETURN(auto col,
                             HierarchicalColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kMultiRef: {
      CORRA_ASSIGN_OR_RETURN(auto col, MultiRefColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kC3Dfor: {
      CORRA_ASSIGN_OR_RETURN(auto col, c3::DforColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kC3Numerical: {
      CORRA_ASSIGN_OR_RETURN(auto col,
                             c3::NumericalColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
    case enc::Scheme::kC3OneToOne: {
      CORRA_ASSIGN_OR_RETURN(auto col,
                             c3::OneToOneColumn::Deserialize(reader));
      return std::unique_ptr<enc::EncodedColumn>(std::move(col));
    }
  }
  return Status::Corruption("unknown scheme byte " +
                            std::to_string(scheme_byte));
}

}  // namespace corra
