#include "encoding/encoded_column.h"

namespace corra::enc {

std::string_view SchemeToString(Scheme scheme) {
  switch (scheme) {
    case Scheme::kPlain:
      return "Plain";
    case Scheme::kBitPack:
      return "BitPack";
    case Scheme::kFor:
      return "FOR";
    case Scheme::kDict:
      return "Dict";
    case Scheme::kDelta:
      return "Delta";
    case Scheme::kRle:
      return "RLE";
    case Scheme::kDiff:
      return "Corra-Diff";
    case Scheme::kHierarchical:
      return "Corra-Hierarchical";
    case Scheme::kMultiRef:
      return "Corra-MultiRef";
    case Scheme::kC3Dfor:
      return "C3-DFOR";
    case Scheme::kC3Numerical:
      return "C3-Numerical";
    case Scheme::kC3OneToOne:
      return "C3-1to1";
  }
  return "Unknown";
}

Status EncodedColumn::BindReferences(
    std::span<const EncodedColumn* const> references) {
  if (!references.empty()) {
    return Status::InvalidArgument(
        "vertical scheme does not take references");
  }
  return Status::OK();
}

}  // namespace corra::enc
