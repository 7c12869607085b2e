#include "window/window_spec.h"

namespace spear {

std::string WindowSpec::ToString() const {
  std::string out = type == WindowType::kTimeBased ? "time" : "count";
  out += IsTumbling() ? "-tumbling(" : "-sliding(";
  out += "range=" + std::to_string(range);
  if (!IsTumbling()) out += ", slide=" + std::to_string(slide);
  out += ")";
  return out;
}

std::string WindowBounds::ToString() const {
  // Appends rather than `"[" + std::to_string(...)`: GCC 12 -O3 raises a
  // false -Wrestrict on prepending to a temporary string.
  std::string out = "[";
  out += std::to_string(start);
  out += ", ";
  out += std::to_string(end);
  out += ")";
  return out;
}

}  // namespace spear
