#include "common/units.hpp"

#include <cstdio>

namespace gnnie {

std::string format_sci(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, value);
  return buf;
}

}  // namespace gnnie
