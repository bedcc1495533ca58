#include "api/registry.h"

namespace sablock::api {

namespace {

/// `text` left-aligned in a field of `width` columns (printf's "%-Ns").
std::string Pad(const std::string& text, size_t width) {
  return text.size() >= width ? text
                              : text + std::string(width - text.size(), ' ');
}

}  // namespace

std::string FormatEntries(const std::vector<BlockerInfo>& infos) {
  std::string out;
  for (const BlockerInfo& info : infos) {
    std::string aliases;
    for (const std::string& alias : info.aliases) {
      aliases += aliases.empty() ? " (alias: " : ", ";
      aliases += alias;
    }
    if (!aliases.empty()) aliases += ")";
    out += "  " + Pad(info.name, 8) + aliases + "\n";
    out += "    " + info.summary + "\n";
    for (const ParamDoc& param : info.params) {
      const std::string& fallback =
          param.default_value.empty() ? "-" : param.default_value;
      out += "      " + Pad(param.name, 16) + " default=" + Pad(fallback, 6) +
             " " + param.help + "\n";
    }
  }
  return out;
}

}  // namespace sablock::api
