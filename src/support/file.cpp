#include "support/file.h"

#include <fstream>
#include <sstream>

namespace hicsync::support {

bool read_file(const std::string& path, std::string* text,
               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *text = ss.str();
  return true;
}

bool write_file(const std::string& path, std::string_view body,
                std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !(out << body)) {
    if (error != nullptr) *error = "cannot write '" + path + "'";
    return false;
  }
  return true;
}

}  // namespace hicsync::support
