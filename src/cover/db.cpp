#include "cover/db.h"

#include "support/file.h"

namespace hicsync::cover {

std::string to_record(const CoverageModel& model, const std::string& run_id,
                      const std::string& organization) {
  support::JsonWriter w(/*indent=*/0);
  w.begin_object();
  w.key("schema").value(kCoverageSchemaVersion);
  w.key("run_id").value(run_id);
  w.key("organization").value(organization);
  w.key("groups").begin_array();
  for (const Covergroup* g : model.groups()) {
    w.begin_object();
    w.key("name").value(g->name());
    w.key("description").value(g->description());
    w.key("unexpected").value(static_cast<std::uint64_t>(g->unexpected()));
    w.key("bins").begin_array();
    for (const CoverBin& b : g->bins()) {
      w.begin_array().value(b.name).value(b.hits).end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool record_to_model(const support::JsonValue& record, CoverageModel* out,
                     std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (!record.is_object()) return fail("record is not an object");
  const support::JsonValue* schema = record.find("schema");
  if (schema == nullptr || !schema->is_number()) {
    return fail("record has no numeric 'schema' field");
  }
  if (static_cast<int>(schema->number_value) != kCoverageSchemaVersion) {
    return fail("unsupported coverage schema version " +
                std::to_string(static_cast<int>(schema->number_value)));
  }
  const support::JsonValue* groups = record.find("groups");
  if (groups == nullptr || !groups->is_array()) {
    return fail("record has no 'groups' array");
  }
  // Validate the whole record before mutating `out`.
  for (const support::JsonValue& g : groups->elements) {
    const support::JsonValue* name = g.find("name");
    const support::JsonValue* bins = g.find("bins");
    if (name == nullptr || !name->is_string() || bins == nullptr ||
        !bins->is_array()) {
      return fail("malformed group entry (need string 'name', array 'bins')");
    }
    for (const support::JsonValue& b : bins->elements) {
      if (!b.is_array() || b.elements.size() != 2 ||
          !b.elements[0].is_string() || !b.elements[1].is_number()) {
        return fail("malformed bin entry in group '" + name->string_value +
                    "' (need [\"name\", hits])");
      }
    }
  }
  for (const support::JsonValue& g : groups->elements) {
    const support::JsonValue* desc = g.find("description");
    Covergroup& dst = out->group(
        g.find("name")->string_value,
        desc != nullptr && desc->is_string() ? desc->string_value : "");
    for (const support::JsonValue& b : g.find("bins")->elements) {
      dst.declare(b.elements[0].string_value);
      const auto hits =
          static_cast<std::uint64_t>(b.elements[1].number_value);
      if (hits > 0) dst.hit(b.elements[0].string_value, hits);
    }
    const support::JsonValue* unexpected = g.find("unexpected");
    if (unexpected != nullptr && unexpected->is_number()) {
      dst.add_unexpected(
          static_cast<std::uint64_t>(unexpected->number_value));
    }
  }
  return true;
}

bool load_records(std::string_view text, CoverageModel* out,
                  std::string* error, int* records) {
  std::vector<support::JsonValue> values;
  if (!support::parse_jsonl(text, &values, error)) return false;
  int n = 0;
  for (const support::JsonValue& v : values) {
    std::string record_error;
    if (!record_to_model(v, out, &record_error)) {
      if (error != nullptr) {
        *error = "record " + std::to_string(n + 1) + ": " + record_error;
      }
      return false;
    }
    ++n;
  }
  if (records != nullptr) *records = n;
  return true;
}

bool load_file(const std::string& path, CoverageModel* out,
               std::string* error, int* records) {
  std::string text;
  if (!support::read_file(path, &text)) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::string prefixed_error;
  if (!load_records(text, out, &prefixed_error, records)) {
    if (error != nullptr) *error = path + ": " + prefixed_error;
    return false;
  }
  return true;
}

}  // namespace hicsync::cover
