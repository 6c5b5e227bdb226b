// trace::chrome, the Trace Event Format pieces every Chrome-trace document
// in the toolchain is built from (simulation traces and hic-rt telemetry).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/json.h"
#include "trace/chrome.h"

namespace hicsync::trace {
namespace {

TEST(ChromeWriter, EventsRenderInTraceEventFormat) {
  EXPECT_EQ(chrome::process_name(1, "hic-rt"),
            R"({"name":"process_name","ph":"M","pid":1,)"
            R"("args":{"name":"hic-rt"}})");
  EXPECT_EQ(chrome::thread_name(2, 3, "bram0.A"),
            R"({"name":"thread_name","ph":"M","pid":2,"tid":3,)"
            R"("args":{"name":"bram0.A"}})");
  EXPECT_EQ(chrome::complete("S1", 10, 4, 1, 2),
            R"({"name":"S1","ph":"X","ts":10,"dur":4,"pid":1,"tid":2})");
  EXPECT_EQ(chrome::complete("run", 0, 1, 1, 1, R"({"ok":true})"),
            R"({"name":"run","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,)"
            R"("args":{"ok":true}})");
  EXPECT_EQ(chrome::instant("grant", 7, 2, 1, R"({"thread":"t1"})"),
            R"({"name":"grant","ph":"i","s":"t","ts":7,"pid":2,"tid":1,)"
            R"("args":{"thread":"t1"}})");
}

TEST(ChromeWriter, NamesAreEscaped) {
  EXPECT_NE(chrome::thread_name(1, 1, "a\"b").find(R"("name":"a\"b")"),
            std::string::npos);
  EXPECT_NE(chrome::complete("x\\y", 0, 1, 1, 1).find(R"("name":"x\\y")"),
            std::string::npos);
}

TEST(ChromeWriter, DocumentIsOneEventPerLineAndParses) {
  EXPECT_EQ(chrome::document({}),
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ns\"}\n");
  const std::string doc = chrome::document(
      {chrome::process_name(1, "p"), chrome::complete("s", 0, 2, 1, 1)});
  EXPECT_EQ(doc,
            "{\"traceEvents\":[\n" + chrome::process_name(1, "p") + ",\n" +
                chrome::complete("s", 0, 2, 1, 1) +
                "\n],\"displayTimeUnit\":\"ns\"}\n");
  support::JsonValue v;
  std::string error;
  ASSERT_TRUE(support::parse_json(doc, &v, &error)) << error;
  EXPECT_EQ(v.find("traceEvents")->elements.size(), 2u);
}

}  // namespace
}  // namespace hicsync::trace
